"""The four benchmark workloads: seeded inputs, the ops that drive the
package's public functions, and an independent check of every result.

A workload's `setup(seed, workdir, scale)` builds its inputs with the
package's generators and writes them out as edge-list or instance JSON
text (files for the CLI).  `ops(inputs)` yields the ops of one pass.
Every pass re-parses its graphs, so per-graph caches start cold in each
pass and every pass does the same work.  An op is a timed call plus an
untimed check; the check never trusts the package's own verifier alone.

Failure kinds: "exception:<type>", "timeout", "verification", "bound",
"oracle" and "cli-exit-<code>".  WRONG_OUTPUT lists the kinds where the
package returned an answer that is wrong, as opposed to returning none.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from induced_trees import admissible, bench, cli, finders, generators, graph, oracle

EPS = 1e-9
WRONG_OUTPUT = frozenset({"verification", "bound", "oracle", "cli-exit-1"})


class Checked(NamedTuple):
    failure: Optional[str]
    cert: Optional[str] = None     # canonical JSON, part of the run digest
    ratio: Optional[float] = None  # tree size / the bound the op must meet


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    check: Callable[[object], Checked]


@dataclass(frozen=True)
class Workload:
    name: str
    op_limit_s: float
    setup: Callable
    ops: Callable[[dict], Iterator[Op]]
    full: dict = field(default_factory=dict)
    toy: dict = field(default_factory=dict)


# ----------------------------------------------------------------- checks

def ref_adjacency(text: str) -> list[set[int]]:
    """Adjacency sets parsed from edge-list text without the package."""
    lines = text.split("\n")
    n, m = (int(x) for x in lines[0].split())
    adj = [set() for _ in range(n)]
    for line in lines[1:m + 1]:
        u, v = (int(x) for x in line.split())
        adj[u].add(v)
        adj[v].add(u)
    return adj


def tree_failure(adj, vertices, root, need: float) -> Optional[str]:
    """None if `vertices` induce a tree containing `root` with at least
    `need` vertices in the graph `adj`, else the failure kind."""
    vs = set(vertices)
    if (not vs or root not in vs
            or any(type(x) is not int or not 0 <= x < len(adj) for x in vs)):
        return "verification"
    if sum(len(adj[x] & vs) for x in vs) != 2 * (len(vs) - 1):
        return "verification"
    seen, stack = {root}, [root]
    while stack:
        for y in adj[stack.pop()] & vs:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(vs):
        return "verification"
    if len(vs) < need - EPS:
        return "bound"
    return None


def ceil_sqrt(x: int) -> int:
    root = math.isqrt(x)
    return root if root * root == x else root + 1


def spaced(n: int, k: int) -> list[int]:
    """k roots spread evenly over 0..n-1.  Fixed positions keep the cost
    of a large graph's ops from swinging with the seed."""
    return sorted({(2 * i + 1) * n // (2 * k) for i in range(k)})


def kr_need(n: int, r: int) -> float:
    return math.log(n) / (4.0 * math.log(r))


def _find_and_verify(g, v, r):
    if r == 3:
        cert = finders.find_tree_triangle_free(g, v)
    else:
        cert = finders.find_tree_kr_free(g, v, r)
    return cert, finders.verify_certificate(g, cert)


def _check_finder(adj, v, need, result) -> Checked:
    cert, verified = result
    failure = None if verified and cert.root == v else "verification"
    failure = failure or tree_failure(adj, cert.vertices, v, need)
    return Checked(failure, cert.to_json(), len(cert.vertices) / need)


def _finder_ops(entries, rng, r_of=lambda entry: 3) -> Iterator[Op]:
    """One op per (graph, root): find, then the package's verifier."""
    for entry in entries:
        g = graph.parse_edge_list(entry["text"])
        r = r_of(entry)
        roots = list(entry["roots"])
        rng.shuffle(roots)
        for v in roots:
            yield Op(f"{entry['name']}@{v}", partial(_find_and_verify, g, v, r),
                     partial(_check_finder, entry["adj"], v, entry["need"]))


def _graph_entry(name: str, g, roots, need: float, **extra) -> dict:
    return dict(name=name, text=graph.format_edge_list(g), roots=list(roots),
                need=need, **extra)


# ------------------------------------------------------------- tf-layered

def tf_layered_setup(seed: int, workdir: Path, scale: dict) -> dict:
    entries = []
    for m in range(3, scale["max_m"] + 1):
        g = generators.ms_layered(m)
        entries.append(_graph_entry(f"ms_layered({m})", g, range(g.n), float(m)))
    return {"seed": seed, "graphs": entries}


def tf_layered_ops(inputs: dict) -> Iterator[Op]:
    # The family is fixed; the seed only orders the roots.
    return _finder_ops(inputs["graphs"], random.Random(inputs["seed"]))


# --------------------------------------------------------- tf-sparse-deep

def tf_sparse_setup(seed: int, workdir: Path, scale: dict) -> dict:
    graphs = []
    for n in scale["random_n"]:
        # A fixed generator seed, as the chains are fixed: op times on one
        # draw of these graphs differ from the next by up to a third, and a
        # pass has only 15 ops.  The run's seed orders the ops.
        g = generators.random_triangle_free(n, 4.0 / n, n)
        # Spaced roots skip vertex 0, which collects the bridges between
        # components and so is a star root far more often than the rest.
        graphs.append((f"random_triangle_free({n})", g, spaced(n, 3)))
    for n in scale["chain_n"]:
        graphs.append((f"cycle({n})", graph.Graph(n, [(i, (i + 1) % n) for i in range(n)]), [0]))
        graphs.append((f"path({n})", graph.Graph(n, [(i, i + 1) for i in range(n - 1)]), [0]))
    entries = []
    for name, g, roots in graphs:
        entry = _graph_entry(name, g, roots, float(ceil_sqrt(g.n)))
        path = workdir / f"{name}.txt"
        path.write_text(entry["text"], encoding="utf-8", newline="\n")
        entry["path"] = str(path)
        entries.append(entry)
    return {"seed": seed, "graphs": entries}


def _cli_find(path: str, v: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["find", path, "--root", str(v)])
    return code, out.getvalue()


def _check_cli(adj, v, need, result) -> Checked:
    code, text = result
    if code != 0:
        return Checked(f"cli-exit-{code}")
    report = json.loads(text.strip().splitlines()[-1])
    cert = report["certificate"]
    failure = None if report["verified"] is True and cert["root"] == v else "verification"
    failure = failure or tree_failure(adj, cert["vertices"], v, need)
    return Checked(failure, json.dumps(cert, sort_keys=True), len(cert["vertices"]) / need)


def tf_sparse_ops(inputs: dict) -> Iterator[Op]:
    ops = [Op(f"cli-find:{entry['name']}@{v}", partial(_cli_find, entry["path"], v),
              partial(_check_cli, entry["adj"], v, entry["need"]))
           for entry in inputs["graphs"] for v in entry["roots"]]
    random.Random(inputs["seed"]).shuffle(ops)
    return iter(ops)


# --------------------------------------------------------------- kr-mixed

CRITERION_04_SEED = 1  # the acceptance tests' SEED: their ensemble is kr_free_ensemble(1 + r, r)


def kr_mixed_setup(seed: int, workdir: Path, scale: dict) -> dict:
    entries = []
    for r in (4, 5):
        # The criterion-04 ensemble itself, the same for every run: the
        # median op time differs by a fifth from one draw of the ensemble
        # to the next.  The run's seed orders the ops.
        small = list(bench.kr_free_ensemble(CRITERION_04_SEED + r, r, scale["ensemble"]))
        small += [(f"line_graph({r},{d})", generators.line_graph_balanced_tree(r, d))
                  for d in (2, 3, 4)]
        for name, g in small:
            entries.append(_graph_entry(name, g, sorted({0, g.n // 2, g.n - 1}),
                                        kr_need(g.n, r), r=r))
        large = [(f"line_graph({r},{scale['line_depth'][r]})",
                  generators.line_graph_balanced_tree(r, scale["line_depth"][r]))]
        # A fixed generator seed, as the line graphs are fixed: the mean
        # finder time per root differs threefold from one draw of this
        # graph to the next, which would swamp any comparison of runs.
        n = scale["random_n"]
        large.append((f"random_kr_free({n},{r})",
                       generators.random_kr_free(n, r, 3.0 / n, r)))
        for name, g in large:
            entries.append(_graph_entry(name, g, spaced(g.n, scale["large_roots"]),
                                        kr_need(g.n, r), r=r))
    return {"seed": seed, "graphs": entries}


def kr_mixed_ops(inputs: dict) -> Iterator[Op]:
    return _finder_ops(inputs["graphs"], random.Random(inputs["seed"]),
                       r_of=lambda entry: entry["r"])


# ------------------------------------------------------------- exact-desk

EXACT_SIZES = Path(__file__).with_name("exact_sizes.json")


def desk_graph(cell: int) -> graph.Graph:
    """The exact-desk graph of grid cell `cell`: a connected G(n, p) with n
    in 20..30 and p in 0.3..0.5.  The graphs are the same for every seed,
    because the cost of an exact search swings widely from one graph to
    the next, even at equal n and p.  They are built here, not by the
    package's generators, so that the maxima recorded in exact_sizes.json
    stay valid whatever the package does."""
    n, p = 20 + cell % 11, 0.3 + 0.2 * (cell // 11 % 4) / 3
    rng = random.Random(cell)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    comp = list(range(n))  # union-find, to join the components by a path

    def find(x):
        while comp[x] != x:
            comp[x] = x = comp[comp[x]]
        return x

    for u, v in edges:
        comp[find(u)] = find(v)
    lowest: dict[int, int] = {}
    for x in range(n):
        lowest.setdefault(find(x), x)
    lows = sorted(lowest.values())
    edges += list(zip(lows, lows[1:]))
    return graph.Graph(n, edges)


def exact_desk_setup(seed: int, workdir: Path, scale: dict) -> dict:
    rng = random.Random(seed)
    sizes = json.loads(EXACT_SIZES.read_text())["sizes"]
    graphs = []
    for cell in range(scale["graphs"]):
        g = desk_graph(cell)
        graphs.append(_graph_entry(f"desk({cell})", g, range(g.n), 0.0, expect=sizes[cell]))
    for m in range(2, 6):
        graphs.append(_graph_entry(f"ms_layered({m})", generators.ms_layered(m),
                                   range(m * m), 0.0, expect=2 * m - 1))
    through = []
    for m in range(2, 6):
        g, v = generators.ms_through_vertex(m)
        through.append(_graph_entry(f"ms_through_vertex({m})", g, [v], 0.0, expect=m))
    instances = []
    for idx in range(scale["instances"]):
        # The sizes follow idx, not the seed, so that the seed moves weights
        # and neighbour sets but not the cost of the naive enumeration.
        a = 1 + idx % 16  # every A-side size up to 16 in equal numbers
        items = [(rng.uniform(0.0, 1.0), rng.sample(range(a), rng.randint(1, a)))
                 for _ in range(1 + idx % 20)]
        text = admissible.WeightedBipartiteInstance(a, items).to_json()
        instances.append({"name": f"instance({a})#{idx}", "json": text})
    return {"graphs": graphs, "through": through, "instances": instances}


BUDGET = dict(max_vertices=30, max_a_side=16, time_limit=600.0)


def _check_exact(adj, root, expect, state, result) -> Checked:
    """An exact maximum: its witness is an induced tree of the reported
    size (through `root` when given), and the size is `expect`, the
    maximum known for this graph."""
    size, witness = result
    state["size"], state["witness"] = size, witness
    vs = sorted(witness)
    if root is None:
        root = vs[0] if vs else -1
    failure = tree_failure(adj, vs, root, 0) if len(vs) == size else "oracle"
    if size != expect:
        failure = failure or "oracle"
    return Checked(failure, json.dumps({"size": size, "witness": vs}))


def _reroute(g, state, v):
    base = finders.TreeCertificate(frozenset(state["witness"]), min(state["witness"]),
                                   float(state["size"]), "oracle")
    cert = finders.reroute_through_vertex(g, base, v)
    return cert, finders.verify_certificate(g, cert)


def _selection_json(sel) -> str:
    return json.dumps({"a": sorted(sel.a_chosen), "b": sorted(sel.b_chosen),
                       "value": repr(sel.value)})


def _selection_failure(inst, sel) -> Optional[str]:
    """Admissibility and the recorded value, recomputed here."""
    a = set(sel.a_chosen)
    if not a or any(not 0 <= x < inst.a_count for x in a):
        return "verification"
    for i in sel.b_chosen:
        if len(a.intersection(inst.b_items[i].nbrs)) != 1:
            return "verification"
    value = math.fsum(math.sqrt(inst.b_items[i].weight) for i in sel.b_chosen)
    if abs(value - sel.value) > 1e-12 * max(1.0, abs(value)):
        return "verification"
    return None


def _parse_and_solve(text):
    inst = admissible.WeightedBipartiteInstance.from_json(text)
    return inst, admissible.solve_exact(inst, alpha=0.5)


def _check_solve(state, result) -> Checked:
    state["inst"], sel = result
    state["exact"] = sel.value
    return _check_weighted(state, sel)


def _check_naive(state, sel) -> Checked:
    failure = _selection_failure(state["inst"], sel)
    if not math.isclose(sel.value, state["exact"], rel_tol=1e-12, abs_tol=1e-12):
        failure = failure or "oracle"
    return Checked(failure, _selection_json(sel))


def _check_weighted(state, sel) -> Checked:
    inst = state["inst"]
    failure = _selection_failure(inst, sel)
    if sel.value < math.sqrt(inst.total_weight()) - EPS:
        failure = failure or "bound"
    return Checked(failure, _selection_json(sel))


def _check_uniform(state, sel) -> Checked:
    inst = state["inst"]
    failure = _selection_failure(inst, sel)
    if len(sel.b_chosen) < ceil_sqrt(inst.b_count):
        failure = failure or "bound"
    return Checked(failure, _selection_json(sel))


def exact_desk_ops(inputs: dict) -> Iterator[Op]:
    budget = oracle.OracleBudget(**BUDGET)
    for entry in inputs["graphs"]:
        g = graph.parse_edge_list(entry["text"])
        state: dict = {}
        yield Op(f"exact:{entry['name']}", partial(oracle.max_induced_tree_exact, g, budget),
                 partial(_check_exact, entry["adj"], None, entry["expect"], state))
        for v in entry["roots"]:
            # Rerouting keeps at least 1 + t/2 of the maximum tree t.
            need = 1 + state.get("size", 0) / 2
            yield Op(f"reroute:{entry['name']}@{v}", partial(_reroute, g, state, v),
                     partial(_check_finder, entry["adj"], v, need))
    for entry in inputs["through"]:
        g = graph.parse_edge_list(entry["text"])
        v = entry["roots"][0]
        yield Op(f"through:{entry['name']}",
                 partial(oracle.max_tree_through_vertex_exact, g, v, budget),
                 partial(_check_exact, entry["adj"], v, entry["expect"], {}))
    for entry in inputs["instances"]:
        state = {}
        name = entry["name"]
        yield Op(f"solve_exact:{name}", partial(_parse_and_solve, entry["json"]),
                 partial(_check_solve, state))
        inst = state.get("inst")
        yield Op(f"naive:{name}", partial(oracle.admissible_naive, inst, 0.5, budget),
                 partial(_check_naive, state))
        yield Op(f"weighted:{name}", partial(admissible.select_weighted, inst),
                 partial(_check_weighted, state))
        yield Op(f"uniform:{name}", partial(admissible.select_uniform, inst),
                 partial(_check_uniform, state))


# Each per-op limit is several times the slowest op that completes at the
# seed, so only a real hang times out.  A failed op scores twice the limit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tf-layered",
            1.0, tf_layered_setup, tf_layered_ops,
            full={"max_m": 30}, toy={"max_m": 5}),
        Workload(
            "tf-sparse-deep",
            10.0, tf_sparse_setup, tf_sparse_ops,
            full={"random_n": (1000, 2000, 3000), "chain_n": (500, 900, 1500)},
            toy={"random_n": (60,), "chain_n": (30,)}),
        Workload(
            "kr-mixed",
            2.0, kr_mixed_setup, kr_mixed_ops,
            full={"ensemble": 200, "line_depth": {4: 10, 5: 6}, "random_n": 2000,
                  "large_roots": 20},
            toy={"ensemble": 4, "line_depth": {4: 4, 5: 3}, "random_n": 60,
                 "large_roots": 3}),
        Workload(
            "exact-desk",
            10.0, exact_desk_setup, exact_desk_ops,
            full={"graphs": 44, "instances": 128}, toy={"graphs": 2, "instances": 4}),
    )
}


def add_references(inputs: dict) -> None:
    """Attach reference adjacency to every graph; kept out of the timed set-up."""
    for key in ("graphs", "through"):
        for entry in inputs.get(key, []):
            entry["adj"] = ref_adjacency(entry["text"])
