"""Golden determinism check: one sha256 over seeded certificates and edge
lists.  Certificates are documented to be byte-identical across runs and
across refactors, so any change to a finder's choices, a certificate's
JSON form or the edge-list format moves this digest."""

import ast
import hashlib
import inspect
import json
import math
import random
from functools import cache

import pytest

from graph_cases import complete_bipartite, cycle_graph, path_graph, suite_run
from induced_trees import (
    Graph,
    OracleBudget,
    find_large_tree,
    find_tree,
    find_tree_kr_free,
    find_tree_triangle_free,
    format_edge_list,
    is_connected,
    max_induced_tree_exact,
    max_tree_through_vertex_exact,
    reroute_through_vertex,
    solve_exact,
)
from induced_trees import admissible, finders
from induced_trees.bench import (
    _sample_roots,
    connected_ensemble,
    instance_ensemble,
    kr_free_ensemble,
    triangle_free_ensemble,
)
from induced_trees.generators import (
    line_graph_balanced_tree,
    ms_layered,
    ms_through_vertex,
    random_kr_free,
    random_triangle_free,
)

# For r >= 4 each certificate's claimed_bound is ln(n)/(4 ln r) + 1 as
# glibc's `log` rounds it, so this digest pins those digits too; no step
# decision reads a `log` (the guards at the end of this file).
GOLDEN_SHA256 = "0512babea614ce8e1ccbf20ed7edf2a97aad55b243b5d281b07c1ee94faf5bea"


def _digest(records) -> str:
    """sha256 over the records, each followed by a newline."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _records():
    """Yield one text line per pinned output, in a fixed order."""
    for m in range(3, 16):
        g = ms_layered(m)
        yield format_edge_list(g)
        for v in range(g.n):
            yield find_tree_triangle_free(g, v).to_json()
    for _, g in triangle_free_ensemble(1, 120):
        yield format_edge_list(g)
        for v in _sample_roots(g.n):
            yield find_tree_triangle_free(g, v).to_json()
    for r in (4, 5):
        graphs = [g for _, g in kr_free_ensemble(1 + r, r, 80)]
        graphs += [line_graph_balanced_tree(r, depth) for depth in (2, 3, 4)]
        for g in graphs:
            yield format_edge_list(g)
            for v in _sample_roots(g.n):
                yield find_tree_kr_free(g, v, r).to_json()
    graphs = [cycle_graph(n) for n in range(3, 13)]
    graphs += [g for _, g in connected_ensemble(1, 60)]
    for g in graphs:
        yield format_edge_list(g)
        base = find_large_tree(g)
        yield base.to_json()
        for v in range(g.n):
            yield reroute_through_vertex(g, base, v).to_json()


def test_seeded_outputs_match_golden_digest():
    assert _digest(_records()) == GOLDEN_SHA256


# GOLDEN_SHA256 reaches only ms_layered(15) and depth-4 line graphs; this
# digest pins the tight families' edge lists up to the benchmark's sizes:
# the layered chains to m = 30 and the line graphs to depth 10 (r = 4)
# and 6 (r = 5).
TIGHT_FAMILIES_SHA256 = "ba34092367a9f0b32e7ea83c68210dec11787cf02c845e9fc4ff711e3f871f84"


def _tight_family_records():
    for m in range(16, 31):
        yield format_edge_list(ms_layered(m))
    for m in range(6, 31):
        yield format_edge_list(ms_through_vertex(m)[0])
    for r, depths in ((4, range(5, 11)), (5, range(5, 7))):
        for depth in depths:
            yield format_edge_list(line_graph_balanced_tree(r, depth))


def test_tight_family_edge_lists_match_golden_digest():
    assert _digest(_tight_family_records()) == TIGHT_FAMILIES_SHA256


# The golden digest above reaches only graphs of at most 200 vertices; this
# one pins the random generators on their large sparse inputs (the sizes the
# benchmark and the CLI examples use) and on dense small inputs, where the
# clique repair does most of the work.
GENERATOR_SHA256 = "5bfe22d34442b9df52ac01543b9667b21a4f86b362bb68f2b6aa19be24a8f985"


@cache
def _large_random_graphs():
    """The seeded large sparse graphs: triangle-free at n = 1000, 2000 and
    3000, then K_r-free at n = 2000 for r = 4 and 5."""
    triangle_free = [random_triangle_free(n, 4.0 / n, n) for n in (1000, 2000, 3000)]
    kr_free = [random_kr_free(2000, r, 3.0 / 2000, r) for r in (4, 5)]
    return triangle_free, kr_free


def _generator_records():
    triangle_free, kr_free = _large_random_graphs()
    for g in triangle_free + kr_free:
        yield format_edge_list(g)
    for r in range(3, 7):
        for n in (12, 30, 60):
            for p in (0.5, 0.8, 1.0):
                yield format_edge_list(random_kr_free(n, r, p, 100 * r + n))


def test_generator_outputs_match_golden_digest():
    assert _digest(_generator_records()) == GENERATOR_SHA256


# Certificates on the large inputs the benchmark runs (up to 3069
# vertices), where the finders' masks are thousands of bits wide; the
# golden digest above never leaves small ints.
LARGE_SHA256 = "c80b0796625fe7f68551637fe1c47d6bbff8eb4561ab18dc891f0d48d2acfe10"


def _large_records():
    triangle_free, kr_free = _large_random_graphs()
    for g in triangle_free:
        for v in _sample_roots(g.n):
            yield find_tree_triangle_free(g, v).to_json()
    for g in (path_graph(1500), cycle_graph(1500)):
        yield find_tree_triangle_free(g, 0).to_json()
    for r, g in [(4, line_graph_balanced_tree(4, 10))] + list(zip((4, 5), kr_free)):
        for v in _sample_roots(g.n):
            yield find_tree_kr_free(g, v, r).to_json()


def test_large_input_certificates_match_golden_digest():
    assert _digest(_large_records()) == LARGE_SHA256


# Every bench suite's rows at seed 1, timings dropped: the bounds each row
# requires and achieves and its verdict.  A refactor of the row builders
# must leave them byte-identical.
BENCH_ROWS_SHA256 = "6c1f00f3ade05ad80d0efa8484bb9c8bc85f803fe13e6a6dd9f0c7e26474f2bd"

_BENCH_COUNTS = {"triangle-free": 20, "kr-free": 20, "admissible": 200, "claim": 50}


def _bench_records(suites):
    for suite, count in suites.items():
        for row in suite_run(suite, 1, count)[0]:
            yield json.dumps({k: v for k, v in row.items() if k != "wall_time_ms"}, sort_keys=True)


def test_bench_rows_match_golden_digest():
    assert _digest(_bench_records(_BENCH_COUNTS)) == BENCH_ROWS_SHA256


# The tightness suite's rows, timings dropped: the exact maxima of the
# extremal families, each beside the finder's worst root.  It draws
# nothing, so it has no count.
TIGHTNESS_SHA256 = "d2e3a87d1a8b5dc26dc1642533de25bfb44af04fd20b08cc86f6c16c0d9e7921"


def test_tightness_rows_match_golden_digest():
    assert _digest(_bench_records({"tightness": None})) == TIGHTNESS_SHA256


# Every solve_exact selection on the seeded weighted instances: the
# optimum at alpha 0.5 and 1.0, then the first selection reaching
# sqrt(total weight).  A rewrite of the exact search must keep its
# pre-order and tie-break, so these stay byte-identical.
EXACT_SHA256 = "3dd68f4acda6011a2f1a95bdece9f595c41b45966728a2a0aca1389de11442f8"


def _exact_records():
    for _, inst in instance_ensemble(1, 1000):
        runs = [{"alpha": 0.5}, {"alpha": 1.0}, {"target": math.sqrt(inst.total_weight())}]
        for kwargs in runs:
            sel = solve_exact(inst, **kwargs)
            yield f"{sorted(sel.a_chosen)} {sorted(sel.b_chosen)} {sel.value!r}"


def test_exact_selections_match_golden_digest():
    assert _digest(_exact_records()) == EXACT_SHA256


# Every exact tree maximum with its witness, on dense connected graphs of
# 20 to 30 vertices and on the layered extremal graphs.  A faster tree
# search must keep its pre-order and "first maximum wins", so the witnesses
# stay byte-identical, not just the sizes.
ORACLE_SHA256 = "cbaeffbc87e96ae148a69c03524d82527a39e810ed3085a86e709c7a87812293"


def _connected_gnp(seed: int) -> Graph:
    """A connected G(n, p) with n in 20..30 and p in 0.3..0.5, redrawn from
    the same generator until connected."""
    rng = random.Random(seed)
    while True:
        n, p = rng.randint(20, 30), rng.uniform(0.3, 0.5)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if is_connected(g):
            return g


def _oracle_records():
    budget = OracleBudget(max_vertices=30)
    graphs = [_connected_gnp(seed) for seed in range(40)]
    graphs += [ms_layered(m) for m in range(2, 6)]
    for g in graphs:
        size, witness = max_induced_tree_exact(g, budget)
        yield f"{size} {sorted(witness)}"
    for m in range(2, 6):
        g, v = ms_through_vertex(m)
        size, witness = max_tree_through_vertex_exact(g, v, budget)
        yield f"{size} {sorted(witness)}"


def test_oracle_witnesses_match_golden_digest():
    assert _digest(_oracle_records()) == ORACLE_SHA256


@pytest.mark.parametrize("r", [4, 5, 6])
@pytest.mark.parametrize("towards", [math.inf, -math.inf])
def test_the_ramsey_size_does_not_rest_on_log(monkeypatch, r, towards):
    # At the root of K_{1,r^4}, ln(n)/(4 ln r) is exactly 1 at n = r^4, so a
    # `log` one ulp off there would ask Ramsey extraction for 2 leaves, not
    # 1.  Only the claimed bound may read the changed `log`.
    expected = find_tree(complete_bipartite(1, r ** 4), 0, r)
    real_log = math.log

    def off_by_one_ulp(x, *base):
        value = real_log(x, *base)
        return math.nextafter(value, towards) if x == r ** 4 and not base else value

    monkeypatch.setattr(finders.math, "log", off_by_one_ulp)
    cert = find_tree(complete_bipartite(1, r ** 4), 0, r)
    assert (cert.vertices, cert.strategy) == (expected.vertices, "ramsey-star")


def _kr_free_cases():
    """(r, graph, roots): the kr-free bench suite's graphs at seed 1 and
    count 20 at its roots, then the K_r-free inputs of LARGE_SHA256."""
    for r in (4, 5):
        graphs = [line_graph_balanced_tree(r, depth) for depth in (2, 3, 4)]
        graphs += [g for _, g in kr_free_ensemble(1 + r, r, _BENCH_COUNTS["kr-free"])]
        for g in graphs:
            yield r, g, _sample_roots(g.n)
    _, kr_free = _large_random_graphs()
    for r, g in [(4, line_graph_balanced_tree(4, 10))] + list(zip((4, 5), kr_free)):
        yield r, g, _sample_roots(g.n)


def _kr_free_trees():
    """Each case's (vertex set, strategy) per root, on a fresh copy of its
    graph, so no finder cache carries over from another run."""
    trees = []
    for r, g, roots in _kr_free_cases():
        fresh = Graph(g.n, g.edges)
        trees.append([(cert.vertices, cert.strategy) for cert in (find_tree(fresh, v, r) for v in roots)])
    return trees


@pytest.mark.parametrize("towards", [math.inf, -math.inf])
def test_no_kr_free_certificate_rests_on_log(monkeypatch, towards):
    # Every `log` one ulp off: only the claimed bounds may move.
    expected = _kr_free_trees()
    real_log = math.log
    monkeypatch.setattr(finders.math, "log", lambda *args: math.nextafter(real_log(*args), towards))
    assert _kr_free_trees() == expected


# The functions that make the finders' step decisions.  Each decision is an
# integer test or a correctly rounded sqrt or fsum, never libm's `log`,
# `exp` or `pow`: every `**` has an integer literal exponent, and
# theorem_bound, whose `log` writes only the claimed bound, is not called.
STEP_FUNCTIONS = [
    (finders, "_tf"),
    (finders, "_kr"),
    (finders, "_split"),
    (finders, "_select_attached"),
    (admissible, "select_weighted"),
    (admissible, "select_uniform"),
]


@pytest.mark.parametrize("module, name", STEP_FUNCTIONS, ids=[name for _, name in STEP_FUNCTIONS])
def test_step_decisions_read_no_libm_log_exp_or_pow(module, name):
    found = []
    for node in ast.walk(ast.parse(inspect.getsource(getattr(module, name)))):
        if isinstance(node, ast.Attribute) and node.attr in ("log", "exp", "pow"):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id in ("theorem_bound", "pow"):
            found.append(node.id)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
            if not (isinstance(exponent, ast.Constant) and type(exponent.value) is int):
                found.append(ast.unparse(node))
    assert found == []
