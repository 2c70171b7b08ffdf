"""Reproducible benchmark suites: seeded ensembles plus row builders.

Each suite emits one row per (instance, algorithm) with the bound the
theory requires, the bound achieved, and an in-process re-verification
verdict, all from one timed check (_row).  Finder and claim rows judge
every certificate by the same verdict as `find` (finders._report_failure),
which also requires the requested root; admissible rows re-check every
selection with AdmissibleSelection.check before its value counts.  Rows
are deterministic given the seed except for the wall-time column.  The
acceptance tests assert over these rows, so the CLI tables and the test
suite reach their verdicts through the same code.
"""

from __future__ import annotations

import logging
import math
import operator
import random
import time
from functools import partial
from typing import Callable, Iterator, Optional

from . import finders, generators, oracle
from .admissible import (
    DEFAULT_EXHAUSTION_LIMIT,
    LEMMA_SLACK,
    AdmissibleSelection,
    WeightedBipartiteInstance,
    _ceil_sqrt,
    select_uniform,
    select_weighted,
    solve_exact,
)
from .graph import Graph, is_induced_tree

log = logging.getLogger(__name__)

ROW_FIELDS = (
    "suite",
    "instance",
    "algorithm",
    "n",
    "r",
    "relation",
    "bound_required",
    "bound_achieved",
    "verified",
    "wall_time_ms",
)


def triangle_free_ensemble(seed: int, count: int = 500) -> Iterator[tuple[str, Graph]]:
    """Seeded connected triangle-free graphs, n in [2, 60]."""
    rng = random.Random(seed)
    for idx in range(count):
        n = rng.randint(2, 60)
        p = rng.uniform(0.0, 0.3)
        yield f"random-triangle-free[{idx}](n={n})", generators.random_triangle_free(
            n, p, rng.randrange(2 ** 32)
        )


def kr_free_ensemble(seed: int, r: int, count: int = 200) -> Iterator[tuple[str, Graph]]:
    """Seeded connected K_r-free graphs, n <= 200 (sparser as n grows so
    clique repair stays cheap)."""
    rng = random.Random(seed)
    for idx in range(count):
        n = rng.randint(5, 200)
        p = rng.uniform(0.0, min(1.0, 10.0 / n))
        yield f"random-kr-free[{idx}](n={n},r={r})", generators.random_kr_free(
            n, r, p, rng.randrange(2 ** 32)
        )


def connected_ensemble(seed: int, count: int = 200) -> Iterator[tuple[str, Graph]]:
    """Seeded connected graphs with no clique constraint (clique threshold
    above n disables deletion), n in [2, 14]."""
    rng = random.Random(seed)
    for idx in range(count):
        n = rng.randint(2, 14)
        p = rng.uniform(0.1, 0.9)
        yield f"random-connected[{idx}](n={n})", generators.random_kr_free(
            n, n + 1, p, rng.randrange(2 ** 32)
        )


def instance_ensemble(
    seed: int, count: int, max_a: int = 10
) -> Iterator[tuple[str, WeightedBipartiteInstance]]:
    """Seeded weighted bipartite instances with uniform [0,1] weights."""
    rng = random.Random(seed)
    for idx in range(count):
        a = rng.randint(1, max_a)
        items = []
        for _ in range(rng.randint(1, 20)):
            degree = rng.randint(1, a)
            items.append((rng.uniform(0.0, 1.0), rng.sample(range(a), degree)))
        yield f"random-instance[{idx}](a={a},b={len(items)})", WeightedBipartiteInstance(a, items)


def _sample_roots(n: int) -> list[int]:
    return sorted({0, n // 2, n - 1})


def _row(suite, instance, algorithm, n, r, check, *args, relation: str = ">=") -> dict:
    """Time check(*args), which returns (required, achieved, verified), into
    one row keyed by ROW_FIELDS."""
    started = time.monotonic()
    required, achieved, verified = check(*args)
    elapsed_ms = int((time.monotonic() - started) * 1000)
    values = (suite, instance, algorithm, n, r, relation, required, achieved, verified, elapsed_ms)
    return dict(zip(ROW_FIELDS, values, strict=True))


def _worst_over_roots(g: Graph, roots, required: float, certify) -> tuple:
    """The worst size of certify(v) over the roots, verified when every
    certificate passes the report verdict for its root and `required`."""
    certs = [(v, certify(v)) for v in roots]
    verified = all(finders._report_failure(g, cert, v, required) is None for v, cert in certs)
    return required, min(cert.size for _, cert in certs), verified


def _finder_row(suite, name, g, r, roots=None) -> dict:
    """One row for find_tree over its roots (by default three spread ones)."""
    roots = roots if roots is not None else _sample_roots(g.n)
    return _row(suite, name, finders.finder_label(r), g.n, r, _worst_over_roots,
                g, roots, finders.theorem_bound(g.n, r), partial(finders.find_tree, g, r=r))


def _oracle_check(
    g: Graph, bound: int, holds: Callable[[int, int], bool], v: Optional[int] = None
) -> tuple:
    """t(G), or with v the maximum through v, against `bound`; verified when
    holds(size, bound) and the witness is an induced tree of that size (and
    contains v)."""
    budget = oracle.OracleBudget(max_vertices=g.n, time_limit=120.0)
    if v is None:
        size, witness = oracle.max_induced_tree_exact(g, budget)
    else:
        size, witness = oracle.max_tree_through_vertex_exact(g, v, budget)
    ok = holds(size, bound) and size == len(witness) and is_induced_tree(g, witness)
    return float(bound), size, ok and (v is None or v in witness)


def suite_triangle_free(seed: int, count: Optional[int] = None) -> list[dict]:
    """Extremal family at every root, oracle upper bounds on the small
    members, and the random ensemble at three roots per graph."""
    rows = []
    for m in range(3, 31):
        g = generators.ms_layered(m)
        rows.append(
            _finder_row("triangle-free", f"ms-layered(m={m})", g, 3, roots=range(g.n))
        )
    for m in range(2, 6):
        g = generators.ms_layered(m)
        rows.append(
            _row("triangle-free", f"ms-layered(m={m})", "oracle-max-tree<=2m-1", g.n, 3,
                 _oracle_check, g, 2 * m - 1, operator.le, relation="<=")
        )
    n_graphs = count if count is not None else 500
    for name, g in triangle_free_ensemble(seed, n_graphs):
        rows.append(_finder_row("triangle-free", name, g, 3))
    return rows


def suite_kr_free(seed: int, count: Optional[int] = None) -> list[dict]:
    rows = []
    for r in (4, 5):
        for depth in (2, 3, 4):
            g = generators.line_graph_balanced_tree(r, depth)
            rows.append(
                _finder_row("kr-free", f"line-graph-tree(r={r},depth={depth})", g, r)
            )
        n_graphs = count if count is not None else 200
        for name, g in kr_free_ensemble(seed + r, r, n_graphs):
            rows.append(_finder_row("kr-free", name, g, r))
    return rows


def suite_tightness(seed: int, count: Optional[int] = None) -> list[dict]:
    """The exact maxima of the extremal families, each beside the finder's
    worst root against theorem_bound: t(ms_layered(m)) = 2m-1 for m 2-20,
    the maximum through v of ms_through_vertex(m) = m for m 2-30, and
    t(line_graph_balanced_tree(r, d)) = 2d for r = 4, d <= 7 and r = 5,
    d <= 5.  Nothing is drawn, so seed and count change nothing."""
    # (name, graph, through-vertex or None, r, exact maximum, label)
    cases = [(f"ms-layered(m={m})", generators.ms_layered(m), None, 3, 2 * m - 1,
              "oracle-max-tree=2m-1") for m in range(2, 21)]
    cases += [(f"ms-through-vertex(m={m})", *generators.ms_through_vertex(m), 3, m,
               "oracle-max-tree-through-v=m") for m in range(2, 31)]
    cases += [(f"line-graph-tree(r={r},depth={d})", generators.line_graph_balanced_tree(r, d),
               None, r, 2 * d, "oracle-max-tree=2depth")
              for r, depths in ((4, range(1, 8)), (5, range(1, 6))) for d in depths]
    rows = []
    for name, g, v, r, exact, label in cases:
        rows.append(_row("tightness", name, label, g.n, r, _oracle_check,
                         g, exact, operator.eq, v, relation="=="))
        rows.append(_finder_row("tightness", name, g, r, roots=range(g.n)))
    return rows


def _admissible(inst: WeightedBipartiteInstance, sel: AdmissibleSelection) -> bool:
    try:
        sel.check(inst)
    except ValueError:
        return False
    return True


def _weighted_check(inst: WeightedBipartiteInstance, naive_budget) -> tuple:
    """sqrt(total weight) against the exact optimum; verified when the exact
    and weighted selections reach it, the naive oracle (given a budget)
    matches the exact value, the uniform selection keeps ceil(sqrt(|B|))
    items, and every selection passes its check."""
    target = math.sqrt(inst.total_weight())
    exact = solve_exact(inst, alpha=0.5)
    selections = [exact, select_weighted(inst)]
    ok = all(sel.value >= target - LEMMA_SLACK for sel in selections)
    if naive_budget is not None:
        naive = oracle.admissible_naive(inst, alpha=0.5, budget=naive_budget)
        selections.append(naive)
        ok = ok and naive.value == exact.value
    uniform = select_uniform(inst)
    selections.append(uniform)
    ok = ok and len(uniform.b_chosen) >= _ceil_sqrt(inst.b_count)
    return target, exact.value, ok and all(_admissible(inst, sel) for sel in selections)


def _exact_below(inst: WeightedBipartiteInstance, alpha: float, bound: float, limit: int) -> tuple:
    best = solve_exact(inst, alpha=alpha, limit=limit)
    return bound, best.value, _admissible(inst, best) and best.value < bound


def suite_admissible(seed: int, count: Optional[int] = None) -> list[dict]:
    rows = []
    n_weighted = count if count is not None else 1000
    naive_every = max(1, n_weighted // 200)
    budget = oracle.OracleBudget(max_a_side=12)
    for idx, (name, inst) in enumerate(instance_ensemble(seed, n_weighted)):
        naive_budget = budget if inst.a_count <= 12 and idx % naive_every == 0 else None
        rows.append(
            _row("admissible", name, "weighted-selection>=sqrt-total", inst.b_count, None,
                 _weighted_check, inst, naive_budget)
        )
    exact_rows = [
        (f"dyadic(k={k})", "exact-max-below-2m", generators.dyadic_bipartite(k), 1.0,
         float(2 ** (k + 1)), DEFAULT_EXHAUSTION_LIMIT)
        for k in (1, 2, 3)
    ]
    exact_rows.append(("alpha-counterexample(t=50)", "exact-max-below-1(alpha=0.6)",
                       generators.alpha_counterexample(50), 0.6, 1.0, 64))
    for name, algorithm, inst, *args in exact_rows:
        rows.append(_row("admissible", name, algorithm, inst.b_count, None,
                         _exact_below, inst, *args, relation="<="))
    return rows


def _claim_check(g: Graph, budget) -> tuple:
    size, witness = oracle.max_induced_tree_exact(g, budget)
    base = finders.TreeCertificate(witness, min(witness), float(size), "oracle")
    return _worst_over_roots(g, range(g.n), 1.0 + size / 2.0,
                             partial(finders.reroute_through_vertex, g, base))


def suite_claim(seed: int, count: Optional[int] = None) -> list[dict]:
    n_graphs = count if count is not None else 200
    budget = oracle.OracleBudget(max_vertices=14, time_limit=120.0)
    return [
        _row("claim", name, "reroute>=1+half-max-tree", g.n, None, _claim_check, g, budget)
        for name, g in connected_ensemble(seed, n_graphs)
    ]


_RUNNERS = {
    "triangle-free": suite_triangle_free,
    "kr-free": suite_kr_free,
    "admissible": suite_admissible,
    "claim": suite_claim,
    "tightness": suite_tightness,
}
SUITES = tuple(_RUNNERS)


def run_suite(suite: str, seed: int, count: Optional[int] = None) -> list[dict]:
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    # A count of 0 would drop every ensemble row and still report success.
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    started = time.monotonic()
    rows = _RUNNERS[suite](seed, count)
    log.debug("suite %s: %d rows in %.1fs", suite, len(rows), time.monotonic() - started)
    return rows


def _slack(row: dict) -> float:
    """How far a row's achieved value clears its requirement, in the row's
    relation; a met bound is +0.0, so required - achieved, not
    -(achieved - required), and 0.0 - |gap| for an equality."""
    achieved, required = row["bound_achieved"], row["bound_required"]
    if row["relation"] == ">=":
        return achieved - required
    if row["relation"] == "<=":
        return required - achieved
    return 0.0 - abs(achieved - required)


def summarize(rows: list[dict]) -> dict:
    slacks = [_slack(row) for row in rows]
    return {
        "rows": len(rows),
        "all_verified": all(row["verified"] for row in rows),
        "min_slack": min(slacks) if slacks else None,
    }
