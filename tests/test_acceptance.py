"""Acceptance suite: one test per criterion, each printing a pass/fail
line and holding its stated runtime budget.  Run with `pytest -v
tests/test_acceptance.py` (add -s to see the per-criterion lines)."""

import math
import time

import pytest

from graph_cases import ceil_sqrt
from induced_trees import (
    OracleBudget,
    TreeCertificate,
    admissible_naive,
    find_tree_kr_free,
    find_tree_triangle_free,
    max_induced_tree_exact,
    max_tree_through_vertex_exact,
    reroute_through_vertex,
    select_randomized_dyadic,
    select_uniform,
    select_weighted,
    solve_exact,
    verify_certificate,
)
from induced_trees.bench import (
    connected_ensemble,
    instance_ensemble,
    kr_free_ensemble,
    triangle_free_ensemble,
)
from induced_trees.generators import (
    alpha_counterexample,
    dyadic_bipartite,
    line_graph_balanced_tree,
    ms_layered,
    ms_through_vertex,
)

SEED = 1


def report(num, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_01_sqrt_bound_on_layered_family():
    started = time.monotonic()
    checked = 0
    for m in range(3, 31):
        g = ms_layered(m)
        for v in range(g.n):
            cert = find_tree_triangle_free(g, v)
            assert verify_certificate(g, cert), (m, v)
            assert cert.size >= m, (m, v, cert.size)
            checked += 1
    elapsed = time.monotonic() - started
    report(1, True, f"{checked} verified certificates of size >= sqrt(n) on m=3..30", elapsed, 60)


def test_criterion_02_layered_family_ceiling():
    started = time.monotonic()
    budget = OracleBudget(max_vertices=25, time_limit=120.0)
    values = {}
    for m in range(2, 6):
        size, witness = max_induced_tree_exact(ms_layered(m), budget)
        assert size <= 2 * m - 1, (m, size)
        values[m] = size
    assert values == {2: 3, 3: 5, 4: 7, 5: 9}
    elapsed = time.monotonic() - started
    report(2, True, f"exact maxima {values} all <= 2m-1", elapsed, 120)


def test_criterion_03_sqrt_bound_random_ensemble():
    started = time.monotonic()
    graphs = 0
    for _, g in triangle_free_ensemble(SEED, 500):
        need = ceil_sqrt(g.n)
        for v in sorted({0, g.n // 2, g.n - 1}):
            cert = find_tree_triangle_free(g, v)
            assert verify_certificate(g, cert)
            assert v in cert.vertices
            assert cert.size >= need, (g.n, v, cert.size)
        graphs += 1
    elapsed = time.monotonic() - started
    report(3, True, f"{graphs} random triangle-free graphs, 3 roots each, size >= ceil(sqrt(n))", elapsed, 120)


def test_criterion_04_log_bound_kr_free():
    started = time.monotonic()
    certs = 0
    for r in (4, 5):
        instances = list(kr_free_ensemble(SEED + r, r, 200))
        instances += [
            (f"line-graph(r={r},depth={d})", line_graph_balanced_tree(r, d))
            for d in (2, 3, 4)
        ]
        for _, g in instances:
            need = math.log(g.n) / (4.0 * math.log(r))
            for v in sorted({0, g.n // 2, g.n - 1}):
                cert = find_tree_kr_free(g, v, r)
                assert verify_certificate(g, cert)
                assert v in cert.vertices
                assert cert.size >= need, (g.n, r, v, cert.size)
                certs += 1
    elapsed = time.monotonic() - started
    report(4, True, f"{certs} verified K_r-free certificates at ln(n)/(4 ln r), r in {{4,5}}", elapsed, 120)


def test_criterion_05_weighted_selection_bound():
    started = time.monotonic()
    count = 0
    for _, inst in instance_ensemble(SEED, 1000):
        target = math.sqrt(inst.total_weight())
        exact = solve_exact(inst, alpha=0.5)
        assert exact.value >= target - 1e-9, (count, exact.value, target)
        constructive = select_weighted(inst)
        constructive.check(inst)
        assert constructive.value >= target - 1e-9, (count, constructive.value, target)
        count += 1
    elapsed = time.monotonic() - started
    report(5, True, f"{count} instances meet sum sqrt(w) >= sqrt(total) exactly and constructively", elapsed, 60)


def test_criterion_06_solver_equivalence():
    started = time.monotonic()
    count = 0
    for _, inst in instance_ensemble(SEED + 100, 200, max_a=12):
        naive = admissible_naive(inst, alpha=0.5, budget=OracleBudget(max_a_side=12))
        exact = solve_exact(inst, alpha=0.5)
        # Values only: the two solvers may pick different tied selections.
        assert naive.value == exact.value, (count, naive.value, exact.value)
        count += 1
    elapsed = time.monotonic() - started
    report(6, True, f"solve_exact == naive enumeration on {count} instances (exactly)", elapsed, 60)


def test_criterion_07_uniform_selection_and_dyadic_tightness():
    started = time.monotonic()
    count = 0
    for _, inst in instance_ensemble(SEED + 200, 400):
        sel = select_uniform(inst)
        sel.check(inst)
        assert len(sel.b_chosen) >= ceil_sqrt(inst.b_count)
        count += 1
    maxima = {}
    for k in (1, 2, 3):
        inst = dyadic_bipartite(k)
        sel = select_uniform(inst)
        assert len(sel.b_chosen) >= ceil_sqrt(inst.b_count)
        best = solve_exact(inst, alpha=1.0)
        assert best.value < 2 ** (k + 1), (k, best.value)
        maxima[k] = best.value
        count += 1
    elapsed = time.monotonic() - started
    report(
        7, True,
        f"uniform bound on {count} instances; dyadic exact maxima {maxima} below 2m",
        elapsed, 60,
    )


def test_criterion_08_alpha_counterexample():
    started = time.monotonic()
    inst = alpha_counterexample(50)
    assert inst.total_weight() == pytest.approx(1.0, abs=1e-12)
    best = solve_exact(inst, alpha=0.6, limit=64)
    star = (1 - 1 / 50) ** 0.6 + 50.0 ** -1.2
    assert best.value == pytest.approx(star, rel=1e-12)
    assert best.value < 1.0
    elapsed = time.monotonic() - started
    report(8, True, f"exact optimum {best.value:.6f} < 1 at alpha=0.6 while total weight = 1", elapsed, 10)


def test_criterion_09_randomized_selector():
    started = time.monotonic()
    inst = dyadic_bipartite(6)
    assert inst.b_count == 448
    # the most populous closed dyadic class is [1, 2]: 64 degree-1 and 64
    # degree-2 items, so the per-run success threshold is 128 / 8 = 16
    degrees = [len(item.nbrs) for item in inst.b_items]
    class_size = sum(1 for d in degrees if 1 <= d <= 2)
    threshold = class_size / 8.0
    successes = 0
    for seed in range(100):
        sel = select_randomized_dyadic(inst, seed=seed)
        sel.check(inst)
        if len(sel.b_chosen) >= threshold:
            successes += 1
    assert successes >= 95, successes
    elapsed = time.monotonic() - started
    report(9, True, f"{successes}/100 seeded runs kept >= |B_k|/8 = {threshold:.0f} items", elapsed, 30)


def test_criterion_10_reroute_half_bound():
    started = time.monotonic()
    graphs = 0
    budget = OracleBudget(max_vertices=14, time_limit=120.0)
    for _, g in connected_ensemble(SEED, 200):
        size, witness = max_induced_tree_exact(g, budget)
        base = TreeCertificate(witness, min(witness), float(size), "oracle")
        need = 1 + size / 2
        for v in range(g.n):
            cert = reroute_through_vertex(g, base, v)
            assert verify_certificate(g, cert)
            assert v in cert.vertices
            assert cert.size >= need - 1e-9, (g.n, v, cert.size, need)
        graphs += 1
    elapsed = time.monotonic() - started
    report(10, True, f"{graphs} graphs: every vertex rerouted at size >= 1 + t(G)/2", elapsed, 120)


def test_criterion_11_through_vertex_upper_bound():
    started = time.monotonic()
    values = {}
    for m in range(2, 6):
        g, v = ms_through_vertex(m)
        size, _ = max_tree_through_vertex_exact(g, v)
        assert size <= m, (m, size)
        values[m] = size
    assert values == {2: 2, 3: 3, 4: 4, 5: 5}
    elapsed = time.monotonic() - started
    report(11, True, f"through-vertex maxima {values} all <= m", elapsed, 60)
