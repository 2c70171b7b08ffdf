"""Acceptance suite: one test per criterion, each printing a pass/fail
line and holding its stated runtime budget.  Run with `pytest -v
tests/test_acceptance.py` (add -s to see the per-criterion lines).

Criteria 01-05, 07, 08, 10 and 11 assert over the rows of the `bench` suites
at SEED, so the CLI tables and these verdicts come from the same code:
each criterion checks its row count, that every row verified, and that
the achieved value holds against the requirement in the row's direction;
where the row carries what the paper's bound needs, also that the row
requires it.  The mask kernel, both theorems and the rerouting claim are
checked as drawn properties in test_mask_kernel.py and test_theorems.py."""

import functools
import math
import operator
import time

import pytest

from graph_cases import ceil_sqrt
from induced_trees import (
    OracleBudget,
    admissible_naive,
    select_randomized_dyadic,
    select_uniform,
    solve_exact,
)
from induced_trees.bench import instance_ensemble, run_suite
from induced_trees.generators import dyadic_bipartite

SEED = 1


def report(num, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


@functools.cache
def suite_run(suite):
    """The suite's rows at SEED with its default counts, and the wall time
    of that one run; every criterion reading the suite shares both."""
    started = time.monotonic()
    rows = run_suite(suite, SEED)
    return rows, time.monotonic() - started


def suite_rows(suite, algorithm, relation, instance=""):
    """The suite's rows of one algorithm and relation whose instance name
    starts with `instance`, and the suite run's wall time."""
    rows, elapsed = suite_run(suite)
    picked = [
        row for row in rows
        if row["algorithm"] == algorithm and row["relation"] == relation
        and row["instance"].startswith(instance)
    ]
    return picked, elapsed


HOLDS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def check_rows(rows, count, bound=None):
    """Assert the row count and that each row verified and holds in its
    relation's direction; with `bound`, also that each row requires
    bound(row)."""
    assert len(rows) == count
    for row in rows:
        if bound is not None:
            assert row["bound_required"] == bound(row), row
        assert row["verified"], row
        assert HOLDS[row["relation"]](row["bound_achieved"], row["bound_required"]), row


def layered_m(row):
    """m of an ms-layered(m=...) row, read off its instance name."""
    return int(row["instance"].removeprefix("ms-layered(m=").removesuffix(")"))


def through_m(row):
    """m of an ms-through-vertex(m=...) row, read off its instance name."""
    return int(row["instance"].removeprefix("ms-through-vertex(m=").removesuffix(")"))


def dyadic_k(row):
    """k of a dyadic(k=...) row, read off its instance name."""
    return int(row["instance"].removeprefix("dyadic(k=").removesuffix(")"))


def test_criterion_01_sqrt_bound_on_layered_family():
    rows, elapsed = suite_rows(
        "triangle-free", "find-tree-triangle-free", ">=", instance="ms-layered"
    )
    check_rows(rows, 28, bound=layered_m)
    assert [layered_m(row) for row in rows] == list(range(3, 31))
    report(1, True, f"{len(rows)} layered graphs m=3..30, every root verified at size >= sqrt(n) = m",
           elapsed, 60)


def test_criterion_02_layered_family_ceiling():
    rows, elapsed = suite_rows("triangle-free", "oracle-max-tree<=2m-1", "<=")
    check_rows(rows, 4, bound=lambda row: 2 * layered_m(row) - 1)
    values = {layered_m(row): row["bound_achieved"] for row in rows}
    assert values == {2: 3, 3: 5, 4: 7, 5: 9}
    report(2, True, f"exact maxima {values} all <= 2m-1", elapsed, 120)


def test_criterion_03_sqrt_bound_random_ensemble():
    rows, elapsed = suite_rows(
        "triangle-free", "find-tree-triangle-free", ">=", instance="random-triangle-free"
    )
    check_rows(rows, 500, bound=lambda row: math.sqrt(row["n"]))
    report(3, True, f"{len(rows)} random triangle-free graphs, 3 roots each, size >= sqrt(n)",
           elapsed, 120)


def test_criterion_04_log_bound_kr_free():
    rows, elapsed = suite_rows("kr-free", "find-tree-kr-free", ">=")
    check_rows(rows, 2 * (200 + 3), bound=lambda row: math.log(row["n"]) / (4 * math.log(row["r"])))
    assert sorted(row["r"] for row in rows) == [4] * 203 + [5] * 203
    report(4, True, f"{len(rows)} K_r-free graphs, 3 roots each, size >= ln(n)/(4 ln r), r in {{4,5}}",
           elapsed, 120)


def test_criterion_05_weighted_selection_bound():
    # Each row requires sqrt(total weight), which the row does not carry;
    # with n items of weight at most 1 it is at most sqrt(n).
    rows, elapsed = suite_rows("admissible", "weighted-selection>=sqrt-total", ">=")
    check_rows(rows, 1000)
    assert all(0 <= row["bound_required"] <= math.sqrt(row["n"]) for row in rows)
    report(5, True, f"{len(rows)} instances meet sum sqrt(w) >= sqrt(total) exactly and constructively",
           elapsed, 60)


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
    # A weighted row verifies only if select_uniform's selection passes its
    # check and keeps ceil(sqrt(|B|)) items; no row holds select_uniform on
    # the dyadic instances.
    weighted, elapsed = suite_rows("admissible", "weighted-selection>=sqrt-total", ">=")
    check_rows(weighted, 1000)
    rows, _ = suite_rows("admissible", "exact-max-below-2m", "<=")
    check_rows(rows, 3, bound=lambda row: 2 ** (dyadic_k(row) + 1))
    started = time.monotonic()
    for k in (1, 2, 3):
        inst = dyadic_bipartite(k)
        assert len(select_uniform(inst).b_chosen) >= ceil_sqrt(inst.b_count)
    maxima = {dyadic_k(row): row["bound_achieved"] for row in rows}
    report(
        7, True,
        f"uniform bound on {len(weighted) + 3} instances; dyadic exact maxima {maxima} below 2m",
        elapsed + time.monotonic() - started, 60,
    )


def test_criterion_08_alpha_counterexample():
    rows, elapsed = suite_rows("admissible", "exact-max-below-1(alpha=0.6)", "<=")
    check_rows(rows, 1, bound=lambda row: 1.0)
    best = rows[0]["bound_achieved"]
    star = (1 - 1 / 50) ** 0.6 + 50.0 ** -1.2
    assert best == pytest.approx(star, rel=1e-12)
    report(8, True, f"exact optimum {best:.6f} < 1 at alpha=0.6 while total weight = 1", elapsed, 10)


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
    # Each row requires 1 + t(G)/2 for the graph's exact maximum tree t(G),
    # an integer between 2 and n on a connected graph of n >= 2 vertices.
    rows, elapsed = suite_rows("claim", "reroute>=1+half-max-tree", ">=")
    check_rows(rows, 200)
    for row in rows:
        t = 2 * (row["bound_required"] - 1)
        assert t.is_integer() and 2 <= t <= row["n"], row
    report(10, True, f"{len(rows)} graphs: every vertex rerouted at size >= 1 + t(G)/2", elapsed, 120)


def test_criterion_11_through_vertex_upper_bound():
    rows, elapsed = suite_rows("tightness", "oracle-max-tree-through-v=m", "==")
    check_rows(rows, 29, bound=through_m)
    assert [through_m(row) for row in rows] == list(range(2, 31))
    report(11, True, f"{len(rows)} through-vertex maxima of ms_through_vertex(m) equal m, m=2..30",
           elapsed, 60)
