import json
import math
import random
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from induced_trees import (
    BudgetExceededError,
    Graph,
    OracleBudget,
    WeightedBipartiteInstance,
    admissible_naive,
    is_induced_tree,
    max_induced_tree_exact,
    max_tree_through_vertex_exact,
    save_edge_list,
    solve_exact,
)
from induced_trees import oracle
from induced_trees.admissible import AdmissibleSelection, closure_b
from induced_trees.cli import main
from induced_trees.generators import (
    alpha_counterexample,
    dyadic_bipartite,
    ms_layered,
    ms_through_vertex,
    random_kr_free,
    random_triangle_free,
)


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, rng):
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def brute_force_max_tree(g, containing=None):
    best = 0
    for k in range(1, g.n + 1):
        for s in combinations(range(g.n), k):
            if containing is not None and containing not in s:
                continue
            if is_induced_tree(g, s):
                best = max(best, k)
    return best


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def recursive_tree_search(g, v=None):
    """The enumeration the oracles ran before dead-vertex pruning, one call
    per tree vertex: grow by a vertex with exactly one neighbour in the set,
    later siblings forbidden.  The first maximum in this order wins."""
    masks = g.adjacency_masks
    best = [0, 0]

    def grow(s_mask, size, forbidden, nbr_mask, universe):
        if size > best[0]:
            best[:] = [size, s_mask]
        if best[0] == g.n:
            return
        out = forbidden | s_mask
        if size + (universe & ~out).bit_count() <= best[0]:
            return
        ext, fb = nbr_mask & ~out, forbidden
        for u in range(g.n):
            if ext >> u & 1:
                if (masks[u] & s_mask).bit_count() == 1:
                    grow(s_mask | 1 << u, size + 1, fb, nbr_mask | (masks[u] & universe), universe)
                fb |= 1 << u

    full = (1 << g.n) - 1
    if v is None:
        for seed in range(g.n):
            universe = full ^ ((1 << (seed + 1)) - 1)
            grow(1 << seed, 1, 0, masks[seed] & universe, universe)
            if best[0] == g.n:
                break
    else:
        grow(1 << v, 1, 0, masks[v], full ^ (1 << v))
    return best[0], frozenset(u for u in range(g.n) if best[1] >> u & 1)


@st.composite
def small_graphs(draw):
    """A graph on 1..14 vertices, each pair an edge with probability
    density/10."""
    n = draw(st.integers(1, 14))
    density = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    rolls = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, roll in zip(pairs, rolls) if roll < density])


def _plain_naive(inst, alpha):
    """The loop admissible_naive ran before its hit tables and value
    filter, budget aside: every nonempty S in ascending order, each valued
    by one fsum pass over the items; the first S of the largest value wins."""
    wpow = [w ** alpha for w in inst.weights]
    best_val, best_mask = -1.0, 0
    for s_mask in range(1, 1 << inst.a_count):
        val = math.fsum(
            wpow[i]
            for i, mask in enumerate(inst.nbr_masks)
            if (mask & s_mask).bit_count() == 1
        )
        if val > best_val:
            best_val, best_mask = val, s_mask
    chosen = frozenset(a for a in range(inst.a_count) if best_mask >> a & 1)
    return AdmissibleSelection(chosen, closure_b(inst, chosen), best_val, alpha)


def naive_outcome(optimizer, inst, alpha):
    """The selection, or OverflowError where fsum overflows."""
    try:
        return optimizer(inst, alpha)
    except OverflowError:
        return OverflowError


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak memory tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Zeros, the smallest subnormal, tiny and huge values, and 2^-53 with
# 1 + 2^-52, whose plain sums round below their fsum.
SPECIAL_WEIGHTS = [0.0, 5e-324, 1e-300, 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 1e308]


@st.composite
def naive_instances(draw):
    """Up to 10 A-ids and 24 items: special weights, small integers (so
    values tie) and uniform draws; items are drawn from a pool, so
    duplicates occur."""
    a = draw(st.integers(1, 10))
    weights = st.one_of(
        st.sampled_from(SPECIAL_WEIGHTS),
        st.integers(0, 4).map(float),
        st.floats(0.0, 1.0),
    )
    nbrs = st.sets(st.integers(0, a - 1), min_size=1).map(sorted)
    pool = draw(st.lists(st.tuples(weights, nbrs), min_size=1, max_size=8))
    items = draw(st.lists(st.sampled_from(pool), max_size=24))
    return WeightedBipartiteInstance(a, items)


# With u = 2^-53, the best after S = {0} is fsum(1 + 3u + 2u) = 1 + 4u.  S = {1}
# sums exactly to 1 + 6u, but its filter sum is only 1 + 4u: its class of 1
# and three u's adds up to 1.0, and 1.0 + 3u rounds to 1 + 4u.
ROUNDED_BELOW = WeightedBipartiteInstance(
    2, [(1.0, [0, 1])] + [(2.0 ** -53, [0, 1])] * 3 + [(2.0 ** -52, [0]), (3 * 2.0 ** -53, [1])]
)

# {0}, {1} and {0, 1} each collect two items of weight 1: {0} must win.
TIED = WeightedBipartiteInstance(2, [(1.0, [0]), (1.0, [1]), (1.0, [0, 1])])


def random_instance(rng, max_a=8, max_b=12):
    a = rng.randint(1, max_a)
    items = []
    for _ in range(rng.randint(1, max_b)):
        degree = rng.randint(1, a)
        items.append((rng.uniform(0.0, 1.0), rng.sample(range(a), degree)))
    from induced_trees import WeightedBipartiteInstance

    return WeightedBipartiteInstance(a, items)


class TestMaxInducedTree:
    def test_clique_has_only_edges(self):
        size, witness = max_induced_tree_exact(complete_graph(5))
        assert size == 2
        assert is_induced_tree(complete_graph(5), witness)

    def test_tree_input_is_its_own_maximum(self):
        star = Graph(7, [(0, i) for i in range(1, 7)])
        size, witness = max_induced_tree_exact(star)
        assert size == 7 and witness == frozenset(range(7))

    def test_c6_is_five(self):
        # drop any single vertex of the 6-cycle: an induced P5 remains
        size, witness = max_induced_tree_exact(cycle_graph(6))
        assert size == 5
        assert is_induced_tree(cycle_graph(6), witness)

    def test_budget_on_vertices_is_hard(self):
        with pytest.raises(BudgetExceededError, match="budget"):
            max_induced_tree_exact(ms_layered(5), OracleBudget(max_vertices=20))

    def test_time_budget_is_hard(self):
        g = random_triangle_free(24, 0.2, 5)
        with pytest.raises(BudgetExceededError, match="time limit"):
            max_induced_tree_exact(
                g, OracleBudget(max_vertices=30, time_limit=1e-9)
            )

    @pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf, True, "5", None])
    def test_non_finite_time_limit_is_rejected(self, limit):
        with pytest.raises(ValueError, match="time_limit must be finite"):
            OracleBudget(time_limit=limit)

    @pytest.mark.parametrize("limit", [0, 0.0, -1.5])
    def test_non_positive_time_limit_is_rejected(self, limit):
        with pytest.raises(ValueError, match="budget fields must be positive"):
            OracleBudget(time_limit=limit)

    @pytest.mark.parametrize("field", ["max_vertices", "max_a_side"])
    @pytest.mark.parametrize("cap", [math.nan, 2.5, True, 0])
    def test_size_caps_must_be_positive_integers(self, field, cap):
        with pytest.raises(ValueError, match=field if cap != 0 else "positive"):
            OracleBudget(**{field: cap})

    def test_growth_matches_subset_filtering(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.random(), rng)
            size, witness = max_induced_tree_exact(g)
            assert size == brute_force_max_tree(g)
            assert is_induced_tree(g, witness) and len(witness) == size

    def test_dense_graph_work_stays_bounded(self, monkeypatch):
        # 4,865 nodes with both bounds; 7,183 without the push-time room
        # check, 10,703 without the clique cover, 26,993 with neither.
        searches = []

        class CountedSearch(oracle._TreeSearch):
            def __init__(self, *args):
                super().__init__(*args)
                searches.append(self)

        monkeypatch.setattr(oracle, "_TreeSearch", CountedSearch)
        g = random_kr_free(30, 6, 0.4, 1)
        size, witness = max_induced_tree_exact(g, OracleBudget(max_vertices=30))
        assert size == 11 and is_induced_tree(g, witness)
        assert searches[0].nodes < 6000

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_same_witness_as_the_recursive_enumeration(self, g):
        assert max_induced_tree_exact(g) == recursive_tree_search(g)
        for v in range(g.n):
            assert max_tree_through_vertex_exact(g, v) == recursive_tree_search(g, v)


class TestEntryChecks:
    """Both tree maxima check the empty graph, then the root, then the budget."""

    MAXIMA = {
        "global": lambda g, budget: max_induced_tree_exact(g, budget),
        "through": lambda g, budget: max_tree_through_vertex_exact(g, 0, budget),
    }

    @pytest.mark.parametrize("maximum", MAXIMA.values(), ids=MAXIMA.keys())
    def test_empty_graph(self, maximum):
        with pytest.raises(ValueError, match="empty graph"):
            maximum(Graph(0, []), OracleBudget(max_vertices=1))

    @pytest.mark.parametrize("v", [-1, 25, 10**6])
    def test_root_out_of_range_even_over_budget(self, v):
        for budget in (OracleBudget(max_vertices=25), OracleBudget(max_vertices=20)):
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                max_tree_through_vertex_exact(path_graph(25), v, budget)

    @pytest.mark.parametrize("maximum", MAXIMA.values(), ids=MAXIMA.keys())
    def test_over_budget(self, maximum):
        with pytest.raises(BudgetExceededError, match="graph has 25 vertices, budget allows 20"):
            maximum(path_graph(25), OracleBudget(max_vertices=20))


class TestPathsDeeperThanTheRecursionLimit:
    @pytest.mark.parametrize("root", [None, "middle"])
    def test_library(self, root):
        n = sys.getrecursionlimit() + 100
        g, budget = path_graph(n), OracleBudget(max_vertices=n)
        if root is None:
            got = max_induced_tree_exact(g, budget)
        else:
            got = max_tree_through_vertex_exact(g, n // 2, budget)
        assert got == (n, frozenset(range(n)))

    @pytest.mark.parametrize("root", [[], ["--root", "0"]])
    def test_cli(self, root, tmp_path, capsys):
        n = sys.getrecursionlimit() + 100
        path = tmp_path / "path.txt"
        save_edge_list(path_graph(n), path)
        code = main(["oracle", str(path), "--max-n", str(n), *root])
        assert code == 0 and json.loads(capsys.readouterr().out)["max_tree"] == n


class TestMaxTreeThroughVertex:
    def test_star_center_takes_everything(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])
        size, witness = max_tree_through_vertex_exact(star, 0)
        assert size == 6

    def test_layered_through_vertex_bound_is_m(self):
        g, v = ms_through_vertex(4)
        size, witness = max_tree_through_vertex_exact(g, v)
        assert size == 4
        assert v in witness

    def test_clique_through_any_vertex(self):
        size, _ = max_tree_through_vertex_exact(complete_graph(4), 2)
        assert size == 2

    def test_never_exceeds_global_maximum(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.random(), rng)
            global_size, _ = max_induced_tree_exact(g)
            for v in range(n):
                through, witness = max_tree_through_vertex_exact(g, v)
                assert through <= global_size
                assert through == brute_force_max_tree(g, containing=v)
                assert v in witness


class TestAdmissibleNaive:
    def test_single_star(self):
        from induced_trees import WeightedBipartiteInstance

        inst = WeightedBipartiteInstance(1, [(4.0, [0]), (1.0, [0])])
        sel = admissible_naive(inst)
        assert sel.value == pytest.approx(3.0, rel=1e-12)

    def test_budget_enforced(self):
        from induced_trees import WeightedBipartiteInstance

        inst = WeightedBipartiteInstance(25, [(1.0, [i]) for i in range(25)])
        with pytest.raises(BudgetExceededError):
            admissible_naive(inst)

    def test_time_budget_is_hard(self):
        from induced_trees import WeightedBipartiteInstance

        # 7 subsets, fewer than one deadline period.
        inst = WeightedBipartiteInstance(3, [(1.0, [0]), (2.0, [1, 2])])
        with pytest.raises(BudgetExceededError, match="time limit"):
            admissible_naive(inst, budget=OracleBudget(time_limit=1e-9))

    def test_matches_solver_on_dyadic(self):
        inst = dyadic_bipartite(2)
        assert admissible_naive(inst, alpha=1.0).value == solve_exact(inst, alpha=1.0).value

    @settings(max_examples=300, deadline=None)
    @given(naive_instances(), st.sampled_from([0.25, 0.5, 1.0]))
    @example(ROUNDED_BELOW, 1.0)
    @example(TIED, 0.5)
    @example(WeightedBipartiteInstance(1, [(1e308, [0]), (1e308, [0])]), 1.0)  # fsum overflows
    def test_equals_the_plain_loop(self, inst, alpha):
        assert naive_outcome(admissible_naive, inst, alpha) == naive_outcome(_plain_naive, inst, alpha)

    def test_time_limit_hits_at_once_on_twenty_ids(self):
        with pytest.raises(BudgetExceededError, match="time limit"):
            admissible_naive(
                alpha_counterexample(20),
                budget=OracleBudget(max_a_side=20, time_limit=1e-9),
            )

    def test_twenty_ids_in_bounded_memory(self):
        # 2^20 subsets; the hit tables hold 2 * 2^10 masks a half.
        sel, peak = traced_peak(admissible_naive, alpha_counterexample(20),
                                budget=OracleBudget(max_a_side=20))
        assert peak < 2 * 2**20
        assert sel.a_chosen == {0}
        assert math.isclose(sel.value, math.sqrt(1 - 1 / 20) + 1 / 20, rel_tol=1e-12)

    def test_many_items_over_few_ids_in_bounded_memory(self):
        # 20,000 items in three classes of equal A-neighbourhoods; sum
        # tables per item, not per class, would take about 20 MB.
        items = [(float(i % 7), [i % 2] if i % 3 else [0, 1]) for i in range(20000)]
        inst = WeightedBipartiteInstance(2, items)
        sel, peak = traced_peak(admissible_naive, inst)
        assert peak < 4 * 2**20
        assert sel == _plain_naive(inst, 0.5)

    def test_matches_solver_on_random_instances(self):
        rng = random.Random(12)
        for _ in range(60):
            inst = random_instance(rng)
            alpha = rng.choice([0.5, 0.8, 1.0])
            naive = admissible_naive(inst, alpha=alpha)
            exact = solve_exact(inst, alpha=alpha)
            assert naive.value == exact.value
