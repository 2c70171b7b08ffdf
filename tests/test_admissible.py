import math
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graph_cases import ceil_sqrt, random_instance
from induced_trees import (
    AdmissibleSelection,
    ExhaustionLimitError,
    InstanceParseError,
    LemmaViolationError,
    WeightedBipartiteInstance,
    admissible_naive,
    closure_b,
    reduce_instance,
    select_randomized_dyadic,
    select_uniform,
    select_weighted,
    solve_exact,
)
from induced_trees import admissible
from induced_trees.admissible import LEMMA_SLACK, BItem
from induced_trees.generators import alpha_counterexample, dyadic_bipartite
from induced_trees.graph import _iter_bits


def matching_instance(k, weights=None):
    weights = weights if weights is not None else [1.0] * k
    return WeightedBipartiteInstance(k, [(w, [i]) for i, w in enumerate(weights)])


def star_instance(b_count, weights=None):
    weights = weights if weights is not None else [1.0] * b_count
    return WeightedBipartiteInstance(1, [(w, [0]) for w in weights])


def mask_instance(rng, max_a=10, max_b=20):
    """Like random_instance, but each item's neighbours are read lazily off
    a random nonzero bitmask."""
    a = rng.randint(1, max_a)
    items = [
        (rng.uniform(0.0, 1.0), _iter_bits(rng.randint(1, (1 << a) - 1)))
        for _ in range(rng.randint(1, max_b))
    ]
    return WeightedBipartiteInstance(a, items)


def items_of(inst, a):
    """The ascending indices of the items that see A-id a."""
    return [i for i, m in enumerate(inst.nbr_masks) if m >> a & 1]


def restart_loop_survivors(inst):
    """reduce_instance's rule run literally: remove the smallest removable
    live A-id, then rescan from the start."""
    live = list(range(inst.a_count))
    degree = [len(item.nbrs) for item in inst.b_items]
    while True:
        victim = next((a for a in live if all(degree[i] >= 2 for i in items_of(inst, a))), None)
        if victim is None:
            return live
        live.remove(victim)
        for i in items_of(inst, victim):
            degree[i] -= 1


# From the smallest subnormal to 1e200: sums over these round, so two
# exact optimizers agree only if both compare correctly rounded sums.
WIDE_WEIGHTS = [0.0, 5e-324, 1.0, 2.0, 1e16, 1e32, 1e200]


@st.composite
def instance_inputs(draw, wide=False):
    a = draw(st.integers(1, 12))
    weights = st.one_of(
        st.integers(0, 10), st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
    )
    if wide:
        weights = st.one_of(weights, st.sampled_from(WIDE_WEIGHTS))
    nbrs = st.lists(st.integers(0, a - 1), min_size=1, max_size=2 * a)
    return a, draw(st.lists(st.tuples(weights, nbrs), max_size=10))


class TestInstanceValidation:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match=r"b_items\[1\]"):
            WeightedBipartiteInstance(2, [(1.0, [0]), (1.0, [])])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=r"b_items\[0\]"):
            WeightedBipartiteInstance(2, [(-0.5, [0])])

    def test_non_integer_a_count_rejected(self):
        with pytest.raises(TypeError):
            WeightedBipartiteInstance(2.0, [(1.0, [0])])

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError, match=r"b_items\[0\]"):
            WeightedBipartiteInstance(2, [(1.0, [2])])

    def test_integer_beyond_the_float_range_is_a_bad_weight(self):
        with pytest.raises(ValueError, match=r"b_items\[0\]: weight must be"):
            WeightedBipartiteInstance(1, [(10**400, [0])])

    def test_weights_whose_total_overflows_are_rejected(self):
        # Each weight is finite, but a selection keeping both would be worth
        # more than a float holds at alpha = 1.
        text = '{"a_count": 1, "b_items": [{"w": 1e308, "nbrs": [0]}, {"w": 1e308, "nbrs": [0]}]}'
        with pytest.raises(ValueError, match="total weight overflows"):
            WeightedBipartiteInstance(1, [(1e308, [0]), (1e308, [0])])
        with pytest.raises(InstanceParseError, match="total weight overflows"):
            WeightedBipartiteInstance.from_json(text)

    def test_largest_float_weight_alone_is_accepted(self):
        inst = WeightedBipartiteInstance(1, [(sys.float_info.max, [0]), (0.0, [0])])
        assert solve_exact(inst, alpha=1.0).value == sys.float_info.max

    def test_json_round_trip(self):
        inst = dyadic_bipartite(2)
        again = WeightedBipartiteInstance.from_json(inst.to_json())
        assert again == inst

    @settings(max_examples=200, deadline=None)
    @given(instance_inputs())
    def test_json_round_trip_and_views_match_the_input(self, given_input):
        a, items = given_input
        inst = WeightedBipartiteInstance(a, items)
        assert WeightedBipartiteInstance.from_json(inst.to_json()) == inst
        assert inst.b_items == tuple(BItem(float(w), frozenset(n)) for w, n in items)

    @pytest.mark.parametrize("a_count", ["true", "false"])
    def test_boolean_a_count_rejected(self, a_count):
        with pytest.raises(InstanceParseError, match="a_count"):
            WeightedBipartiteInstance.from_json(
                f'{{"a_count": {a_count}, "b_items": [{{"w": 1, "nbrs": [0]}}]}}'
            )

    def test_huge_a_count_allocates_nothing_per_a_id(self):
        text = '{"a_count": 2000000, "b_items": [{"w": 1, "nbrs": [0]}]}'
        tracemalloc.start()
        try:
            inst = WeightedBipartiteInstance.from_json(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inst.a_count == 2000000 and inst.b_count == 1
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: WeightedBipartiteInstance(0, []), ValueError, "a_count must be >= 1"),
            (lambda: WeightedBipartiteInstance.from_json("{"), InstanceParseError, "invalid JSON: "),
            (
                lambda: WeightedBipartiteInstance.from_json("[]"),
                InstanceParseError,
                "expected object with 'a_count' and 'b_items'",
            ),
            (
                lambda: WeightedBipartiteInstance.from_json('{"a_count": 1, "b_items": {}}'),
                InstanceParseError,
                "'b_items' must be a list",
            ),
            (
                lambda: WeightedBipartiteInstance.from_json('{"a_count": 1, "b_items": [3]}'),
                InstanceParseError,
                "b_items[0]: expected object with 'w' and 'nbrs'",
            ),
            (
                lambda: WeightedBipartiteInstance.from_json(
                    '{"a_count": 1, "b_items": [{"w": "1", "nbrs": [0]}]}'
                ),
                InstanceParseError,
                "b_items[0]: 'w' must be a number",
            ),
            (lambda: closure_b(matching_instance(2), {0, 2}), ValueError, "A-id 2 out of range"),
        ],
        ids=["a-count-0", "not-json", "not-object", "items-not-list", "item-not-object",
             "weight-not-number", "closure-id-out-of-range"],
    )
    def test_input_guards(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()

    def test_json_item_indexed_error(self):
        with pytest.raises(InstanceParseError, match=r"b_items\[1\]"):
            WeightedBipartiteInstance.from_json(
                '{"a_count": 2, "b_items": [{"w": 1, "nbrs": [0]}, {"w": 1, "nbrs": "x"}]}'
            )


class TestClosure:
    def test_matching_full_a_keeps_everything(self):
        inst = matching_instance(4)
        assert closure_b(inst, {0, 1, 2, 3}) == frozenset({0, 1, 2, 3})

    def test_counterexample_star(self):
        # item 0 sees all of A, item i+1 sees only a_i: choosing one A-id
        # keeps the heavy item and that id's private item
        inst = alpha_counterexample(4)
        assert closure_b(inst, {0}) == frozenset({0, 1})

    def test_shared_neighborhoods_cancel(self):
        inst = WeightedBipartiteInstance(2, [(1.0, [0, 1]), (2.0, [0, 1])])
        assert closure_b(inst, {0, 1}) == frozenset()

    def test_empty_choice_is_an_error(self):
        with pytest.raises(ValueError):
            closure_b(matching_instance(2), set())


class TestSolveExact:
    def test_single_pair_equality_case(self):
        inst = star_instance(1, [4.0])
        sel = solve_exact(inst, alpha=0.5)
        assert sel.value == pytest.approx(2.0, rel=1e-12)
        sel.check(inst)

    def test_counterexample_drops_below_one_for_alpha_above_half(self):
        inst = alpha_counterexample(50)
        sel = solve_exact(inst, alpha=0.6, limit=64)
        star = (1 - 1 / 50) ** 0.6 + 50.0 ** -1.2
        assert sel.value == pytest.approx(star, rel=1e-12)
        assert sel.value < 1.0
        assert inst.total_weight() == pytest.approx(1.0, abs=1e-12)

    def test_dyadic_k2_unit_weights_max_is_seven(self):
        # frozen from exhaustive search: the best selection is a single
        # A-id star (1 singleton + 2 arcs + 4 full circles), below 2m = 8
        inst = dyadic_bipartite(2)
        sel = solve_exact(inst, alpha=1.0)
        assert sel.value == pytest.approx(7.0)
        assert len(sel.b_chosen) == 7 < 8

    def test_limit_enforced_without_target(self):
        inst = matching_instance(25)
        with pytest.raises(ExhaustionLimitError, match="infeasible"):
            solve_exact(inst, alpha=0.5)

    def test_target_allows_large_instances(self):
        inst = matching_instance(30)
        sel = solve_exact(inst, alpha=0.5, target=math.sqrt(30.0))
        assert sel.value >= math.sqrt(30.0) - 1e-9

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            solve_exact(matching_instance(2), alpha=1.5)

    def test_target_search_deeper_than_the_recursion_limit(self):
        # One item per A-id: the first leaf takes every id, one level per id.
        k = sys.getrecursionlimit() + 100
        sel = solve_exact(matching_instance(k), alpha=0.5, target=math.sqrt(k))
        assert sel.a_chosen == frozenset(range(k)) and sel.value == k

    @settings(max_examples=150, deadline=None)
    @given(instance_inputs(wide=True), st.sampled_from([0.5, 0.8, 1.0]))
    # A bound updated by adding and subtracting weights drifts below the
    # optimum {2} here, and the search returns {2, 3}, one ulp lower.
    @example((4, [(2.0, [1, 2]), (2.0, [2, 0, 1, 3]), (1.0, [2, 0]), (1e32, [0, 2, 1])]), 0.5)
    def test_matches_the_naive_optimum(self, given_input, alpha):
        a, items = given_input
        assume(a <= 8)
        inst = WeightedBipartiteInstance(a, items)
        assert solve_exact(inst, alpha=alpha).value == admissible_naive(inst, alpha=alpha).value

    def test_monotone_in_added_items(self):
        rng = random.Random(21)
        for _ in range(60):
            inst = random_instance(rng, max_a=8, max_b=10)
            alpha = rng.choice([0.5, 0.7, 1.0])
            base = solve_exact(inst, alpha=alpha).value
            degree = rng.randint(1, inst.a_count)
            extra = (rng.uniform(0.0, 1.0), rng.sample(range(inst.a_count), degree))
            grown = WeightedBipartiteInstance(
                inst.a_count,
                [(it.weight, it.nbrs) for it in inst.b_items] + [extra],
            )
            assert solve_exact(grown, alpha=alpha).value >= base - 1e-12


class TestReduce:
    def test_matching_unchanged(self):
        inst = matching_instance(5)
        reduced, back = reduce_instance(inst)
        assert reduced == inst
        assert back == [0, 1, 2, 3, 4]

    def test_smallest_id_removed_first(self):
        inst = WeightedBipartiteInstance(2, [(1.0, [0, 1]), (3.0, [0, 1])])
        reduced, back = reduce_instance(inst)
        assert back == [1]
        assert reduced.b_items[0].nbrs == frozenset({0})
        assert reduced.b_items[1].nbrs == frozenset({0})

    def test_star_unchanged(self):
        inst = star_instance(6)
        reduced, back = reduce_instance(inst)
        assert reduced == inst and back == [0]

    def test_dyadic_is_reduction_invariant(self):
        inst = dyadic_bipartite(3)
        reduced, back = reduce_instance(inst)
        assert back == list(range(8))
        assert reduced == inst

    def test_survivors_have_private_items_and_degrees_stay_positive(self):
        rng = random.Random(9)
        for k in range(200):
            inst = random_instance(rng) if k % 2 else mask_instance(rng)
            reduced, back = reduce_instance(inst)
            assert back == restart_loop_survivors(inst)
            assert len(back) >= 1
            assert reduced.b_count == inst.b_count
            degree = [len(item.nbrs) for item in reduced.b_items]
            assert all(d >= 1 for d in degree)
            for a in range(reduced.a_count):
                assert any(degree[i] == 1 for i in items_of(reduced, a))

    def test_no_items_is_an_error_naming_the_empty_b_side(self):
        with pytest.raises(ValueError, match="empty B side"):
            reduce_instance(WeightedBipartiteInstance(3, []))

    def test_reduction_preserves_the_weighted_guarantee(self):
        rng = random.Random(13)
        for _ in range(60):
            inst = random_instance(rng, max_a=8, max_b=12)
            reduced, _ = reduce_instance(inst)
            total = inst.total_weight()
            value = solve_exact(reduced, alpha=0.5).value
            assert value >= math.sqrt(total) - 1e-9


class TestSelectUniform:
    def test_matching_of_nine(self):
        sel = select_uniform(matching_instance(9))
        assert len(sel.b_chosen) == 9 >= 3

    def test_star_of_sixteen(self):
        sel = select_uniform(star_instance(16))
        assert len(sel.b_chosen) == 16 >= 4

    def test_dyadic_k3(self):
        sel = select_uniform(dyadic_bipartite(3))
        assert len(sel.b_chosen) >= ceil_sqrt(32) == 6

    def test_a_short_selection_raises(self, monkeypatch):
        # One survivor that sees one of nine items: its star keeps 1 item,
        # below ceil(sqrt(9)) = 3, which the reduction rules out.
        monkeypatch.setattr(admissible, "_survivors", lambda inst: [0])
        with pytest.raises(LemmaViolationError, match="produced 1 items, needs 3"):
            select_uniform(matching_instance(9))

    @pytest.mark.parametrize(
        "select",
        [select_uniform, lambda inst: select_randomized_dyadic(inst, seed=0)],
        ids=["uniform", "randomized-dyadic"],
    )
    def test_no_items_selects_id_zero_alone(self, select):
        sel = select(WeightedBipartiteInstance(3, []))
        assert sel == AdmissibleSelection(frozenset({0}), frozenset(), 0.0, 0.5)


class TestSelectWeighted:
    def test_all_weight_on_one_item(self):
        inst = WeightedBipartiteInstance(3, [(9.0, [1]), (0.0, [0, 2])])
        sel = select_weighted(inst)
        assert sel.value == pytest.approx(3.0, rel=1e-12)

    def test_unit_matching(self):
        sel = select_weighted(matching_instance(4))
        assert sel.value == pytest.approx(4.0) and sel.value >= 2.0

    def test_counterexample_at_half_exponent_still_works(self):
        # at alpha = 1/2 the heavy star reaches sqrt(0.9) + sqrt(0.01) > 1
        inst = alpha_counterexample(10)
        sel = select_weighted(inst)
        assert sel.value == pytest.approx(math.sqrt(0.9) + math.sqrt(0.01), rel=1e-12)
        assert sel.value >= 1.0

    def test_zero_weights_degenerate(self):
        inst = WeightedBipartiteInstance(2, [(0.0, [0]), (0.0, [0, 1])])
        sel = select_weighted(inst)
        assert sel.value == 0.0
        sel.check(inst)

    def test_exact_fallback_when_star_and_matching_fall_short(self, monkeypatch):
        # The best star and the matching reach only 0.894 sqrt(10) here, so
        # the selection calls the exact search once, with sqrt(10) as its
        # target; S = {0, 1, 2, 3} keeps 2 + 4/sqrt(2).
        inst = WeightedBipartiteInstance(
            5, [(4.0, [4, 1]), (0.5, [0]), (0.5, [4, 2]), (0.5, [3]), (0.5, [1]), (4.0, [3, 0])]
        )
        calls = []
        exact = admissible.solve_exact

        def counting_exact(*args, **kwargs):
            calls.append(kwargs)
            return exact(*args, **kwargs)

        monkeypatch.setattr(admissible, "solve_exact", counting_exact)
        sel = select_weighted(inst)
        assert calls == [{"alpha": 0.5, "target": math.sqrt(10.0)}]
        assert sel.a_chosen == {0, 1, 2, 3}
        assert sel.value == pytest.approx(2 + 4 / math.sqrt(2), rel=1e-12)
        assert sel.value >= math.sqrt(inst.total_weight()) - LEMMA_SLACK
        sel.check(inst)

    def test_a_short_fallback_raises(self, monkeypatch):
        # The fallback test's instance, whose star and matching fall short,
        # and an exact search that returns A-id 0's star, worth
        # 2 + sqrt(0.5) < sqrt(10).
        inst = WeightedBipartiteInstance(
            5, [(4.0, [4, 1]), (0.5, [0]), (0.5, [4, 2]), (0.5, [3]), (0.5, [1]), (4.0, [3, 0])]
        )

        def short_exact(inst, alpha, target):
            return admissible._closed(inst, frozenset({0}))

        monkeypatch.setattr(admissible, "solve_exact", short_exact)
        with pytest.raises(LemmaViolationError, match="exhaustive fallback reached"):
            select_weighted(inst)

    @settings(max_examples=200, deadline=None)
    @given(instance_inputs())
    def test_any_instance_meets_sqrt_total(self, given_input):
        inst = WeightedBipartiteInstance(*given_input)
        sel = select_weighted(inst)
        sel.check(inst)
        assert sel.value >= math.sqrt(inst.total_weight()) - LEMMA_SLACK

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda a: st.tuples(
                st.just(a),
                st.sets(st.integers(0, a - 1), min_size=1),
                st.lists(
                    st.tuples(st.integers(1, 10**6), st.lists(st.integers(0, a - 1), max_size=a)),
                    min_size=1,
                    max_size=10,
                ),
            )
        )
    )
    @example((3, {2}, [(5, [])]))
    @example((4, {1, 3}, [(1, [0]), (1, [2]), (7, [0, 2])]))
    def test_an_id_seeing_every_item_is_the_selection(self, drawn):
        # Weights are positive integers, as the finders' component sizes
        # are, and the drawn ids `common` see every item.  The finders take
        # such a split at its lowest common attachment without selecting
        # (finders._common_attachment); this is the pair the selection
        # returns.
        a, common, items = drawn
        inst = WeightedBipartiteInstance(a, [(w, [*nbrs, *common]) for w, nbrs in items])
        lowest = min(x for x in range(a) if all(m >> x & 1 for m in inst.nbr_masks))
        sel = select_weighted(inst)
        assert (sel.a_chosen, sel.b_chosen) == ({lowest}, set(range(len(items))))


class TestSelectRandomizedDyadic:
    def test_matching_halves(self):
        inst = matching_instance(16)
        sel = select_randomized_dyadic(inst, seed=0)
        sel.check(inst)
        # degree class [1,2] holds everything; success needs |B|/8 = 2
        assert len(sel.b_chosen) >= 2

    def test_matching_keeps_half_on_average(self):
        # every item survives iff its partner is sampled at p = 1/2
        inst = matching_instance(16)
        kept = [len(select_randomized_dyadic(inst, seed=s).b_chosen) for s in range(200)]
        assert 7.0 <= sum(kept) / len(kept) <= 9.0

    def test_deterministic_given_seed(self):
        inst = dyadic_bipartite(4)
        a = select_randomized_dyadic(inst, seed=42)
        b = select_randomized_dyadic(inst, seed=42)
        assert a == b

    def test_single_star_sometimes_lands(self):
        inst = star_instance(8)
        hits = [
            len(select_randomized_dyadic(inst, seed=s).b_chosen) for s in range(20)
        ]
        assert max(hits) > 0

    def test_admissible_on_random_reduced_instances(self):
        rng = random.Random(31)
        for seed in range(50):
            reduced, _ = reduce_instance(random_instance(rng))
            sel = select_randomized_dyadic(reduced, seed=seed)
            sel.check(reduced)


class TestSelectionInvariant:
    @settings(max_examples=100, deadline=None)
    @given(instance_inputs())
    def test_every_selector_output_is_admissible(self, given_input):
        inst = WeightedBipartiteInstance(*given_input)
        for select in (solve_exact, select_weighted, select_uniform):
            select(inst).check(inst)

    @settings(max_examples=100, deadline=None)
    @given(instance_inputs(wide=True), st.sampled_from([0.5, 0.8, 1.0]), st.data())
    def test_the_a_side_depends_on_the_items_only_as_a_multiset(self, given_input, alpha, data):
        # The same items in a drawn order choose the same A-ids: false twins
        # share one selection on this (finders._grow).
        a, items = given_input
        inst = WeightedBipartiteInstance(a, items)
        other = WeightedBipartiteInstance(a, data.draw(st.permutations(items)))
        for select in (select_weighted, select_uniform, lambda i: solve_exact(i, alpha)):
            assert select(other).a_chosen == select(inst).a_chosen
        target = data.draw(st.floats(0.0, 1.0)) * solve_exact(inst, alpha).value
        assert solve_exact(other, alpha, target).a_chosen == solve_exact(inst, alpha, target).a_chosen

    def test_value_mismatch_is_caught(self):
        inst = matching_instance(2)
        bad = AdmissibleSelection(frozenset({0}), frozenset({0}), 5.0, 0.5)
        with pytest.raises(ValueError, match="recomputed"):
            bad.check(inst)

    def test_non_admissible_is_caught(self):
        inst = WeightedBipartiteInstance(2, [(1.0, [0, 1])])
        bad = AdmissibleSelection(frozenset({0, 1}), frozenset({0}), 1.0, 0.5)
        with pytest.raises(ValueError, match="chosen neighbors"):
            bad.check(inst)

    @pytest.mark.parametrize("item", [-1, 2])
    def test_item_id_out_of_range_is_caught(self, item):
        # -1 would index the last item, which sees A-id 1 alone.
        inst = WeightedBipartiteInstance(2, [(4.0, [0]), (9.0, [1])])
        bad = AdmissibleSelection(frozenset({1}), frozenset({item}), 3.0, 0.5)
        with pytest.raises(ValueError, match="out of range"):
            bad.check(inst)
