import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_cases import neighbour_sets, set_two_colouring
from induced_trees import (
    Graph,
    format_edge_list,
    has_clique,
    is_connected,
    is_triangle_free,
    reduce_instance,
)
from induced_trees.generators import (
    _COIN_BLOCK,
    _coin_hits,
    alpha_counterexample,
    dyadic_bipartite,
    line_graph_balanced_tree,
    ms_layered,
    ms_through_vertex,
    random_kr_free,
    random_triangle_free,
)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ms_through_vertex(1), "m must be >= 2"),
        (lambda: dyadic_bipartite(0), "k must be >= 1"),
        (lambda: alpha_counterexample(1), "t must be >= 2"),
        (lambda: random_kr_free(0, 3, 0.5, 0), "n must be >= 1"),
        (lambda: random_kr_free(5, 3, -0.1, 0), "p must be in [0, 1]"),
        (lambda: random_kr_free(5, 3, 1.5, 0), "p must be in [0, 1]"),
        (lambda: random_kr_free(5, 1, 0.5, 0), "r must be >= 2"),
    ],
    ids=["through-vertex-m", "dyadic-k", "alpha-t", "kr-free-n", "kr-free-p-low",
         "kr-free-p-high", "kr-free-r"],
)
def test_parameter_guards(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestMsLayered:
    def test_vertex_count_is_m_squared(self):
        for m in range(2, 8):
            assert ms_layered(m).n == m * m

    def test_edge_count_matches_consecutive_products(self):
        for m in range(2, 8):
            sizes = [m - abs(i) for i in range(-m + 1, m)]
            expected = sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))
            assert ms_layered(m).edge_count == expected

    def test_smallest_case_is_c4(self):
        g = ms_layered(2)
        assert g.n == 4 and g.edge_count == 4
        assert is_connected(g) and is_triangle_free(g)

    def test_connected_and_bipartite(self):
        g = ms_layered(4)
        assert is_connected(g)
        assert set_two_colouring(neighbour_sets(g), g.n)

    def test_parameter_validated(self):
        with pytest.raises(ValueError):
            ms_layered(1)


class TestMsThroughVertex:
    def test_vertex_count_formula(self):
        for m in range(2, 8):
            g, v = ms_through_vertex(m)
            assert g.n == 1 + m * (m - 1) // 2
            assert v == 0

    def test_m3_has_four_vertices(self):
        g, _ = ms_through_vertex(3)
        assert g.n == 4

    def test_m2_is_a_single_edge(self):
        g, v = ms_through_vertex(2)
        assert g.n == 2 and g.edge_count == 1 and v == 0

    def test_connected_triangle_free(self):
        g, _ = ms_through_vertex(5)
        assert is_connected(g) and is_triangle_free(g)


class TestLineGraphBalancedTree:
    def test_depth_one_is_a_triangle(self):
        g = line_graph_balanced_tree(4, 1)
        assert g.n == 3 and g.edge_count == 3

    def test_depth_two_has_nine_vertices_and_is_k4_free(self):
        g = line_graph_balanced_tree(4, 2)
        assert g.n == 9
        assert not has_clique(g, 4)
        assert is_connected(g)

    def test_vertex_count_is_tree_edge_count(self):
        # balanced tree: 1 + (r-1) * sum (r-2)^d vertices, edges = vertices - 1
        for r, depth in [(4, 3), (5, 2), (6, 2)]:
            tree_vertices = 1 + (r - 1) * sum((r - 2) ** d for d in range(depth))
            g = line_graph_balanced_tree(r, depth)
            assert g.n == tree_vertices - 1
            assert not has_clique(g, r)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            line_graph_balanced_tree(3, 2)
        with pytest.raises(ValueError):
            line_graph_balanced_tree(4, 0)


class TestDyadicBipartite:
    def test_counts(self):
        inst = dyadic_bipartite(1)
        assert inst.a_count == 2 and inst.b_count == 4
        inst = dyadic_bipartite(2)
        assert inst.a_count == 4 and inst.b_count == 12

    def test_neighborhoods_are_cyclic_intervals(self):
        inst = dyadic_bipartite(2)
        # class j=1 items start after the 4 singletons
        assert inst.b_items[4].nbrs == frozenset({0, 1})
        assert inst.b_items[7].nbrs == frozenset({3, 0})
        # class j=2 wraps the whole circle
        assert inst.b_items[8].nbrs == frozenset({0, 1, 2, 3})

    def test_every_a_id_has_a_private_item_so_reduce_is_identity(self):
        inst = dyadic_bipartite(3)
        reduced, back = reduce_instance(inst)
        assert reduced == inst and back == list(range(8))

    def test_unit_weights(self):
        inst = dyadic_bipartite(2)
        assert all(item.weight == 1.0 for item in inst.b_items)


class TestAlphaCounterexample:
    def test_t2_weights(self):
        inst = alpha_counterexample(2)
        assert [item.weight for item in inst.b_items] == [0.5, 0.25, 0.25]

    def test_structure(self):
        inst = alpha_counterexample(5)
        assert inst.b_items[0].nbrs == frozenset(range(5))
        for i in range(1, 6):
            assert inst.b_items[i].nbrs == frozenset({i - 1})
        # each A-id sees the heavy item and its own private item
        for a in range(5):
            assert sum(m >> a & 1 for m in inst.nbr_masks) == 2

    def test_total_weight_is_one(self):
        for t in (2, 7, 50):
            assert alpha_counterexample(t).total_weight() == pytest.approx(1.0, abs=1e-12)


class TestRandomTriangleFree:
    def test_p_zero_is_a_spanning_tree_of_bridges(self):
        # Every vertex is its own component, so every bridge starts at vertex
        # 0; n = 2000 guards against a rescan per bridge.
        for n, seed in ((8, 3), (2000, 0)):
            g = random_triangle_free(n, 0.0, seed)
            assert g.edge_count == n - 1 and is_connected(g)
            assert g.degree(0) == n - 1

    def test_single_vertex(self):
        assert random_triangle_free(1, 0.5, 0).n == 1

    def test_deterministic_edge_list(self):
        a = random_triangle_free(40, 0.15, 7)
        b = random_triangle_free(40, 0.15, 7)
        assert format_edge_list(a) == format_edge_list(b)

    def test_always_connected_and_triangle_free(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(1, 40)
            g = random_triangle_free(n, rng.random(), rng.randrange(2 ** 32))
            assert is_connected(g)
            assert is_triangle_free(g)


class TestRandomKrFree:
    def test_r3_matches_triangle_free_generator(self):
        a = random_triangle_free(25, 0.3, 9)
        b = random_kr_free(25, 3, 0.3, 9)
        assert a == b

    def test_dense_small_graph_repaired(self):
        g = random_kr_free(30, 4, 0.3, 1)
        assert not has_clique(g, 4)
        assert is_connected(g)

    def test_r2_on_two_or_more_vertices_rejected(self):
        with pytest.raises(ValueError, match="r=2"):
            random_kr_free(5, 2, 1.0, 0)

    def test_r2_single_vertex_allowed(self):
        assert random_kr_free(1, 2, 1.0, 0).n == 1

    def test_large_r_means_no_deletions(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(2, 14)
            g = random_kr_free(n, n + 1, rng.random(), rng.randrange(2 ** 32))
            assert is_connected(g)


def _assert_built_from_its_edges(g):
    """g, whose masks a generator built, equals the graph built edge by edge
    from its edge list; an asymmetric mask lists an edge from one end only,
    so the two differ."""
    assert g == Graph(g.n, sorted(g.edges))
    assert g.edge_count == len(g.edges)


class TestTrustedMasks:
    """The generators bypass the per-edge checks of Graph(n, edges), through
    Graph._from_masks; their graphs are the ones those checks would build."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_layered_chains(self, m):
        _assert_built_from_its_edges(ms_layered(m))
        _assert_built_from_its_edges(ms_through_vertex(m)[0])

    @pytest.mark.parametrize("r, depth", [(4, 1), (4, 2), (4, 5), (5, 3), (6, 3)])
    def test_line_graphs(self, r, depth):
        _assert_built_from_its_edges(line_graph_balanced_tree(r, depth))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.integers(3, 6), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_random_kr_free(self, n, r, p, seed):
        _assert_built_from_its_edges(random_kr_free(n, r, p, seed))

    @pytest.mark.parametrize(
        "masks, message",
        [
            ([0b11, 0b11], "self-loop at vertex 0"),
            ([0b100, 0b100], "vertex 0 has a neighbour out of range for n=2"),
            ([0b10, 0b00], "odd total"),
        ],
        ids=["self-loop", "bit-at-n", "odd-total"],
    )
    def test_from_masks_refuses(self, masks, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph._from_masks(masks)


def _per_draw_hits(rng, count, p):
    """The per-pair loop that `_coin_hits` replaces."""
    return [i for i in range(count) if rng.random() < p]


def _assert_same_coins(count, p, seed):
    block, loop = random.Random(seed), random.Random(seed)
    assert list(_coin_hits(block, count, p)) == _per_draw_hits(loop, count, p)
    assert block.random() == loop.random()


class TestCoinHits:
    """The block sampler decides the same coins as one `rng.random() < p`
    per draw, and leaves the generator in the same state."""

    @pytest.mark.parametrize(
        "count", [0, 1, _COIN_BLOCK - 1, _COIN_BLOCK, _COIN_BLOCK + 1, 2 * _COIN_BLOCK + 3]
    )
    @pytest.mark.parametrize("p", [0.0, 1.0, 5e-324, 4 / 3000, 0.5, 0.9])
    def test_block_counts(self, count, p):
        _assert_same_coins(count, p, count)

    def test_candidate_byte_boundaries(self):
        # At p = k/256 the passing draws are exactly those whose top byte of
        # the first word is below k: one neighbour of each p moves that
        # boundary, the other does not.  Below p = 1/16 the hits of a block
        # come out by find, above it by compress.
        drawn = random.Random(3)
        ps = [math.nextafter(1.0, 0.0)]
        for k in range(1, 256):
            q = k / 256
            ps += [math.nextafter(q, 0.0), q, math.nextafter(q, 1.0)]
        ps += [drawn.random() for _ in range(20)]
        for seed, p in enumerate(ps):
            _assert_same_coins(300, p, seed)
