import random
import re

import pytest
from hypothesis import given, settings

from graph_cases import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    keller_graph,
    neighbour_sets,
    path_graph,
    random_graph,
    set_components,
    small_graphs,
)
from induced_trees import (
    CliqueSearchLimitError,
    EdgeListParseError,
    Graph,
    components_of,
    find_clique,
    find_tree,
    find_triangle,
    format_edge_list,
    has_clique,
    induced_subgraph,
    is_connected,
    is_induced_tree,
    is_triangle_free,
    parse_edge_list,
    shortest_path,
    verify_certificate,
)
from induced_trees import graph
from induced_trees.generators import line_graph_balanced_tree, ms_layered
from induced_trees.graph import edge_list_header


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Graph(-1), ValueError, "vertex count must be >= 0"),
        (lambda: find_clique(path_graph(3), 0), ValueError, "clique size must be >= 1"),
        (lambda: is_induced_tree(path_graph(3), {0, 3}), ValueError, "s contains out-of-range vertices"),
        (lambda: shortest_path(path_graph(3), 3, {0}), ValueError, "vertices out of range"),
        (lambda: shortest_path(path_graph(3), 0, {3}), ValueError, "vertices out of range"),
        (lambda: induced_subgraph(path_graph(3), {0, 3}), ValueError, "vertices out of range"),
        (
            lambda: shortest_path(Graph(3, [(0, 1)]), 0, {2}),
            RuntimeError,
            "to_set unreachable from start",
        ),
        (
            lambda: parse_edge_list("3 1\n0 1\n1 2\n"),
            EdgeListParseError,
            "line 3: expected 1 edge lines, found 2",
        ),
        (
            lambda: parse_edge_list("3 2\n0 1\n"),
            EdgeListParseError,
            "line 3: expected 2 edge lines, found 1",
        ),
        (lambda: Graph(3, [(3, 0)]), ValueError, "edge (3, 0) out of range for n=3"),
        # CPython refuses a list this long before it allocates anything.
        (lambda: Graph(2**64), ValueError, f"vertex count {2**64} is too large"),
        (
            lambda: parse_edge_list(f"{2**64} 0\n"),
            EdgeListParseError,
            f"line 1: vertex count {2**64} is too large",
        ),
    ],
    ids=["negative-n", "clique-size-0", "tree-id", "path-start", "path-target", "subgraph-id",
         "path-unreachable", "extra-edge-line", "missing-edge-line", "endpoint-equal-to-n",
         "huge-n", "huge-header"],
)
def test_input_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_adjacency_symmetric(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 3)])
        for u, v in g.edges:
            assert v in g.neighbors(u) and u in g.neighbors(v)
        assert g.degree(1) == 2

    def test_views_agree_with_the_edge_input(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 40)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
            rng.shuffle(pairs)
            g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
            assert g.edges == frozenset(pairs) and g.edge_count == len(pairs)
            for v in range(n):
                nbrs = {b for a, b in pairs if a == v} | {a for a, b in pairs if b == v}
                assert g.neighbors(v) == nbrs and g.degree(v) == len(nbrs)
                assert all(g.has_edge(v, u) == (u in nbrs) for u in range(n))
            assert g == Graph(n, pairs) and hash(g) == hash(Graph(n, pairs))
            assert format_edge_list(g).splitlines()[1:] == [f"{u} {v}" for u, v in sorted(pairs)]

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (7, 0), (0, 7), (4, 3), (-4, -3)])
    def test_has_edge_is_false_outside_the_vertex_range(self, u, v):
        # On C_4, -1 would otherwise index vertex 3, which does neighbour 0.
        assert not cycle_graph(4).has_edge(u, v)

    @pytest.mark.parametrize("v", [-1, -4, 4, 7])
    def test_neighbors_and_degree_reject_out_of_range_ids(self, v):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="out of range"):
            g.neighbors(v)
        with pytest.raises(ValueError, match="out of range"):
            g.degree(v)


class TestConnectivity:
    def test_single_vertex(self):
        assert is_connected(Graph(1))

    def test_two_isolated_vertices(self):
        assert not is_connected(Graph(2))

    def test_five_cycle(self):
        assert is_connected(cycle_graph(5))

    def test_empty_graph_is_an_error(self):
        with pytest.raises(ValueError, match="empty graph"):
            is_connected(Graph(0))


class TestComponents:
    def test_ordered_by_lowest_vertex(self):
        # The piece holding 0 comes first although its other ids are high.
        g = Graph(7, [(0, 6), (1, 4), (4, 2), (5, 3)])
        assert components_of(g) == [
            frozenset({0, 6}), frozenset({1, 2, 4}), frozenset({3, 5})
        ]
        assert components_of(Graph(0)) == []


class TestTriangleFree:
    def test_complete_bipartite_is_triangle_free(self):
        assert is_triangle_free(complete_bipartite(3, 3))

    def test_k3_is_not(self):
        assert not is_triangle_free(complete_graph(3))

    def test_layered_construction_is_bipartite_hence_triangle_free(self):
        assert is_triangle_free(ms_layered(3))

    def test_witness_is_a_triangle(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        tri = find_triangle(g)
        assert tri == (0, 1, 2)


class TestHasClique:
    def test_k4(self):
        assert has_clique(complete_graph(4), 4)

    def test_line_graph_is_k4_free(self):
        assert not has_clique(line_graph_balanced_tree(4, 2), 4)

    def test_empty_graph_has_no_edge(self):
        assert not has_clique(Graph(5), 2)

    def test_size_one_needs_a_vertex(self):
        assert has_clique(Graph(1), 1)

    def test_witness_members_pairwise_adjacent(self):
        g = Graph(6, [(0, 2), (0, 4), (2, 4), (1, 3), (2, 3)])
        clique = find_clique(g, 3)
        assert clique == frozenset({0, 2, 4})

    def test_large_clique_needs_no_recursion_limit(self):
        # One search level per clique vertex: 1050 levels, past the default
        # recursion limit.
        assert find_clique(complete_graph(1100), 1050) == frozenset(range(1050))

    def test_a_clique_found_without_a_back_out_is_never_coloured(self, monkeypatch):
        # A colouring that fails costs one class per vertex still wanted:
        # colouring each push on the way made the K_1050 above take 0.17 s
        # instead of 0.6 ms, and find_large_tree on K_300 1.3 s, not 0.02 s.
        monkeypatch.setattr(graph, "_colourable", _never_called)
        assert find_clique(complete_graph(60), 50) == frozenset(range(50))

    def test_keller_graphs_hold_their_clique_numbers(self):
        # G_4's clique number is 12 and G_3's is 5.  The check for G_4's
        # missing K_13 stays undecided at the node cap (test_cli.py).
        g = keller_graph(4)
        clique = find_clique(g, 12)
        assert len(clique) == 12
        assert all(g.has_edge(u, v) for u in clique for v in clique if u < v)
        assert len(find_clique(keller_graph(3), 5)) == 5
        assert find_clique(keller_graph(3), 6) is None


class TestCachedAnswers:
    def test_each_answer_is_computed_once(self, monkeypatch):
        # None answers (no triangle, no clique) are cached too.
        g = path_graph(5)
        first = (is_connected(g), find_triangle(g), find_clique(g, 3), find_clique(g, 2))
        for name in ("_reach", "_neighbour_union", "_first_clique"):
            monkeypatch.setattr(graph, name, _never_called)
        assert (is_connected(g), find_triangle(g), find_clique(g, 3), find_clique(g, 2)) == first
        assert first == (True, None, None, frozenset({0, 1}))

    def test_an_undecided_check_is_cached_with_its_cap(self, monkeypatch):
        # G_4 holds no K_13, which 20,000 nodes do not prove: the second
        # root refuses without a search, and so does a smaller cap, but a
        # larger one searches again.
        g = keller_graph(4)
        searched = []
        first_clique = graph._first_clique

        def counted(masks, size, start=0):
            searched.append(size)
            return first_clique(masks, size, start)

        monkeypatch.setattr(graph, "_first_clique", counted)
        for cap, root, reached in ((20_000, 0, 20_000), (20_000, 255, 20_000),
                                   (10_000, 0, 20_000), (40_000, 0, 40_000)):
            monkeypatch.setattr(graph, "CLIQUE_NODE_CAP", cap)
            with pytest.raises(CliqueSearchLimitError, match=f"node cap of {reached} "):
                find_tree(g, root, 13)
        assert searched == [13, 13]

    def test_a_misspelt_cache_slot_raises(self):
        with pytest.raises(AttributeError):
            path_graph(3)._conected = True


@pytest.mark.parametrize("r", [4, 5])
def test_a_bipartite_graph_needs_no_clique_search(monkeypatch, r):
    # The sweep marks no vertex of the layered chain, which proves it has no
    # K_r for any r >= 3 before a clique search could start.
    g = ms_layered(6)
    monkeypatch.setattr(graph, "_first_clique", _never_called)
    assert find_clique(g, r) is None
    assert not has_clique(g, r)
    assert verify_certificate(g, find_tree(g, 0, r))


def _never_called(*args):
    raise AssertionError("a cached answer was computed again")


class TestIsInducedTree:
    def test_star(self):
        g = complete_bipartite(1, 4)
        assert is_induced_tree(g, {0, 1, 2, 3, 4})

    def test_triangle_is_not(self):
        assert not is_induced_tree(complete_graph(3), {0, 1, 2})

    def test_p4_inside_c5(self):
        assert is_induced_tree(cycle_graph(5), {0, 1, 2, 3})

    def test_empty_set_is_an_error(self):
        with pytest.raises(ValueError):
            is_induced_tree(path_graph(2), set())

    def test_exhaustive_against_brute_force(self):
        # agree with (connected and |edges| = |s|-1) over every subset, n <= 7
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 7)
            g = random_graph(n, rng.random(), rng)
            nbrs = neighbour_sets(g)
            for mask in range(1, 1 << n):
                s = {v for v in range(n) if mask >> v & 1}
                inner = [(u, v) for u, v in g.edges if u in s and v in s]
                expected = len(set_components(nbrs, s)) == 1 and len(inner) == len(s) - 1
                assert is_induced_tree(g, s) == expected


class TestShortestPath:
    def test_start_already_inside(self):
        g = path_graph(3)
        assert shortest_path(g, 1, {1, 2}) == [1]

    def test_path_graph(self):
        g = path_graph(3)
        assert shortest_path(g, 0, {2}) == [0, 1, 2]

    def test_tie_broken_towards_smaller_endpoint(self):
        # both 2 and 3 are at distance 2 from 0 on C5; endpoint 2 wins
        g = cycle_graph(5)
        assert shortest_path(g, 0, {2, 3}) == [0, 1, 2]

    def test_empty_target_is_an_error(self):
        with pytest.raises(ValueError):
            shortest_path(path_graph(2), 0, set())


class TestEdgeListFormat:
    def test_round_trip(self):
        g = ms_layered(3)
        assert parse_edge_list(format_edge_list(g)) == g

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(0, 40))
    def test_round_trip_property(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    def test_header_then_edges(self):
        text = format_edge_list(path_graph(3))
        assert text == "3 2\n0 1\n1 2\n"

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("3 2\n0 1\n2 2\n")

    def test_duplicate_rejected_with_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("3 2\n0 1\n1 0\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(EdgeListParseError, match="out of range"):
            parse_edge_list("2 1\n0 5\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("3 2\n0 1\n0 1\n", "line 3: duplicate edge (0, 1)"),
            ("3 3\n0 1\n1 0\nx y\n", "line 3: duplicate edge (0, 1)"),
            ("3 3\n0 1\nx y\n1 0\n", "line 3: edge endpoints must be integers"),
            ("3 2\n0 3\n1 1\n", "line 2: edge (0, 3) out of range for n=3"),
            ("3 2\n0 1\n2\n", "line 3: edge line must be '<u> <v>'"),
            ("3 3\n0 1\n1 +0\n0 1\n", "line 3: edge endpoints must be integers"),
            ("11 1\n\u0663 1_0\n", "line 2: edge endpoints must be integers"),
            ("3 2\n-1 2\n\u0663 1\n", "line 2: edge (-1, 2) out of range for n=3"),
        ],
    )
    def test_first_faulty_line_wins(self, text, line):
        with pytest.raises(EdgeListParseError) as excinfo:
            parse_edge_list(text)
        assert str(excinfo.value) == line

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n\n", "line 1: missing '<n> <m>' header"),
            (" \n", "line 1: header must be '<n> <m>'"),
            ("3 x\n", "line 1: header must contain two integers"),
            ("+3 0\n", "line 1: header must contain two integers"),
            ("1_1 1\n\u0663 1_0\n", "line 1: header must contain two integers"),
            ("3 \u0660\n", "line 1: header must contain two integers"),
            ("-1 0\n", "line 1: header counts must be nonnegative"),
        ],
    )
    def test_header_errors(self, text, message):
        for parse in (edge_list_header, parse_edge_list):
            with pytest.raises(EdgeListParseError) as excinfo:
                parse(text)
            assert str(excinfo.value) == message

    def test_header_is_read_from_the_first_line_alone(self):
        assert edge_list_header("6 2\nnot an edge\n") == (6, 2)

    def test_disconnected_graph_parses(self):
        assert parse_edge_list("6 2\n0 1\n1 2\n").n == 6


class TestInducedSubgraph:
    def test_relabeling_is_sorted(self):
        g = cycle_graph(5)
        sub, mapping = induced_subgraph(g, {4, 0, 1})
        assert mapping == [0, 1, 4]
        assert sub.edges == frozenset({(0, 1), (0, 2)})

    def test_preserves_adjacency(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 10)
            g = random_graph(n, rng.random(), rng)
            chosen = {v for v in range(n) if rng.random() < 0.6}
            sub, mapping = induced_subgraph(g, chosen)
            for i in range(len(mapping)):
                for j in range(i + 1, len(mapping)):
                    assert sub.has_edge(i, j) == g.has_edge(mapping[i], mapping[j])
