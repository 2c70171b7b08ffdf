import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from induced_trees import (
    EdgeListParseError,
    Graph,
    components_of,
    find_clique,
    find_triangle,
    format_edge_list,
    has_clique,
    induced_subgraph,
    is_connected,
    is_induced_tree,
    is_triangle_free,
    parse_edge_list,
    shortest_path,
)
from induced_trees import graph
from induced_trees.generators import line_graph_balanced_tree, ms_layered
from induced_trees.graph import edge_list_header


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_graph(n, p, rng):
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


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
    def test_path_with_middle_removed(self):
        g = path_graph(3)
        assert components_of(g, {1}) == [frozenset({0}), frozenset({2})]

    def test_five_cycle_minus_closed_neighborhood(self):
        # removing a vertex and its two neighbors from C5 leaves one
        # component on the remaining two (adjacent) vertices
        g = cycle_graph(5)
        comps = components_of(g, {0, 1, 4})
        assert comps == [frozenset({2, 3})]

    def test_everything_excluded(self):
        g = path_graph(3)
        assert components_of(g, {0, 1, 2}) == []

    def test_components_are_maximal_connected(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 12)
            g = random_graph(n, rng.random(), rng)
            excluded = {v for v in range(n) if rng.random() < 0.3}
            comps = components_of(g, excluded)
            seen = set()
            for comp in comps:
                assert not (comp & excluded)
                assert not (comp & seen)
                seen |= comp
                # no edges leave the component within the allowed region
                for x in comp:
                    for y in g.neighbors(x):
                        if y not in excluded:
                            assert y in comp
                if len(comp) > 1:
                    sub, _ = induced_subgraph(g, comp)
                    assert is_connected(sub)
            assert seen == set(range(n)) - excluded


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

    def test_agrees_with_triangle_check(self):
        rng = random.Random(11)
        for _ in range(80):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            assert has_clique(g, 3) == (not is_triangle_free(g))

    def test_large_clique_needs_no_recursion_limit(self):
        # One search level per clique vertex: 1050 levels, past the default
        # recursion limit.
        assert find_clique(complete_graph(1100), 1050) == frozenset(range(1050))


class TestCachedAnswers:
    def test_each_answer_is_computed_once(self, monkeypatch):
        # None answers (no triangle, no clique) are cached too.
        g = path_graph(5)
        first = (is_connected(g), find_triangle(g), find_clique(g, 3), find_clique(g, 2))
        for name in ("_reach", "_neighbour_union", "_first_clique"):
            monkeypatch.setattr(graph, name, _never_called)
        assert (is_connected(g), find_triangle(g), find_clique(g, 3), find_clique(g, 2)) == first
        assert first == (True, None, None, frozenset({0, 1}))

    def test_a_misspelt_cache_slot_raises(self):
        with pytest.raises(AttributeError):
            path_graph(3)._conected = True


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
            for mask in range(1, 1 << n):
                s = {v for v in range(n) if mask >> v & 1}
                inner = [(u, v) for u, v in g.edges if u in s and v in s]
                stack, seen = [min(s)], {min(s)}
                while stack:
                    x = stack.pop()
                    for y in g.neighbors(x):
                        if y in s and y not in seen:
                            seen.add(y)
                            stack.append(y)
                expected = seen == s and len(inner) == len(s) - 1
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


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=120)) if pairs else []
    return Graph(n, edges)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = ms_layered(3)
        assert parse_edge_list(format_edge_list(g)) == g

    @settings(max_examples=150, deadline=None)
    @given(graphs())
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
        ],
    )
    def test_first_faulty_line_wins(self, text, line):
        with pytest.raises(EdgeListParseError) as excinfo:
            parse_edge_list(text)
        assert str(excinfo.value) == line

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\n\n", "line 1: missing '<n> <m>' header"),
            (" \n", "line 1: header must be '<n> <m>'"),
            ("3 x\n", "line 1: header must contain two integers"),
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
