"""Both theorems as drawn properties: on connected triangle-free and
K_4-free graphs, built with plain sets rather than the package's
generators, the finder's certificate at every root passes the verdict
`find` and `bench` report against theorem_bound(n, r)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from induced_trees import Graph, find_clique, find_tree, find_triangle, theorem_bound
from induced_trees.finders import _report_failure
from induced_trees.graph import _first_clique

PATH_5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def _lowest_vertices_of_components(nbrs):
    lows, seen = [], set()
    for s in range(len(nbrs)):
        if s in seen:
            continue
        lows.append(s)
        seen.add(s)
        stack = [s]
        while stack:
            for y in nbrs[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
    return lows


@st.composite
def connected_kr_free(draw):
    """(r, g) for r = 3 or 4: a drawn edge is kept only if it closes no K_r,
    that is, if the common neighbourhood of its ends is empty (r = 3) or
    holds no edge (r = 4).  Each later component is then joined to vertex 0
    by its lowest vertex; their neighbourhoods are disjoint, so such an
    edge closes nothing."""
    r = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(2, 30))
    nbrs = [set() for _ in range(n)]
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if u == v or v in nbrs[u]:
            continue
        common = nbrs[u] & nbrs[v]
        if common if r == 3 else any(nbrs[x] & common for x in common):
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
    for low in _lowest_vertices_of_components(nbrs)[1:]:
        nbrs[0].add(low)
        nbrs[low].add(0)
    return r, Graph(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


@settings(max_examples=150, deadline=None)
@given(connected_kr_free())
@example((3, PATH_5))
def test_every_root_meets_the_theorem(case):
    r, g = case
    required = theorem_bound(g.n, r)
    for v in range(g.n):
        assert _report_failure(g, find_tree(g, v, r), v, required) is None


@pytest.mark.parametrize("v", [1, 2, 3])
def test_the_five_vertex_path_meets_the_claimed_bound_with_no_slack(v):
    # The star of an inner vertex has 3 = sqrt(5 - 1) + 1 vertices.
    cert = find_tree(PATH_5, v, 3)
    assert cert.size - cert.claimed_bound == 0.0


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(0, 16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, [pair for pair in pairs if draw(st.booleans())]


@settings(max_examples=150, deadline=None)
@given(simple_graphs())
def test_triangle_and_three_clique_share_one_answer(case):
    # find_triangle and find_clique(g, 3) fill one cache entry, so either
    # call order on a fresh graph must give the lexicographically first
    # triangle, which _first_clique finds by its own search.
    n, edges = case
    first, second = Graph(n, edges), Graph(n, edges)
    clique_first, triangle_first = find_clique(first, 3), find_triangle(first)
    triangle_second, clique_second = find_triangle(second), find_clique(second, 3)
    reference = _first_clique(first.adjacency_masks, 3)
    assert triangle_first == triangle_second == reference
    assert clique_first == clique_second == (frozenset(reference) if reference else None)
