"""Both theorems as drawn properties: on connected triangle-free, K_4-free
and K_5-free graphs, built with plain sets rather than the package's
generators, the finder's certificate at every root passes the verdict
`find` and `bench` report against theorem_bound(n, r).  On the small ones
the certificates are also held against the exact maximum t(G)."""

import pytest
from hypothesis import example, given, settings

from graph_cases import connected_kr_free, small_graphs
from induced_trees import (
    Graph,
    TreeCertificate,
    find_clique,
    find_tree,
    find_triangle,
    max_induced_tree_exact,
    reroute_through_vertex,
    theorem_bound,
    verify_certificate,
)
from induced_trees.finders import _report_failure
from induced_trees.graph import _first_clique

PATH_5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@settings(max_examples=150, deadline=None)
@given(connected_kr_free())
@example((3, PATH_5))
def test_every_root_meets_the_theorem(case):
    r, g = case
    required = theorem_bound(g.n, r)
    for v in range(g.n):
        assert _report_failure(g, find_tree(g, v, r), v, required) is None


@settings(max_examples=150, deadline=None)
@given(connected_kr_free(max_n=14))
@example((3, PATH_5))
def test_certificates_against_the_exact_maximum(case):
    # No certificate beats t(G), and rerouting the oracle's maximum tree
    # keeps at least 1 + t(G)/2 vertices through every vertex: the claim
    # suite, on drawn graphs rather than a fixed ensemble.
    r, g = case
    t, witness = max_induced_tree_exact(g)
    assert all(find_tree(g, v, r).size <= t for v in range(g.n))
    base = TreeCertificate(witness, min(witness), float(t), "oracle")
    for v in range(g.n):
        rerouted = reroute_through_vertex(g, base, v)
        assert verify_certificate(g, rerouted)
        assert v in rerouted.vertices and rerouted.size >= 1 + t / 2


@pytest.mark.parametrize("v", [1, 2, 3])
def test_the_five_vertex_path_meets_the_claimed_bound_with_no_slack(v):
    # The star of an inner vertex has 3 = sqrt(5 - 1) + 1 vertices.
    cert = find_tree(PATH_5, v, 3)
    assert cert.size - cert.claimed_bound == 0.0


@settings(max_examples=150, deadline=None)
@given(small_graphs(0, 16))
def test_triangle_and_three_clique_share_one_answer(g):
    # find_triangle and find_clique(g, 3) fill one cache entry, so either
    # call order on a fresh graph must give the lexicographically first
    # triangle, which _first_clique finds by its own search.
    first, second = Graph(g.n, g.edges), Graph(g.n, g.edges)
    clique_first, triangle_first = find_clique(first, 3), find_triangle(first)
    triangle_second, clique_second = find_triangle(second), find_clique(second, 3)
    reference = _first_clique(first.adjacency_masks, 3)
    assert triangle_first == triangle_second == reference
    assert clique_first == clique_second == (frozenset(reference) if reference else None)
