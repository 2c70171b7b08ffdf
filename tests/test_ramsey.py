import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_cases import complete_bipartite, complete_graph
from induced_trees import (
    CliqueAssertionError,
    Graph,
    RamseyPreconditionError,
    binomial_threshold,
    independent_set_of_size,
    induced_subgraph,
)
from induced_trees.generators import random_kr_free
from induced_trees.graph import _iter_bits
from induced_trees.ramsey import _extract


def extract(g, a, b):
    """The extraction over all of g, as (kind, set of members); a clique
    arrives as the CliqueAssertionError that carries it."""
    try:
        members = _extract(g.adjacency_masks, (1 << g.n) - 1, a, b)
    except CliqueAssertionError as exc:
        return "clique", exc.clique
    return "independent", frozenset(_iter_bits(members))


def check_result(g, kind, members):
    members = sorted(members)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            adjacent = g.has_edge(members[i], members[j])
            assert adjacent == (kind == "clique")


class TestBinomialThreshold:
    def test_diagonal_three(self):
        assert binomial_threshold(3, 3) == 6

    def test_a_two_is_linear(self):
        for b in range(1, 10):
            assert binomial_threshold(2, b) == b

    def test_four_five(self):
        assert binomial_threshold(4, 5) == 35

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            binomial_threshold(0, 3)


class TestCliqueOrIndependent:
    def test_k6_yields_clique(self):
        kind, members = extract(complete_graph(6), 3, 3)
        assert kind == "clique" and len(members) >= 3
        check_result(complete_graph(6), kind, members)

    def test_empty_graph_yields_independent(self):
        kind, members = extract(Graph(6), 3, 3)
        assert kind == "independent" and len(members) >= 3

    def test_c5_plus_isolated_vertex(self):
        # C5 is triangle-free with independence number 2; the extra isolated
        # vertex pushes the independent side to 3
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert extract(g, 3, 3) == ("independent", frozenset({0, 2, 5}))

    def test_below_threshold_rejected(self):
        with pytest.raises(RamseyPreconditionError, match="threshold"):
            extract(Graph(5), 3, 3)

    def test_exhaustive_small_parameters(self):
        # on exactly threshold-many vertices the recursion must always land
        rng = random.Random(123)
        for a in range(1, 4):
            for b in range(1, 4):
                n = binomial_threshold(a, b)
                for _ in range(60):
                    g = Graph(
                        n,
                        [
                            (u, v)
                            for u in range(n)
                            for v in range(u + 1, n)
                            if rng.random() < rng.choice([0.2, 0.5, 0.8])
                        ],
                    )
                    kind, members = extract(g, a, b)
                    assert len(members) >= (a if kind == "clique" else b)
                    check_result(g, kind, members)


    def test_long_extraction_needs_no_recursion_limit(self):
        # The threshold C(1500, 1) = 1500 is met, and every step takes the
        # independent branch: 1499 steps, past the default recursion limit.
        assert extract(Graph(1500), 2, 1500) == ("independent", frozenset(range(1500)))


class TestIndependentSetOfSize:
    def test_empty_graph_takes_first_ids(self):
        got = independent_set_of_size(Graph(6), 3, 3)
        assert len(got) >= 3

    def test_k33_is_triangle_free(self):
        got = independent_set_of_size(complete_bipartite(3, 3), 3, 2)
        assert len(got) >= 2
        members = sorted(got)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert not complete_bipartite(3, 3).has_edge(members[i], members[j])

    def test_misuse_surfaces_the_clique(self):
        with pytest.raises(CliqueAssertionError) as excinfo:
            independent_set_of_size(complete_graph(4), 4, 2)
        assert excinfo.value.clique == frozenset({0, 1, 2, 3})


def _mask_outcome(g, region, r, b):
    try:
        return "independent", _extract(g.adjacency_masks, region, r, b)
    except RamseyPreconditionError as exc:
        return "below-threshold", str(exc)
    except CliqueAssertionError as exc:
        return "clique", exc.clique


def _subgraph_outcome(g, region, r, b):
    """The reference: independent_set_of_size on the relabelled induced
    subgraph, with its ids mapped back to the host graph."""
    sub, mapping = induced_subgraph(g, _iter_bits(region))
    try:
        found = independent_set_of_size(sub, r, b)
        return "independent", sum(1 << mapping[x] for x in found)
    except RamseyPreconditionError as exc:
        return "below-threshold", str(exc)
    except CliqueAssertionError as exc:
        return "clique", frozenset(mapping[x] for x in exc.clique)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(3, 6),
    st.floats(0.0, 1.0),
    st.integers(0, 10**6),
    st.integers(2, 5),
    st.integers(1, 4),
    st.data(),
)
def test_region_extraction_equals_the_induced_subgraph(n, r_free, p, seed, r, b, data):
    # r may be below the graph's clique bound r_free, so the clique
    # assertion can fail; b may push the threshold past the region size.
    g = random_kr_free(n, r_free, p, seed)
    region = data.draw(st.integers(0, (1 << n) - 1))
    assert _mask_outcome(g, region, r, b) == _subgraph_outcome(g, region, r, b)
