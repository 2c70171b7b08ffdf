"""The seeded component search that splits each finder region, checked two
ways: property tests against the plain BFS sweep and the theorem bounds,
and mask-read counts that fail if a step walks the whole region again."""

from hypothesis import given, settings
from hypothesis import strategies as st

from graph_cases import CountingMasks, connected_kr_free, cycle_graph, path_graph, small_graphs
from induced_trees import find_tree, theorem_bound, verify_certificate
from induced_trees.finders import BOUND_EPS
from induced_trees.generators import random_kr_free
from induced_trees.graph import _component_masks, _iter_bits, _neighbour_union, _sweep_region


@st.composite
def seeded_splits(draw):
    """A graph, a region and seeds that meet every component of the region:
    every region vertex, or one to all of each component's vertices."""
    g = draw(small_graphs(1, 24))
    region = draw(st.integers(0, (1 << g.n) - 1))
    comps = _sweep_region(g.adjacency_masks, region)[0]
    if draw(st.booleans()):
        return g, region, region, comps
    seeds = 0
    for comp in comps:
        members = list(_iter_bits(comp))
        picked = draw(st.lists(st.sampled_from(members), min_size=1, max_size=len(members)))
        for v in picked:
            seeds |= 1 << v
    return g, region, seeds, comps


@settings(max_examples=300, deadline=None)
@given(seeded_splits())
def test_seeded_split_equals_the_plain_sweep(case):
    g, region, seeds, comps = case
    assert _component_masks(g.adjacency_masks, region, seeds) == comps


@settings(max_examples=150, deadline=None)
@given(connected_kr_free(rs=(3,), max_n=40), st.data())
def test_triangle_free_certificates_verify_and_meet_the_bound(case, data):
    _, g = case
    v = data.draw(st.integers(0, g.n - 1))
    cert = find_tree(g, v, 3)
    assert verify_certificate(g, cert)
    assert cert.root == v
    assert cert.size >= theorem_bound(g.n - 1, 3) + 1 - BOUND_EPS


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 40),
    st.sampled_from([4, 5]),
    st.floats(0.05, 0.6),
    st.integers(0, 10**6),
    st.integers(0, 39),
)
def test_kr_free_certificates_verify_and_meet_the_bound(n, r, p, seed, root):
    g = random_kr_free(n, r, p, seed)
    v = root % n
    cert = find_tree(g, v, r)
    assert verify_certificate(g, cert)
    assert cert.size >= theorem_bound(n - 1, r) + 1 - BOUND_EPS


def test_path_region_with_one_seed_reads_no_mask():
    masks = CountingMasks(path_graph(1000).adjacency_masks)
    region = ((1 << 1000) - 1) ^ 1
    assert _component_masks(masks, region, 1 << 1) == [region]
    assert masks.reads == 0


def test_first_split_of_a_cycle_reads_at_most_n_masks():
    # Root 0: the two searches start at 2 and n-2 and meet halfway.
    n = 2001
    masks = CountingMasks(cycle_graph(n).adjacency_masks)
    nv_mask = (1 << 1) | (1 << (n - 1))
    rest = ((1 << n) - 1) ^ nv_mask ^ 1
    seeds = _neighbour_union(masks.masks, nv_mask) & rest
    assert _component_masks(masks, rest, seeds) == [rest]
    assert masks.reads <= n


def test_finding_on_a_path_reads_linearly_many_masks():
    # A rescan of the region at every level would read about n^2/2 masks.
    n = 2000
    g = path_graph(n)
    g.adjacency_masks = masks = CountingMasks(g.adjacency_masks)
    cert = find_tree(g, 0, 3)
    assert cert.size == n
    assert masks.reads <= 10 * n


def test_long_chains_find_and_verify():
    n = 20000
    for g in (cycle_graph(n), path_graph(n)):
        cert = find_tree(g, 0, 3)
        assert verify_certificate(g, cert)
        assert cert.size >= theorem_bound(n - 1, 3) + 1 - BOUND_EPS
