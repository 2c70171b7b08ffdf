"""The seeded component search that splits each finder region, checked two
ways: property tests against the plain BFS sweep and the theorem bounds,
and mask-read counts that fail if a step walks the whole region again."""

from collections.abc import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from induced_trees import Graph, find_tree, theorem_bound, verify_certificate
from induced_trees.finders import BOUND_EPS
from induced_trees.generators import random_kr_free
from induced_trees.graph import _component_masks, _iter_bits, _neighbour_union


class CountingMasks(Sequence):
    """Adjacency masks that count how many are read."""

    def __init__(self, masks):
        self.masks = masks
        self.reads = 0

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, v):
        self.reads += 1
        return self.masks[v]


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def graphs_with_region(draw):
    n = draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    region = draw(st.integers(0, (1 << n) - 1))
    return Graph(n, edges), region


@st.composite
def seeded_splits(draw):
    """A graph, a region and seeds that meet every component of the region:
    every region vertex, or one to all of each component's vertices."""
    g, region = draw(graphs_with_region())
    comps = _component_masks(g.adjacency_masks, region)
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


@st.composite
def connected_triangle_free(draw):
    """A random spanning tree plus random extra edges that close no triangle."""
    n = draw(st.integers(1, 40))
    masks = [0] * n
    edges = []

    def add(u, v):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        edges.append((u, v))

    for v in range(1, n):
        add(draw(st.integers(0, v - 1)), v)
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    for u, v in extra:
        if u != v and not masks[u] >> v & 1 and not masks[u] & masks[v]:
            add(u, v)
    return Graph(n, edges), draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(connected_triangle_free())
def test_triangle_free_certificates_verify_and_meet_the_bound(case):
    g, v = case
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
