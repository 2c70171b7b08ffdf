"""The bitmask kernel in graph.py, checked against set-based references on
masks whose bits reach about 4096, where ints span many machine words."""

from hypothesis import given, settings
from hypothesis import strategies as st

from induced_trees import Graph, find_triangle, is_induced_tree
from induced_trees.graph import _component_masks, _iter_bits, _neighbour_union

WIDTH = 4096


def bits_of(mask):
    return {i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"}


def mask_of(vertices):
    return sum(1 << v for v in vertices)


sparse_masks = st.builds(mask_of, st.sets(st.integers(0, WIDTH - 1), max_size=60))
wide_masks = st.one_of(sparse_masks, st.integers(0, (1 << WIDTH) - 1))


@st.composite
def spread_graphs(draw):
    """A graph on up to 30 vertices spread over ids below WIDTH (the other
    ids are isolated); triangles are left as drawn, planted or filtered out."""
    ids = sorted(draw(st.sets(st.integers(0, WIDTH - 1), min_size=1, max_size=30)))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * len(ids), unique=True)) if pairs else []
    mode = draw(st.sampled_from(["as-drawn", "planted", "triangle-free"]))
    if mode == "planted" and len(ids) >= 3:
        # An edge (a, b) with one to three common neighbours.
        a, b, *common = draw(st.lists(st.sampled_from(ids), min_size=3, max_size=5, unique=True))
        planted = [(a, b)] + [(x, c) for c in common for x in (a, b)]
        edges = list(set(edges) | {tuple(sorted(e)) for e in planted})
    if mode == "triangle-free":
        nbrs = {v: set() for v in ids}
        kept = []
        for u, v in edges:
            if not nbrs[u] & nbrs[v]:
                nbrs[u].add(v)
                nbrs[v].add(u)
                kept.append((u, v))
        edges = kept
    return Graph(ids[-1] + 1, edges), ids


def neighbour_sets(g):
    return [bits_of(mask) if mask else set() for mask in g.adjacency_masks]


def set_components(nbrs, region):
    """Components of the region (a set), by BFS on sets, ordered by minimum."""
    left, comps = set(region), []
    while left:
        start = min(left)
        comp, todo = {start}, [start]
        while todo:
            for y in nbrs[todo.pop()] & left:
                if y not in comp:
                    comp.add(y)
                    todo.append(y)
        left -= comp
        comps.append(comp)
    return comps


@settings(max_examples=200, deadline=None)
@given(wide_masks)
def test_iter_bits_lists_the_set_bits_ascending(mask):
    assert _iter_bits(mask) == sorted(bits_of(mask))


@settings(max_examples=120, deadline=None)
@given(st.lists(wide_masks, min_size=1, max_size=24), st.data())
def test_neighbour_union_equals_the_set_union(masks, data):
    vertices = data.draw(st.sets(st.integers(0, len(masks) - 1)))
    expected = set().union(*(bits_of(masks[x]) for x in vertices))
    assert bits_of(_neighbour_union(masks, mask_of(vertices))) == expected


@settings(max_examples=120, deadline=None)
@given(spread_graphs(), st.data())
def test_seeded_components_equal_the_sweep_and_a_set_bfs(case, data):
    g, ids = case
    region = data.draw(st.sets(st.sampled_from(ids)))
    comps = set_components(neighbour_sets(g), region)
    seeds = set()
    for comp in comps:
        seeds |= data.draw(st.sets(st.sampled_from(sorted(comp)), min_size=1))
    expected = [mask_of(comp) for comp in comps]
    masks, region_mask = g.adjacency_masks, mask_of(region)
    assert _component_masks(masks, region_mask) == expected
    assert _component_masks(masks, region_mask, mask_of(seeds)) == expected


def ordered_triangle(g):
    """The first edge (u, v), u < v, in ascending order with a common
    neighbour, and its smallest common neighbour, as a sorted triple."""
    nbrs = neighbour_sets(g)
    for u in range(g.n):
        for v in sorted(nbrs[u]):
            common = nbrs[u] & nbrs[v]
            if v > u and common:
                return tuple(sorted((u, v, min(common))))
    return None


@settings(max_examples=120, deadline=None)
@given(spread_graphs())
def test_find_triangle_equals_the_ordered_brute_force(case):
    g, _ = case
    assert find_triangle(g) == ordered_triangle(g)


@settings(max_examples=120, deadline=None)
@given(spread_graphs(), st.data())
def test_is_induced_tree_equals_a_set_check(case, data):
    g, ids = case
    s = data.draw(st.sets(st.sampled_from(ids), min_size=1))
    nbrs = neighbour_sets(g)
    edges = sum(len(nbrs[v] & s) for v in s) // 2
    expected = edges == len(s) - 1 and len(set_components(nbrs, s)) == 1
    assert is_induced_tree(g, s) == expected
