"""The bitmask kernel in graph.py, checked against set-based references on
masks whose bits reach about 4096, where ints span many machine words;
mask-read counts that fail if a component search walks the whole region
again or merges the searches that meet; and the kernel rule of graph.py's
docstring, checked on the package source."""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_cases import (
    WIDTH,
    CountingMasks,
    bits_of,
    complete_bipartite,
    complete_multipartite,
    cycle_graph,
    kernel_graphs,
    neighbour_sets,
    path_graph,
    random_graph,
    set_components,
    set_two_colouring,
    small_graphs,
)
from induced_trees import (
    CliqueSearchLimitError,
    Graph,
    find_clique,
    find_tree,
    find_triangle,
    is_connected,
    is_induced_tree,
)
from induced_trees import graph
from induced_trees.generators import ms_layered, random_kr_free, random_triangle_free
from induced_trees.graph import (
    _bfs_sweep,
    _component_masks,
    _first_clique,
    _iter_bits,
    _neighbour_union,
    _sweep_region,
)


def mask_of(vertices):
    return sum(1 << v for v in vertices)


sparse_masks = st.builds(mask_of, st.sets(st.integers(0, WIDTH - 1), max_size=60))
wide_masks = st.one_of(sparse_masks, st.integers(0, (1 << WIDTH) - 1))


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
@given(kernel_graphs(), st.data())
def test_seeded_components_equal_the_sweep_and_a_set_bfs(case, data):
    g, ids = case
    region = data.draw(st.sets(st.sampled_from(ids)))
    comps = set_components(neighbour_sets(g), region)
    seeds = set()
    for comp in comps:
        seeds |= data.draw(st.sets(st.sampled_from(sorted(comp)), min_size=1))
    expected = [mask_of(comp) for comp in comps]
    masks, region_mask = g.adjacency_masks, mask_of(region)
    assert _sweep_region(masks, region_mask)[0] == expected
    assert _component_masks(masks, region_mask, mask_of(seeds)) == expected


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


def first_split_reads(g, roots):
    """Mask reads of the component searches of each root's first split:
    the region without N[v], seeded with the vertices next to N(v)."""
    masks = CountingMasks(g.adjacency_masks)
    everything = (1 << g.n) - 1
    for v in roots:
        nv_mask = masks.masks[v]
        rest = everything ^ nv_mask ^ (1 << v)
        _component_masks(masks, rest, _neighbour_union(masks.masks, nv_mask) & rest)
    return masks.reads


def test_searches_that_meet_are_dropped_not_merged():
    # Merging the searches that meet reads 6,250 masks here, dropping the
    # later one after its growth 4,491, and dropping it before its growth
    # as well 3,122; the ceiling lies above the last and below the others.
    g = random_triangle_free(3000, 4 / 3000, 3000)
    assert first_split_reads(g, range(0, 3000, 150)) <= 3500


def test_first_split_of_a_comb_reads_at_most_its_region():
    # A 200-vertex path with a seed on every 4th vertex beside a 3,000-vertex
    # random piece with one seed: the path's first search takes 200 rounds,
    # so the random piece is walked in full (3,157 reads; merging the
    # path's searches reads 359), still within one walk of the region.
    piece = random_triangle_free(3000, 4 / 3000, 3000)
    hub, root = 3200, 3201
    edges = list(piece.edges) + [(i, i + 1) for i in range(3000, 3199)]
    edges += [(hub, x) for x in range(3000, 3200, 4)] + [(hub, 0), (hub, root)]
    assert first_split_reads(Graph(3202, edges), [root]) <= 3200


def test_finding_on_a_path_reads_linearly_many_masks():
    # A rescan of the region at every level would read about n^2/2 masks.
    n = 2000
    g = path_graph(n)
    g.adjacency_masks = masks = CountingMasks(g.adjacency_masks)
    cert = find_tree(g, 0, 3)
    assert cert.size == n
    assert masks.reads <= 10 * n


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
@given(kernel_graphs())
def test_find_triangle_equals_the_ordered_brute_force(case):
    g, _ = case
    assert find_triangle(g) == ordered_triangle(g)


@settings(max_examples=200, deadline=None)
@given(kernel_graphs())
def test_sweep_answers_connectivity_and_holds_every_triangle(case):
    g, _ = case
    nbrs = neighbour_sets(g)
    comps, marked = _bfs_sweep(g)
    reached, todo = {0}, [0]
    while todo:
        for y in nbrs[todo.pop()] - reached:
            reached.add(y)
            todo.append(y)
    assert comps[0] == mask_of(reached)
    assert (len(comps) == 1) == (len(reached) == g.n)
    assert (marked == 0) == set_two_colouring(nbrs, g.n)
    scope = bits_of(marked)
    scope |= set().union(*(nbrs[x] for x in scope))
    for u in range(g.n):
        for v in nbrs[u]:
            for w in nbrs[u] & nbrs[v]:
                assert {u, v, w} <= scope


PETERSEN = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


@pytest.mark.parametrize("g", [cycle_graph(5), cycle_graph(7), cycle_graph(9), PETERSEN],
                         ids=["C5", "C7", "C9", "Petersen"])
def test_triangle_free_graphs_with_an_odd_cycle_are_marked(g):
    assert _bfs_sweep(g)[1]
    assert find_triangle(g) is None
    assert find_clique(g, 4) is None


def test_a_bipartite_chain_is_proved_triangle_free_by_the_sweep_alone():
    # The sweep reads each of the n masks once; with no vertex marked, the
    # triangle search reads none (a per-edge scan read 1,433 here).
    g = ms_layered(12)
    g.adjacency_masks = masks = CountingMasks(g.adjacency_masks)
    assert is_connected(g)
    assert find_triangle(g) is None
    assert masks.reads <= 2 * g.n


@settings(max_examples=120, deadline=None)
@given(kernel_graphs(), st.data())
def test_is_induced_tree_equals_a_set_check(case, data):
    g, ids = case
    s = data.draw(st.sets(st.sampled_from(ids), min_size=1))
    nbrs = neighbour_sets(g)
    edges = sum(len(nbrs[v] & s) for v in s) // 2
    expected = edges == len(s) - 1 and len(set_components(nbrs, s)) == 1
    assert is_induced_tree(g, s) == expected


def test_is_induced_tree_stops_once_the_set_is_reached():
    # The edge count reads each of the 51 masks once.  The BFS from leaf 50
    # then reaches the centre and, through it, every leaf after 2 reads;
    # walking on to the last layer would read the 49 other leaves too.
    g = complete_bipartite(1, 50)
    g.adjacency_masks = masks = CountingMasks(g.adjacency_masks)
    assert is_induced_tree(g, range(51))
    assert masks.reads <= 51 + 2


@pytest.mark.parametrize("apart", [0, 9])
def test_a_cycle_beside_a_vertex_is_no_tree(apart):
    # C_4 on 1..4 and one vertex apart: 4 edges on 5 vertices, so the edge
    # count passes, and the BFS runs out of frontier short of the set,
    # after the cycle (apart = 0) or at once (apart = 9, the highest).
    g = Graph(10, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert not is_induced_tree(g, {1, 2, 3, 4, apart})


@st.composite
def clique_cases(draw):
    """(g, size, start): a small graph with any size and start, or a dense
    one on 10 to 14 vertices, each pair an edge with probability 0.7 to
    0.85, asked for a clique of 6 or 7 vertices from near its lowest
    vertex.  There sizes lie about the clique number, so searches back out
    below the top and the colour rule prunes: in about a fifth of the
    examples when written."""
    if draw(st.booleans()):
        g = draw(small_graphs(0, 14))
        return g, draw(st.integers(0, 7)), draw(st.integers(0, g.n))
    p = draw(st.floats(0.7, 0.85))
    g = random_graph(draw(st.integers(10, 14)), p, random.Random(draw(st.integers(0, 2**32 - 1))))
    return g, draw(st.integers(6, 7)), draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(clique_cases())
def test_first_clique_equals_the_first_combination(case):
    g, size, start = case
    edges = g.edges
    cliques = (
        c for c in combinations(range(start, g.n), size)
        if all(pair in edges for pair in combinations(c, 2))
    )
    assert _first_clique(g.adjacency_masks, size, start) == next(cliques, None)


def test_the_degree_prescan_bounds_the_sparse_check(monkeypatch):
    # The largest K_r check of the benchmark's kr-mixed workload.  Only 461
    # of the 2,000 vertices have the 3 higher neighbours that a K_4's lowest
    # vertex needs, and the search starts from those alone: 461 top starts
    # and 892 nodes below them.  Starting from every vertex would visit
    # 2,892.  The cap is patched only after the generator's own repair.
    g = random_kr_free(2000, 4, 3 / 2000, 4)
    monkeypatch.setattr(graph, "CLIQUE_NODE_CAP", 1500)
    assert find_clique(g, 4) is None


# Nodes of the K_{k+1} check on the complete k-partite graph with parts of
# 3, measured when the colour rule was written; they grow about as 3k^2.
# The K_k check takes k.  Without the colour rule the K_{k+1} check is
# exponential in k and runs past the ceiling even at k = 10.
MULTIPARTITE_NODES = {10: 279, 20: 1161, 40: 4719}


@pytest.mark.parametrize("k", sorted(MULTIPARTITE_NODES))
def test_the_colour_rule_keeps_multipartite_checks_within_4k_squared_nodes(monkeypatch, k):
    # The graph holds K_k but no K_{k+1}.  The search's own node count
    # enforces the ceiling: the cap is patched down to it.
    ceiling = 4 * k * k
    g = complete_multipartite(k)
    monkeypatch.setattr(graph, "CLIQUE_NODE_CAP", ceiling)
    try:
        found = find_clique(g, k + 1), find_clique(g, k)
    except CliqueSearchLimitError:
        pytest.fail(
            f"a K_{k + 1} or K_{k} check on the complete {k}-partite graph visited more "
            f"than the ceiling 4k^2 = {ceiling} nodes; the K_{k + 1} check measured "
            f"{MULTIPARTITE_NODES[k]} when written"
        )
    assert found == (None, frozenset(range(0, 3 * k, 3)))


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "induced_trees").glob("*.py"))
# The loops that keep `m & -m`, measured faster there than graph._low_bit.
NEGATION_KEPT = {"_first_clique", "_extract"}


def kernel_rule_breaks(source):
    """(line, what) for each `~` and each `& -x` outside NEGATION_KEPT."""
    breaks = []

    def negated(node):
        return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)

    def visit(node, functions):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = functions | {node.name}
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            breaks.append((node.lineno, "~"))
        if isinstance(node, ast.BinOp):
            sides = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            sides = (node.value,)
        else:
            sides = ()
        if sides and isinstance(node.op, ast.BitAnd) and any(map(negated, sides)):
            if not functions & NEGATION_KEPT:
                breaks.append((node.lineno, "& -x"))
        for child in ast.iter_child_nodes(node):
            visit(child, functions)

    visit(ast.parse(source), frozenset())
    return breaks


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_keeps_the_kernel_rule(path):
    assert kernel_rule_breaks(path.read_text(encoding="utf-8")) == []


def test_kernel_rule_check_sees_each_form():
    source = (
        "def f(a, b):\n"
        "    a &= ~b\n"
        "    a &= -b\n"
        "    return (a & -a) | (-b & a)\n"
        "def _first_clique(c):\n"
        "    def extend(c):\n"
        "        return c & -c\n"
        "    return ~c\n"
    )
    assert kernel_rule_breaks(source) == [(2, "~"), (3, "& -x"), (4, "& -x"), (4, "& -x"), (8, "~")]
