"""Extremal constructions and seeded random ensembles.

The layered complete-bipartite chains bound induced-tree sizes from above;
the line graph of a balanced tree does the same for the clique-free case;
the dyadic and two-weight bipartite instances exhibit tightness of the
selection guarantees.  Random generators are fully deterministic given
(params, seed) - regeneration reproduces byte-identical edge lists.

Every generator builds its graph's neighbour bitmasks directly, and the
Graph adopts them (`Graph._from_masks`), with no round trip through edge
pairs.  A layered chain builds one mask per part and gives each vertex of
part i the union of parts i - 1 and i + 1; the line graph gives each
vertex the union of the cliques at its tree edge's two ends; a random
graph is sampled, repaired and bridged on its masks.

A random graph's edge coins are the n(n-1)/2 tests `rng.random() < p`
over the vertex pairs in order, and all n(n-1)/2 are still drawn.
`_coin_hits` decides them in blocks of Mersenne Twister words instead of
one call each.  CPython's `random()` is (a >> 5 << 26 | b >> 6) / 2**53
for the next two 32-bit words a and b, and `getrandbits(64 k)` returns the
next 2k words as one integer, the first word lowest.  So a block yields
the same words, read in the same order, and the same coins: the edge
lists are byte-identical to the per-pair loop, and the generator ends in
the same state.  This rests on CPython's `random()`/`getrandbits` word
layout: a test against the per-draw loop in `tests/test_generators.py`
and `GENERATOR_SHA256` pin it on Python 3.10-3.13.
"""

from __future__ import annotations

import math
import random
import struct
from collections.abc import Iterator
from itertools import accumulate, compress, repeat

from .admissible import WeightedBipartiteInstance
from .graph import Graph, _first_clique, _low_bit, _sweep_region

__all__ = [
    "alpha_counterexample",
    "dyadic_bipartite",
    "line_graph_balanced_tree",
    "ms_layered",
    "ms_through_vertex",
    "random_kr_free",
    "random_triangle_free",
]


def _layered_complete(part_sizes: list[int]) -> Graph:
    """Chain of parts where consecutive parts induce complete bipartite
    graphs; vertex ids run part by part.  Each part's mask is built once,
    and every vertex of part i gets the union of parts i - 1 and i + 1."""
    ends = accumulate(part_sizes)
    # Part masks, with an empty part at each end of the chain.
    parts = [0, *(((1 << size) - 1) << (end - size) for size, end in zip(part_sizes, ends)), 0]
    return Graph._from_masks([nbrs for size, before, after in zip(part_sizes, parts, parts[2:])
                              for nbrs in repeat(before | after, size)])


def ms_layered(m: int) -> Graph:
    """Layered chain with part sizes m-|i| for i in (-m, m); m^2 vertices,
    bipartite, with no induced tree larger than 2m-1."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return _layered_complete([m - abs(i) for i in range(-m + 1, m)])


def ms_through_vertex(m: int) -> tuple[Graph, int]:
    """Layered chain with a singleton first part {v} and part sizes m-i
    after it; 1 + m(m-1)/2 vertices.  Any induced tree containing v has at
    most m vertices.  Returns (graph, v)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    g = _layered_complete([1] + [m - i for i in range(1, m)])
    return g, 0


def line_graph_balanced_tree(r: int, depth: int) -> Graph:
    """Line graph of the balanced tree whose internal vertices all have
    degree r-1 (root has r-1 children, other internal vertices r-2), with
    every leaf at the given depth.  The result is K_r-free and its induced
    trees correspond to induced paths of the underlying tree."""
    if r < 4:
        raise ValueError("r must be >= 4")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # Tree vertices are numbered level by level from the root 0, so the
    # edge into child c is line-graph vertex c - 1; at[x] is the mask of
    # the line-graph vertices at tree vertex x, a clique, and parent[e] the
    # upper end of edge e.
    at = [0]
    parent: list[int] = []
    level = range(1)
    for _ in range(depth):
        for x in level:
            k = r - 1 if x == 0 else r - 2
            at[x] |= ((1 << k) - 1) << (len(at) - 1)
            for _ in range(k):
                at.append(1 << (len(at) - 1))
                parent.append(x)
        level = range(level.stop, len(at))
    # Edge e sees the cliques at both of its ends, e + 1 the lower one.
    return Graph._from_masks([(at[x] | at[e + 1]) ^ (1 << e) for e, x in enumerate(parent)])


def dyadic_bipartite(k: int) -> WeightedBipartiteInstance:
    """Unit-weight instance on A = Z/2^k Z with (k+1) 2^k items: item
    (i, j) is adjacent to the cyclic interval {i, ..., i + 2^j - 1}.

    Every A-id keeps a private j=0 item, so the instance is reduction
    invariant, yet no admissible selection keeps 2^(k+1) items or more.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = 1 << k
    items = []
    for j in range(k + 1):
        span = 1 << j
        for i in range(m):
            items.append((1.0, [(i + s) % m for s in range(span)]))
    return WeightedBipartiteInstance(m, items)


def alpha_counterexample(t: int) -> WeightedBipartiteInstance:
    """Two-weight instance whose optimum drops below sqrt(total) as soon as
    the objective exponent exceeds 1/2: a heavy item (weight 1 - 1/t)
    adjacent to all of A, plus t light private items of weight 1/t^2.
    Total weight is 1 over the reals."""
    if t < 2:
        raise ValueError("t must be >= 2")
    heavy = 1.0 - 1.0 / t
    light = t ** -2.0
    items = [(heavy, list(range(t)))]
    items.extend((light, [i]) for i in range(t))
    return WeightedBipartiteInstance(t, items)


# Draws per getrandbits call, 8 bytes each, so a block is 32 KB.
_COIN_BLOCK = 4096
_BLOCK_INDICES = tuple(range(_COIN_BLOCK))
_WORD_PAIR = struct.Struct("<II")


def _coin_hits(rng: random.Random, count: int, p: float) -> Iterator[int]:
    """The indices i < count, ascending, at which the i-th of `count` calls
    of `rng.random()` would return less than p; consumes the same 2 * count
    words of `rng`.

    A draw's `random()` is x / 2**53 with x = (a >> 5 << 26) | (b >> 6),
    and p * 2**53 is exact, so `random() < p` holds exactly when
    x < t = ceil(p * 2**53).  The largest a that can pass has top byte
    `top`: a draw whose a has a lower top byte passes whatever b is, one
    with a higher top byte fails, and only those with top byte equal to
    `top` take the integer test.  Byte translation does the rest in C, and
    the hits come out by `find` in a sparse block or by `compress` in a
    dense one.
    """
    t = math.ceil(p * 2.0**53)
    top = ((t - 1) >> 26 << 5 | 31) >> 24
    # 1 passes, 0 fails, 2 takes the test; at t = 0, top is -1 and the test
    # byte 0 passes nothing, since no x is below 0.
    table = (b"\x01" * top + b"\x02").ljust(256, b"\x00")
    for start in range(0, count, _COIN_BLOCK):
        k = min(_COIN_BLOCK, count - start)
        raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        passes = bytearray(raw[3::8].translate(table))
        i = passes.find(2)
        while i >= 0:
            a, b = _WORD_PAIR.unpack_from(raw, 8 * i)
            passes[i] = (a >> 5 << 26 | b >> 6) < t
            i = passes.find(2, i + 1)
        # A find per hit costs about as much as compress spends on 16 draws.
        if passes.count(1) * 16 < k:
            i = passes.find(1)
            while i >= 0:
                yield start + i
                i = passes.find(1, i + 1)
        else:
            for i in compress(_BLOCK_INDICES, passes):
                yield start + i


def random_triangle_free(n: int, p: float, seed: int) -> Graph:
    """Seeded connected triangle-free graph: edge sampling at density p,
    triangle repair, then bridges between components."""
    return random_kr_free(n, 3, p, seed)


def random_kr_free(n: int, r: int, p: float, seed: int) -> Graph:
    """Seeded connected graph with no clique of size r (random_triangle_free
    is the r=3 case): sample edges, delete one edge per r-clique
    (smallest-id tuple first, lexicographically largest edge removed), then
    bridge components, all on one list of neighbour masks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if r < 2:
        raise ValueError("r must be >= 2")
    if r == 2 and n >= 2:
        raise ValueError("r=2 forbids all edges, so no connected graph on n >= 2 exists")
    masks = [0] * n
    # Coin i is the i-th pair (u, v), u < v, in row order; row u's pairs
    # end before index row_end, so v = i - row_end + n.
    u, row_end = 0, n - 1
    for i in _coin_hits(random.Random(seed), n * (n - 1) // 2, p):
        while i >= row_end:
            u += 1
            row_end += n - 1 - u
        v = i - row_end + n
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    # Deletions never create cliques, so no clique starts before the one
    # just cleared, and each scan resumes at that clique's first vertex.
    start = 0
    while (clique := _first_clique(masks, r, start)) is not None:
        start, u, v = clique[0], clique[-2], clique[-1]
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u

    # The first component holds vertex 0; a bridge from 0 to the lowest
    # vertex of each later component connects the graph.  Its ends lie in
    # different components, so they share no neighbour and the bridge closes
    # no triangle, hence no clique.
    for comp in _sweep_region(masks, (1 << n) - 1)[0][1:]:
        y = _low_bit(comp)
        assert not masks[0] & masks[y]
        masks[0] |= 1 << y
        masks[y] |= 1
    return Graph._from_masks(masks)
