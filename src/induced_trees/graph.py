"""Simple undirected graphs on dense integer ids, plus the structural
queries the rest of the package is built on.

Graphs are immutable after construction and every operation here is a
pure query, so shared instances are safe to use from multiple threads.
A graph's caches hold answers that depend on the graph alone, so
concurrent callers may both fill the same entry, with the same value;
the finders' subtree and twin caches spend one bit budget under a lock.
All outputs that are ordered (paths, component lists, parsed files) use
ascending vertex ids to break ties, so repeated runs are reproducible.

Vertex sets are int bitmasks, as wide as their highest vertex id.  The
kernel rule for loops over them: scan down from the top bit
(`x = m.bit_length() - 1; m ^= 1 << x`), write a set difference as
`a ^ b` where b ⊆ a (`a ^ (a & b)` otherwise), and build no negative
int: no `~b`, and no `m & -m` outside two loops.  Python computes either
through a two's complement copy of the whole mask, which costs several
times a plain `a & b` on a wide mask.  The two loops, `_first_clique` and
`ramsey._extract`, keep `m & -m` for their lowest bit because there the
call to `_low_bit` measured slower than the copy (CHANGES.md holds the
timings).  The greedy colouring that bounds `_first_clique` keeps to the
rule: it scans its class from the top bit and drops a vertex's
neighbours with `q ^= q & masks[x]`.  tests/test_mask_kernel.py checks
the rule.
"""

from __future__ import annotations

import operator
import re
import sys
from itertools import compress, islice
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "CliqueSearchLimitError",
    "EdgeListParseError",
    "Graph",
    "components_of",
    "find_clique",
    "find_triangle",
    "format_edge_list",
    "has_clique",
    "induced_subgraph",
    "is_connected",
    "is_induced_tree",
    "is_triangle_free",
    "load_edge_list",
    "parse_edge_list",
    "save_edge_list",
    "shortest_path",
]


class EdgeListParseError(ValueError):
    """Malformed edge-list text; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _is_id(x) -> bool:
    """The one integer-id check, run by every JSON parser and by OracleBudget."""
    # bool is an int subclass, but `true` is not an id.
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    # False for NaN and the infinities, and for ints too large for a float.
    return (_is_id(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _iter_bits(mask: int) -> list[int]:
    """The set bits of `mask`, ascending."""
    bits = []
    while mask:
        x = mask.bit_length() - 1
        bits.append(x)
        mask ^= 1 << x
    bits.reverse()
    return bits


def _low_bit(mask: int) -> int:
    """The lowest set bit of a nonzero `mask`."""
    return (mask ^ (mask - 1)).bit_length() - 1


def _neighbour_union(masks: Sequence[int], vertex_mask: int) -> int:
    """The union of `masks[x]` over the vertices x of `vertex_mask`; the one
    loop every mask BFS in the package runs per layer."""
    union = 0
    while vertex_mask:
        x = vertex_mask.bit_length() - 1
        vertex_mask ^= 1 << x
        union |= masks[x]
    return union


def _mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _iter_edges(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Edges (u, v) with u < v, in ascending (u, v) order."""
    for u, mask in enumerate(masks):
        for v in _iter_bits(mask >> (u + 1)):
            yield u, u + 1 + v


def _reach(masks: Sequence[int], seed: int, region: int) -> tuple[int, int]:
    """The vertices reachable from `seed`, a bitmask of region vertices,
    inside `region`, and those of them with a neighbour in their own BFS
    layer, as two bitmasks.  A layer's neighbour union is read anyway, so
    the second costs one AND and one OR per layer."""
    visited = frontier = seed
    marked = 0
    while frontier:
        nbrs = _neighbour_union(masks, frontier)
        marked |= nbrs & frontier
        frontier = nbrs & (region ^ visited)
        visited |= frontier
    return visited, marked


def _sweep_region(masks: Sequence[int], region: int) -> tuple[list[int], int]:
    """One BFS per component of the `region` bitmask, lowest vertex first:
    the components as bitmasks ordered by lowest set bit, and the union of
    `_reach`'s marked vertices."""
    comps: list[int] = []
    marked = 0
    while region:
        comp, inner = _reach(masks, 1 << _low_bit(region), region)
        comps.append(comp)
        marked |= inner
        region ^= comp
    return comps, marked


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    No self-loops, no parallel edges; adjacency is symmetric.  The one stored
    representation is `adjacency_masks`, a neighbour bitmask per vertex;
    `edges` ((u, v) pairs, u < v), `neighbors`, `degree` and `has_edge` are
    views derived from it.  Connectivity, triangle and clique searches are
    cached lazily, which is safe because instances never change.

    `_subtrees`, `_twins` and `_subtree_room` are the finders' subtree
    cache, keyed by (r, region, root) at the top step's subproblems and,
    once some root has split, at every level below, their cache of
    whole trees that a root's false twins take, by r and the root's
    neighbourhood, and the bit budget the two share, kept as
    `finders._grow` describes.
    """

    # One slot per cached answer, and one for the finders' shared budget,
    # which bounds the two finder caches together at the masks' bits: a
    # misspelt name raises instead of silently missing the cache.
    __slots__ = (
        "n", "edge_count", "adjacency_masks", "_sweep", "_cliques", "_subtrees", "_twins",
        "_subtree_room",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        try:
            masks = [0] * n
        except (OverflowError, MemoryError):
            # A count the list cannot index or hold is bad input, not a crash.
            raise ValueError(f"vertex count {n} is too large") from None
        count = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if masks[u] >> v & 1:
                raise ValueError(f"duplicate edge {(u, v) if u < v else (v, u)}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            count += 1
        self._adopt(n, count, masks)

    @classmethod
    def _from_masks(cls, masks: list[int]) -> Graph:
        """The graph whose neighbour bitmasks are `masks`, adopted after
        O(n) checks instead of `__init__`'s per-edge ones: no bit at or
        above n = len(masks), no self-loop, and an even bit total, since
        each edge sets two bits.  edge_count is half the total.

        The checks do not prove the masks symmetric; the generators, the
        only callers, build them so.  In `random_kr_free` every coin,
        clique repair and bridge sets or clears both bits of its pair.  In
        a layered chain a vertex's mask is the union of the two parts next
        to its own, and each of those parts sees every vertex of it.  In
        the line graph a vertex's mask is the union of the cliques at its
        edge's two ends, less itself, and it lies in both.  Untrusted
        edges come in through `Graph(n, edges)`."""
        n = len(masks)
        total = 0
        for v, mask in enumerate(masks):
            if mask >> n:
                raise ValueError(f"vertex {v} has a neighbour out of range for n={n}")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            total += mask.bit_count()
        if total & 1:
            raise ValueError(f"the masks hold {total} bits, an odd total, so they are not symmetric")
        g = cls.__new__(cls)
        g._adopt(n, total >> 1, masks)
        return g

    def _adopt(self, n: int, edge_count: int, masks: list[int]) -> None:
        """Set a new graph's fields: its counts, its masks and empty caches."""
        self.n = n
        self.edge_count = edge_count
        self.adjacency_masks: tuple[int, ...] = tuple(masks)
        self._sweep: Optional[tuple[list[int], int]] = None
        # By size: the first clique, None if there is none, or the node cap
        # an undecided search stopped at.
        self._cliques: dict[int, Union[frozenset[int], None, int]] = {}
        self._subtrees: dict[tuple[int, int, int], int] = {}
        self._twins: dict[tuple[int, int], tuple[int, int, str]] = {}
        self._subtree_room: Optional[int] = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_iter_edges(self.adjacency_masks))

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_iter_bits(self._mask(v)))

    def degree(self, v: int) -> int:
        return self._mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        n = self.n
        return 0 <= u < n and 0 <= v < n and bool(self.adjacency_masks[u] >> v & 1)

    def _mask(self, v: int) -> int:
        # A negative index would wrap around to another vertex's mask.
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.adjacency_masks[v]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency_masks == other.adjacency_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency_masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _bfs_sweep(g: Graph) -> tuple[list[int], int]:
    """g's one BFS sweep over every component, run once and cached:
    `_sweep_region`'s pair for the whole vertex set, that is g's components
    as bitmasks ordered by lowest vertex, and the bitmask of marked
    vertices, those with a neighbour in their own BFS layer.  None is
    marked iff g is bipartite: the layer parities 2-colour g exactly when
    no edge lies in a layer."""
    if g._sweep is None:
        g._sweep = _sweep_region(g.adjacency_masks, (1 << g.n) - 1)
    return g._sweep


def _check_vertex(g: Graph, v: int) -> None:
    """The entry check of the finders and the tree oracle, in order:
    nonempty graph, vertex v in range."""
    if g.n == 0:
        raise ValueError("empty graph")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")


def is_connected(g: Graph) -> bool:
    """True iff g has exactly one connected component (n >= 1 required)."""
    if g.n == 0:
        raise ValueError("empty graph: connectivity is undefined for n = 0")
    return len(_bfs_sweep(g)[0]) == 1


def _component_masks(masks: Sequence[int], region: int, seeds: int) -> list[int]:
    """Connected components of the subgraph induced on the `region` bitmask,
    as bitmasks ordered by lowest set bit.

    `seeds` is a bitmask of region vertices, and every component of the
    region must contain a seed.  A finder step splits what is left of its
    connected region once the root v and v's neighbourhood N(v) are
    removed, and passes the vertices next to N(v): every component left has
    an edge to the removed vertices, because the region is connected, and
    that edge ends in N(v), because v's only neighbours in the region are
    N(v).

    Each seed starts its own search, and the searches grow one BFS layer
    per round, in seed order.  A search whose visited set meets what an
    earlier search of the round has visited is dropped, tested before it
    grows, so it reads no mask, and again after: the two lie in one
    component, whose first search is never dropped and goes on to reach
    all of it.  A search whose frontier empties is a finished
    component.  Once at most one search is left, its component is what the
    finished ones leave of the region, and is never walked.  So the cost
    follows the pieces cut off, not the region: a path with one seed reads
    no mask at all, and a split takes at most one round more than the
    diameter of the slowest piece that is not the last one left.  Every
    search's visited set stays inside the region (visited ⊆ region), so
    `region ^ visited` is what it has not reached yet.

    Merging the searches that meet instead reads about twice as many masks
    on sparse random graphs, but does one thing better: a piece with many
    spread-out seeds finishes once the gaps between them are walked, where
    dropping waits, unless the piece is the last one left, for its first
    seed's search to cover it.  On a comb, a 200-vertex path carrying 50
    seeds beside a 3,000-vertex random triangle-free piece, the first split
    reads 3,157 masks where merging reads 359, still fewer than the
    region's 3,200 vertices.
    """
    if not seeds & (seeds - 1):
        # One seed: by the precondition the region is one component.  No
        # seed: the region is empty.
        return [region] if region else []
    comps: list[int] = []
    # (visited, frontier) per search; visited sets are disjoint between rounds.
    live = [(1 << s, 1 << s) for s in _iter_bits(seeds)]
    while len(live) > 1:
        grown: list[tuple[int, int]] = []
        claimed = 0
        for visited, frontier in live:
            # Test before the growth too, so a search already met reads nothing.
            if not visited & claimed:
                frontier = _neighbour_union(masks, frontier) & (region ^ visited)
                visited |= frontier
                if not visited & claimed:
                    if frontier:
                        grown.append((visited, frontier))
                    else:
                        comps.append(visited)
            claimed |= visited
        live = grown
    rest = region
    for comp in comps:
        rest ^= comp
    if rest:
        comps.append(rest)
    return sorted(comps, key=_low_bit)


def components_of(g: Graph) -> list[frozenset[int]]:
    """Connected components of g, ordered by their minimum vertex id, as
    listed by the cached sweep (`_bfs_sweep`)."""
    return [frozenset(_iter_bits(mask)) for mask in _bfs_sweep(g)[0]]


def find_triangle(g: Graph) -> Optional[tuple[int, int, int]]:
    """Some triangle of g as a sorted triple, or None.  Deterministic: the
    first edge (u, v), u < v, in sorted order with a common neighbor, and
    its smallest common neighbor, which is find_clique(g, 3).

    A BFS edge joins one layer or two adjacent layers, so two of a
    triangle's three vertices share a layer and are marked by the cached
    sweep (`_bfs_sweep`), and the third is a neighbour of theirs.  A marked
    vertex has a marked neighbour, so every triangle vertex sees a marked
    vertex, and the ascending scan skips each u that sees none: it finds
    the same first u, and on a bipartite graph, which marks none, reads no
    mask.  One union test per scanned u tells whether any such edge starts
    at u, so only the first u that has one walks its edges.  The answer is
    find_clique's cache entry for size 3."""
    if 3 not in g._cliques:
        masks = g.adjacency_masks
        marked = _bfs_sweep(g)[1]
        found = None
        for u, mask in enumerate(masks if marked else ()):
            if not mask & marked:
                continue
            above = mask >> (u + 1) << (u + 1)
            if _neighbour_union(masks, above) & mask:
                v = next(v for v in _iter_bits(above) if masks[v] & mask)
                found = frozenset((u, v, _low_bit(masks[v] & mask)))
                break
        g._cliques[3] = found
    triangle = g._cliques[3]
    return tuple(sorted(triangle)) if triangle is not None else None


def is_triangle_free(g: Graph) -> bool:
    return find_triangle(g) is None


# The most nodes `_first_clique` visits before it gives up with
# CliqueSearchLimitError; a node is a vertex the search tries to add, a top
# start or a candidate below one.  The largest check of the benchmark's
# kr-mixed workload visits 1,353 nodes, the K_1050 in K_1100 1,050, and
# the K_41 check on the complete 40-partite graph with parts of 3 4,719.
# The Keller graph G_4 holds no K_13, which the colouring bound does not
# prove; at this cap the check gives up after 4–5 s (CHANGES.md holds
# the counts and timings).
CLIQUE_NODE_CAP = 1 << 20


class CliqueSearchLimitError(ValueError):
    """A clique search visited CLIQUE_NODE_CAP nodes without deciding
    whether the clique exists."""

    def __init__(self, size: int, n: int, cap: int):
        super().__init__(
            f"undecided: the search for a clique of size {size} in {n} vertices "
            f"stopped at the node cap of {cap} (graph.CLIQUE_NODE_CAP)"
        )


def _colourable(masks: Sequence[int], vertices: int, colours: int) -> bool:
    """True iff a greedy colouring of the `vertices` bitmask with at most
    `colours` classes covers them all, which proves they hold no clique of
    more than `colours` vertices.  Each class takes, from the top bit down,
    every vertex left that sees none of the class so far."""
    for _ in range(colours):
        q = vertices
        while q:
            x = q.bit_length() - 1
            q ^= q & masks[x]
            q ^= 1 << x
            vertices ^= 1 << x
        if not vertices:
            return True
    return False


def _first_clique(masks: Sequence[int], size: int, start: int = 0) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest clique of the given size with no vertex
    below `start`, or None.

    `masks` is per-vertex adjacency as bitmasks; works on raw masks so the
    generators can call it on graphs under construction.  The search is
    depth-first on an explicit stack, so a clique may be as large as the
    graph, whatever the recursion limit: `cand` holds the vertices still
    to try after `chosen`, each adjacent to all of it, and `above[d]` what
    was left to try when `chosen[d]` was taken.

    Three rules bound the search, and only the first two cut it:
    - The top level counts every vertex's higher neighbours in one C-level
      pass (a shift and a bit count per mask) and starts only from a vertex
      with at least size - 1 of them, those neighbours its candidates.  On
      a sparse graph most vertices have too few, and Python never visits
      them.
    - Below the top, before it takes a candidate v that leaves `need` >= 3
      vertices to choose, counting v, the search colours v's own candidates
      `inner` greedily (`_colourable`) with need - 2 classes; if that
      covers them, `inner` holds no clique of the need - 1 vertices still
      wanted, and v is skipped.  This is the colouring bound of Tomita and
      Seki's MCQ, and keeps the K_{k+1} check on a complete k-partite graph
      polynomial.  The top level is not coloured: on sparse graphs a
      colouring there costs more than it saves.  Nor are the pushes made
      before the search first backs out of one, at most size - 2 of them:
      a colouring that fails costs need - 2 classes, so colouring each push
      on the way to a clique found without a back-out made a K_s cost
      Θ(s²) colour steps, and `find_large_tree`'s r loop on K_n Θ(n³).
    - Every vertex the search tries to add, a top start or a candidate
      below one, is a node.  Past CLIQUE_NODE_CAP nodes it raises
      CliqueSearchLimitError, which is a ValueError: an input whose check
      stays undecided is refused, not run for hours.
    Each cut drops only subtrees that hold no clique of the size sought,
    and the rest are visited in the same depth-first order, lowest vertex
    first; so the first clique found is still the lexicographically
    smallest, which the generators' repair and the finders' witnesses rely
    on.
    """
    if size <= 0:  # no vertex to choose; a negative size has no clique
        return () if size == 0 else None
    n = len(masks)
    if size == 1:
        return (start,) if start < n else None
    higher = map(int.bit_count,
                 map(operator.rshift, islice(masks, start, None), range(start + 1, n + 1)))
    nodes_left = CLIQUE_NODE_CAP
    # chosen[0] is the top start.  Each top's search leaves the two lists as
    # it found them, so they are made once, not once per start.
    chosen = [start]
    above: list[int] = []
    colour = False  # set at the first back-out
    for top in compress(range(start, n), map((size - 1).__le__, higher)):
        # Counted, not checked: a top start has size - 1 = need candidates
        # or more, so a candidate below it is tried next and checks both.
        nodes_left -= 1
        chosen[0] = top
        cand = masks[top] >> (top + 1) << (top + 1)
        need = size - 1
        while True:
            if cand.bit_count() >= need:
                nodes_left -= 1
                if nodes_left < 0:
                    raise CliqueSearchLimitError(size, n, CLIQUE_NODE_CAP)
                low = cand & -cand
                v = low.bit_length() - 1
                cand ^= low
                if need == 1:
                    chosen.append(v)
                    return tuple(chosen)
                inner = cand & masks[v]
                # A search below v with too few candidates, or with
                # candidates that need - 2 colours cover, would back out.
                if inner.bit_count() >= need - 1 and not (
                    colour and need >= 3 and _colourable(masks, inner, need - 2)
                ):
                    chosen.append(v)
                    above.append(cand)
                    cand, need = inner, need - 1
            elif above:
                colour = True
                cand = above.pop()
                chosen.pop()
                need += 1
            else:
                break
    return None


def find_clique(g: Graph, r: int) -> Optional[frozenset[int]]:
    """A clique of size r (the lexicographically smallest one), or None.

    The answer is cached on g.  So is a search that stopped undecided, as
    the node cap it stopped at: while CLIQUE_NODE_CAP is no larger, a
    later call raises the same CliqueSearchLimitError at once instead of
    spending the cap again; a larger cap searches again."""
    if r < 1:
        raise ValueError("clique size must be >= 1")
    if r == 3:
        find_triangle(g)
        return g._cliques[3]
    found = g._cliques.get(r, -1)  # an int: the cap an undecided search hit, or -1
    if type(found) is int:
        if CLIQUE_NODE_CAP <= found:
            raise CliqueSearchLimitError(r, g.n, found)
        try:
            # A sweep that marks no vertex proves g bipartite: no K_r for r >= 3.
            got = _first_clique(g.adjacency_masks, r) if r < 3 or _bfs_sweep(g)[1] else None
        except CliqueSearchLimitError:
            g._cliques[r] = CLIQUE_NODE_CAP
            raise
        found = g._cliques[r] = frozenset(got) if got is not None else None
    return found


def has_clique(g: Graph, r: int) -> bool:
    """True iff the clique number of g is at least r."""
    return find_clique(g, r) is not None


def is_induced_tree(g: Graph, s: Iterable[int]) -> bool:
    """True iff the subgraph induced on s is connected with |s|-1 edges.

    The edge count reads each vertex's mask once.  Only if it passes, a BFS
    from the highest vertex of s runs inside s and stops as soon as it has
    reached all of s, so on a star it reads at most 2 more masks; unlike
    `_reach`, it needs no marked set and so no last layer."""
    vs = frozenset(s)  # no copy of a certificate's frozenset
    s_mask = _mask_of(vs)
    if s_mask == 0:
        raise ValueError("a tree has at least one vertex; s must be nonempty")
    if s_mask >> g.n:
        raise ValueError("s contains out-of-range vertices")
    masks = g.adjacency_masks
    k = len(vs)
    twice_edges = 0
    for v in vs:
        twice_edges += (masks[v] & s_mask).bit_count()
    if twice_edges != 2 * (k - 1):
        return False
    visited = frontier = 1 << (s_mask.bit_length() - 1)
    while frontier and visited != s_mask:
        frontier = _neighbour_union(masks, frontier) & (s_mask ^ visited)
        visited |= frontier
    return visited == s_mask


def shortest_path(g: Graph, start: int, to_set: Iterable[int]) -> list[int]:
    """A shortest path from `start` to the nearest vertex of `to_set`.

    Breadth-first; among equally near targets the smallest id wins, and the
    path itself is canonicalized by choosing the smallest-id predecessor at
    every step.
    """
    to_mask = _mask_of(to_set)
    if to_mask == 0:
        raise ValueError("to_set must be nonempty")
    if to_mask >> g.n or not (0 <= start < g.n):
        raise ValueError("vertices out of range")
    masks = g.adjacency_masks
    layers = [1 << start]
    unvisited = ((1 << g.n) - 1) ^ layers[0]
    while not (layers[-1] & to_mask):
        nxt = _neighbour_union(masks, layers[-1]) & unvisited
        if nxt == 0:
            raise RuntimeError("to_set unreachable from start (graph not connected?)")
        unvisited ^= nxt
        layers.append(nxt)
    cur = _low_bit(layers[-1] & to_mask)
    path = [cur]
    for depth in range(len(layers) - 2, -1, -1):
        cur = _low_bit(layers[depth] & masks[cur])
        path.append(cur)
    path.reverse()
    return path


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph with dense relabeled ids.

    Returns (subgraph, mapping) where mapping[new_id] = old_id, sorted
    ascending so the relabeling is canonical.
    """
    vs = sorted(set(vertices))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        raise ValueError("vertices out of range")
    masks, keep = g.adjacency_masks, _mask_of(vs)
    index = {old: new for new, old in enumerate(vs)}
    edges = [(i, index[u]) for i, v in enumerate(vs) for u in _iter_bits(masks[v] & keep) if u > v]
    return Graph(len(vs), edges), vs


def format_edge_list(g: Graph) -> str:
    """Edge-list text: header '<n> <m>' then one '<u> <v>' line per edge."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in _iter_edges(g.adjacency_masks))
    return "\n".join(lines) + "\n"


# A count or id is ASCII digits with an optional leading '-'; int() alone
# also reads '1_0', '+3' and non-ASCII digits such as '٣'.
_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(token: str) -> int:
    if not _DECIMAL.fullmatch(token):
        raise ValueError(token)
    return int(token)


def edge_list_header(text: str) -> tuple[int, int]:
    """The '<n> <m>' counts of edge-list text, read from its first line
    alone, so a caller can bound n before the n masks are allocated."""
    if not text.strip("\n"):
        raise EdgeListParseError(1, "missing '<n> <m>' header")
    header = text.partition("\n")[0].split()
    if len(header) != 2:
        raise EdgeListParseError(1, "header must be '<n> <m>'")
    try:
        n, m = _decimal(header[0]), _decimal(header[1])
    except ValueError:
        raise EdgeListParseError(1, "header must contain two integers") from None
    if n < 0 or m < 0:
        raise EdgeListParseError(1, "header counts must be nonnegative")
    return n, m


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format, rejecting self-loops and duplicate
    edges with a line-numbered error.  Each vertex's mask is as wide as its
    highest neighbour id, so a sparse graph's masks can take Θ(n²) bits."""
    n, m = edge_list_header(text)
    raw_lines = text.split("\n")
    while raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    found = len(raw_lines) - 1
    if found < m:
        raise EdgeListParseError(len(raw_lines) + 1, f"expected {m} edge lines, found {found}")
    if found > m:
        raise EdgeListParseError(m + 2, f"expected {m} edge lines, found {found}")
    line_no = 1
    # In ASCII text without '_' or '+', int() reads exactly the decimal
    # tokens; this one test spares a clean file the per-token check.
    to_int = int if text.isascii() and "_" not in text and "+" not in text else _decimal

    def pairs() -> Iterator[tuple[int, int]]:
        nonlocal line_no
        for line_no, line in enumerate(raw_lines[1:], start=2):
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError("edge line must be '<u> <v>'")
            try:
                u, v = to_int(tokens[0]), to_int(tokens[1])
            except ValueError:
                raise ValueError("edge endpoints must be integers") from None
            yield u, v

    # Graph checks each pair as it is read: an error belongs to the last line read.
    try:
        return Graph(n, pairs())
    except ValueError as exc:
        raise EdgeListParseError(line_no, str(exc)) from None


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
