"""Guaranteed-size induced-tree finders with machine-checkable certificates.

Three constructions:

  * find_tree_triangle_free: in a connected triangle-free graph on N
    vertices, an induced tree of size at least sqrt(N-1) + 1 through any
    prescribed root.  Either the root's star is already big enough, or the
    graph decomposes around the root's neighborhood and a weighted
    admissible selection picks which components to recurse into; when some
    neighbour sees every component, as it does a lone one, every component
    is taken at the lowest such neighbour, building no instance.

  * find_tree_kr_free: in a connected K_r-free graph (r >= 4), an induced
    tree of size at least ln(N-1)/(4 ln r) + 1 through any root, using
    Ramsey extraction inside large neighborhoods and a uniform admissible
    selection across large components.

  * reroute_through_vertex: given any induced tree T and any vertex v, an
    induced tree of size at least 1 + |T|/2 containing v, built from a
    shortest path into T plus one color class of T's subtree partition.

find_tree(g, v, r) picks between the first two by r; theorem_bound(n, r)
is the size they guarantee.  Both finders are one call to _grow, the
finder core, whose docstring holds the decisions they share: the input
checks, the step for r, the loop over pending subproblems, the one
claimed bound, and the caches that let runs at many roots of one graph
share work.  A step splits its region with graph._component_masks, whose
docstring says what a split reads; every step still builds new n-bit
region ints, so time on P_n grows about 3x per doubling of n (CHANGES.md
holds the timings).
Regions, the neighbourhoods _kr hands to Ramsey extraction and the
subtrees reroute_through_vertex colours are vertex bitmasks over the
immutable host graph, so no subgraphs are materialized; all finders are
pure.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .admissible import LEMMA_SLACK, WeightedBipartiteInstance, select_uniform, select_weighted
from .graph import (
    Graph,
    _check_vertex,
    _component_masks,
    _is_finite_number,
    _is_id,
    _iter_bits,
    _low_bit,
    _mask_of,
    _neighbour_union,
    components_of,
    find_clique,
    find_triangle,
    is_connected,
    is_induced_tree,
    shortest_path,
)
from .ramsey import _extract

__all__ = [
    "FinderPreconditionError",
    "InternalInvariantError",
    "TreeCertificate",
    "certificate_failure",
    "find_large_tree",
    "find_tree",
    "find_tree_kr_free",
    "find_tree_triangle_free",
    "reroute_through_vertex",
    "theorem_bound",
    "verify_certificate",
]

log = logging.getLogger(__name__)

# Guards every graph's cache budget, so concurrent finders cannot both
# spend the last of it.
_SUBTREE_LOCK = threading.Lock()

NOT_INDUCED_TREE = "not-induced-tree"
ROOT_MISSING = "root-missing"
BOUND_UNMET = "bound-unmet"


class FinderPreconditionError(ValueError):
    """Input violates a finder precondition; carries the witness (a
    triangle, a clique, or a stranded component)."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalInvariantError(RuntimeError):
    """A step the theory guarantees has failed.  This would falsify the
    underlying theorem, so it indicates a bug; carries a dump for triage."""

    def __init__(self, message: str, dump: dict):
        super().__init__(f"{message}; dump={dump!r}")
        self.dump = dump


@dataclass(frozen=True)
class TreeCertificate:
    """A vertex set claimed to induce a tree containing `root`, of size at
    least `claimed_bound`."""

    vertices: frozenset[int]
    root: int
    claimed_bound: float
    strategy: str = ""

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_json(self) -> str:
        return json.dumps(
            {
                "root": self.root,
                "vertices": sorted(self.vertices),
                "claimed_bound": self.claimed_bound,
                "strategy": self.strategy,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "TreeCertificate":
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid certificate JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError("certificate must be a JSON object")
        for key in ("root", "vertices", "claimed_bound"):
            if key not in payload:
                raise ValueError(f"certificate missing '{key}'")
        vertices, root = payload["vertices"], payload["root"]
        bound, strategy = payload["claimed_bound"], payload.get("strategy", "")
        if not isinstance(vertices, list) or not all(map(_is_id, vertices)):
            raise ValueError("certificate 'vertices' must be a list of integer ids")
        if not _is_id(root):
            raise ValueError("certificate 'root' must be an integer id")
        if not _is_finite_number(bound):
            raise ValueError("certificate 'claimed_bound' must be a finite number")
        if not isinstance(strategy, str):
            raise ValueError("certificate 'strategy' must be a string")
        return TreeCertificate(frozenset(vertices), root, float(bound), strategy)


def certificate_failure(g: Graph, cert: TreeCertificate) -> Optional[str]:
    """None if the certificate holds against g, else a reason code."""
    vs = cert.vertices
    if not vs or min(vs) < 0 or max(vs) >= g.n:
        return NOT_INDUCED_TREE
    if not is_induced_tree(g, vs):
        return NOT_INDUCED_TREE
    if cert.root not in vs:
        return ROOT_MISSING
    if len(vs) < cert.claimed_bound - LEMMA_SLACK:
        return BOUND_UNMET
    return None


def verify_certificate(g: Graph, cert: TreeCertificate) -> bool:
    return certificate_failure(g, cert) is None


def _report_failure(g: Graph, cert: TreeCertificate, root: int, required: float) -> Optional[str]:
    """The verdict `find` and `bench` report: None if the certificate holds
    against g, is rooted at the requested root and has at least `required`
    vertices, else the first reason code that applies."""
    failure = certificate_failure(g, cert)
    if failure is not None:
        return failure
    if cert.root != root:
        return ROOT_MISSING
    if cert.size < required - LEMMA_SLACK:
        return BOUND_UNMET
    return None


def theorem_bound(n: int, r: int) -> float:
    """The induced-tree size the theorems guarantee through any vertex of a
    connected K_r-free graph on n vertices: sqrt(n) for r = 3 (triangle-free)
    and ln(n)/(4 ln r) for r >= 4 (0.0 when n < 2)."""
    if r < 3:
        raise ValueError("r must be >= 3")
    if r == 3:
        return math.sqrt(n)
    return math.log(n) / (4.0 * math.log(r)) if n >= 2 else 0.0


def _check_input(g: Graph, v: int) -> None:
    """The finders' shared preconditions, in order: nonempty graph, root in
    range (graph._check_vertex), connectivity."""
    _check_vertex(g, v)
    if not is_connected(g):
        raise FinderPreconditionError("graph is disconnected", witness=components_of(g)[0])


def _attachment_instance(
    masks, a_list: list[int], comp_masks: list[int]
) -> WeightedBipartiteInstance:
    """Bipartite instance: A = attachment vertices, B = components weighted
    by size, adjacency = 'some component vertex sees the attachment'."""
    a_masks = [masks[u] for u in a_list]
    items = [
        (float(comp.bit_count()), [ai for ai, m in enumerate(a_masks) if m & comp])
        for comp in comp_masks
    ]
    return WeightedBipartiteInstance(len(a_list), items)


def _common_attachment(masks, nv_mask: int, comp_masks: list[int]) -> Optional[int]:
    """The lowest vertex of `nv_mask` that sees every component of
    `comp_masks`, or None.

    Where one exists, its star is select_weighted's own answer on the
    attachment instance, so the finders take it and build no instance.
    The weights are component sizes, positive integers, and the star of a
    common attachment is the fsum of every sqrt(|C_i|).  An A-id that misses
    a component has an exact star sum at least 1 smaller, so while the total
    is below 2^52 its correctly rounded sum is strictly smaller; an A-id
    that sees every component ties, and the star's tie-break takes the
    lowest A-id, and A-ids are N(v) in ascending order.  The matching
    candidate keeps a subset of the items, so its value is never strictly
    larger, and the star meets the target because the sum of the sqrt(|C_i|)
    is at least sqrt(sum of the |C_i|).  So the selection is this vertex
    with every component.  _kr's big-component step takes it for its one
    component; select_uniform can pick differently, so _kr's uniform step
    does not take this rule.

    The scan runs at nearly every split, so it is a plain loop that takes
    N(v) lowest bit first and stops at the first hit: a `next`/`all`
    generator form over `_iter_bits` cost about twice as much per scan on
    sparse random graphs and on ms_layered (CHANGES.md)."""
    while nv_mask:
        a = _low_bit(nv_mask)
        seen = masks[a]
        for comp in comp_masks:
            if not seen & comp:
                break
        else:
            return a
        nv_mask ^= 1 << a
    return None


def _select_attached(g: Graph, nv_mask: int, comp_masks: list[int], select) -> dict[int, int]:
    """Run `select` on the attachment instance of the components around the
    root's neighbourhood `nv_mask`; maps each chosen component's index, in
    ascending order, to its one chosen attachment vertex.  If `select` is
    select_weighted, a vertex of `nv_mask` that sees every component is its
    answer (see _common_attachment), taken without building an instance."""
    masks = g.adjacency_masks
    if select is select_weighted:
        u = _common_attachment(masks, nv_mask, comp_masks)
        if u is not None:
            return dict.fromkeys(range(len(comp_masks)), u)
    a_list = _iter_bits(nv_mask)
    inst = _attachment_instance(masks, a_list, comp_masks)
    sel = select(inst)
    s_mask = _mask_of(sel.a_chosen)
    return {i: a_list[_low_bit(inst.nbr_masks[i] & s_mask)] for i in sorted(sel.b_chosen)}


def _split(masks, nv_mask: int, rest: int) -> list[int]:
    """The components of `rest`, what is left of a step's region without
    the root and its neighbourhood `nv_mask`, ordered by lowest vertex."""
    return _component_masks(masks, rest, _neighbour_union(masks, nv_mask) & rest)


def _grow(g: Graph, v: int, r: int) -> TreeCertificate:
    """The finder core both finders call, rooted at v in a K_r-free graph.

    It runs _check_input, then the K_r check (find_triangle for r = 3,
    find_clique above), raising one FinderPreconditionError that names r
    and the clique.  Every step is `_step`, which picks the step for r and
    returns the tree vertices it fixes (a bitmask), its strategy and its
    (region, root) subproblems.  The top step runs on the whole vertex set
    at v.  Returns the certificate of the union of the fixed vertices,
    rooted at v, with the top step's strategy; its claimed bound,
    theorem_bound(n - 1, r) + 1, is written only here.

    Clique search is NP-hard, so the K_r check for r >= 4 is bounded, as
    graph._first_clique describes: a degree pre-scan and a colouring bound
    keep it small on sparse graphs and polynomial on complete multipartite
    ones, and past graph.CLIQUE_NODE_CAP nodes it raises
    graph.CliqueSearchLimitError, a ValueError, so an input such as the
    Keller graph G_4 at r = 13 is refused within seconds (the CLI exits 2)
    instead of searched for hours.  find_clique caches the refusal with its
    cap, so the graph's later roots are refused at once.

    The subtree cache: g._subtrees maps (r, region, root) to the bitmask of
    every tree vertex fixed at or below that subproblem.  `_subtree` looks
    each subproblem up before its step, and stores a step's union once all
    its pending subproblems are done; a hit skips the whole subtree, so
    runs at many roots of one graph share work.  A subproblem of at most 2
    vertices, which `_step` takes whole, skips both the lookup and the
    store.  The top step's subproblems are always keys.  Those below are
    keys only if g._subtrees held an entry when the run began, that is
    once the graph has served a root that split: the first root does the
    top step's lookups and stores alone.  Storing every level from the
    first root slowed a single-root find, which reads none of it back, by
    12-17% on C_1500 and 1-8% on random_triangle_free(1000) and (3000);
    with this rule the first root runs as fast as with the top step's keys
    alone (CHANGES.md holds the timings).  The cache changes no
    certificate.  `_tf` and `_kr` are pure functions of g's masks, the
    region, the root and r, so a cached subtree is the one `_subtree` would
    build again; the tree is a union, so the order in which subtrees are
    evaluated does not matter; and the strategy comes from the top step,
    which runs at every root the twin cache does not answer.

    The twin cache: two roots with one neighbourhood N(v) are false twins,
    neither in N(v) as neither is its own neighbour, and swapping them is
    an automorphism of g.  g._twins maps (r, N(v)) to (u, tree, strategy) from
    a root u whose top step was `_tf`'s "decompose" and that had a twin.  A
    later root v with that key runs no step: its tree is `tree` if that
    holds v, else `tree` with u swapped for v, and the strategy and the
    bound are as they are.  That is exact:
      * At such a step a twin v' is an isolated singleton of V \\ N[v], and
        every vertex of N(v) sees it.  Every other component is the same
        for both roots.
      * So the common-attachment scan is the same for both, and so is
        select_weighted's A-side, which depends on the items only as a
        multiset (see admissible).  The subproblems are the same, apart
        from the 2-vertex base cases {v', w} and {v, w} at an attachment w.
      * So find(v') is find(v) with v and v' swapped.  A singleton is
        taken exactly when every twin's is, so a tree holds v exactly when
        it holds every twin, and is then its own swap.
      * It is not so for `_kr`'s broom, big-component or uniform steps,
        because `_extract` and the index tie-breaks read vertex order.
        Those steps store nothing, and r is in the key, so a K_4 run never
        reads an r = 3 entry.
    Every twin of v sees v's lowest neighbour, so the twin test reads the
    masks of that vertex's neighbours, and a twin-free root stores nothing.

    g._subtree_room is the bit budget both caches share, set on the first
    store to the bits of g's adjacency masks (the sum of their bit lengths)
    and spent under _SUBTREE_LOCK.  A subtree costs the bit lengths of its
    region and its value, and a twin entry those of N(v) and its tree, paid
    when it is stored, after the run's subtrees.  What does not fit is not
    stored, so the caches at most double a graph's memory, however many
    levels are keys.  That bound is what holds on a cycle, whose roots
    share no subproblem and have no twin."""
    _check_input(g, v)
    clique = find_triangle(g) if r == 3 else find_clique(g, r)
    if clique is not None:
        raise FinderPreconditionError(
            f"graph contains a clique of size {r}: {sorted(clique)}", witness=clique
        )
    bound = theorem_bound(g.n - 1, r) + 1.0
    masks = g.adjacency_masks
    nv_mask = masks[v]
    twin = g._twins and g._twins.get((r, nv_mask))  # skipped while no root stored one
    if twin:
        u, tree, top = twin
        if not tree >> v & 1:
            tree ^= (1 << u) | (1 << v)
        return TreeCertificate(frozenset(_iter_bits(tree)), v, bound, top)
    deep = bool(g._subtrees)
    tree, top, subproblems = _step(g, (1 << g.n) - 1, v, r)
    for region, root in subproblems:
        tree |= _subtree(g, region, root, r, deep)
    if top == "decompose":
        # A plain loop: a generator here would make v and the masks cell
        # variables of this function, which cost about 0.2 us a call, 2-3%
        # of a find on the small K_r-free graphs (CHANGES.md).
        for x in _iter_bits(masks[_low_bit(nv_mask)]):
            if masks[x] == nv_mask and x != v:
                bits = nv_mask.bit_length() + tree.bit_length()
                _store(g, g._twins, (r, nv_mask), (v, tree, top), bits)
                break
    return TreeCertificate(frozenset(_iter_bits(tree)), v, bound, top)


def _step(g: Graph, region: int, root: int, r: int) -> tuple[int, str, list[tuple[int, int]]]:
    """One decomposition step of the connected `region` at `root`: the
    region itself if it has at most 2 vertices, else _tf's step for r = 3
    and _kr's for r >= 4."""
    size = region.bit_count()
    if size <= 2:
        return region, "base", []
    return (_tf if r == 3 else _kr)(g, region, size, root, r)


def _subtree(g: Graph, region: int, root: int, r: int, deep: bool) -> int:
    """The tree vertices fixed at or below the (region, root) subproblem,
    as a bitmask, read from or stored in g._subtrees at that subproblem and,
    if `deep`, at every one below it (see _grow).  Pending subproblems wait
    on a stack in post-order, so no chain is too long for the interpreter's
    recursion limit: a keyed step opens its union on `unions` and pushes
    its key, with root None, under its subproblems; when the key comes back
    off the stack, the union is complete and stored."""
    cache = g._subtrees
    unions = [0]
    stack = [(region, root)]
    keyed = True
    while stack:
        region, root = stack.pop()
        if root is None:  # `region` is the key of a step now done
            below = unions.pop()
            _store(g, cache, region, below, region[1].bit_length() + below.bit_length())
            unions[-1] |= below
            continue
        if keyed and region.bit_count() > 2:
            key = (r, region, root)
            below = cache.get(key)
            if below is not None:
                unions[-1] |= below
                continue
            unions.append(0)
            stack.append((key, None))
        fixed, _, subproblems = _step(g, region, root, r)
        unions[-1] |= fixed
        stack.extend(subproblems)
        keyed = deep
    return unions[0]


def _store(g: Graph, cache: dict, key, value, bits: int) -> bool:
    """Put `value` in `cache`, one of g's finder caches, under a new `key`
    if its `bits` fit in g's bit budget (see _grow); True if stored."""
    room = g._subtree_room
    if room is not None and bits > room:  # the budget only shrinks
        return False
    with _SUBTREE_LOCK:
        if g._subtree_room is None:
            g._subtree_room = sum(map(int.bit_length, g.adjacency_masks))
        if bits > g._subtree_room or key in cache:
            return False
        cache[key] = value
        g._subtree_room -= bits
        return True


def find_tree_triangle_free(g: Graph, v: int) -> TreeCertificate:
    """Induced tree of size >= sqrt(|V|-1) + 1 containing v, in a connected
    triangle-free graph."""
    return _grow(g, v, 3)


def _tf(g: Graph, region: int, size: int, v: int, r: int) -> tuple[int, str, list[tuple[int, int]]]:
    """One step in the connected triangle-free `region` of `size` vertices
    rooted at v: the root's star if it meets the bound, else the root alone
    plus one subproblem per component the weighted selection picks.  If a
    neighbour of v sees every component, the selection is every component
    at the lowest such neighbour, taken without building an instance (see
    _common_attachment).  r is 3, and taken only to share _kr's
    signature."""
    masks = g.adjacency_masks
    nv_mask = masks[v] & region
    if nv_mask.bit_count() ** 2 >= size - 1:
        return (1 << v) | nv_mask, "star", []
    rest = region ^ nv_mask ^ (1 << v)
    comps = _split(masks, nv_mask, rest)
    attach = _select_attached(g, nv_mask, comps, select_weighted)
    return 1 << v, "decompose", [(comps[i] | (1 << u), u) for i, u in attach.items()]


def find_tree_kr_free(g: Graph, v: int, r: int) -> TreeCertificate:
    """Induced tree of size >= ln(|V|-1)/(4 ln r) + 1 containing v, in a
    connected graph with no clique of size r (r >= 4)."""
    if r < 4:
        raise ValueError("r must be >= 4")
    return _grow(g, v, r)


def _choose_branch_pair(
    g: Graph, attach: dict[int, int], sizes: dict[int, int]
) -> tuple[tuple[int, int], str]:
    """Pick the two components to recurse into.

    With pairwise-distinct attachments, take a non-adjacent attachment pair
    (must exist: the attachments are r+1 or more vertices of a K_r-free
    graph) so the root can reach both branches without closing a cycle;
    otherwise glue two components sharing an attachment.  Either way the
    pair maximizing the combined component size wins, ties to the smallest
    component indices.
    """
    distinct = len(set(attach.values())) == len(attach)
    usable = [
        (i, j)
        for i, j in combinations(attach, 2)
        if (not g.has_edge(attach[i], attach[j]) if distinct else attach[i] == attach[j])
    ]
    if not usable:
        raise InternalInvariantError(
            "r+1 distinct attachments are pairwise adjacent in a K_r-free graph",
            dump={"attachments": sorted(attach.values()), "chosen": list(attach)},
        )
    pair = min(usable, key=lambda p: (-(sizes[p[0]] + sizes[p[1]]), p))
    return pair, "two-branches" if distinct else "shared-attachment"


def _kr(g: Graph, region: int, size: int, v: int, r: int) -> tuple[int, str, list[tuple[int, int]]]:
    """One step in the connected K_r-free `region` of `size` vertices rooted
    at v: a Ramsey star or broom if a neighbourhood is large, else the root
    plus one subproblem in the biggest component or two picked by uniform
    selection."""
    masks = g.adjacency_masks
    n = size - 1
    nv_mask = masks[v] & region
    r4 = r ** 4
    # ceil(theorem_bound(n, r)), at least 1, in integers: the least b >= 1
    # with r^(4b) >= n.
    b_need, reach = 1, r4
    while reach < n:
        b_need, reach = b_need + 1, reach * r4

    if nv_mask.bit_count() ** 4 >= n:
        return (1 << v) | _extract(masks, nv_mask, r, b_need), "ramsey-star", []

    rest = region ^ nv_mask ^ (1 << v)
    for w in _iter_bits(nv_mask):
        outside = masks[w] & rest
        if outside.bit_count() ** 4 >= n:
            fixed = (1 << v) | (1 << w) | _extract(masks, outside, r, b_need)
            return fixed, "ramsey-broom", []

    comps = _split(masks, nv_mask, rest)

    big = max(comps, key=int.bit_count, default=0)
    if big.bit_count() * r4 > n:
        u = _common_attachment(masks, nv_mask, [big])
        return 1 << v, "big-component", [(big | (1 << u), u)]

    big_comps = [comp for comp in comps if comp.bit_count() ** 2 * r4 >= n]
    if len(big_comps) <= r * r:
        raise InternalInvariantError(
            "expected more than r^2 large components",
            dump={
                "region_size": size,
                "r": r,
                "root": v,
                "neighborhood": list(_iter_bits(nv_mask)),
                "component_sizes": [c.bit_count() for c in comps],
                "large_components": len(big_comps),
            },
        )
    attach = _select_attached(g, nv_mask, big_comps, select_uniform)
    if len(attach) < r + 1:
        raise InternalInvariantError(
            "uniform selection returned fewer than r+1 components",
            dump={"region_size": size, "r": r, "root": v, "chosen": len(attach)},
        )
    sizes = {i: big_comps[i].bit_count() for i in attach}
    pair, strategy = _choose_branch_pair(g, attach, sizes)
    return 1 << v, strategy, [(big_comps[i] | (1 << attach[i]), attach[i]) for i in pair]


def reroute_through_vertex(g: Graph, t_cert: TreeCertificate, v: int) -> TreeCertificate:
    """Induced tree of size >= 1 + |T|/2 containing v, given any valid
    induced tree T of the connected graph g.

    Walks a shortest path into T; the path's last inner vertex sees some
    attachment points of T.  T splits into subtrees around those points
    (each T-vertex joins its nearest attachment, ties to the smallest
    index); the quotient graph of the split is a tree, hence 2-colorable,
    and the heavier color class (on a tie, the first subtree's) joins the
    path.
    """
    _check_input(g, v)
    reason = certificate_failure(g, t_cert)
    if reason is not None:
        raise FinderPreconditionError(f"input certificate invalid: {reason}")
    masks = g.adjacency_masks
    t = t_cert.vertices
    bound = 1.0 + len(t) / 2.0
    if v in t:
        if len(t) >= 2:
            return TreeCertificate(t, v, bound, "contains-root")
        if g.n == 1:
            return TreeCertificate(t, v, 1.0, "single-vertex")
        return TreeCertificate(frozenset({v, _low_bit(masks[v])}), v, bound, "grown-edge")

    path = shortest_path(g, v, t)
    body = path[:-1]
    t_mask = _mask_of(t)
    attach = masks[body[-1]] & t_mask
    # Subtree i starts at the i-th attachment point; each round grows every
    # subtree by one layer in index order, so a T-vertex joins its nearest
    # attachment, ties to the smallest index.  T is connected: `left` empties.
    subtrees = [1 << a for a in _iter_bits(attach)]
    fronts = list(subtrees)
    left = t_mask ^ attach
    while left:
        for i, front in enumerate(fronts):
            front = _neighbour_union(masks, front) & left
            left ^= front
            fronts[i] = front
            subtrees[i] |= front

    # The quotient tree on subtree indices, 2-coloured by BFS parity from
    # subtree 0; sides[c] holds the T-vertices of colour c.
    seen_by = [_neighbour_union(masks, s) for s in subtrees]
    quotient = [
        _mask_of(j for j, other in enumerate(subtrees) if j != i and seen & other)
        for i, seen in enumerate(seen_by)
    ]
    sides = [subtrees[0], 0]
    front = reached = 1
    colour = 0
    while front:
        nxt = _neighbour_union(quotient, front)
        if nxt & front:
            raise InternalInvariantError(
                "auxiliary subtree graph is not bipartite",
                dump={
                    "tree": sorted(t),
                    "root": v,
                    "path": path,
                    "subtrees": [_iter_bits(s) for s in subtrees],
                },
            )
        front = nxt ^ (nxt & reached)
        reached |= front
        colour ^= 1
        sides[colour] |= _neighbour_union(subtrees, front)
    pick = sides[0] if sides[0].bit_count() >= sides[1].bit_count() else sides[1]
    return TreeCertificate(frozenset(_iter_bits(_mask_of(body) | pick)), v, bound, "reroute")


def find_tree(g: Graph, v: int, r: int) -> TreeCertificate:
    """The theorem's finder for a connected K_r-free graph: the triangle-free
    finder for r = 3, the K_r-free finder for r >= 4."""
    if r < 3:
        raise ValueError("r must be >= 3")
    if r == 3:
        return find_tree_triangle_free(g, v)
    return find_tree_kr_free(g, v, r)


def finder_label(r: int) -> str:
    """The report name of find_tree's finder for r."""
    return "find-tree-triangle-free" if r == 3 else "find-tree-kr-free"


def find_large_tree(g: Graph) -> TreeCertificate:
    """Dispatch to the appropriate finder with the smallest r for which g
    has no size-r clique, trying a sample of roots and keeping the largest
    certificate."""
    _check_input(g, 0)  # root 0 exists in any nonempty graph
    n = g.n
    if g.edge_count == n - 1:
        return TreeCertificate(frozenset(range(n)), 0, float(n), "whole-tree")
    r = 3
    while find_clique(g, r) is not None:
        r += 1
    log.debug("find_large_tree: n=%d dispatching with r=%d", n, r)
    roots = range(n) if n <= 40 else range(0, n, -(-n // 40))
    # max keeps the first of the largest, so ties go to the earliest root.
    return max((find_tree(g, v, r) for v in roots), key=lambda cert: cert.size)
