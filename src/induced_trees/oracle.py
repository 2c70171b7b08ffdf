"""Exact ground truth at desk scale.

The tree maxima are computed by growing connected acyclic vertex sets:
an extension is allowed only when the new vertex sees exactly one vertex
of the current set, which enumerates precisely the induced trees, and a
forbidden-set discipline (plus smallest-id seed canonicalization) visits
each of them once.  Budgets are hard errors, never silent truncation:
each tree search checks the time limit at its first step and at every
4096th, and the naive admissible optimizer before its first subset and
then every 2^floor(a/2) subsets.

The growth runs on an explicit stack, so a tree may be as deep as the
budget allows, whatever the recursion limit.  Each node also carries a
dead set: the vertices with two or more neighbours in the current set.
A superset keeps those neighbours, so a dead vertex never joins any tree
below the node; when u joins with in-universe neighbours mu, the dead set
grows by mu & (the neighbours so far).  Dead vertices leave both the
candidates (so every candidate sees exactly one vertex of the set and
needs no test) and the pool behind the bound size + |pool| <= best.

Two more bounds use the room = size + |pool| - best a node has left.
The child for candidate u forbids the candidates below u, so its bound is
at most size + |pool| - #below; best only grows, so a child with room or
more candidates below it would be pruned when popped, and is not pushed.
And every candidate sees exactly one vertex of the set, so two adjacent
candidates never join one tree: they would close a cycle.  A tree below
the node thus takes at most one vertex of each clique of a greedy clique
cover of the candidates, and the node is pruned when the cover saves
(#candidates - #cliques) room or more.

Each bound prunes only subtrees that cannot strictly beat the best so
far, so a pruned node would never have changed the best.

False twins, two vertices with equal `adjacency_masks` entries, are cut
too.  Each vertex keeps the mask of its lower twins; a child u is pushed
only when all of u's lower twins are already in the set, and the global
maximum skips every seed that has a lower twin.  This keeps the size and
the witness:
- Size.  Twins are non-adjacent with equal neighbourhoods, so if an
  induced tree T holds u but not its lower twin u0, T - u + u0 is an
  induced tree of the same size.  So some maximum tree is closed
  downward in every twin class.
- Witness.  A tree's visit path always adds its lowest current candidate
  (a lower one would be forbidden below), and twins become candidates at
  the same node.  Suppose the first maximum T1 of the search without
  the rule held u but not its lower twin u0.  Then T1 - u + u0 would
  come earlier: under an earlier seed if u0 is below T1's seed, and
  otherwise by branching off to the lower child u0 where T1's path takes
  a higher one.  No bound prunes it, since it strictly beats the best at
  that point.  So it would have been found first, a contradiction.  T1
  is therefore closed downward, its path passes the rule, and its seed
  has no lower twin.  The through-vertex maximum never swaps out its
  root, and the rule never tests the root.

Children are visited in the same pre-order, and the best set changes
only on a strict gain, so the returned witness, the first maximum in
that order, is the one a search without dead sets, these bounds or the
twin rule returns; it just visits fewer nodes.  On the layered extremal
graphs, whose parts are twin classes, that is 336 nodes in place of
672,979 for `ms_layered(6)`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .admissible import (
    AdmissibleSelection,
    WeightedBipartiteInstance,
    _check_alpha,
    _item_classes,
    closure_b,
)
from .graph import Graph, _check_vertex, _is_finite_number, _is_id, _iter_bits

__all__ = [
    "BudgetExceededError",
    "OracleBudget",
    "admissible_naive",
    "max_induced_tree_exact",
    "max_tree_through_vertex_exact",
]


class BudgetExceededError(RuntimeError):
    """Instance too large for the oracle budget, or the time limit hit."""


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 20
    max_a_side: int = 20
    time_limit: float = 60.0

    def __post_init__(self):
        # `nan < 1` is false, so a NaN cap would pass the test below and never fire.
        for name in ("max_vertices", "max_a_side"):
            cap = getattr(self, name)
            if not _is_id(cap):
                raise ValueError(f"{name} must be an integer, got {cap!r}")
        # A NaN deadline compares false with every time, so it never fires.
        if not _is_finite_number(self.time_limit):
            raise ValueError(f"time_limit must be finite, got {self.time_limit!r}")
        if self.max_vertices < 1 or self.max_a_side < 1 or self.time_limit <= 0:
            raise ValueError("budget fields must be positive")


def _clique_cover_size(masks: tuple[int, ...], vertices: int) -> int:
    """The number of cliques in a greedy cover of `vertices`: each clique
    starts at the highest vertex left and adds, highest first, every vertex
    left that sees all of the clique so far."""
    cliques = 0
    while vertices:
        v = vertices.bit_length() - 1
        clique = 1 << v
        common = masks[v] & vertices
        while common:
            w = common.bit_length() - 1
            clique |= 1 << w
            common &= masks[w]
        vertices ^= clique
        cliques += 1
    return cliques


class _TreeSearch:
    """Shared growth enumeration for the two tree maxima."""

    def __init__(self, g: Graph, deadline: float):
        self.masks = g.adjacency_masks
        self.n = g.n
        self.deadline = deadline
        self.best_size = 0
        self.best_set = 0
        self.nodes = 0
        # twins[v]: the lower false twins of v, the lower vertices with v's mask.
        seen: dict[int, int] = {}
        self.twins = []
        for v, mask in enumerate(self.masks):
            lower = seen.get(mask, 0)
            self.twins.append(lower)
            seen[mask] = lower | 1 << v

    def grow(self, root: int, universe: int) -> None:
        """Visit, in depth-first pre-order, the trees that contain `root`
        and otherwise lie inside `universe`.  A stack entry is (set, size,
        forbidden, neighbours, dead)."""
        masks, twins = self.masks, self.twins
        stack = [(1 << root, 1, 0, masks[root] & universe, 0)]
        while stack:
            s_mask, size, forbidden, nbr_mask, dead = stack.pop()
            self.nodes += 1
            if self.nodes % 4096 == 1 and time.monotonic() > self.deadline:
                raise BudgetExceededError("oracle time limit exceeded")
            if size > self.best_size:
                self.best_size = size
                self.best_set = s_mask
                if size == self.n:
                    return
            out = forbidden | s_mask | dead
            pool = universe ^ (universe & out)
            room = size + pool.bit_count() - self.best_size
            if room <= 0:
                continue
            ext = nbr_mask ^ (nbr_mask & out)
            below = ext.bit_count()
            if below > room and below - _clique_cover_size(masks, ext) >= room:
                continue
            # Highest first, so the lowest child is popped first; what is
            # left of ext is the earlier siblings, forbidden to this child.
            while ext:
                u = ext.bit_length() - 1
                ext ^= 1 << u
                below -= 1
                if below >= room:  # this child cannot beat the best
                    continue
                lower = twins[u]
                if lower and lower & s_mask != lower:  # a lower twin is missing
                    continue
                mu = masks[u] & universe
                stack.append((
                    s_mask | 1 << u, size + 1, forbidden | ext,
                    nbr_mask | mu, dead | (mu & nbr_mask),
                ))


def _search(g: Graph, budget: OracleBudget | None, v: int = 0) -> _TreeSearch:
    """The search both maxima run, after the checks they share, in this
    order: graph._check_vertex's empty graph and root v in range (the
    default 0 is in any nonempty graph), then size within `budget`."""
    budget = budget or OracleBudget()
    _check_vertex(g, v)
    if g.n > budget.max_vertices:
        raise BudgetExceededError(
            f"graph has {g.n} vertices, budget allows {budget.max_vertices}"
        )
    return _TreeSearch(g, time.monotonic() + budget.time_limit)


def max_induced_tree_exact(
    g: Graph, budget: OracleBudget | None = None
) -> tuple[int, frozenset[int]]:
    """Exact maximum induced tree size with a witness set."""
    search = _search(g, budget)
    full = (1 << g.n) - 1
    for seed in range(g.n):
        if search.twins[seed]:
            continue
        universe = full ^ ((1 << (seed + 1)) - 1)
        search.grow(seed, universe)
        if search.best_size == g.n:
            break
    return search.best_size, frozenset(_iter_bits(search.best_set))


def max_tree_through_vertex_exact(
    g: Graph, v: int, budget: OracleBudget | None = None
) -> tuple[int, frozenset[int]]:
    """Exact maximum induced tree size over sets containing v."""
    search = _search(g, budget, v)
    universe = ((1 << g.n) - 1) ^ (1 << v)
    search.grow(v, universe)
    return search.best_size, frozenset(_iter_bits(search.best_set))


def _check_a_side(a_count: int, budget: OracleBudget) -> None:
    if a_count > budget.max_a_side:
        raise BudgetExceededError(f"a_count {a_count} exceeds budget {budget.max_a_side}")


# Classes per sum table of the value filter: 2^8 floats a table.
_CHUNK = 8


def _hit_tables(class_bits: list[int]) -> tuple[list[int], list[int]]:
    """For every subset x of the ids behind `class_bits` (bit j of x picks
    class_bits[j]): ones[x], the classes seen by at least one id of x, and
    twos[x], those seen by at least two.  Built by doubling."""
    ones, twos = [0], [0]
    for bits in class_bits:
        twos += [t | (o & bits) for o, t in zip(ones, twos)]
        ones += [o | bits for o in ones]
    return ones, twos


def _chunk_sums(wpow: list[float], members: list[list[int]]) -> list[list[float]]:
    """Per chunk of _CHUNK classes, the plain float sum over every subset of
    the chunk (bit j picks its j-th class), a class adding its items' wpow
    one by one in index order.  No classes give one table, [0.0], so every
    value has at least one lookup."""
    sums = []
    for items in members:
        total = 0.0
        for i in items:
            total += wpow[i]
        sums.append(total)
    tables = []
    for start in range(0, len(sums) or 1, _CHUNK):
        table = [0.0]
        for w in sums[start:start + _CHUNK]:
            table += [t + w for t in table]
        tables.append(table)
    return tables


def admissible_naive(
    inst: WeightedBipartiteInstance,
    alpha: float = 0.5,
    budget: OracleBudget | None = None,
) -> AdmissibleSelection:
    """Reference optimizer: every nonempty S subset A, in ascending order,
    with its forced closure; the first S of the largest value wins.  Used
    to cross-check solve_exact.

    Every S is still evaluated, but none by a pass over the items.  Items
    that see the same A-ids enter and leave every closure together, so
    they form one class; there are at most min(b, 2^a - 1) classes.  A
    splits into its low k = floor(a/2) ids and the rest, and for every
    subset of each half a table holds the classes it sees at least once
    (o) and at least twice (t).  The closure of S = (h << k) | l is then
    the classes (oh | ol) ^ (th | tl | (oh & ol)), seen exactly once.  A
    value filter, plain float sums tabulated per chunk of _CHUNK classes,
    approximates each S's value, and only an S whose approximation comes
    within a relative slack of the best so far (derived below) is summed
    with math.fsum, as in the plain loop: item by item, ascending.  The
    time limit is checked before each high-half subset, so every 2^k
    subsets.

    A half bound skips most high halves h before their lists are built.
    Let reach be the classes some low id sees.  Every S = (h << k) | l sees
    exactly once only classes in oh | ol, with ol inside reach, and none of
    th, so its closure lies in room = (oh | reach) minus th.  The bound is
    room's filter sum, the same chunk lookups added in the same order, and
    h is skipped when it is <= cutoff.  No S under h passes the filter
    then, since the filter sum never decreases as classes are added: a
    table entry adds its classes in ascending order, and an added class
    of w >= 0 only raises the sum, since fl(a + w) >= a and rounding is
    monotone, so fl(a' + w) >= fl(a + w) for a' >= a; the chain over the
    chunks grows the same way.  The bound is thus at least every S's
    approximation under h, each of those S would have been skipped one by
    one, and the same S are summed and the same S wins, ties included.
    """
    budget = budget or OracleBudget()
    _check_alpha(alpha)
    _check_a_side(inst.a_count, budget)
    deadline = time.monotonic() + budget.time_limit
    wpow = [w ** alpha for w in inst.weights]
    members, class_bits = _item_classes(inst)
    k = inst.a_count // 2
    lows = list(zip(*_hit_tables(class_bits[:k])))
    highs = zip(*_hit_tables(class_bits[k:]))
    first, *rest = _chunk_sums(wpow, members)
    rest = [(table, _CHUNK * c) for c, table in enumerate(rest, 1)]
    chunk_mask = (1 << _CHUNK) - 1
    # The filter skips no S whose fsum beats the best.  approx adds S's
    # non-negative terms, each through at most b = len(wpow) additions: its
    # class's chain, its chunk's, then the chain over the chunks.  A float
    # addition never raises (an overflow is inf) and errs by at most
    # u = 2^-53 relative, so approx >= exact * (1 - g) with
    # g = bu / (1 - bu) <= 2bu.  If fsum(S) > best, then exact > best.  For
    # best >= 2^-1021 the cutoff, fl(best * keep) with keep = fl(1 - slack),
    # is at most best * (1 - slack)(1 + u)^2; with slack = 4(b + 2)u that is
    # below best * (1 - g) < approx.  For a smaller best, 0 included, the
    # cutoff is at most best.  There either every addition was exact, so
    # approx = exact > best, or one rounded, which takes a result of at
    # least 2^-1021 (below it floats are spaced 2^-1074, as the terms are),
    # so approx >= 2^-1021 > best.  No fsum overflows: an instance refuses
    # weights whose total would, and an approx of inf only passes.
    keep = 1.0 - 4 * (len(wpow) + 2) * 2.0 ** -53
    reach = lows[-1][0]  # the classes some low id sees
    best_val, best_mask, cutoff = -1.0, 0, -1.0
    for h, (oh, th) in enumerate(highs):
        if time.monotonic() > deadline:
            raise BudgetExceededError("oracle time limit exceeded")
        # The half bound: no S under h sees a class once outside room.
        seen = oh | reach
        room = seen ^ (seen & th)
        bound = first[room & chunk_mask]
        for table, shift in rest:
            bound += table[room >> shift & chunk_mask]
        if bound <= cutoff:
            continue
        onces = [(oh | ol) ^ (th | tl | (oh & ol)) for ol, tl in lows]
        approx = [first[x & chunk_mask] for x in onces]
        for table, shift in rest:
            approx = [v + table[x >> shift & chunk_mask] for v, x in zip(approx, onces)]
        if max(approx) <= cutoff:
            continue
        for l in range(0 if h else 1, len(onces)):  # S = 0 is no candidate
            if approx[l] > cutoff:
                items = sorted(i for c in _iter_bits(onces[l]) for i in members[c])
                val = math.fsum([wpow[i] for i in items])
                if val > best_val:
                    best_val, best_mask = val, h << k | l
                    cutoff = best_val * keep
    chosen = frozenset(_iter_bits(best_mask))
    return AdmissibleSelection(chosen, closure_b(inst, chosen), best_val, alpha)
