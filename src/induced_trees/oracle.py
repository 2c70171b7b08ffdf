"""Exact ground truth at desk scale.

The tree maxima are computed by growing connected acyclic vertex sets:
an extension is allowed only when the new vertex sees exactly one vertex
of the current set, which enumerates precisely the induced trees, and a
forbidden-set discipline (plus smallest-id seed canonicalization) visits
each of them once.  Budgets are hard errors, never silent truncation:
every search here checks the time limit at its first step and at every
4096th.

The growth runs on an explicit stack, so a tree may be as deep as the
budget allows, whatever the recursion limit.  Each node also carries a
dead set: the vertices with two or more neighbours in the current set.
A superset keeps those neighbours, so a dead vertex never joins any tree
below the node; when u joins with in-universe neighbours mu, the dead set
grows by mu & (the neighbours so far).  Dead vertices leave both the
candidates (so every candidate sees exactly one vertex of the set and
needs no test) and the pool behind the bound size + |pool| <= best.  The
tighter bound prunes only subtrees that cannot strictly beat the best so
far, children are visited in the same pre-order, and the best set changes
only on a strict gain, so the returned witness, the first maximum in that
order, is the one a search without dead sets returns; it just visits
fewer nodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .admissible import AdmissibleSelection, WeightedBipartiteInstance, closure_b, _check_alpha
from .graph import Graph, _iter_bits


class BudgetExceededError(RuntimeError):
    """Instance too large for the oracle budget, or the time limit hit."""


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 20
    max_a_side: int = 20
    time_limit: float = 60.0

    def __post_init__(self):
        if self.max_vertices < 1 or self.max_a_side < 1 or self.time_limit <= 0:
            raise ValueError("budget fields must be positive")


class _TreeSearch:
    """Shared growth enumeration for the two tree maxima."""

    def __init__(self, g: Graph, deadline: float):
        self.masks = g.adjacency_masks
        self.n = g.n
        self.deadline = deadline
        self.best_size = 0
        self.best_set = 0
        self.nodes = 0

    def grow(self, root: int, universe: int) -> None:
        """Visit, in depth-first pre-order, the trees that contain `root`
        and otherwise lie inside `universe`.  A stack entry is (set, size,
        forbidden, neighbours, dead)."""
        masks = self.masks
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
            if size + pool.bit_count() <= self.best_size:
                continue
            ext = nbr_mask ^ (nbr_mask & out)
            # Highest first, so the lowest child is popped first; what is
            # left of ext is the earlier siblings, forbidden to this child.
            while ext:
                u = ext.bit_length() - 1
                ext ^= 1 << u
                mu = masks[u] & universe
                stack.append((
                    s_mask | 1 << u, size + 1, forbidden | ext,
                    nbr_mask | mu, dead | (mu & nbr_mask),
                ))


def _search(g: Graph, budget: OracleBudget | None, v: int = 0) -> _TreeSearch:
    """The search both maxima run, after the checks they share, in this
    order: empty graph, root v in range (the default 0 is in any nonempty
    graph), size within `budget`."""
    budget = budget or OracleBudget()
    if g.n == 0:
        raise ValueError("empty graph has no induced tree")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
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


def admissible_naive(
    inst: WeightedBipartiteInstance,
    alpha: float = 0.5,
    budget: OracleBudget | None = None,
) -> AdmissibleSelection:
    """Reference optimizer: plain enumeration of every nonempty S subset A
    with its forced closure.  Used to cross-check solve_exact."""
    budget = budget or OracleBudget()
    _check_alpha(alpha)
    _check_a_side(inst.a_count, budget)
    deadline = time.monotonic() + budget.time_limit
    wpow = [w ** alpha for w in inst.weights]
    nbr_masks = inst.nbr_masks
    best_val = -1.0
    best_mask = 0
    for s_mask in range(1, 1 << inst.a_count):
        if s_mask % 4096 == 1 and time.monotonic() > deadline:
            raise BudgetExceededError("oracle time limit exceeded")
        val = math.fsum(
            wpow[i]
            for i, mask in enumerate(nbr_masks)
            if (mask & s_mask).bit_count() == 1
        )
        if val > best_val:
            best_val = val
            best_mask = s_mask
    chosen = frozenset(_iter_bits(best_mask))
    return AdmissibleSelection(chosen, closure_b(inst, chosen), best_val, alpha)
