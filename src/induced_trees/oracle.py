"""Exact ground truth at desk scale.

The tree maxima are computed by growing connected acyclic vertex sets:
an extension is allowed only when the new vertex sees exactly one vertex
of the current set, which enumerates precisely the induced trees, and a
forbidden-set discipline (plus smallest-id seed canonicalization) visits
each of them once.  Budgets are hard errors, never silent truncation.
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

    def grow(self, s_mask: int, size: int, forbidden: int, nbr_mask: int, universe: int) -> None:
        self.nodes += 1
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise BudgetExceededError("oracle time limit exceeded")
        if size > self.best_size:
            self.best_size = size
            self.best_set = s_mask
        if self.best_size == self.n:
            return
        out = forbidden | s_mask
        pool = universe ^ (universe & out)
        if size + pool.bit_count() <= self.best_size:
            return
        ext = nbr_mask ^ (nbr_mask & out)
        fb = forbidden
        for u in _iter_bits(ext):
            if (self.masks[u] & s_mask).bit_count() == 1:
                self.grow(
                    s_mask | (1 << u),
                    size + 1,
                    fb,
                    nbr_mask | (self.masks[u] & universe),
                    universe,
                )
            fb |= 1 << u


def max_induced_tree_exact(
    g: Graph, budget: OracleBudget | None = None
) -> tuple[int, frozenset[int]]:
    """Exact maximum induced tree size with a witness set."""
    budget = budget or OracleBudget()
    if g.n == 0:
        raise ValueError("empty graph has no induced tree")
    if g.n > budget.max_vertices:
        raise BudgetExceededError(
            f"graph has {g.n} vertices, budget allows {budget.max_vertices}"
        )
    search = _TreeSearch(g, time.monotonic() + budget.time_limit)
    full = (1 << g.n) - 1
    for seed in range(g.n):
        universe = full ^ ((1 << (seed + 1)) - 1)
        search.grow(1 << seed, 1, 0, search.masks[seed] & universe, universe)
        if search.best_size == g.n:
            break
    return search.best_size, frozenset(_iter_bits(search.best_set))


def max_tree_through_vertex_exact(
    g: Graph, v: int, budget: OracleBudget | None = None
) -> tuple[int, frozenset[int]]:
    """Exact maximum induced tree size over sets containing v."""
    budget = budget or OracleBudget()
    if g.n == 0:
        raise ValueError("empty graph has no induced tree")
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if g.n > budget.max_vertices:
        raise BudgetExceededError(
            f"graph has {g.n} vertices, budget allows {budget.max_vertices}"
        )
    search = _TreeSearch(g, time.monotonic() + budget.time_limit)
    universe = ((1 << g.n) - 1) ^ (1 << v)
    search.grow(1 << v, 1, 0, search.masks[v], universe)
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
        if s_mask % 4096 == 0 and time.monotonic() > deadline:
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
