"""Constructive clique-or-independent-set extraction.

The classical argument behind the bound "C(a+b-2, a-1) vertices force a
clique of size a or an independent set of size b": take the smallest
allowed vertex, then keep its neighborhood when that is large enough for
the (a-1, b) subproblem and its non-neighborhood otherwise.  The allowed
vertices form one bitmask over the host graph's adjacency masks, and the
vertices taken on each branch collect in two more, so the extraction is a
loop with no depth limit and no relabelled subgraph.

The K_r-free finder calls the extraction on its neighbourhood bitmasks
through `_independent_mask`; `independent_set_of_size` is the same call
on a whole graph.  Only the independent branch is public: in a graph
the caller asserts is K_r-free, a clique result is a counterexample and
raises CliqueAssertionError.
"""

from __future__ import annotations

import math
from typing import Sequence

from .graph import Graph, _iter_bits

CLIQUE = "clique"
INDEPENDENT = "independent"


class RamseyPreconditionError(ValueError):
    """Input graph is below the vertex count the extraction requires."""


class CliqueAssertionError(RuntimeError):
    """A caller asserted clique-freeness, but a clique was found.

    Carries the clique as a counterexample certificate.
    """

    def __init__(self, clique: frozenset[int]):
        super().__init__(f"clique-freeness assertion violated by clique {sorted(clique)}")
        self.clique = clique


def binomial_threshold(a: int, b: int) -> int:
    """C(a+b-2, a-1): vertices guaranteeing a size-a clique or size-b
    independent set.  Exact (arbitrary precision)."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    return math.comb(a + b - 2, a - 1)


def _extract(masks: Sequence[int], allowed: int, a: int, b: int) -> tuple[str, int]:
    """(kind, members as a bitmask): a clique of size a or an independent
    set of size b among the vertices of the `allowed` bitmask, which must
    hold at least binomial_threshold(a, b) of them.  Each step inspects
    one vertex's neighborhood and lowers a or b by one."""
    need = binomial_threshold(a, b)
    count = allowed.bit_count()
    if count < need:
        raise RamseyPreconditionError(
            f"below Ramsey threshold: ({a}, {b}) needs {need} vertices, graph has {count}"
        )
    clique = independent = 0
    while True:
        low = allowed & -allowed
        if a == 1:
            return CLIQUE, clique | low
        if b == 1:
            return INDEPENDENT, independent | low
        nv = masks[low.bit_length() - 1]
        inside = allowed & nv
        if inside.bit_count() >= binomial_threshold(a - 1, b):
            clique |= low
            allowed, a = inside, a - 1
        else:
            independent |= low
            allowed, b = allowed ^ inside ^ low, b - 1
            assert allowed.bit_count() >= binomial_threshold(a, b)


def _independent_mask(masks: Sequence[int], region: int, r: int, b: int) -> int:
    """independent_set_of_size on the subgraph induced by the `region`
    bitmask of the graph with adjacency `masks`, as a bitmask of its ids."""
    kind, members = _extract(masks, region, r, b)
    if kind == CLIQUE:
        raise CliqueAssertionError(frozenset(_iter_bits(members)))
    return members


def independent_set_of_size(g: Graph, r: int, b: int) -> frozenset[int]:
    """Independent set of size >= b in a graph the caller asserts is
    K_r-free (so the clique branch of the extraction cannot win).

    A clique result contradicts the caller's assertion and is surfaced as
    CliqueAssertionError carrying the clique.
    """
    return frozenset(_iter_bits(_independent_mask(g.adjacency_masks, (1 << g.n) - 1, r, b)))
