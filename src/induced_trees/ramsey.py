"""Constructive independent-set extraction in K_r-free graphs.

The classical argument behind the bound "C(a+b-2, a-1) vertices force a
clique of size a or an independent set of size b": take the smallest
allowed vertex, then keep its neighborhood when that is large enough for
the (a-1, b) subproblem and its non-neighborhood otherwise.  The allowed
vertices form one bitmask over the host graph's adjacency masks, and the
vertices taken on each branch collect in two more, so the extraction is a
loop with no depth limit and no relabelled subgraph.

The K_r-free finder needs only the independent branch, since a K_r-free
graph holds no clique of size r, so the extraction has one outcome: the
independent set, as a bitmask.  A clique is a counterexample to the
caller's assertion, raised as CliqueAssertionError where it is found.
The finder calls `_extract` on its neighbourhood bitmasks;
`independent_set_of_size` is the same call on a whole graph.
"""

from __future__ import annotations

import math
from typing import Sequence

from .graph import Graph, _iter_bits

__all__ = [
    "CliqueAssertionError",
    "RamseyPreconditionError",
    "binomial_threshold",
    "independent_set_of_size",
]

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


def _extract(masks: Sequence[int], allowed: int, a: int, b: int) -> int:
    """An independent set of size b, as a bitmask, among the vertices of
    the `allowed` bitmask, which must hold at least binomial_threshold(a, b)
    of them; raises CliqueAssertionError if a clique of size a turns up
    first.  Each step inspects one vertex's neighborhood and lowers a or b
    by one."""
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
            raise CliqueAssertionError(frozenset(_iter_bits(clique | low)))
        if b == 1:
            return independent | low
        nv = masks[low.bit_length() - 1]
        inside = allowed & nv
        if inside.bit_count() >= binomial_threshold(a - 1, b):
            clique |= low
            allowed, a = inside, a - 1
        else:
            independent |= low
            allowed, b = allowed ^ inside ^ low, b - 1
            assert allowed.bit_count() >= binomial_threshold(a, b)


def independent_set_of_size(g: Graph, r: int, b: int) -> frozenset[int]:
    """Independent set of size >= b in a graph the caller asserts is
    K_r-free (so the extraction finds no clique of size r).

    A clique contradicts the caller's assertion and is surfaced as
    CliqueAssertionError carrying the clique.
    """
    return frozenset(_iter_bits(_extract(g.adjacency_masks, (1 << g.n) - 1, r, b)))
