"""Admissible-set selection in weighted bipartite instances.

An instance has a left side A of plain ids and a right side B of weighted
items, each adjacent to at least one A-id.  A selection (S, T) with
S subset of A, T subset of B is *admissible* when every item of T has
exactly one neighbor in S.  The objective is sum of w^alpha over T; the
key guarantees realized here are

  * select_weighted:  sum sqrt(w_i) over T  >=  sqrt(sum of all weights),
  * select_uniform:   |T| >= ceil(sqrt(|B|)),

both constructive, plus an exact branch-and-bound optimizer
(solve_exact) and a randomized dyadic selector that reaches a constant
fraction of the most populous degree class.

An instance stores one adjacency form, a neighbour bitmask per item, and
every solver reads it; no solver reads the one view, `b_items`.  JSON is
read by `WeightedBipartiteInstance.from_json` and written by
`save_instance`.  Instances are immutable; solvers are pure apart
from the explicit seed of the randomized selector, so concurrent use on
shared instances is safe.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .graph import _is_id, _iter_bits, _mask_of

DEFAULT_EXHAUSTION_LIMIT = 24

# Absolute slack on the selection guarantees; they are exact over the
# reals, this only absorbs sqrt() rounding.
LEMMA_SLACK = 1e-9


class InstanceParseError(ValueError):
    """Malformed instance JSON; message carries the offending item index."""


class ExhaustionLimitError(RuntimeError):
    """solve_exact asked to exhaust an A-side beyond the configured limit."""


class LemmaViolationError(RuntimeError):
    """A constructive selector failed a bound the theory guarantees.

    This is a test-suite trap: it can only fire on an implementation bug.
    """


class BItem(NamedTuple):
    """One item of the `b_items` view; stays while perfbench reads it."""

    weight: float
    nbrs: frozenset[int]


class WeightedBipartiteInstance:
    """Bipartite A/B structure with nonnegative weights on the B side.

    Every B-item must have degree >= 1 and all neighbor ids must be below
    a_count.  Stores a_count, `weights` and `nbr_masks` (bit a of item i's
    mask is set when i sees A-id a); `b_items` is a view built from the
    masks on first read.
    """

    __slots__ = ("a_count", "weights", "nbr_masks", "_b_items")

    def __init__(self, a_count: int, b_items: Iterable[tuple[float, Iterable[int]]]):
        a_count = operator.index(a_count)  # a float is a TypeError, as in range()
        if a_count < 1:
            raise ValueError("a_count must be >= 1")
        weights: list[float] = []
        masks: list[int] = []
        for idx, (w, nbrs) in enumerate(b_items):
            mask = 0
            for a in nbrs:
                # Checked before the shift, so a huge id allocates nothing.
                if not (0 <= a < a_count):
                    raise ValueError(f"b_items[{idx}]: neighbor id out of range")
                mask |= 1 << a
            if not mask:
                raise ValueError(f"b_items[{idx}]: degree must be >= 1")
            try:
                w = float(w)
            except OverflowError:  # an integer beyond the float range
                w = math.inf
            if not (w >= 0.0) or math.isinf(w):
                raise ValueError(f"b_items[{idx}]: weight must be a nonnegative real")
            weights.append(w)
            masks.append(mask)
        self.a_count = a_count
        self.weights = tuple(weights)
        self.nbr_masks = tuple(masks)
        self._b_items = None

    @property
    def b_items(self) -> tuple[BItem, ...]:
        """Each item as BItem(weight, frozenset of its A-neighbours).  No
        solver reads it; it stays while perfbench reads it."""
        if self._b_items is None:
            pairs = zip(self.weights, self.nbr_masks)
            self._b_items = tuple(BItem(w, frozenset(_iter_bits(m))) for w, m in pairs)
        return self._b_items

    @property
    def b_count(self) -> int:
        return len(self.weights)

    def total_weight(self) -> float:
        return math.fsum(self.weights)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedBipartiteInstance)
            and self.a_count == other.a_count
            and self.weights == other.weights
            and self.nbr_masks == other.nbr_masks
        )

    def __repr__(self) -> str:
        return f"WeightedBipartiteInstance(a_count={self.a_count}, b_count={self.b_count})"

    def to_json(self) -> str:
        payload = {
            "a_count": self.a_count,
            "b_items": [
                {"w": w, "nbrs": list(_iter_bits(m))}
                for w, m in zip(self.weights, self.nbr_masks)
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "WeightedBipartiteInstance":
        return _instance_of(*_instance_payload(text))


def _instance_payload(text: str) -> tuple[int, list]:
    """The (a_count, items) of instance JSON, type-checked but not yet
    range-checked, so a caller can bound a_count before any mask is built."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "a_count" not in payload or "b_items" not in payload:
        raise InstanceParseError("expected object with 'a_count' and 'b_items'")
    a_count = payload["a_count"]
    raw_items = payload["b_items"]
    if not _is_id(a_count):
        raise InstanceParseError("'a_count' must be an integer")
    if not isinstance(raw_items, list):
        raise InstanceParseError("'b_items' must be a list")
    items = []
    for idx, raw in enumerate(raw_items):
        if not isinstance(raw, dict) or "w" not in raw or "nbrs" not in raw:
            raise InstanceParseError(f"b_items[{idx}]: expected object with 'w' and 'nbrs'")
        if not (_is_id(raw["w"]) or isinstance(raw["w"], float)):
            raise InstanceParseError(f"b_items[{idx}]: 'w' must be a number")
        if not isinstance(raw["nbrs"], list) or not all(map(_is_id, raw["nbrs"])):
            raise InstanceParseError(f"b_items[{idx}]: 'nbrs' must be a list of integers")
        items.append((raw["w"], raw["nbrs"]))
    return a_count, items


def _instance_of(a_count: int, items: list) -> WeightedBipartiteInstance:
    """The instance of a parsed payload; a range error is a parse error."""
    try:
        return WeightedBipartiteInstance(a_count, items)
    except ValueError as exc:
        raise InstanceParseError(str(exc)) from None


def save_instance(inst: WeightedBipartiteInstance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(inst.to_json() + "\n")


@dataclass(frozen=True)
class AdmissibleSelection:
    """A chosen (S, T) pair with its objective value sum w^alpha over T."""

    a_chosen: frozenset[int]
    b_chosen: frozenset[int]
    value: float
    alpha: float = 0.5

    def check(self, inst: WeightedBipartiteInstance) -> None:
        """Re-verify admissibility and the recorded value; raises on failure."""
        # Ids outside A see no item, so leaving them out of the mask is exact.
        s_mask = _mask_of(a for a in self.a_chosen if 0 <= a < inst.a_count)
        for i in self.b_chosen:
            if not (0 <= i < inst.b_count):
                raise ValueError(f"b item {i} out of range")
            hits = (inst.nbr_masks[i] & s_mask).bit_count()
            if hits != 1:
                raise ValueError(f"b item {i} has {hits} chosen neighbors, wanted exactly 1")
        recomputed = math.fsum(inst.weights[i] ** self.alpha for i in self.b_chosen)
        tol = 1e-12 * max(1.0, abs(recomputed))
        if abs(recomputed - self.value) > tol:
            raise ValueError(f"recorded value {self.value} != recomputed {recomputed}")


def closure_b(inst: WeightedBipartiteInstance, s: Iterable[int]) -> frozenset[int]:
    """All B-items with exactly one neighbor in s: the unique maximal
    admissible B-part for a fixed nonempty S (weights are nonnegative)."""
    s_mask = 0
    for a in s:
        if not (0 <= a < inst.a_count):
            raise ValueError(f"A-id {a} out of range")
        s_mask |= 1 << a
    if s_mask == 0:
        raise ValueError("s must be nonempty")
    return frozenset(
        i for i, mask in enumerate(inst.nbr_masks) if (mask & s_mask).bit_count() == 1
    )


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def _item_classes(inst: WeightedBipartiteInstance) -> tuple[list[list[int]], list[int]]:
    """Items that see the same A-ids enter and leave every closure
    together, so they form one class.  Returns the classes' items,
    ascending, classes ordered by their first item, and for each A-id the
    mask of the classes that see it."""
    classes: dict[int, list[int]] = {}  # A-neighbourhood mask: its items
    for i, mask in enumerate(inst.nbr_masks):
        classes.setdefault(mask, []).append(i)
    class_bits = [0] * inst.a_count
    for c, mask in enumerate(classes):
        for a in _iter_bits(mask):
            class_bits[a] |= 1 << c
    return list(classes.values()), class_bits


def solve_exact(
    inst: WeightedBipartiteInstance,
    alpha: float = 0.5,
    target: Optional[float] = None,
    limit: int = DEFAULT_EXHAUSTION_LIMIT,
) -> AdmissibleSelection:
    """Maximize sum w^alpha over the closure of S, over nonempty S subset A.

    Branch and bound over A-membership.  The B side never needs searching:
    once S is fixed the optimal B-part is its closure.  Branch order is by
    decreasing neighborhood mass sum w^alpha (ties: smallest id), the
    in-branch before the out-branch.  The upper bound at a node is the
    math.fsum of w^alpha over every item that can still end up with exactly
    one chosen neighbor, recomputed at each node; a correctly rounded sum
    is monotone, so it never falls below a value some leaf under the node
    reaches, and at a leaf it is the leaf's value.  The search tracks
    classes of items with equal A-neighbourhoods, not items, so a node
    lists at most min(b, 2^a - 1) classes and fsums their terms.  The
    first S in that order with the largest value wins.  With `target` given the search
    returns the first selection whose value reaches it; without a target
    the A side must fit under `limit` or the search refuses to start.
    """
    _check_alpha(alpha)
    a_count = inst.a_count
    if target is None and a_count > limit:
        raise ExhaustionLimitError(
            f"exact search infeasible: a_count={a_count} exceeds limit {limit} and no target given"
        )
    wpow = [w ** alpha for w in inst.weights]
    members, class_bits = _item_classes(inst)
    terms = [[wpow[i] for i in items] for items in members]

    def mass(classes: int) -> float:
        """fsum of w^alpha over the items of `classes`, highest class first;
        fsum is correctly rounded, so the order of the terms does not matter."""
        values: list[float] = []
        while classes:
            c = classes.bit_length() - 1
            values += terms[c]
            classes ^= 1 << c
        return math.fsum(values)

    order = sorted(range(a_count), key=lambda a: (-mass(class_bits[a]), a))
    # seen[k]: the classes order[k] sees; later[k]: those some order[j], j >= k, sees.
    seen = [class_bits[a] for a in order]
    later = [0] * (a_count + 1)
    for k in range(a_count - 1, -1, -1):
        later[k] = later[k + 1] | seen[k]

    best_val = -1.0
    best_s = 0
    # A state is (k, S as a mask over order positions, classes seen at
    # least once, classes seen at least twice); order[k] is the next to decide.
    stack = [(0, 0, 0, 0)]
    while stack:
        k, s, once, twice = stack.pop()
        # Classes seen exactly once, and unseen classes an undecided id sees.
        kept = (once ^ twice) | (later[k] ^ (later[k] & once))
        bound = mass(kept)
        if bound <= best_val:
            continue
        if k < a_count:
            m = seen[k]
            stack.append((k + 1, s, once, twice))
            stack.append((k + 1, s | 1 << k, once | m, twice | (once & m)))
        elif s:
            best_val = bound
            best_s = s
            if target is not None and bound >= target:
                break
    best_set = frozenset(order[k] for k in _iter_bits(best_s))
    return AdmissibleSelection(best_set, closure_b(inst, best_set), best_val, alpha)


def _survivors(inst: WeightedBipartiteInstance) -> list[int]:
    """The A-ids reduce_instance keeps, ascending, in one ascending pass.

    An A-id is removable when every item it sees has another live
    neighbour.  A removal never takes an item below one live neighbour, so
    an id that is an item's last live neighbour stays one: an id that is
    not removable never becomes removable, and the pass removes exactly
    what restarting from the smallest live id after each removal would.
    """
    masks = inst.nbr_masks
    if not masks:
        raise ValueError("empty B side: every A-id is removable and none survives")
    live = 0
    for m in masks:
        live |= m
    for a in _iter_bits(live):
        if all((m & live).bit_count() >= 2 for m in masks if m >> a & 1):
            live ^= 1 << a
    return list(_iter_bits(live))


def reduce_instance(
    inst: WeightedBipartiteInstance,
) -> tuple[WeightedBipartiteInstance, list[int]]:
    """Delete A-ids none of whose items would drop below degree 1.

    Repeatedly removes the smallest A-id all of whose items have degree
    >= 2 (vacuously, A-ids with no items at all).  Afterwards every
    surviving A-id has a private degree-1 item, i.e. the survivors carry an
    induced matching into B.  B is never modified.  Returns the reduced
    instance plus the map from reduced A-ids back to the originals.
    Raises ValueError on an instance with no items, where every A-id is
    removable and nothing would survive.  The selectors call _survivors;
    this stays while perfbench traces it.
    """
    live = _survivors(inst)
    new_id = {old: new for new, old in enumerate(live)}
    items = [
        (w, [new_id[a] for a in _iter_bits(m) if a in new_id])
        for w, m in zip(inst.weights, inst.nbr_masks)
    ]
    return WeightedBipartiteInstance(len(live), items), live


def _sqrt_value(inst: WeightedBipartiteInstance, b_ids: Iterable[int]) -> float:
    return math.fsum(math.sqrt(inst.weights[i]) for i in b_ids)


def _closed(inst: WeightedBipartiteInstance, s: frozenset[int]) -> AdmissibleSelection:
    """The selection of S = s with its closure, valued by sum sqrt(w)."""
    b = closure_b(inst, s)
    return AdmissibleSelection(s, b, _sqrt_value(inst, b), 0.5)


def _ceil_sqrt(k: int) -> int:
    """ceil(sqrt(k)) for an integer k >= 0, computed exactly: the item
    count select_uniform guarantees for an instance with k items."""
    root = math.isqrt(k)
    return root if root * root == k else root + 1


def select_uniform(inst: WeightedBipartiteInstance) -> AdmissibleSelection:
    """Constructive cardinality guarantee: |b_chosen| >= ceil(sqrt(|B|)).

    Reduce first; if enough A-ids survive, they carry an induced matching
    and selecting all of them keeps every degree-1 item.  Otherwise some
    survivor has degree above sqrt(|B|) and its star suffices.
    """
    nb = inst.b_count
    if nb == 0:
        return AdmissibleSelection(frozenset({0}), frozenset(), 0.0, 0.5)
    live = _survivors(inst)
    if len(live) ** 2 >= nb:
        sel = _closed(inst, frozenset(live))
    else:
        masks = inst.nbr_masks
        best = max(live, key=lambda a: (sum(m >> a & 1 for m in masks), -a))
        sel = _closed(inst, frozenset({best}))
    need = _ceil_sqrt(nb)
    if len(sel.b_chosen) < need:
        raise LemmaViolationError(
            f"uniform selection produced {len(sel.b_chosen)} items, needs {need}"
        )
    return sel


def select_weighted(inst: WeightedBipartiteInstance) -> AdmissibleSelection:
    """Constructive weighted guarantee: sum sqrt(w) >= sqrt(total weight).

    Cheap candidates first (the best single star, then reduce-and-match);
    if neither reaches sqrt(total), fall back to the exact search with that
    value as target.  The theory guarantees the target is attainable, so a
    fallback miss is trapped as an implementation bug.
    """
    total = inst.total_weight()
    target = math.sqrt(total)
    if total == 0.0:  # also an empty B side: A-id 0 alone, keeping no item
        return _closed(inst, frozenset({0}))

    roots = [math.sqrt(w) for w in inst.weights]
    star_vals = [
        math.fsum(r for r, m in zip(roots, inst.nbr_masks) if m >> a & 1)
        for a in range(inst.a_count)
    ]
    best_a = max(range(inst.a_count), key=lambda a: (star_vals[a], -a))
    candidate = _closed(inst, frozenset({best_a}))

    matching = _closed(inst, frozenset(_survivors(inst)))
    if matching.value > candidate.value:
        candidate = matching

    if candidate.value >= target - LEMMA_SLACK:
        return candidate

    sel = solve_exact(inst, alpha=0.5, target=target)
    if sel.value >= target - LEMMA_SLACK:
        return sel
    raise LemmaViolationError(
        f"exhaustive fallback reached {sel.value} < sqrt(total) = {target}"
    )


def select_randomized_dyadic(inst: WeightedBipartiteInstance, seed: int) -> AdmissibleSelection:
    """Randomized selector targeting the most populous dyadic degree class.

    Requires a reduced instance (so B-degrees are at most |A|).  Picks the
    degree class [2^k, 2^(k+1)] holding the most items (smallest k on ties),
    samples each A-id independently with probability 2^(-k-1), and keeps the
    closure.  Retries up to 64 fresh draws until the closure reaches an
    eighth of the chosen class, then returns the best attempt regardless.
    No finder calls it; it stays because acceptance criterion 09 and the
    README's reproduced results pin it.
    """
    nb = inst.b_count
    if nb == 0:
        return AdmissibleSelection(frozenset({0}), frozenset(), 0.0, 0.5)
    degrees = [m.bit_count() for m in inst.nbr_masks]
    max_k = max(degrees).bit_length() - 1
    counts = [
        sum(1 for d in degrees if (1 << k) <= d <= (1 << (k + 1)))
        for k in range(max_k + 1)
    ]
    k_star = max(range(max_k + 1), key=lambda k: (counts[k], -k))
    threshold = counts[k_star] / 8.0
    p = 2.0 ** (-(k_star + 1))

    rng = random.Random(seed)
    best_a: frozenset[int] = frozenset()
    best_b: frozenset[int] = frozenset()
    for _ in range(64):
        sampled = frozenset(a for a in range(inst.a_count) if rng.random() < p)
        hit = closure_b(inst, sampled) if sampled else frozenset()
        if len(hit) > len(best_b):
            best_a, best_b = sampled, hit
        if len(hit) >= threshold:
            break
    return AdmissibleSelection(best_a, best_b, _sqrt_value(inst, best_b), 0.5)
