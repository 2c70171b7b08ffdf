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

Instances are immutable; solvers are pure apart from the explicit seed
of the randomized selector, so concurrent use on shared instances is safe.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

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
    weight: float
    nbrs: frozenset[int]


class WeightedBipartiteInstance:
    """Bipartite A/B structure with nonnegative weights on the B side.

    Every B-item must have degree >= 1 and all neighbor ids must be below
    a_count.  Immutable after construction.
    """

    __slots__ = ("a_count", "b_items", "nbr_masks", "items_of_a")

    def __init__(self, a_count: int, b_items: Iterable[tuple[float, Iterable[int]]]):
        if a_count < 1:
            raise ValueError("a_count must be >= 1")
        items: list[BItem] = []
        masks: list[int] = []
        items_of_a: list[list[int]] = [[] for _ in range(a_count)]
        for idx, raw in enumerate(b_items):
            w, nbrs = raw
            nbr_set = frozenset(nbrs)
            if not nbr_set:
                raise ValueError(f"b_items[{idx}]: degree must be >= 1")
            if any(not (0 <= a < a_count) for a in nbr_set):
                raise ValueError(f"b_items[{idx}]: neighbor id out of range")
            w = float(w)
            if not (w >= 0.0) or math.isinf(w):
                raise ValueError(f"b_items[{idx}]: weight must be a nonnegative real")
            items.append(BItem(w, nbr_set))
            mask = 0
            for a in nbr_set:
                mask |= 1 << a
                items_of_a[a].append(idx)
            masks.append(mask)
        self.a_count = a_count
        self.b_items = tuple(items)
        self.nbr_masks = tuple(masks)
        self.items_of_a = tuple(tuple(lst) for lst in items_of_a)

    @property
    def b_count(self) -> int:
        return len(self.b_items)

    def total_weight(self) -> float:
        return math.fsum(item.weight for item in self.b_items)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedBipartiteInstance)
            and self.a_count == other.a_count
            and self.b_items == other.b_items
        )

    def __repr__(self) -> str:
        return f"WeightedBipartiteInstance(a_count={self.a_count}, b_count={self.b_count})"

    def to_json(self) -> str:
        payload = {
            "a_count": self.a_count,
            "b_items": [
                {"w": item.weight, "nbrs": sorted(item.nbrs)} for item in self.b_items
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "WeightedBipartiteInstance":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceParseError(f"invalid JSON: {exc}") from None
        if not isinstance(payload, dict) or "a_count" not in payload or "b_items" not in payload:
            raise InstanceParseError("expected object with 'a_count' and 'b_items'")
        a_count = payload["a_count"]
        raw_items = payload["b_items"]
        if not isinstance(a_count, int):
            raise InstanceParseError("'a_count' must be an integer")
        if not isinstance(raw_items, list):
            raise InstanceParseError("'b_items' must be a list")
        items = []
        for idx, raw in enumerate(raw_items):
            if not isinstance(raw, dict) or "w" not in raw or "nbrs" not in raw:
                raise InstanceParseError(f"b_items[{idx}]: expected object with 'w' and 'nbrs'")
            if not isinstance(raw["w"], (int, float)) or isinstance(raw["w"], bool):
                raise InstanceParseError(f"b_items[{idx}]: 'w' must be a number")
            if not isinstance(raw["nbrs"], list) or any(
                not isinstance(a, int) or isinstance(a, bool) for a in raw["nbrs"]
            ):
                raise InstanceParseError(f"b_items[{idx}]: 'nbrs' must be a list of integers")
            items.append((raw["w"], raw["nbrs"]))
        try:
            return WeightedBipartiteInstance(a_count, items)
        except ValueError as exc:
            raise InstanceParseError(str(exc)) from None


def load_instance(path) -> WeightedBipartiteInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return WeightedBipartiteInstance.from_json(fh.read())


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
        for i in self.b_chosen:
            hits = len(inst.b_items[i].nbrs & self.a_chosen)
            if hits != 1:
                raise ValueError(f"b item {i} has {hits} chosen neighbors, wanted exactly 1")
        recomputed = math.fsum(inst.b_items[i].weight ** self.alpha for i in self.b_chosen)
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


def solve_exact(
    inst: WeightedBipartiteInstance,
    alpha: float = 0.5,
    target: Optional[float] = None,
    limit: int = DEFAULT_EXHAUSTION_LIMIT,
) -> AdmissibleSelection:
    """Maximize sum w^alpha over the closure of S, over nonempty S subset A.

    Branch and bound over A-membership.  The B side never needs searching:
    once S is fixed the optimal B-part is its closure.  Branch order is by
    decreasing neighborhood mass sum w^alpha (ties: smallest id); the upper
    bound at a node is the mass of every item that can still end up with
    exactly one chosen neighbor.  With `target` given the search returns the
    first selection whose value reaches it; without a target the A side must
    fit under `limit` or the search refuses to start.
    """
    _check_alpha(alpha)
    a_count = inst.a_count
    if target is None and a_count > limit:
        raise ExhaustionLimitError(
            f"exact search infeasible: a_count={a_count} exceeds limit {limit} and no target given"
        )
    nb = inst.b_count
    wpow = [item.weight ** alpha for item in inst.b_items]
    items_of = inst.items_of_a
    order = sorted(
        range(a_count),
        key=lambda a: (-math.fsum(wpow[i] for i in items_of[a]), a),
    )
    chosen_cnt = [0] * nb
    undecided = [len(item.nbrs) for item in inst.b_items]

    state = {"bound": math.fsum(wpow), "best_val": -1.0, "best_set": None, "stop": False}
    included: list[int] = []

    def counted(i: int) -> bool:
        c = chosen_cnt[i]
        return c == 1 or (c == 0 and undecided[i] > 0)

    def decide(a_id: int, include: bool) -> None:
        for i in items_of[a_id]:
            was = counted(i)
            undecided[i] -= 1
            if include:
                chosen_cnt[i] += 1
            if counted(i) != was:
                state["bound"] += wpow[i] if not was else -wpow[i]

    def undo(a_id: int, include: bool) -> None:
        for i in items_of[a_id]:
            was = counted(i)
            undecided[i] += 1
            if include:
                chosen_cnt[i] -= 1
            if counted(i) != was:
                state["bound"] += wpow[i] if not was else -wpow[i]

    def search(k: int) -> None:
        if state["stop"] or state["bound"] <= state["best_val"]:
            return
        if k == a_count:
            if included:
                value = math.fsum(wpow[i] for i in range(nb) if chosen_cnt[i] == 1)
                if value > state["best_val"]:
                    state["best_val"] = value
                    state["best_set"] = frozenset(included)
                    if target is not None and value >= target:
                        state["stop"] = True
            return
        a_id = order[k]
        included.append(a_id)
        decide(a_id, True)
        search(k + 1)
        undo(a_id, True)
        included.pop()
        if state["stop"]:
            return
        decide(a_id, False)
        search(k + 1)
        undo(a_id, False)

    search(0)
    best_set = state["best_set"]
    assert best_set is not None
    return AdmissibleSelection(best_set, closure_b(inst, best_set), state["best_val"], alpha)


def reduce_instance(
    inst: WeightedBipartiteInstance,
) -> tuple[WeightedBipartiteInstance, list[int]]:
    """Delete A-ids none of whose items would drop below degree 1.

    Repeatedly removes the smallest A-id all of whose items have degree
    >= 2 (vacuously, A-ids with no items at all).  Afterwards every
    surviving A-id has a private degree-1 item, i.e. the survivors carry an
    induced matching into B.  B is never modified.  Returns the reduced
    instance plus the map from reduced A-ids back to the originals.
    """
    live = sorted(range(inst.a_count))
    degree = [len(item.nbrs) for item in inst.b_items]
    removed: set[int] = set()
    while True:
        victim = None
        for a in live:
            if all(degree[i] >= 2 for i in inst.items_of_a[a]):
                victim = a
                break
        if victim is None:
            break
        live.remove(victim)
        removed.add(victim)
        for i in inst.items_of_a[victim]:
            degree[i] -= 1
    new_id = {old: new for new, old in enumerate(live)}
    items = [
        (item.weight, [new_id[a] for a in item.nbrs if a not in removed])
        for item in inst.b_items
    ]
    return WeightedBipartiteInstance(len(live), items), live


def _sqrt_value(inst: WeightedBipartiteInstance, b_ids: Iterable[int]) -> float:
    return math.fsum(math.sqrt(inst.b_items[i].weight) for i in b_ids)


def _star(inst: WeightedBipartiteInstance, a_id: int) -> AdmissibleSelection:
    b = closure_b(inst, {a_id})
    return AdmissibleSelection(frozenset({a_id}), b, _sqrt_value(inst, b), 0.5)


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
    reduced, back = reduce_instance(inst)
    if reduced.a_count ** 2 >= nb:
        s = frozenset(back)
        b = closure_b(inst, s)
        sel = AdmissibleSelection(s, b, _sqrt_value(inst, b), 0.5)
    else:
        best = max(
            range(reduced.a_count),
            key=lambda a: (len(reduced.items_of_a[a]), -a),
        )
        sel = _star(inst, back[best])
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
    if inst.b_count == 0:
        return AdmissibleSelection(frozenset({0}), frozenset(), 0.0, 0.5)
    total = inst.total_weight()
    target = math.sqrt(total)
    if total == 0.0:
        return _star(inst, 0)

    star_vals = [
        math.fsum(math.sqrt(inst.b_items[i].weight) for i in inst.items_of_a[a])
        for a in range(inst.a_count)
    ]
    best_a = max(range(inst.a_count), key=lambda a: (star_vals[a], -a))
    candidate = _star(inst, best_a)

    reduced, back = reduce_instance(inst)
    s = frozenset(back)
    b = closure_b(inst, s)
    matching = AdmissibleSelection(s, b, _sqrt_value(inst, b), 0.5)
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
    """
    nb = inst.b_count
    if nb == 0:
        return AdmissibleSelection(frozenset({0}), frozenset(), 0.0, 0.5)
    degrees = [len(item.nbrs) for item in inst.b_items]
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
