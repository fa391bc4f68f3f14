"""Exact Stanley depth of monomial ideals and their quotients.

The computation reduces to partitioning a finite poset of exponent
vectors (the characteristic poset over the box spanned by the generator
degrees) into intervals, following Herzog-Vladoiu-Zheng.  The partition
search is an exact backtracking cover with a hard node budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .monomial import MonomialIdeal, grlex_key

INFINITY = math.inf

DEFAULT_NODE_BUDGET = 2_000_000


def json_value(value):
    """A Stanley depth as JSON and CSV show it: INFINITY is "infinity"."""
    return "infinity" if value == INFINITY else value


class BudgetExceeded(RuntimeError):
    """The exact-cover search exceeded its node budget (never silently
    approximated)."""


@dataclass(frozen=True)
class CharacteristicPoset:
    n: int
    g: tuple
    points: tuple  # grlex-sorted exponent vectors
    kind: str  # "ideal" | "quotient"
    ideal: MonomialIdeal


@dataclass(frozen=True)
class Interval:
    a: tuple
    b: tuple

    def __post_init__(self):
        if any(x > y for x, y in zip(self.a, self.b)):
            raise ValueError(f"interval bounds out of order: {self.a} > {self.b}")

    def members(self):
        return itertools.product(*(range(x, y + 1) for x, y in zip(self.a, self.b)))


@dataclass(frozen=True)
class IntervalPartition:
    g: tuple
    intervals: tuple  # canonical order: sorted by grlex of the bottoms

    def sdepth(self):
        return min(_rho(iv.b, self.g) for iv in self.intervals)

    def is_exact_cover_of(self, points):
        seen = set()
        for iv in self.intervals:
            for c in iv.members():
                if c in seen or c not in points:
                    return False
                seen.add(c)
        return seen == set(points)


@dataclass(frozen=True)
class SdepthResult:
    kind: str
    value: object  # int or INFINITY
    g: tuple = None
    witness: IntervalPartition = None

    def to_dict(self):
        out = {"kind": self.kind, "value": json_value(self.value)}
        if self.g is not None:
            out["g"] = list(self.g)
        if self.witness is not None:
            out["intervals"] = [
                [list(iv.a), list(iv.b)] for iv in self.witness.intervals
            ]
        return out


def _rho(b, g):
    return sum(1 for x, y in zip(b, g) if x == y)


def characteristic_poset(ideal, kind, g=None):
    """Exponent vectors inside the generator-degree box that lie in the
    ideal (kind="ideal") or outside it (kind="quotient").

    ``g`` overrides the box corner (must dominate the default corner);
    enlarging the box never changes the computed Stanley depth.
    """
    if kind not in ("ideal", "quotient"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "ideal" and ideal.is_zero:
        raise ValueError("the zero ideal has an empty characteristic poset")
    if kind == "quotient" and ideal.is_unit:
        raise ValueError("the quotient by the unit ideal is the zero module")
    default = ideal.generator_degree_bounds()
    if g is None:
        g = default
    else:
        g = tuple(g)
        if len(g) != ideal.n or any(a < b for a, b in zip(g, default)):
            raise ValueError(f"box corner {g} must dominate {default}")
    points = []
    for c in itertools.product(*(range(b + 1) for b in g)):
        inside = ideal.contains(c)
        if inside == (kind == "ideal"):
            points.append(c)
    points.sort(key=grlex_key)
    return CharacteristicPoset(ideal.n, g, tuple(points), kind, ideal)


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(
                f"interval-partition search exceeded {self.limit} nodes"
            )


def sdepth_at_least(poset, s, budget=None):
    """An interval partition of the poset using only intervals whose top
    touches the box corner in at least s coordinates, or None."""
    if budget is None:
        budget = _Budget(DEFAULT_NODE_BUDGET)
    g = poset.g
    points = set(poset.points)
    order = {p: idx for idx, p in enumerate(poset.points)}
    failed = set()

    def admissible_tops(p, uncovered):
        tops = []
        for b in uncovered:
            if _rho(b, g) < s or any(x > y for x, y in zip(p, b)):
                continue
            if all(
                c in uncovered
                for c in itertools.product(*(range(x, y + 1) for x, y in zip(p, b)))
            ):
                tops.append(b)
        # larger intervals first, then canonical order
        tops.sort(key=lambda b: (-sum(b), grlex_key(b)))
        return tops

    def minimal_points(uncovered):
        return [
            p for p in uncovered
            if not any(
                q != p and all(x <= y for x, y in zip(q, p)) for q in uncovered
            )
        ]

    def search(uncovered):
        budget.tick()
        if not uncovered:
            return []
        key = frozenset(uncovered)
        if key in failed:
            return None
        best_p, best_tops = None, None
        for p in sorted(minimal_points(uncovered), key=grlex_key):
            tops = admissible_tops(p, uncovered)
            if not tops:
                failed.add(key)
                return None
            if best_tops is None or len(tops) < len(best_tops):
                best_p, best_tops = p, tops
        for b in best_tops:
            block = set(itertools.product(*(range(x, y + 1) for x, y in zip(best_p, b))))
            rest = search(uncovered - block)
            if rest is not None:
                return [Interval(best_p, b)] + rest
        failed.add(key)
        return None

    intervals = search(frozenset(points))
    if intervals is None:
        return None
    intervals.sort(key=lambda iv: (grlex_key(iv.a), grlex_key(iv.b)))
    return IntervalPartition(g, tuple(intervals))


def sdepth(ideal, kind, node_budget=DEFAULT_NODE_BUDGET):
    """Exact Stanley depth of the ideal or of its quotient module.

    Conventions: the zero module (zero ideal as a module, or S/S) has
    Stanley depth infinity; S over itself and S/0 have Stanley depth n.
    """
    if kind not in ("ideal", "quotient"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "ideal" and ideal.is_zero:
        return SdepthResult(kind, INFINITY)
    if kind == "quotient" and ideal.is_unit:
        return SdepthResult(kind, INFINITY)
    return sdepth_from_poset(characteristic_poset(ideal, kind), node_budget)


def sdepth_from_poset(poset, node_budget=DEFAULT_NODE_BUDGET):
    """Best worst interval dimension over all partitions of the poset."""
    budget = _Budget(node_budget)
    for s in range(poset.n, 0, -1):
        witness = sdepth_at_least(poset, s, budget)
        if witness is not None:
            return SdepthResult(poset.kind, s, poset.g, witness)
    witness = sdepth_at_least(poset, 0, budget)
    return SdepthResult(poset.kind, 0, poset.g, witness)


def split_by_variable(ideal, i):
    """Split I along x_i into the part not involving x_i (an ideal of the
    smaller ring, coordinate i dropped) and the colon part (I : x_i)."""
    if ideal.is_zero:
        raise ValueError("cannot split the zero ideal")
    if not 0 <= i < ideal.n:
        raise ValueError(f"variable index {i} out of range")
    restricted = [
        g[:i] + g[i + 1:] for g in ideal.gens if g[i] == 0
    ]
    restriction = MonomialIdeal.from_generators(restricted, ideal.n - 1)
    x_i = tuple(1 if j == i else 0 for j in range(ideal.n))
    return restriction, ideal.colon(x_i)
