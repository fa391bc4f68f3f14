"""Exact Stanley depth of monomial ideals and their quotients.

The computation reduces to partitioning a finite poset of exponent
vectors (the characteristic poset over the box spanned by the generator
degrees) into intervals, following Herzog-Vladoiu-Zheng.  The partition
search is an exact backtracking cover with a hard node budget.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from .monomial import MonomialIdeal, grlex_key

INFINITY = math.inf

DEFAULT_NODE_BUDGET = 2_000_000

# Most points of the exponent box characteristic_poset enumerates.  The
# search keeps two order bitmasks per point, about N**2 / 4 bytes for N
# points: 64 MiB here, where a 3^11 box would take about 8 GB.
MAX_BOX_POINTS = 1 << 14


def json_value(value):
    """A Stanley depth as JSON and CSV show it: INFINITY is "infinity"."""
    return "infinity" if value == INFINITY else value


class BudgetExceeded(RuntimeError):
    """The exact-cover search exceeded its node budget, or its exponent
    box holds more than MAX_BOX_POINTS points (never silently
    approximated)."""


class CharacteristicPoset(namedtuple("CharacteristicPoset", "n g points kind")):
    __slots__ = ()
    # points: grlex-sorted exponent vectors; kind: "ideal" | "quotient"


class Interval(namedtuple("Interval", "a b")):
    __slots__ = ()

    def __new__(cls, a, b):
        if any(x > y for x, y in zip(a, b)):
            raise ValueError(f"interval bounds out of order: {a} > {b}")
        return super().__new__(cls, a, b)

    def members(self):
        return itertools.product(*(range(x, y + 1) for x, y in zip(self.a, self.b)))


class IntervalPartition(namedtuple("IntervalPartition", "g intervals")):
    __slots__ = ()
    # intervals: canonical order, sorted by grlex of the bottoms

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


class SdepthResult(namedtuple("SdepthResult", "kind value g witness",
                              defaults=(None, None))):
    __slots__ = ()
    # value: int or INFINITY; witness: an IntervalPartition

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
    enlarging the box never changes the computed Stanley depth.  A box of
    more than MAX_BOX_POINTS points raises BudgetExceeded.
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
    box = math.prod(b + 1 for b in g)
    if box > MAX_BOX_POINTS:
        raise BudgetExceeded(f"characteristic poset box has {box} points, "
                             f"above the limit of {MAX_BOX_POINTS}")
    points = [c for c in itertools.product(*(range(b + 1) for b in g))
              if ideal.contains(c) == (kind == "ideal")]
    points.sort(key=grlex_key)
    return CharacteristicPoset(ideal.n, g, tuple(points), kind)


def check_budget(limit):
    """Validate a search node budget: at least 1."""
    if limit < 1:
        raise ValueError(f"node budget must be >= 1, got {limit}")


class _Budget:
    def __init__(self, limit):
        check_budget(limit)
        self.limit = limit
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExceeded(
                f"interval-partition search exceeded {self.limit} nodes"
            )


def _bits(mask):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def sdepth_at_least(poset, s, budget=None):
    """An interval partition of the poset using only intervals whose top
    touches the box corner in at least s coordinates, or None.  Point i
    of poset.points is bit i; sets of points are int bitmasks."""
    if budget is None:
        budget = _Budget(DEFAULT_NODE_BUDGET)
    g, points = poset.g, poset.points
    # up[i], down[i]: points >= and <= point i, built per coordinate
    up, down = [-1] * len(points), [-1] * len(points)
    for t, corner in enumerate(g):
        at = [0] * (corner + 1)
        for i, p in enumerate(points):
            at[p[t]] |= 1 << i
        at_most = list(itertools.accumulate(at, operator.or_))
        at_least = list(itertools.accumulate(at[::-1], operator.or_))[::-1]
        for i, p in enumerate(points):
            up[i] &= at_least[p[t]]
            down[i] &= at_most[p[t]]
    high = sum(1 << i for i, b in enumerate(points) if _rho(b, g) >= s)
    failed = set()

    def search(uncovered):
        budget.tick()
        if not uncovered:
            return []
        if uncovered in failed:
            return None
        best_a, best_tops = None, None
        for a in _bits(uncovered):
            if down[a] & uncovered != 1 << a:
                continue  # a is not minimal
            # [a, b] lies in uncovered iff it holds as many points as its box
            tops = [b for b in _bits(up[a] & high & uncovered)
                    if (up[a] & down[b] & uncovered).bit_count() == math.prod(
                        y - x + 1 for x, y in zip(points[a], points[b]))]
            if not tops:
                failed.add(uncovered)
                return None
            if best_tops is None or len(tops) < len(best_tops):
                best_a, best_tops = a, tops
        # larger intervals first; the stable sort keeps grlex order on ties
        for b in sorted(best_tops, key=lambda b: -sum(points[b])):
            rest = search(uncovered & ~(up[best_a] & down[b]))
            if rest is not None:
                return [(best_a, b)] + rest
        failed.add(uncovered)
        return None

    found = search((1 << len(points)) - 1)
    if found is None:
        return None
    return IntervalPartition(
        g, tuple(Interval(points[a], points[b]) for a, b in sorted(found)))


def sdepth(ideal, kind, node_budget=DEFAULT_NODE_BUDGET):
    """Exact Stanley depth of the ideal or of its quotient module.

    Conventions: the zero module (zero ideal as a module, or S/S) has
    Stanley depth infinity; S over itself and S/0 have Stanley depth n.
    """
    check_budget(node_budget)
    if (kind == "ideal" and ideal.is_zero
            or kind == "quotient" and ideal.is_unit):
        return SdepthResult(kind, INFINITY)
    return sdepth_from_poset(characteristic_poset(ideal, kind), node_budget)


def sdepth_from_poset(poset, node_budget=DEFAULT_NODE_BUDGET):
    """Best worst interval dimension over all partitions of the poset."""
    budget = _Budget(node_budget)
    for s in range(poset.n, -1, -1):  # singletons always cover at s = 0
        witness = sdepth_at_least(poset, s, budget)
        if witness is not None:
            return SdepthResult(poset.kind, s, poset.g, witness)


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
