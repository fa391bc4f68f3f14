"""Exact Stanley depth of monomial ideals and their quotients.

The computation reduces to partitioning a finite poset of exponent
vectors (the characteristic poset over the box spanned by the generator
degrees) into intervals, following Herzog-Vladoiu-Zheng.  The partition
search is an exact backtracking cover with a hard node budget.  It starts
at an upper bound counted on the box: the largest level s at which the
series sum over the points c of x^|c| (1 - x)^(s - rho(c)) has no
negative coefficient, rho(c) being the number of coordinates at the
corner.  Where the search runs out of budget, a splitting along the
variables may still supply a witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

from .monomial import (BudgetExceeded, MonomialIdeal, box_divisors,
                       divisor_masks, grlex_key)

INFINITY = math.inf

DEFAULT_NODE_BUDGET = 2_000_000

# A part of the splitting with at most this many poset points is searched
# directly; a larger one is split again.
SPLIT_SEARCH_POINTS = 32


def json_value(value):
    """A Stanley depth as JSON and CSV show it: INFINITY is "infinity"."""
    return "infinity" if value == INFINITY else value


class CharacteristicPoset(namedtuple("CharacteristicPoset", "n g points kind")):
    __slots__ = ()
    # points: grlex-sorted exponent vectors; kind: "ideal" | "quotient"


class Interval(namedtuple("Interval", "a b")):
    __slots__ = ()

    def __new__(cls, a, b):
        if len(a) != len(b):
            raise ValueError(f"interval bounds of different lengths: {a}, {b}")
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
        points, seen = set(points), set()
        for iv in self.intervals:
            for c in iv.members():
                if c in seen or c not in points:
                    return False
                seen.add(c)
        return seen == points


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
    return sum(map(operator.eq, b, g))


def characteristic_poset(ideal, kind):
    """Exponent vectors inside the generator-degree box that lie in the
    ideal (kind="ideal") or outside it (kind="quotient").

    A box of more than MAX_BOX_POINTS points raises BudgetExceeded before
    any point is made.  The points are those that monomial.box_divisors
    gives with a dividing generator (kind="ideal") or with none.
    """
    if kind not in ("ideal", "quotient"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "ideal" and ideal.is_zero:
        raise ValueError("the zero ideal has an empty characteristic poset")
    if kind == "quotient" and ideal.is_unit:
        raise ValueError("the quotient by the unit ideal is the zero module")
    g = ideal.generator_degree_bounds()
    inside = kind == "ideal"
    points = [c for c, m in box_divisors(ideal.gens, g, "characteristic poset")
              if (m != 0) == inside]
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


def _minimal_points(mask, up):
    """The minimal points of the set mask, in increasing index order.
    up[a] is the set of points >= a; every point below a has a lower
    index, so the lowest point left is minimal, and dropping all points
    above it leaves the others."""
    while mask:
        a = (mask & -mask).bit_length() - 1
        yield a
        mask &= ~up[a]


def _meet(rows, p):
    """The AND of rows[t][p_t] over the coordinates t."""
    return functools.reduce(operator.and_, map(list.__getitem__, rows, p), -1)


def sdepth_at_least(poset, s, budget=None):
    """An interval partition of the poset using only intervals whose top
    touches the box corner in at least s coordinates, or None.  Point i
    of poset.points is bit i; sets of points are int bitmasks.  The points
    are in grlex order, so each point comes after every point below it."""
    if budget is None:
        budget = _Budget(DEFAULT_NODE_BUDGET)
    g, points = poset.g, poset.points
    size = [sum(p) for p in points]
    if any(map(operator.gt, size, size[1:])):
        raise ValueError("poset points must be in grlex order")
    # up[i], down[i]: points >= and <= point i, from the divisor masks of
    # the points (playing the generators); at_least runs the OR backwards
    exactly, at_most = divisor_masks(points, g)
    at_least = [list(itertools.accumulate(row[::-1], operator.or_))[::-1]
                for row in exactly]
    up = [_meet(at_least, p) for p in points]
    down = [_meet(at_most, p) for p in points]
    high = sum(1 << i for i, b in enumerate(points) if _rho(b, g) >= s)
    failed = set()
    candidates = {}

    def tops_of(a):
        """(b, [a, b]) for each top b whose interval lies wholly in the
        poset (it holds as many points as its box), larger tops first; the
        stable sort keeps index order on ties."""
        tops = []
        for b in _bits(up[a] & high):
            interval = up[a] & down[b]
            if interval.bit_count() == math.prod(
                    y - x + 1 for x, y in zip(points[a], points[b])):
                tops.append((b, interval))
        tops.sort(key=lambda top: -size[top[0]])
        return tops

    def search(uncovered):
        budget.tick()
        if not uncovered:
            return []
        if uncovered in failed:
            return None
        best_a, best_tops, fewest = None, None, 0
        for a in _minimal_points(uncovered, up):
            if a not in candidates:
                candidates[a] = tops_of(a)
            tops = []
            for top in candidates[a]:
                if top[1] & uncovered == top[1]:
                    tops.append(top)
                    if len(tops) == fewest:
                        break  # a cannot have fewer tops than best_a
            else:  # a has no top left, or fewer than best_a
                if not tops:
                    failed.add(uncovered)
                    return None
                best_a, best_tops, fewest = a, tops, len(tops)
        for b, interval in best_tops:
            rest = search(uncovered & ~interval)
            if rest is not None:
                return [(best_a, b)] + rest
        failed.add(uncovered)
        return None

    found = search((1 << len(points)) - 1)
    if found is None:
        return None
    return IntervalPartition(
        g, tuple(Interval(points[a], points[b]) for a, b in sorted(found)))


def counting_bound(poset):
    """An upper bound on the Stanley depth of the poset: the largest level
    s at which P(x) / (1 - x)^(n - s) has no negative coefficient, where
    P(x) sums x^|c| (1 - x)^(n - rho(c)) over the points c; else 0.

    Polarization adds sum(g) - n to the Stanley depth (Ichim-Katthan-
    Moyano-Fernandez).  A squarefree poset with a partition whose tops all
    have at least s elements has one whose points of at most s elements
    lie in intervals with tops of exactly s elements, so its h-vector at
    that level is nonnegative (Keller-Shen-Streib-Young).  Read back in
    the box, that h-vector is the start of the series above, whose later
    coefficients are nonnegative, so its first sum(g) + n + 1
    coefficients decide the level."""
    n, g = poset.n, poset.g
    # counts[m][d]: the points c with |c| = d and n - rho(c) = m
    counts = [[0] * (sum(g) + n + 1) for _ in range(n + 1)]
    for c in poset.points:
        counts[n - _rho(c, g)][sum(c)] += 1
    series = counts[n]
    for row in reversed(counts[:n]):  # Horner's rule in 1 - x
        series = [a + b - c for a, b, c in zip(row, series, [0] + series)]
    for s in range(n, 0, -1):
        if min(series) >= 0:
            return s
        series = list(itertools.accumulate(series))  # divide by 1 - x
    return 0


def sdepth(ideal, kind, node_budget=DEFAULT_NODE_BUDGET):
    """Exact Stanley depth of the ideal or of its quotient module: the best
    worst interval dimension over all partitions of its characteristic
    poset.

    The levels from the counting bound down are searched with one node
    budget.  Where it runs out at level s, every level above s has failed
    or lies above the bound, so a splitting witness at s, found with a
    second budget of the same size, still decides the value.

    Conventions: the zero module (zero ideal as a module, or S/S) has
    Stanley depth infinity; S over itself and S/0 have Stanley depth n.
    """
    check_budget(node_budget)
    if (kind == "ideal" and ideal.is_zero
            or kind == "quotient" and ideal.is_unit):
        return SdepthResult(kind, INFINITY)
    poset = characteristic_poset(ideal, kind)
    budget = _Budget(node_budget)
    for s in range(counting_bound(poset), -1, -1):  # singletons cover at 0
        try:
            witness = sdepth_at_least(poset, s, budget)
        except BudgetExceeded:
            witness = splitting_witness(ideal, poset, s, node_budget)
            if witness is None:
                raise
        if witness is not None:
            return SdepthResult(kind, s, poset.g, witness)


def splitting_witness(ideal, poset, s, node_budget=DEFAULT_NODE_BUDGET):
    """An interval partition of the ideal's characteristic poset with
    every top rank >= s, built by splitting its module along the
    variables, or None if none was found within the node budget.

    Along x_i the monomials of I (or outside I) are those of the part
    without x_i, an ideal in n - 1 variables, and x_i times those of
    (I : x_i) (Rauf).  The parts are split again, and a part with at most
    SPLIT_SEARCH_POINTS points is searched at level s.  Each interval
    [c, d] of a part's partition gives the Stanley spaces x^e K[Z_d]
    (Herzog-Vladoiu-Zheng), which are shifted, embedded and cut back to
    the box of the poset.  Each part costs one node."""
    budget = _Budget(node_budget)

    def split(ideal):
        """Stanley spaces (e, z) of the module, z the 0/1 vector of the
        free variables, each with at least s of them, from the first
        variable whose split parts both reach s; None if no variable does."""
        bounds = ideal.generator_degree_bounds()
        for i in range(ideal.n):
            if not bounds[i]:
                continue  # (I : x_i) = I
            restriction, colon = split_by_variable(ideal, i)
            lower = cover(restriction)
            upper = None if lower is None else cover(colon)
            if upper is None:
                continue
            return ([(e[:i] + (0,) + e[i:], z[:i] + (0,) + z[i:])
                     for e, z in lower]
                    + [(e[:i] + (e[i] + 1,) + e[i + 1:], z) for e, z in upper])
        return None

    @functools.cache
    def cover(ideal):
        """Stanley spaces of one part, as split returns them, or None; a
        part met again costs no node."""
        budget.tick()
        if (ideal.is_zero if poset.kind == "ideal" else ideal.is_unit):
            return []  # the zero module
        if s > ideal.n:
            return None
        part = characteristic_poset(ideal, poset.kind)
        if len(part.points) > SPLIT_SEARCH_POINTS and ideal.n > 1:
            return split(ideal)
        witness = sdepth_at_least(part, s, budget)
        return None if witness is None else [
            (e, z) for iv in witness.intervals
            for e, z in _stanley_spaces(iv, part.g)]

    try:
        spaces = split(ideal)
    except BudgetExceeded:
        return None
    if spaces is None:
        return None
    g = poset.g  # e <= g: a part's box, shifted by x_i, lies in its parent's
    intervals = sorted(
        (Interval(e, tuple(b if free else a for a, b, free in zip(e, g, z)))
         for e, z in spaces),
        key=lambda iv: grlex_key(iv.a))
    witness = IntervalPartition(g, tuple(intervals))
    if not (witness.is_exact_cover_of(poset.points) and witness.sdepth() >= s):
        raise RuntimeError("splitting produced no interval partition of the "
                           "poset")
    return witness


def _stanley_spaces(interval, g):
    """The Stanley spaces x^e K[Z] of an interval [c, d] of the box [0, g]:
    Z holds the coordinates where d touches g, and e runs over [c, d] with
    e = c on Z."""
    z = tuple(int(y == b) for y, b in zip(interval.b, g))
    ranges = [(x,) if free else range(x, y + 1)
              for x, y, free in zip(interval.a, interval.b, z)]
    return [(e, z) for e in itertools.product(*ranges)]


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
