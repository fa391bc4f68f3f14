"""Exact arithmetic for monomials and squarefree monomial ideals.

Monomials are exponent tuples over a fixed number of variables.  Ideals
are stored through their canonical minimal generating set (divisibility
reduced, deduplicated, graded-lex sorted), so equal ideals compare equal.
Variable indices are 0-based throughout the library.

The exponent box [0, corner] has one size limit, ``check_box``, and one
table of per-coordinate divisor masks, ``divisor_masks``.  The
Stanley-depth poset enumerates the whole box through ``box_divisors``;
the Betti scan walks only the prefixes of the same box that can still
reach an lcm-lattice point, in the same order.
"""

import functools
import itertools
import math
import operator
from collections import namedtuple

# Most points of an exponent box that check_box lets through.  The
# Stanley-depth search keeps two order bitmasks per point, about N**2 / 4
# bytes for N points: 64 MiB here, where a 3^11 box would take about 8 GB.
MAX_BOX_POINTS = 1 << 14


class BudgetExceeded(RuntimeError):
    """A search exceeded its node budget, or an exponent box holds more
    than MAX_BOX_POINTS points (never silently approximated)."""


def check_exponents(u, n):
    """Validate an exponent vector and return it as a tuple."""
    u = tuple(u)
    if len(u) != n:
        raise ValueError(f"exponent vector {u} has length {len(u)}, expected {n}")
    for a in u:
        if isinstance(a, bool) or not isinstance(a, int) or a < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {u}")
    return u


def _check_power(k, what):
    """Validate the exponent k of a power: an int (not a bool), k >= 1."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"{what} exponent must be >= 1 and an integer, "
                         f"got {k!r}")


def divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def mul_exp(u, v):
    return tuple(a + b for a, b in zip(u, v))


def pow_exp(u, k):
    return tuple(a * k for a in u)


def quot_exp(u, v):
    """Exponent vector of u / gcd(u, v)."""
    return tuple(max(a - b, 0) for a, b in zip(u, v))


def support(u):
    return frozenset(i for i, a in enumerate(u) if a > 0)


def mask_of(vertices):
    """The bitmask with bit v set for each index v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask):
    """The indices of the set bits of mask, in increasing order."""
    vertices = []
    while mask:
        vertices.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(vertices)


def grlex_key(u):
    return (sum(u), u)


def divisor_masks(gens, bounds):
    """Bitmasks over generator indices: exactly[i][v] holds the generators
    with g_i == v and at_most[i][v] those with g_i <= v, for v up to
    bounds[i].  The generators dividing a box point c are the AND of
    at_most[i][c_i] over i."""
    exactly = [[0] * (b + 1) for b in bounds]
    for j, g in enumerate(gens):
        for i, a in enumerate(g):
            exactly[i][a] |= 1 << j
    return exactly, [list(itertools.accumulate(row, operator.or_))
                     for row in exactly]


def check_box(corner, what):
    """Raise BudgetExceeded, naming the box by ``what``, when the box
    [0, corner] holds more than MAX_BOX_POINTS points."""
    box = math.prod(b + 1 for b in corner)
    if box > MAX_BOX_POINTS:
        raise BudgetExceeded(f"{what} box has {box} points, "
                             f"above the limit of {MAX_BOX_POINTS}")


def box_divisors(gens, corner, what):
    """(c, mask) for each point c of the box [0, corner], in
    itertools.product order, where mask holds the generators dividing c
    (bit j for gens[j]); every generator must lie in the box.  The masks
    are the ANDs of divisor_masks' at_most rows, taken one coordinate at
    a time.  check_box runs before any point is made."""
    check_box(corner, what)
    cells = [((), (1 << len(gens)) - 1)]
    for row in divisor_masks(gens, corner)[1]:
        cells = [(c + (v,), m & r) for c, m in cells for v, r in enumerate(row)]
    return cells


class MonomialIdeal(namedtuple("MonomialIdeal", "n gens")):
    """A monomial ideal given by its minimal generators.

    The zero ideal has an empty generator tuple; the unit ideal is
    generated by the all-zero exponent vector (the monomial 1).  Anything
    else, such as a prime-power form, is derived from ``n`` and ``gens``.
    """

    __slots__ = ()

    @classmethod
    def from_generators(cls, generators, n):
        """Build the canonical minimal generating set (spec: normalize)."""
        gens = [check_exponents(g, n) for g in generators]
        gens = sorted(set(gens), key=grlex_key)
        minimal = []  # (support mask, generator); h | g needs supp h in supp g
        for g in gens:
            mask = mask_of(i for i, a in enumerate(g) if a)
            if not any(divides(h, g) for m, h in minimal if m & mask == m):
                minimal.append((mask, g))
        return cls(n, tuple(g for _, g in minimal))

    # ----- basic predicates -------------------------------------------------

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return bool(self.gens) and sum(self.gens[0]) == 0

    @property
    def is_squarefree(self):
        return all(a <= 1 for g in self.gens for a in g)

    def _require_proper_nonzero(self):
        if self.is_zero:
            raise ValueError("operation undefined for the zero ideal")
        if self.is_unit:
            raise ValueError("operation undefined for the unit ideal")

    # ----- membership -------------------------------------------------------

    def contains(self, u):
        u = check_exponents(u, self.n)
        return any(divides(g, u) for g in self.gens)

    # ----- arithmetic -------------------------------------------------------

    def colon(self, u):
        """The quotient ideal (I : u)."""
        u = check_exponents(u, self.n)
        return MonomialIdeal.from_generators(
            (quot_exp(g, u) for g in self.gens), self.n
        )

    def power(self, k):
        """Ordinary power I^k."""
        _check_power(k, "power")
        gens = []
        for combo in itertools.combinations_with_replacement(self.gens, k):
            g = (0,) * self.n
            for h in combo:
                g = mul_exp(g, h)
            gens.append(g)
        return MonomialIdeal.from_generators(gens, self.n)

    # ----- primary decomposition and symbolic powers ------------------------

    def minimal_primes(self):
        """Supports of the minimal primes of a squarefree ideal, i.e. the
        inclusion-minimal vertex covers of the generator supports."""
        self._require_proper_nonzero()
        if not self.is_squarefree:
            raise ValueError("minimal primes implemented for squarefree ideals only")
        return _minimal_primes_cached(self.n, self.gens)

    def height(self):
        return min(len(p) for p in self.minimal_primes())

    def bight(self):
        return max(len(p) for p in self.minimal_primes())

    def is_unmixed(self):
        return self.height() == self.bight()

    def symbolic_power(self, k):
        """Symbolic power: intersection of the k-th powers of the minimal
        primes.  Defined for squarefree proper nonzero ideals."""
        _check_power(k, "symbolic power")
        primes = self.minimal_primes()
        return _symbolic_power_cached(self.n, primes, k)

    def symbolic_contains(self, k, u):
        """Membership test in I^(k) through exponent sums over the minimal
        primes, without expanding the symbolic power."""
        _check_power(k, "symbolic power")
        u = check_exponents(u, self.n)
        return all(sum(u[i] for i in p) >= k for p in self.minimal_primes())

    # ----- misc -------------------------------------------------------------

    def generator_degree_bounds(self):
        """Componentwise maximum of the generator exponents (0 for a
        variable appearing in no generator)."""
        bounds = [0] * self.n
        for g in self.gens:
            for i, a in enumerate(g):
                bounds[i] = max(bounds[i], a)
        return tuple(bounds)

    def prime_structure(self):
        """(primes, k) with I the intersection of the k-th powers of its
        minimal primes (those of its radical), or None if it has no such
        form.  Such an I localizes to P^k at each P, so some generator sums
        to exactly k over each P: read k off primes[0], compare generators."""
        if self.is_zero or self.is_unit:
            return None
        if self.is_squarefree:  # I is the intersection of its primes
            return _minimal_primes_cached(self.n, self.gens), 1
        radical = [tuple(min(a, 1) for a in g) for g in self.gens]
        primes = MonomialIdeal.from_generators(radical, self.n).minimal_primes()
        k = min(sum(g[i] for i in primes[0]) for g in self.gens)
        power = _symbolic_power_cached(self.n, primes, k)
        return (primes, k) if power.gens == self.gens else None


@functools.lru_cache(maxsize=None)
def _minimal_primes_cached(n, gens):
    covers = _symbolic_power_cached(n, tuple(support(g) for g in gens), 1)
    return tuple(sorted(map(support, covers.gens),
                        key=lambda p: (len(p), sorted(p))))


@functools.lru_cache(maxsize=None)
def _symbolic_power_cached(n, primes, k):
    """Minimal generators of P_1^k ∩ ... ∩ P_r^k, folded in prime by prime.

    Each P_t is the ideal of the variables in any set ``primes[t]``, prime
    or not.  At k = 1 the generators are the squarefree monomials whose
    supports are the minimal transversals of the sets (Alexander duality),
    and the fold is Berge's transversal algorithm.

    J_j = P_1^k ∩ ... ∩ P_j^k is the set of u with sum_{P_t} u >= k for all
    t <= j.  Extend: the minimal elements of g*S ∩ P^k are g itself when
    sum_P g >= k, else g + e for e >= 0 on P with |e| = k - sum_P g; every
    minimal generator of J_j is one of these for some generator g of J_(j-1).
    Prune: u in J_j is minimal iff each i with u_i > 0 lies in a tight prime
    (t <= j, sum_{P_t} u = k), since lowering u_i by one lowers exactly the
    sums over the primes containing i, each by one.

    Each generator carries its sums over the folded primes, so no exponent
    is summed twice.  A candidate g + e takes g's sums plus one per folded
    prime holding each raised variable, and k on the new prime.  That
    prime is tight and holds every raised variable, so the candidate is
    minimal iff the variables of supp(g) outside it lie in the union of
    the masks of the folded primes whose sum is k.  A generator already
    at k or more on the new prime keeps its tight primes and stays.
    """
    masks = []  # bitmask of each folded prime
    holders = [[] for _ in range(n)]  # indices of the folded primes holding i
    gens = {(0,) * n: ()}  # generator of J_j -> its sums over P_1, ..., P_j
    for prime in primes:
        variables = sorted(prime)
        mask = mask_of(variables)
        candidates = {}
        for g, sums in gens.items():
            short = k - sum(map(g.__getitem__, variables))
            if short <= 0:
                candidates[g] = sums + (k - short,)
                continue
            need = mask_of(i for i, a in enumerate(g) if a) & ~mask
            for combo in itertools.combinations_with_replacement(variables, short):
                u = list(g)
                raised = list(sums)
                for i in combo:
                    u[i] += 1
                    for t in holders[i]:
                        raised[t] += 1
                if not need or _is_minimal(need, raised, masks, k):
                    raised.append(k)
                    candidates[tuple(u)] = tuple(raised)
        for i in variables:
            holders[i].append(len(masks))
        masks.append(mask)
        gens = candidates
    return MonomialIdeal(n, tuple(sorted(gens, key=grlex_key)))


def _is_minimal(need, sums, masks, k):
    """Whether the variables in the bitmask ``need`` all lie in a prime
    whose sum is k, the primes given by their ``masks`` and ``sums``."""
    return not need & ~functools.reduce(
        operator.or_, itertools.compress(masks, map(k.__eq__, sums)), 0)


def zero_ideal(n):
    return MonomialIdeal(n, ())


def unit_ideal(n):
    return MonomialIdeal(n, ((0,) * n,))
