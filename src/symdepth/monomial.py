"""Exact arithmetic for monomials and squarefree monomial ideals.

Monomials are exponent tuples over a fixed number of variables.  Ideals
are stored through their canonical minimal generating set (divisibility
reduced, deduplicated, graded-lex sorted), so equal ideals compare equal.
Variable indices are 0-based throughout the library.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass


def check_exponents(u, n):
    """Validate an exponent vector and return it as a tuple."""
    u = tuple(u)
    if len(u) != n:
        raise ValueError(f"exponent vector {u} has length {len(u)}, expected {n}")
    for a in u:
        if not isinstance(a, int) or a < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {u}")
    return u


def divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def lcm_exp(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def mul_exp(u, v):
    return tuple(a + b for a, b in zip(u, v))


def pow_exp(u, k):
    return tuple(a * k for a in u)


def quot_exp(u, v):
    """Exponent vector of u / gcd(u, v)."""
    return tuple(max(a - b, 0) for a, b in zip(u, v))


def support(u):
    return frozenset(i for i, a in enumerate(u) if a > 0)


def grlex_key(u):
    return (sum(u), u)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators.

    The zero ideal has an empty generator tuple; the unit ideal is
    generated by the all-zero exponent vector (the monomial 1).  Anything
    else, such as a prime-power form, is derived from ``n`` and ``gens``.
    """

    n: int
    gens: tuple

    @classmethod
    def from_generators(cls, generators, n):
        """Build the canonical minimal generating set (spec: normalize)."""
        gens = [check_exponents(g, n) for g in generators]
        gens = sorted(set(gens), key=grlex_key)
        minimal = []
        for g in gens:
            if not any(divides(h, g) for h in minimal):
                minimal.append(g)
        return cls(n, tuple(minimal))

    # ----- basic predicates -------------------------------------------------

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return bool(self.gens) and sum(self.gens[0]) == 0

    @property
    def is_proper(self):
        return not self.is_unit

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

    def localized_contains(self, u, inverted):
        """Membership of u in the localization inverting the variables in
        ``inverted``: exponents inside the inverted set are ignored."""
        u = check_exponents(u, self.n)
        inverted = frozenset(inverted)
        return any(
            all(g[i] <= u[i] for i in range(self.n) if i not in inverted)
            for g in self.gens
        )

    # ----- arithmetic -------------------------------------------------------

    def intersect(self, other):
        if self.n != other.n:
            raise ValueError("ideals live in different rings")
        if self.is_zero or other.is_zero:
            return MonomialIdeal(self.n, ())
        gens = (lcm_exp(g, h) for g in self.gens for h in other.gens)
        return MonomialIdeal.from_generators(gens, self.n)

    def colon(self, u):
        """The quotient ideal (I : u)."""
        u = check_exponents(u, self.n)
        return MonomialIdeal.from_generators(
            (quot_exp(g, u) for g in self.gens), self.n
        )

    def power(self, k):
        """Ordinary power I^k."""
        if k < 1:
            raise ValueError("power exponent must be >= 1")
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

    def krull_dim_quotient(self):
        return self.n - self.height()

    def is_unmixed(self):
        return self.height() == self.bight()

    def symbolic_power(self, k):
        """Symbolic power: intersection of the k-th powers of the minimal
        primes.  Defined for squarefree proper nonzero ideals."""
        if k < 1:
            raise ValueError("symbolic power exponent must be >= 1")
        primes = self.minimal_primes()
        return _symbolic_power_cached(self.n, primes, k)

    def symbolic_contains(self, k, u):
        """Membership test in I^(k) through exponent sums over the minimal
        primes, without expanding the symbolic power."""
        if k < 1:
            raise ValueError("symbolic power exponent must be >= 1")
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
        radical = [tuple(min(a, 1) for a in g) for g in self.gens]
        primes = MonomialIdeal.from_generators(radical, self.n).minimal_primes()
        k = min(sum(g[i] for i in primes[0]) for g in self.gens)
        power = _symbolic_power_cached(self.n, primes, k)
        return (primes, k) if power.gens == self.gens else None


@functools.lru_cache(maxsize=None)
def _minimal_primes_cached(n, gens):
    supports = [support(g) for g in gens]
    universe = sorted(frozenset().union(*supports))
    covers = []
    for size in range(1, len(universe) + 1):
        for subset in itertools.combinations(universe, size):
            cand = frozenset(subset)
            if any(found <= cand for found in covers):
                continue
            if all(cand & s for s in supports):
                covers.append(cand)
    return tuple(sorted(covers, key=lambda p: (len(p), sorted(p))))


@functools.lru_cache(maxsize=None)
def _symbolic_power_cached(n, primes, k):
    """Minimal generators of P_1^k ∩ ... ∩ P_r^k, folded in prime by prime.

    J_j = P_1^k ∩ ... ∩ P_j^k is the set of u with sum_{P_t} u >= k for all
    t <= j.  Extend: the minimal elements of g*S ∩ P^k are g itself when
    sum_P g >= k, else g + e for e >= 0 on P with |e| = k - sum_P g; every
    minimal generator of J_j is one of these for some generator g of J_(j-1).
    Prune: u in J_j is minimal iff each i with u_i > 0 lies in a tight prime
    (t <= j, sum_{P_t} u = k), since lowering u_i by one lowers exactly the
    sums over the primes containing i, each by one.
    """
    folded = []  # (variables, bitmask) of the primes in J_j
    gens = {(0,) * n}
    for prime in primes:
        variables = sorted(prime)
        folded.append((variables, sum(1 << i for i in variables)))
        candidates = set()
        for g in gens:
            short = k - sum(g[i] for i in variables)
            if short <= 0:
                candidates.add(g)
                continue
            for combo in itertools.combinations_with_replacement(variables, short):
                u = list(g)
                for i in combo:
                    u[i] += 1
                candidates.add(tuple(u))
        gens = {u for u in candidates if _is_minimal(u, folded, k)}
    return MonomialIdeal(n, tuple(sorted(gens, key=grlex_key)))


def _is_minimal(u, folded, k):
    """Whether u is a minimal generator of the intersection of the k-th
    powers of the ``folded`` primes, given that u lies in it."""
    tight = 0
    for variables, mask in folded:
        if sum(u[i] for i in variables) == k:
            tight |= mask
    return all(tight >> i & 1 for i, a in enumerate(u) if a)


def zero_ideal(n):
    return MonomialIdeal(n, ())


def unit_ideal(n):
    return MonomialIdeal(n, ((0,) * n,))
