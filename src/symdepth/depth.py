"""Two independent exact depth engines for monomial quotients S/I.

The first engine locates the least nonvanishing local cohomology degree
through the combinatorial complexes attached to multidegrees (Takayama's
formula); the second resolves S/I through multigraded Betti numbers and
applies Auslander-Buchsbaum (depth = n - pd).  ``depth`` can run either
engine or both with an agreement check.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .complexes import (
    SimplicialComplex,
    _reduce_to_facets,
    complex_of_ideal,
    homology_dims,
    mask_of,
)
from .homology import check_char
from .monomial import (MonomialIdeal, box_divisors, check_exponents, divides,
                       divisor_masks, support)


class EngineDisagreement(RuntimeError):
    """Both depth engines ran but returned different values: a bug."""

    def __init__(self, witness_a, witness_b):
        self.witness_a = witness_a
        self.witness_b = witness_b
        super().__init__(
            f"depth engines disagree: takayama={witness_a.depth} "
            f"betti={witness_b.depth}"
        )


class DegreePair(namedtuple("DegreePair", "alpha_plus cosupport")):
    """Positive part of a multidegree plus the set of strictly negative
    coordinates; the negative magnitudes never matter."""

    __slots__ = ()
    # alpha_plus: tuple; cosupport: frozenset

    def __new__(cls, alpha_plus, cosupport):
        alpha_plus = check_exponents(alpha_plus, len(alpha_plus))
        cosupport = frozenset(cosupport)
        if not all(isinstance(j, int) and not isinstance(j, bool)
                   and 0 <= j < len(alpha_plus) for j in cosupport):
            raise ValueError(f"cosupport indices must lie in range(0, {len(alpha_plus)})")
        if support(alpha_plus) & cosupport:
            raise ValueError("cosupport must be disjoint from the support of alpha_plus")
        return super().__new__(cls, alpha_plus, cosupport)


class DepthWitness(namedtuple(
        "DepthWitness", "depth engine char alpha_plus cosupport "
        "homology_index betti_index betti_degree", defaults=(None,) * 5)):
    __slots__ = ()

    def to_dict(self):
        out = {"depth": self.depth, "engine": self.engine, "char": self.char}
        if self.alpha_plus is not None:
            out["alpha_plus"] = list(self.alpha_plus)
            out["cosupport"] = [i + 1 for i in self.cosupport]
            out["homology_index"] = self.homology_index
        if self.betti_index is not None:
            out["betti_index"] = self.betti_index
            out["betti_degree"] = list(self.betti_degree)
        return out


class BettiTable(namedtuple("BettiTable", "n entries")):
    """Multigraded Betti numbers of S/I: {(i, multidegree): value}."""

    __slots__ = ()
    # entries: sorted ((i, alpha, value), ...)

    def projective_dimension(self):
        return max(i for i, _, _ in self.entries)

    def total(self):
        """Total Betti numbers {i: sum over multidegrees}."""
        totals = {}
        for i, _, value in self.entries:
            totals[i] = totals.get(i, 0) + value
        return totals

    def to_dict(self):
        return {
            "n": self.n,
            "entries": [
                {"i": i, "degree": list(alpha), "value": value}
                for i, alpha, value in self.entries
            ],
        }


# --------------------------------------------------------------------------
# Takayama engine
# --------------------------------------------------------------------------

def takayama_complex(ideal, pair):
    """The complex whose faces are the localization sets F (disjoint from
    the cosupport G) that fail to absorb x^alpha_plus: the free sets that
    hold no excess set {i not in G : g_i > alpha_i} of a generator g.  By
    Alexander duality it is the Stanley-Reisner complex of the ideal of the
    excess sets and the variables of G, void when that is the unit ideal
    (some excess set is empty)."""
    alpha = check_exponents(pair.alpha_plus, ideal.n)
    cap = [float("inf") if i in pair.cosupport else a for i, a in enumerate(alpha)]
    excess = {tuple(map(int, map(operator.gt, g, cap))) for g in ideal.gens}
    variables = {tuple(int(i == j) for i in range(ideal.n)) for j in pair.cosupport}
    dual = MonomialIdeal.from_generators(excess | variables, ideal.n)
    return SimplicialComplex(ideal.n, ()) if dual.is_unit else complex_of_ideal(dual)


# The engines' homology memo, keyed on (facets, char).  Only the engines
# read it: SimplicialComplex.reduced_homology recomputes, so re-checking an
# engine witness through takayama_complex never reads the engine's entry.
_homology_dims = functools.lru_cache(maxsize=None)(homology_dims)


def _generic_complexes(ideal, rho, cosupport):
    """(alpha_plus, facets) at one cosupport for every alpha_plus of the
    box, in box order."""
    ranges = [range(1) if j in cosupport else range(max(rho[j], 1))
              for j in range(ideal.n)]
    for alpha in itertools.product(*ranges):
        pair = DegreePair(alpha, frozenset(cosupport))
        yield alpha, takayama_complex(ideal, pair).facets


def _prime_power_complexes(prime_masks, k, rho, cos_mask):
    """(alpha_plus, facets) at one cosupport when I is an intersection of
    prime powers, one pair per distinct set of short primes, in box order.

    The complex at alpha is the union of the simplexes on free vertices
    avoiding each prime that misses the cosupport and whose exponent sum
    falls short of k, so it depends only on the deficits max(k - sum, 0).
    A pass over the coordinates keeps, for each vector of deficits, the
    lex-first prefix that reaches it: a later prefix with the same deficits
    has the same completions, each after its twin's.  Prefixes are
    extended in lex order and dicts keep insertion order, so every kept
    alpha is the first of the box with its short primes, and they come out
    in box order.  Once alpha_j covers the largest deficit of a prime
    holding j, a larger alpha_j reaches the same deficits, so it is not
    tried.
    """
    live = [p for p in prime_masks if not p & cos_mask]
    states = {(k,) * len(live): ()}  # deficits -> first prefix reaching them
    for j, top in enumerate(rho):
        hits = [t for t, p in enumerate(live) if p >> j & 1]
        if not hits:  # alpha_j moves no live sum: 0 comes first
            states = {d: alpha + (0,) for d, alpha in states.items()}
            continue
        grown = {}
        for deficits, alpha in states.items():
            grown.setdefault(deficits, alpha + (0,))
            most = max(map(deficits.__getitem__, hits))
            for a in range(1, min(top, most + 1)):
                lowered = list(deficits)
                for t in hits:
                    d = deficits[t]
                    lowered[t] = d - a if d > a else 0
                grown.setdefault(tuple(lowered), alpha + (a,))
        states = grown
    free_mask = ((1 << len(rho)) - 1) & ~cos_mask
    first = {}  # short primes -> first alpha
    for deficits, alpha in states.items():
        first.setdefault(tuple(p for p, d in zip(live, deficits) if d), alpha)
    for short, alpha in first.items():
        yield alpha, _reduce_to_facets(free_mask & ~p for p in short)


# typed caches, so that char=2.0 misses the entry of char=2 and still
# reaches check_char
@functools.lru_cache(maxsize=None, typed=True)
def depth_via_takayama(ideal, char=0):
    """Depth of S/I as the least cohomological degree with a nonvanishing
    witness multidegree, searched over the finite exponent box.

    The witness is the first multidegree of the scan (cosupports G by
    size, then in lex order; alpha_plus in lex order) that reaches the
    least degree, min(dims) + |G| + 1 >= |G|: the scan stops at the first
    that reaches |G|.  Cosupports that miss a free variable (one in no
    generator) are skipped: every complex there is a cone or void.  When I
    is an intersection of prime powers, so is a G with a vertex outside it
    in no live prime (one missing G), and any other G takes one
    multidegree per set of short primes; else takayama_complex is built at
    each alpha_plus.  A principal ideal (x^a) has depth n - 1 with the
    witness the scan would find: alpha_plus = 0, the cosupport outside
    supp(a), the complex the boundary of the simplex on supp(a)."""
    check_char(char)
    if ideal.is_unit:
        raise ValueError("depth of the zero module is undefined")
    n = ideal.n
    if ideal.is_zero:
        return DepthWitness(depth=n, engine="takayama", char=char)
    if len(ideal.gens) == 1:
        supp = support(ideal.gens[0])
        return DepthWitness(
            depth=n - 1,
            engine="takayama",
            char=char,
            alpha_plus=(0,) * n,
            cosupport=tuple(j for j in range(n) if j not in supp),
            homology_index=len(supp) - 2,
        )

    rho = ideal.generator_degree_bounds()
    structure = ideal.prime_structure()
    if structure is not None:
        primes, k = structure
        prime_masks = [mask_of(p) for p in primes]
        full = (1 << n) - 1

    # A free variable (in no generator) lies in every facet at a cosupport
    # that misses it, so only cosupports holding every free variable are
    # scanned.  Adding a fixed disjoint set keeps the lex order of the
    # combinations of the other variables.
    free = tuple(j for j in range(n) if not rho[j])
    others = [j for j in range(n) if rho[j]]
    best = None  # the witness of the least index so far
    for csize in range(len(free), n + 1):
        if best is not None and best.depth <= csize:
            return best
        for rest in itertools.combinations(others, csize - len(free)):
            cosupport = tuple(sorted(rest + free))
            if structure is None:
                complexes = _generic_complexes(ideal, rho, cosupport)
            else:
                cos_mask = mask_of(cosupport)
                reach = 0
                for p in prime_masks:
                    if not p & cos_mask:
                        reach |= p
                if full & ~cos_mask & ~reach:
                    continue  # a vertex in no live prime: cones or void
                complexes = _prime_power_complexes(
                    prime_masks, k, rho, cos_mask
                )
            for alpha, facets in complexes:
                dims = _homology_dims(facets, char)
                if not dims:
                    continue
                i = min(dims) + csize + 1
                if best is None or i < best.depth:
                    best = DepthWitness(i, "takayama", char, alpha, cosupport,
                                        i - csize - 1)
                    if i == csize:
                        return best  # each index is >= |G|: none is smaller
    if best is None:
        raise RuntimeError("no nonvanishing cohomology found; search box bug")
    return best


# --------------------------------------------------------------------------
# Betti engine
# --------------------------------------------------------------------------

def upper_koszul_complex(ideal, alpha):
    """Faces are the subsets F of the support of alpha with x^(alpha-F)
    still inside the ideal.  That holds iff F lies in the slack set
    {i : g_i < alpha_i} of a generator g dividing x^alpha, so the slack
    sets of the dividing generators generate the complex; it is void when
    no generator divides x^alpha."""
    alpha = check_exponents(alpha, ideal.n)
    box = ideal.generator_degree_bounds()
    if any(a > b for a, b in zip(alpha, box)):
        raise ValueError(f"degree {alpha} exceeds the lcm box {box}")
    return SimplicialComplex.from_face_masks(
        ideal.n, [_slack_mask(g, alpha) for g in ideal.gens if divides(g, alpha)]
    )


def _slack_mask(g, alpha):
    return mask_of(i for i, (a, b) in enumerate(zip(g, alpha)) if a < b)


def betti_table(ideal, char=0):
    """Multigraded Betti numbers of S/I from reduced homology of the
    upper Koszul complexes over the lcm box.

    Only lcm-lattice points can carry a nonzero Betti number
    (Gasharov-Peeva-Welker): where some coordinate i has no dividing
    generator with g_i = alpha_i, every slack set contains i and the
    complex is a cone.  monomial.box_divisors gives each box point with
    the bitmask of its dividing generators, and the per-coordinate masks
    of the generators with g_i = alpha_i give this test; complexes are
    built only at the remaining lattice points.  A box of more than
    MAX_BOX_POINTS points raises BudgetExceeded before the scan."""
    check_char(char)
    if ideal.is_unit:
        raise ValueError("Betti table of the zero module is undefined")
    n = ideal.n
    entries = {(0, (0,) * n): 1}
    if not ideal.is_zero:
        gens = ideal.gens
        box = ideal.generator_degree_bounds()
        cells = box_divisors(gens, box, "Betti lcm")
        exactly = divisor_masks(gens, box)[0]
        for alpha, divisors in cells:
            if not divisors or not all(
                divisors & exactly[i][a] for i, a in enumerate(alpha)
            ):
                continue  # void complex, or a cone off the lcm lattice
            slack = [
                _slack_mask(g, alpha)
                for j, g in enumerate(gens) if divisors >> j & 1
            ]
            facets = SimplicialComplex.from_face_masks(n, slack).facets
            for h, dim in _homology_dims(facets, char).items():
                key = (h + 2, alpha)
                entries[key] = entries.get(key, 0) + dim
    return BettiTable(
        n, tuple(sorted((i, a, v) for (i, a), v in entries.items()))
    )


@functools.lru_cache(maxsize=None, typed=True)
def depth_via_betti(ideal, char=0):
    """Depth via Auslander-Buchsbaum: n minus the projective dimension."""
    check_char(char)
    if ideal.is_unit:
        raise ValueError("depth of the zero module is undefined")
    n = ideal.n
    if ideal.is_zero:
        return DepthWitness(depth=n, engine="betti", char=char)
    table = betti_table(ideal, char)
    pd = table.projective_dimension()
    degree = min(a for i, a, _ in table.entries if i == pd)
    return DepthWitness(
        depth=n - pd,
        engine="betti",
        char=char,
        betti_index=pd,
        betti_degree=degree,
    )


# --------------------------------------------------------------------------
# Front end
# --------------------------------------------------------------------------

def depth(ideal, engine="cross_check", char=0):
    """Depth of S/I with the chosen engine; ``cross_check`` runs both and
    raises EngineDisagreement when the values differ."""
    check_char(char)
    if engine == "takayama":
        return depth_via_takayama(ideal, char)
    if engine == "betti":
        return depth_via_betti(ideal, char)
    if engine == "cross_check":
        a = depth_via_takayama(ideal, char)
        b = depth_via_betti(ideal, char)
        if a.depth != b.depth:
            raise EngineDisagreement(a, b)
        return a
    raise ValueError(f"unknown depth engine {engine!r}")
