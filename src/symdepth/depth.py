"""Two independent exact depth engines for monomial quotients S/I.

The first engine locates the least nonvanishing local cohomology degree
through the combinatorial complexes attached to multidegrees (Takayama's
formula); the second resolves S/I through multigraded Betti numbers and
applies Auslander-Buchsbaum (depth = n - pd).  ``depth`` can run either
engine or both with an agreement check.
"""

import functools
import itertools
import operator
from collections import namedtuple

from .complexes import (SimplicialComplex, _facet_key, _reduce_to_facets,
                        complex_of_ideal, homology_dims)
from .homology import check_char
from .monomial import (MonomialIdeal, check_box, check_exponents, divides,
                       divisor_masks, mask_of, support, vertices_of)

# the depth engines, in the order the CLI's --engine help shows them
ENGINES = ("cross_check", "takayama", "betti")


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
    hold no excess set {i not in G : g_i > alpha_i} of a generator g, so
    the Stanley-Reisner complex of the ideal of the excess sets and the
    variables of G, void when that is the unit ideal (some excess set is
    empty).  The scan never builds it; witnesses are checked against it."""
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


def _generic_complexes(ideal, rho, cos_mask):
    """(alpha_plus, facets) at the cosupport bitmask G for every alpha_plus
    of the box, in box order.  The facets are those of the Alexander dual,
    in the vertices V outside G, of the Takayama complex: the sets V minus
    the excess sets E_g = {i in V : g_i > alpha_i}, or () where some E_g
    is empty and the complex is void.  H_j of a complex is H_(|V|-j-3) of
    its dual."""
    free_mask = ((1 << ideal.n) - 1) & ~cos_mask
    vertices = vertices_of(free_mask)
    ranges = [range(1) if cos_mask >> j & 1 else range(max(rho[j], 1))
              for j in range(ideal.n)]
    for alpha in itertools.product(*ranges):
        excess = [mask_of(j for j in vertices if g[j] > alpha[j])
                  for g in ideal.gens]
        yield alpha, (_reduce_to_facets(free_mask & ~e for e in excess)
                      if all(excess) else ())


def _prime_power_complexes(prime_masks, k, rho, cos_mask):
    """(alpha_plus, facets) at the cosupport bitmask G when I is an
    intersection of prime powers, one pair per distinct set of short
    primes, in box order; nothing when a vertex outside G lies in no live
    prime (one missing G), as every complex there is a cone or void.

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
    free_mask = ((1 << len(rho)) - 1) & ~cos_mask
    if free_mask & ~functools.reduce(operator.or_, live, 0):
        return  # the cover test
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
    first = {}  # short primes -> first alpha
    for deficits, alpha in states.items():
        first.setdefault(tuple(p for p, d in zip(live, deficits) if d), alpha)
    # live primes are distinct minimal primes inside the free vertices, so
    # their complements there are distinct and incomparable: the facets
    for short, alpha in first.items():
        yield alpha, tuple(sorted((free_mask & ~p for p in short),
                                  key=_facet_key))


def _disconnected(facets):
    """Whether the complex with these facets has reduced homology in
    degree -1 or 0, over every field: it is {emptyset} (facets (0,)), or
    its facets fall into two or more components.  The void complex has
    none.  Takes no ranks."""
    if not facets:
        return False
    component, rest = facets[0], facets[1:]
    while rest:
        left = []
        for f in rest:
            if f & component:
                component |= f
            else:
                left.append(f)
        if len(left) == len(rest):
            return True  # no facet left meets the component
        rest = left
    return not component


def depth_via_takayama(ideal, char=0):
    """Depth of S/I as the least cohomological degree with a nonvanishing
    witness multidegree, searched over the finite exponent box.

    The witness is the first multidegree of the scan (cosupports G by
    size, then in lex order; alpha_plus in lex order) that reaches the
    least degree.  Every index is >= |G| and >= depth >= n - mu(I)
    (Taylor's resolution), so the scan stops at the first that reaches
    either.  Cosupports that miss a free variable (one in no generator)
    are skipped: every complex there is a cone or void.  When I is an
    intersection of prime powers, _prime_power_depth scans it from its
    primes and k.  Otherwise, principal ideals included, each alpha_plus
    takes the Alexander dual of its complex, with index n - 2 - max(dims)."""
    check_char(char)
    if ideal.is_unit:
        raise ValueError("depth of the zero module is undefined")
    n = ideal.n
    if ideal.is_zero:
        return DepthWitness(depth=n, engine="takayama", char=char)
    # the prime-power walk would take a principal ideal's simplex boundary
    structure = ideal.prime_structure() if len(ideal.gens) > 1 else None
    if structure is not None:
        return _prime_power_depth(n, *structure, char)
    rho = ideal.generator_degree_bounds()
    complexes = functools.partial(_generic_complexes, ideal, rho)
    return _takayama_scan(n, rho, char, complexes, 0, n - len(ideal.gens))


def _prime_power_depth(n, primes, k, char):
    """The Takayama witness of S/I, I the intersection of the k-th powers
    of the primes (variable sets, none in another), never building I.

    Its box corner is k on the variables of the primes, 0 elsewhere: no
    minimal generator has u_i > k, or u_i > 0 off the primes, as lowering
    u_i keeps every sum >= k.  For j in a prime P, take a minimal
    transversal T of the nonempty sets Q - P, Q a prime without j, and
    u = k e_j + k 1_T, in I as each prime holds j or meets T.  P sums to
    k, as T misses P, and so does a prime Q without j with Q & T = {t},
    for each t in T: each variable of u is in a tight prime, so u is a
    minimal generator, with u_j = k.

    _prime_power_complexes skips a cosupport G with a vertex outside it
    in no live prime; any other G takes one multidegree per set of short
    primes, with index min(dims) + |G| + 1.
    A witness of index b leaves a G of size c only homology in degree
    <= b - c - 2 to beat it.  Degree -1 is the complex {emptyset}, met
    only at alpha = 0 where V - G is a minimal prime P.  At alpha = 0 the
    complex is the link of G in the complex whose facets are the V - Q,
    Q a minimal prime.  If some Q is not P, the largest meet H of the
    facet G with another facet has a disconnected link, so the smaller
    cosupport H, scanned first, has index |H| + 1 <= c; if P is the only
    prime, every other complex is a simplex or void.  So no G of size c
    beats an index c + 1, and the scan ends there, a level before the
    general rule.  At b = c + 2 only degree 0 can win: _disconnected
    picks, without ranks, the complexes that go to homology.  No Taylor
    exit: it needs mu(I) and never changes the witness."""
    masks = [mask_of(p) for p in primes]
    rho = tuple(k * any(j in p for p in primes) for j in range(n))
    complexes = functools.partial(_prime_power_complexes, masks, k, rho)
    return _takayama_scan(n, rho, char, complexes, 1)


def _takayama_scan(n, rho, char, complexes, margin, taylor=None):
    """The first (alpha, facets) of complexes(G) of least index, G a
    bitmask, by size then lex.  The scan ends at an index <= |G| + margin,
    or at taylor."""
    # A free variable (in no generator) lies in every facet at a cosupport
    # that misses it, so only cosupports holding every free variable are
    # scanned.  Adding a fixed disjoint set keeps the lex order of the
    # combinations of the other variables.
    free = mask_of(j for j in range(n) if not rho[j])
    others = [1 << j for j in range(n) if rho[j]]
    best = None  # the witness of the least index so far
    for csize in range(free.bit_count(), n + 1):
        if best is not None and best.depth <= csize + margin:
            return best
        for rest in itertools.combinations(others, csize - free.bit_count()):
            cos_mask = sum(rest, free)
            for alpha, facets in complexes(cos_mask):
                if margin and best is not None and \
                        best.depth == csize + 2 and not _disconnected(facets):
                    continue  # no homology in degree 0 or below
                dims = _homology_dims(facets, char)
                if not dims:
                    continue
                i = min(dims) + csize + 1 if margin else n - 2 - max(dims)
                if best is None or i < best.depth:
                    best = DepthWitness(i, "takayama", char, alpha,
                                        vertices_of(cos_mask), i - csize - 1)
                    if i <= csize + margin or i == taylor:
                        return best  # no index ahead is smaller
    # at csize = n every complex is void, so a witness has returned above
    raise RuntimeError("no nonvanishing cohomology found; search box bug")


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
    return SimplicialComplex.from_face_masks(ideal.n, [
        mask_of(i for i, (a, b) in enumerate(zip(g, alpha)) if a < b)
        for g in ideal.gens if divides(g, alpha)
    ])


def betti_table(ideal, char=0):
    """Multigraded Betti numbers of S/I from reduced homology of the
    upper Koszul complexes at the lcm-lattice points of the lcm box.

    Only lcm-lattice points can carry a nonzero Betti number
    (Gasharov-Peeva-Welker): where some coordinate i has no dividing
    generator with g_i = alpha_i, every slack set contains i and the
    complex is a cone.  The scan walks the box one coordinate at a time,
    in itertools.product order, and carries for each prefix the
    generators that still divide it (ANDs of divisor_masks' at_most
    rows) split into groups with equal slack sets so far, as a dict
    {slack: members} of bitmasks.  Coordinate i splits a group into the
    members tight there, keyed by its slack, and the loose ones, keyed by
    slack | 1 << i; no earlier slack holds bit i, so the keys stay
    distinct.  A prefix is dropped once no divisor is tight at its last
    coordinate or every group's slack shares a bit: divisors only shrink
    as the prefix grows, so each completion is void or a cone.  At a full
    alpha the keys are the distinct slack sets of upper_koszul_complex,
    and their maximal ones go straight to the homology memo.  check_box
    raises BudgetExceeded for a box of more than MAX_BOX_POINTS points
    before the walk."""
    check_char(char)
    if ideal.is_unit:
        raise ValueError("Betti table of the zero module is undefined")
    n = ideal.n
    entries = {(0, (0,) * n): 1}
    box = ideal.generator_degree_bounds()
    check_box(box, "Betti lcm")
    all_gens = (1 << len(ideal.gens)) - 1
    cells = [((), all_gens, {0: all_gens})]  # (prefix, divisors, groups)
    for i, rows in enumerate(zip(*divisor_masks(ideal.gens, box))):
        bit = 1 << i
        values = list(enumerate(zip(*rows)))  # v, (exactly, at_most)
        grown = []
        for alpha, divisors, groups in cells:
            for v, (exact, at_most) in values:
                within = divisors & at_most
                tight = within & exact
                if not tight:
                    continue  # void, or no divisor tight at i: a cone
                split = {}
                common = -1  # the bits every slack set holds
                for slack, members in groups.items():
                    members &= within
                    if keep := members & tight:
                        split[slack] = keep
                        common &= slack
                    if loose := members ^ keep:
                        split[slack | bit] = loose
                        common &= slack | bit
                if common:
                    continue
                if i < n - 1:
                    grown.append((alpha + (v,), within, split))
                    continue
                for h, dim in _homology_dims(_reduce_to_facets(split),
                                             char).items():
                    key = (h + 2, alpha + (v,))
                    entries[key] = entries.get(key, 0) + dim
        cells = grown
    return BettiTable(
        n, tuple(sorted((i, a, v) for (i, a), v in entries.items()))
    )


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
    return _run_engine(engine, lambda: depth_via_takayama(ideal, char),
                       lambda: depth_via_betti(ideal, char))


def _symbolic_depth(ideal, k, engine, char):
    """depth(I^(k), engine, char), I squarefree: Takayama reads I^(k) off
    the minimal primes of I and k; Betti, and a principal I, fold it."""
    if len(ideal.gens) == 1:
        return depth(ideal.symbolic_power(k), engine, char)
    primes = ideal.minimal_primes()
    check_char(char)
    return _run_engine(
        engine, lambda: _prime_power_depth(ideal.n, primes, k, char),
        lambda: depth_via_betti(ideal.symbolic_power(k), char))


def _run_engine(engine, takayama, betti):
    """The witness of the named engine, each engine given as a thunk."""
    if engine not in ENGINES:
        raise ValueError(f"unknown depth engine {engine!r}")
    a = None if engine == "betti" else takayama()
    b = None if engine == "takayama" else betti()
    if a and b and a.depth != b.depth:
        raise EngineDisagreement(a, b)
    return a or b
