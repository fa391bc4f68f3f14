"""Reference definitions the tests compare the library against: ideal
membership after localization, intersection through lcms, purity and
face counts of a complex, the first exchange-axiom violation over the
list of all faces, vertex decomposability by recursion, the text and JSON
writers whose readers the library has, polarization, the sum of two
ideals in disjoint variables, the characteristic poset over a box larger
than the generators' with its Stanley depth, the K-polynomial by the
colon recursion, and the prime-power Takayama walk keyed on whole deficit
vectors.  Each is the plain definition, not a fast path, except the walk:
it is the earlier fast path, with a second pass for the sets of short
primes, whose stream of complexes the library's walk must reproduce."""

import functools
import itertools
import operator
from collections import Counter

from symdepth import CharacteristicPoset, MonomialIdeal, sdepth_at_least
from symdepth.complexes import _facet_key, vertices_of
from symdepth.monomial import box_divisors, check_exponents, grlex_key


def lcm_exp(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def localized_contains(ideal, u, inverted):
    """Membership of u in the localization of the ideal inverting the
    variables in ``inverted``: exponents inside the inverted set are
    ignored."""
    u = check_exponents(u, ideal.n)
    inverted = frozenset(inverted)
    return any(
        all(g[i] <= u[i] for i in range(ideal.n) if i not in inverted)
        for g in ideal.gens
    )


def intersect(ideal, other):
    """I ∩ J, generated by the lcms of pairs of generators."""
    if ideal.n != other.n:
        raise ValueError("ideals live in different rings")
    if ideal.is_zero or other.is_zero:
        return MonomialIdeal(ideal.n, ())
    gens = (lcm_exp(g, h) for g in ideal.gens for h in other.gens)
    return MonomialIdeal.from_generators(gens, ideal.n)


def is_pure(delta):
    """Whether all facets of a non-void complex have one cardinality."""
    if delta.is_void:
        raise ValueError("operation undefined for the void complex")
    return len({f.bit_count() for f in delta.facets}) == 1


def face_counts(delta):
    """Number of faces per cardinality, {cardinality: count}."""
    return dict(Counter(m.bit_count() for m in delta.face_masks()))


def matroid_witness(delta):
    """The first pair (F, G) of faces, F then G each by size then mask,
    with |F| > |G| and no v in F - G making G + v a face, searched over
    the list of every face; None when the complex is a matroid."""
    faces = sorted(delta.face_masks(), key=lambda m: (m.bit_count(), m))
    face_set = set(faces)
    for big in faces:
        for small in itertools.takewhile(
                lambda m: m.bit_count() < big.bit_count(), faces):
            if not any(small | 1 << v in face_set
                       for v in vertices_of(big & ~small)):
                return vertices_of(big), vertices_of(small)
    return None


@functools.lru_cache(maxsize=None)
def vertex_decomposable(delta):
    """A simplex, or a complex with a shedding vertex v (its deletion keeps
    only facets of the complex) whose deletion and link are vertex
    decomposable; a recursive call per deleted vertex."""
    if delta.is_simplex:
        return True
    for v in vertices_of(delta.vertex_mask()):
        deletion = delta.deletion((v,))
        if set(deletion.facets) <= set(delta.facets) and \
                vertex_decomposable(deletion) and \
                vertex_decomposable(delta.link((v,))):
            return True
    return False


def ideal_to_text(ideal):
    """The text format that formats.ideal_from_text reads."""
    lines = [f"n={ideal.n}"]
    for g in ideal.gens:
        terms = [
            f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}"
            for i, a in enumerate(g) if a > 0
        ]
        lines.append("*".join(terms) if terms else "1")
    return "\n".join(lines) + "\n"


def complex_to_json(delta):
    """The JSON that formats.complex_from_json reads, 1-based vertices."""
    return {
        "n": delta.n,
        "facets": [[v + 1 for v in vertices_of(f)] for f in delta.facets],
    }


def polarize(ideal):
    """The polarization of a nonzero ideal, a squarefree ideal in more
    variables: coordinate i becomes max(1, g_i) variables, g the generator
    degree bounds, and x_i^a the product of the first a of them."""
    widths = [max(1, b) for b in ideal.generator_degree_bounds()]
    gens = [sum(((1,) * a + (0,) * (w - a) for a, w in zip(u, widths)), ())
            for u in ideal.gens]
    return MonomialIdeal.from_generators(gens, sum(widths))


def join(ideal, other):
    """I + J in the ring of both, I in the first ideal.n variables and J in
    the other.n after them: S/(I + J) is A/I tensor B/J."""
    gens = ([g + (0,) * other.n for g in ideal.gens]
            + [(0,) * ideal.n + h for h in other.gens])
    return MonomialIdeal.from_generators(gens, ideal.n + other.n)


def enlarged_poset(ideal, kind, g):
    """The characteristic poset of the ideal over the box [0, g], which
    must hold every generator: the points that monomial.box_divisors gives
    with a dividing generator (kind="ideal") or with none, in grlex order."""
    points = sorted((c for c, m in box_divisors(ideal.gens, g, "enlarged")
                     if (m != 0) == (kind == "ideal")), key=grlex_key)
    return CharacteristicPoset(ideal.n, tuple(g), tuple(points), kind)


def poset_sdepth(poset):
    """The first level s = n, n - 1, ..., 0 at which sdepth_at_least finds
    an interval partition of the poset."""
    return next(s for s in range(poset.n, -1, -1)
                if sdepth_at_least(poset, s) is not None)


def k_polynomial(ideal):
    """The K-polynomial of S/I, {exponent: coefficient}, the numerator of
    its multigraded Hilbert series over the product of the 1 - x_i, by
    the recursion K(S/(J + (m))) = K(S/J) - x^m K(S/(J : m)), with
    K(S/0) = 1 and 0 for the zero module S/S; memoized on the minimal
    generators.  It takes no resolution, complex or rank."""
    n = ideal.n

    def minimal(gens):
        gens = set(gens)
        return tuple(sorted(g for g in gens if not any(
            h != g and all(map(operator.le, h, g)) for h in gens)))

    @functools.lru_cache(maxsize=None)
    def k(gens):
        if not gens:
            return {(0,) * n: 1}
        if not any(gens[0]):  # the smallest generator is 1: the unit ideal
            return {}
        *rest, m = gens
        out = dict(k(tuple(rest)))
        colon = minimal(tuple(max(a - b, 0) for a, b in zip(g, m))
                        for g in rest)
        for a, c in k(colon).items():
            shifted = tuple(map(operator.add, a, m))
            out[shifted] = out.get(shifted, 0) - c
        return {a: c for a, c in out.items() if c}

    return k(minimal(ideal.gens))


def prime_power_complexes(prime_masks, k, rho, cos_mask):
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
