"""Reference definitions the tests compare the library against: ideal
membership after localization, intersection through lcms, purity and
face counts of a complex, the text and JSON writers whose readers the
library has, polarization, and the characteristic poset over a box
larger than the generators' with its Stanley depth.  Each is the plain
definition, not a fast path."""

from collections import Counter

from symdepth import CharacteristicPoset, MonomialIdeal, sdepth_at_least
from symdepth.complexes import vertices_of
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
