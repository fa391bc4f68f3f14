"""Reference definitions the tests compare the library against: ideal
membership after localization, intersection through lcms, purity and
face counts of a complex, and the text and JSON writers whose readers
the library has.  Each is the plain definition, not a fast path."""

from collections import Counter

from symdepth import MonomialIdeal
from symdepth.complexes import vertices_of
from symdepth.monomial import check_exponents


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
