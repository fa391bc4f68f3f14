"""Simplicial complexes on [n], Stanley-Reisner translation, matroid and
vertex-decomposability checks, and exact reduced homology.

Faces are bitmasks over 0-based vertices.  A complex is stored by its
facets; the void complex (no faces at all) has an empty facet tuple and
the empty complex {emptyset} has the single facet 0.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .homology import check_char, reduced_homology_from_faces
from .monomial import MonomialIdeal, support


def mask_of(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def submasks(mask):
    """All subsets of a bitmask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _reduce_to_facets(masks):
    """The inclusion-maximal masks, sorted by (cardinality, mask).  A
    strict superset is a larger integer, so in descending order every
    superset of a mask is met before the mask itself."""
    facets = []
    for m in sorted(set(masks), reverse=True):
        if not any(m & f == m for f in facets):
            facets.append(m)
    return tuple(sorted(facets, key=lambda m: (bin(m).count("1"), m)))


def homology_dims(facets, char):
    """Nonzero reduced homology dims {i: dim} of the complex with these
    facets; a cone (all facets share a vertex) is acyclic and takes no
    boundary ranks."""
    apex = functools.reduce(int.__and__, facets) if facets else 0
    if apex:
        return {}
    return reduced_homology_from_faces(_faces(facets), char)


def _faces(facets):
    """All faces of the complex with these facets, as a set of bitmasks."""
    return {face for f in facets for face in submasks(f)}


@dataclass(frozen=True)
class HomologyProfile:
    """Nonzero reduced homology dimensions and the coefficient field used."""

    dims: tuple  # sorted ((index, dim), ...), only nonzero entries
    char: int

    def dim(self, i):
        return dict(self.dims).get(i, 0)

    @property
    def is_trivial(self):
        return not self.dims


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    facets: tuple  # sorted bitmasks, mutually incomparable

    @classmethod
    def from_facets(cls, n, facets):
        """Canonical complex from facet candidates (vertex collections)."""
        masks = []
        for f in facets:
            f = set(f)
            if any(not isinstance(v, int) or v < 0 or v >= n for v in f):
                raise ValueError(f"facet {sorted(f)} has a vertex outside range(0, {n})")
            masks.append(mask_of(f))
        return cls(n, _reduce_to_facets(masks))

    @classmethod
    def from_face_masks(cls, n, masks):
        return cls(n, _reduce_to_facets(masks))

    # ----- basic structure --------------------------------------------------

    @property
    def is_void(self):
        return not self.facets

    @property
    def is_empty_complex(self):
        return self.facets == (0,)

    @property
    def is_simplex(self):
        return len(self.facets) == 1

    def _require_not_void(self):
        if self.is_void:
            raise ValueError("operation undefined for the void complex")

    def dim(self):
        self._require_not_void()
        return max(bin(f).count("1") for f in self.facets) - 1

    def vertex_mask(self):
        mask = 0
        for f in self.facets:
            mask |= f
        return mask

    def face_masks(self):
        """All faces, as a set of bitmasks."""
        return _faces(self.facets)

    def is_face(self, mask):
        return any(mask & f == mask for f in self.facets)

    # ----- link / deletion --------------------------------------------------

    def link(self, face):
        mask = mask_of(face)
        if not self.is_face(mask):
            raise ValueError(f"{sorted(face)} is not a face")
        return SimplicialComplex.from_face_masks(
            self.n, (f & ~mask for f in self.facets if f & mask == mask)
        )

    def deletion(self, face):
        mask = mask_of(face)
        return SimplicialComplex.from_face_masks(
            self.n, (f & ~mask for f in self.facets)
        )

    # ----- Stanley-Reisner --------------------------------------------------

    def stanley_reisner_ideal(self):
        """Ideal generated by the minimal non-faces."""
        self._require_not_void()
        faces = self.face_masks()
        return MonomialIdeal.from_generators(
            (_mask_to_exponents(m, self.n)
             for m in range(1 << self.n) if m not in faces),
            self.n,
        )

    # ----- purity / matroid / vertex decomposability ------------------------

    def is_pure(self):
        self._require_not_void()
        cards = {bin(f).count("1") for f in self.facets}
        return len(cards) == 1

    def is_matroid(self):
        """Exchange-axiom check; returns (True, None) or (False, (F, G))
        with a violating pair of faces."""
        self._require_not_void()
        faces = sorted(self.face_masks(), key=lambda m: (bin(m).count("1"), m))
        face_set = set(faces)
        for big, small in itertools.product(faces, faces):
            if bin(big).count("1") <= bin(small).count("1"):
                continue
            if not _has_exchange(small, big & ~small, face_set):
                return False, (vertices_of(big), vertices_of(small))
        return True, None

    def is_vertex_decomposable(self):
        self._require_not_void()
        return _vertex_decomposable(self.n, self.facets)

    # ----- homology ---------------------------------------------------------

    def reduced_homology(self, char=0):
        check_char(char)
        dims = homology_dims(self.facets, char)
        return HomologyProfile(tuple(sorted(dims.items())), char)

    def face_counts(self):
        """Number of faces per cardinality, {cardinality: count}."""
        counts = {}
        for m in self.face_masks():
            c = bin(m).count("1")
            counts[c] = counts.get(c, 0) + 1
        return counts


def _has_exchange(small, candidates, face_set):
    bits = candidates
    while bits:
        low = bits & -bits
        if small | low in face_set:
            return True
        bits ^= low
    return False


def _mask_to_exponents(mask, n):
    return tuple(1 if mask >> i & 1 else 0 for i in range(n))


@functools.lru_cache(maxsize=None)
def _vertex_decomposable(n, facets):
    complex_ = SimplicialComplex(n, facets)
    if complex_.is_simplex:
        return True
    facet_set = set(facets)
    for v in vertices_of(complex_.vertex_mask()):
        deletion = complex_.deletion((v,))
        if not all(f in facet_set for f in deletion.facets):
            continue
        if _vertex_decomposable(n, deletion.facets) and \
                _vertex_decomposable(n, complex_.link((v,)).facets):
            return True
    return False


def complex_of_ideal(ideal):
    """Stanley-Reisner complex of a squarefree proper ideal: the faces are
    the squarefree monomials outside the ideal."""
    if not ideal.is_squarefree:
        raise ValueError("Stanley-Reisner complex needs a squarefree ideal")
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    n = ideal.n
    gen_masks = [mask_of(support(g)) for g in ideal.gens]
    faces = [
        m for m in range(1 << n)
        if not any(g & m == g for g in gen_masks)
    ]
    return SimplicialComplex.from_face_masks(n, faces)
