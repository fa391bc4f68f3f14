"""Simplicial complexes on [n], Stanley-Reisner translation, matroid and
vertex-decomposability checks, and exact reduced homology.

Faces are bitmasks over 0-based vertices.  A complex is stored by its
facets; the void complex (no faces at all) has an empty facet tuple and
the empty complex {emptyset} has the single facet 0.  Homology is taken
in one place, ``homology_dims``, on the strong-collapse core of the
facets: dominated vertices are deleted first, which keeps the homotopy
type, so most complexes need no boundary rank at all.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .homology import check_char, reduced_homology_from_faces
from .monomial import _symbolic_power_cached


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


def _facet_key(mask):
    """The order of a facet tuple: by cardinality, then by mask."""
    return mask.bit_count(), mask


def _reduce_to_facets(masks):
    """The inclusion-maximal masks, sorted by _facet_key.  A strict
    superset is a larger integer, so in descending order every superset
    of a mask is met before the mask itself."""
    facets = []
    for m in sorted(set(masks), reverse=True):
        for f in facets:
            if m & f == m:
                break
        else:
            facets.append(m)
    facets.sort(key=_facet_key)
    return tuple(facets)


def strong_core(facets):
    """The facets left once no vertex is dominated.  A vertex v is
    dominated by u when every facet that contains v contains u; deleting
    v is a strong collapse, which keeps the homotopy type (Barmak-Minian),
    so reduced homology over every field is unchanged.  A complex that
    collapses to a point ends as one vertex.

    Each pass is one walk over the facets that meets, for every vertex
    bit, the facets containing it.  It then deletes, in turn, each vertex
    dominated by one not yet deleted in the pass: v stays dominated by u
    while vertices other than u are deleted, so this is a run of single
    deletions."""
    while len(facets) > 1:
        meet = {}  # vertex bit -> intersection of the facets containing it
        for f in facets:
            bits = f
            while bits:
                low = bits & -bits
                meet[low] = meet.get(low, f) & f
                bits ^= low
        gone = 0
        for v, common in meet.items():
            if common & ~v & ~gone:
                gone |= v
        if not gone:
            return facets
        facets = _reduce_to_facets(f & ~gone for f in facets)
    return tuple(f & -f for f in facets)  # a simplex collapses to a vertex


def homology_dims(facets, char):
    """Nonzero reduced homology dims {i: dim} of the complex with these
    facets.  The void complex (no facets) and a cone (all facets share a
    vertex) are acyclic and take no boundary ranks; otherwise the ranks
    are taken on the strong-collapse core, which is acyclic without ranks
    when it is one vertex."""
    if not facets or functools.reduce(int.__and__, facets):
        return {}
    core = strong_core(facets)
    if len(core) == 1 and core[0]:
        return {}
    return reduced_homology_from_faces(_faces(core), char)


def _faces(facets):
    """All faces of the complex with these facets, as a set of bitmasks."""
    return {face for f in facets for face in submasks(f)}


class HomologyProfile(namedtuple("HomologyProfile", "dims char")):
    """Nonzero reduced homology dimensions and the coefficient field used."""

    __slots__ = ()
    # dims: sorted ((index, dim), ...), only nonzero entries

    def dim(self, i):
        return dict(self.dims).get(i, 0)


class SimplicialComplex(namedtuple("SimplicialComplex", "n facets")):
    __slots__ = ()
    # facets: sorted bitmasks, mutually incomparable

    @classmethod
    def from_facets(cls, n, facets):
        """Canonical complex from facet candidates (vertex collections)."""
        masks = []
        for f in facets:
            f = set(f)
            if any(isinstance(v, bool) or not isinstance(v, int)
                   or v < 0 or v >= n for v in f):
                # vertices of other types need not compare with ints
                numeric = all(isinstance(v, (int, float)) for v in f)
                shown = sorted(f, key=None if numeric else repr)
                raise ValueError(f"facet {shown} has a vertex outside range(0, {n})")
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
    def is_simplex(self):
        return len(self.facets) == 1

    def _require_not_void(self):
        if self.is_void:
            raise ValueError("operation undefined for the void complex")

    def dim(self):
        self._require_not_void()
        return max(f.bit_count() for f in self.facets) - 1

    def vertex_mask(self):
        return functools.reduce(int.__or__, self.facets, 0)

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
        """Ideal generated by the minimal non-faces: the minimal sets that
        meet the complement of every facet."""
        self._require_not_void()
        full = (1 << self.n) - 1
        return _symbolic_power_cached(
            self.n, tuple(vertices_of(full & ~f) for f in self.facets), 1
        )

    # ----- matroid / vertex decomposability ---------------------------------

    def is_matroid(self):
        """Exchange-axiom check; returns (True, None) or (False, (F, G))
        with a violating pair of faces, searched in order once the facets
        fail basis exchange.  Basis exchange holds exactly for a matroid,
        so the search always finds a pair."""
        self._require_not_void()
        if _bases_exchange(self.facets):
            return True, None
        faces = sorted(self.face_masks(), key=_facet_key)
        face_set = set(faces)
        big, small = next(
            (big, small) for big, small in itertools.product(faces, faces)
            if big.bit_count() > small.bit_count()
            and not _has_exchange(small, big & ~small, face_set))
        return False, (vertices_of(big), vertices_of(small))

    def is_vertex_decomposable(self):
        self._require_not_void()
        return _vertex_decomposable(self.n, self.facets)

    # ----- homology ---------------------------------------------------------

    def reduced_homology(self, char=0):
        check_char(char)
        dims = homology_dims(self.facets, char)
        return HomologyProfile(tuple(sorted(dims.items())), char)


def _bases_exchange(facets):
    """Basis exchange: for facets B, C and x in B - C, some y in C - B
    makes B - x + y a facet.  It holds iff the faces are the independent
    sets of a matroid (Oxley, Matroid Theory, section 1.2)."""
    facet_set = set(facets)
    for big, other in itertools.product(facets, facets):
        gone = big & ~other
        while gone:
            x = gone & -gone
            if not _has_exchange(big ^ x, other & ~big, facet_set):
                return False
            gone ^= x
    return True


def _has_exchange(small, candidates, face_set):
    bits = candidates
    while bits:
        low = bits & -bits
        if small | low in face_set:
            return True
        bits ^= low
    return False


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
    """Stanley-Reisner complex of a squarefree proper ideal: its facets are
    the complements of the minimal primes (the full simplex for zero)."""
    if not ideal.is_squarefree:
        raise ValueError("Stanley-Reisner complex needs a squarefree ideal")
    if ideal.is_unit:
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    full = (1 << ideal.n) - 1
    primes = ideal.minimal_primes() if ideal.gens else (frozenset(),)
    return SimplicialComplex.from_face_masks(
        ideal.n, (full & ~mask_of(p) for p in primes)
    )
