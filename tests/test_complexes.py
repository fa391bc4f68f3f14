import functools
import importlib
import random

import pytest

from symdepth import MonomialIdeal, SimplicialComplex, complex_of_ideal, zero_ideal
from symdepth.complexes import _faces, homology_dims, mask_of, strong_core, vertices_of
from symdepth.homology import reduced_homology_from_faces
from symdepth.monomial import support

from _corpus import RP2_FACETS, complex_corpus, corpus, random_squarefree_ideal


def cx(n, facets):
    return SimplicialComplex.from_facets(n, facets)


TRIANGLE_IDEAL = MonomialIdeal.from_generators(
    [(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3
)


class TestFromFacets:
    def test_absorption(self):
        assert cx(2, [(0, 1), (1,)]).facets == cx(2, [(0, 1)]).facets

    def test_void_complex(self):
        assert cx(3, []).is_void

    def test_empty_complex(self):
        c = cx(3, [()])
        assert c.is_empty_complex and not c.is_void

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            cx(2, [(0, 2)])

    def test_dim(self):
        assert cx(3, [(0, 1), (2,)]).dim() == 1
        with pytest.raises(ValueError):
            cx(3, []).dim()


class TestLinkDeletion:
    def test_link_of_middle_vertex(self):
        c = cx(3, [(0, 1), (1, 2)])
        assert c.link((1,)).facets == cx(3, [(0,), (2,)]).facets

    def test_deletion_of_middle_vertex(self):
        c = cx(3, [(0, 1), (1, 2)])
        assert c.deletion((1,)).facets == cx(3, [(0,), (2,)]).facets

    def test_link_of_empty_face_is_identity(self):
        c = cx(3, [(0, 1), (1, 2)])
        assert c.link(()) == c

    def test_link_requires_a_face(self):
        with pytest.raises(ValueError):
            cx(3, [(0, 1)]).link((2,))


class TestStanleyReisner:
    def test_three_isolated_vertices(self):
        c = cx(3, [(0,), (1,), (2,)])
        assert c.stanley_reisner_ideal() == TRIANGLE_IDEAL

    def test_full_simplex_gives_zero_ideal(self):
        assert cx(3, [(0, 1, 2)]).stanley_reisner_ideal().is_zero

    def test_unit_ideal_has_no_complex(self):
        with pytest.raises(ValueError, match="no Stanley-Reisner complex"):
            complex_of_ideal(MonomialIdeal.from_generators([(0, 0, 0)], 3))

    def test_hollow_triangle_gives_principal(self):
        c = cx(3, [(0, 1), (0, 2), (1, 2)])
        assert c.stanley_reisner_ideal().gens == ((1, 1, 1),)

    def test_complex_of_ideal_inverse(self):
        assert complex_of_ideal(TRIANGLE_IDEAL) == cx(3, [(0,), (1,), (2,)])
        assert complex_of_ideal(zero_ideal(3)) == cx(3, [(0, 1, 2)])

    def test_round_trip_on_random_corpus(self):
        rng = random.Random(21)
        for _ in range(30):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            delta = complex_of_ideal(I)
            assert delta.stanley_reisner_ideal() == I
            assert complex_of_ideal(delta.stanley_reisner_ideal()) == delta

    def test_nonsquarefree_rejected(self):
        with pytest.raises(ValueError):
            complex_of_ideal(MonomialIdeal.from_generators([(2, 0)], 2))


def reference_complex_of_ideal(ideal):
    """The 2^n scan: every squarefree monomial outside the ideal is a face."""
    gen_masks = [mask_of(support(g)) for g in ideal.gens]
    return SimplicialComplex.from_face_masks(ideal.n, (
        m for m in range(1 << ideal.n)
        if not any(g & m == g for g in gen_masks)
    ))


def reference_stanley_reisner_ideal(delta):
    """The non-face scan: every non-face is a generator candidate."""
    faces = delta.face_masks()
    return MonomialIdeal.from_generators((
        tuple(m >> i & 1 for i in range(delta.n))
        for m in range(1 << delta.n) if m not in faces
    ), delta.n)


class TestStanleyReisnerAgainstScans:
    """Both translations come from the minimal-transversal fold; the
    exhaustive scans over all 2^n vertex sets are the references."""

    def test_corpus_ideals(self):
        for I in corpus(200):
            delta = complex_of_ideal(I)
            assert delta == reference_complex_of_ideal(I)
            assert delta.stanley_reisner_ideal() == \
                reference_stanley_reisner_ideal(delta)

    def test_random_complexes(self):
        complexes = complex_corpus()
        assert len(complexes) == 2000
        assert any(delta.is_empty_complex for delta in complexes)
        assert any(delta.facets == ((1 << delta.n) - 1,)
                   for delta in complexes)
        for delta in complexes:
            I = delta.stanley_reisner_ideal()
            assert I == reference_stanley_reisner_ideal(delta)
            assert complex_of_ideal(I) == reference_complex_of_ideal(I) == delta

    def test_projective_plane(self):
        delta = cx(6, RP2_FACETS)
        I = delta.stanley_reisner_ideal()
        assert I == reference_stanley_reisner_ideal(delta)
        assert len(I.gens) == 10 and all(sum(g) == 3 for g in I.gens)
        assert complex_of_ideal(I) == reference_complex_of_ideal(I) == delta

    def test_one_vertex_in_many(self):
        # the scan would visit all 2^22 vertex sets
        I = MonomialIdeal.from_generators(
            [tuple(int(i == j) for i in range(22)) for j in range(1, 22)], 22)
        assert complex_of_ideal(I) == cx(22, [(0,)])


class TestPurity:
    def test_pure(self):
        assert cx(3, [(0, 1), (1, 2)]).is_pure()

    def test_impure(self):
        assert not cx(3, [(0, 1), (2,)]).is_pure()

    def test_purity_matches_unmixedness(self):
        rng = random.Random(22)
        for _ in range(30):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            delta = complex_of_ideal(I)
            if delta.is_void or I.is_zero:
                continue
            assert delta.is_pure() == (I.height() == I.bight())


class TestMatroid:
    def test_isolated_vertices(self):
        assert cx(3, [(0,), (1,), (2,)]).is_matroid()[0]

    def test_path(self):
        assert cx(3, [(0, 1), (1, 2)]).is_matroid()[0]

    def test_disjoint_edges_fail_with_witness(self):
        ok, witness = cx(4, [(0, 1), (2, 3)]).is_matroid()
        assert not ok
        big, small = witness
        assert len(big) > len(small)

    def test_matroids_are_pure_and_vertex_decomposable(self):
        rng = random.Random(23)
        for _ in range(40):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            delta = complex_of_ideal(I)
            if delta.is_void or not delta.is_matroid()[0]:
                continue
            assert delta.is_pure()
            assert delta.is_vertex_decomposable()

    def test_link_and_deletion_of_matroid_are_matroids(self):
        hollow = cx(3, [(0, 1), (0, 2), (1, 2)])
        for v in range(3):
            assert hollow.link((v,)).is_matroid()[0]
            assert hollow.deletion((v,)).is_matroid()[0]


class TestVertexDecomposable:
    def test_simplex(self):
        assert cx(4, [(0, 1, 2, 3)]).is_vertex_decomposable()

    def test_path(self):
        assert cx(3, [(0, 1), (1, 2)]).is_vertex_decomposable()

    def test_disjoint_edges(self):
        assert not cx(4, [(0, 1), (2, 3)]).is_vertex_decomposable()


class TestHomology:
    def test_two_points(self):
        profile = cx(2, [(0,), (1,)]).reduced_homology()
        assert profile.dims == ((0, 1),)

    def test_hollow_triangle_is_a_circle(self):
        profile = cx(3, [(0, 1), (0, 2), (1, 2)]).reduced_homology()
        assert profile.dims == ((1, 1),)

    def test_empty_and_void_conventions(self):
        assert cx(2, [()]).reduced_homology().dims == ((-1, 1),)
        assert cx(2, []).reduced_homology().dims == ()

    def test_simplex_is_acyclic(self):
        assert cx(4, [(0, 1, 2, 3)]).reduced_homology().is_trivial

    def test_hollow_tetrahedron_sphere(self):
        c = cx(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert c.reduced_homology().dims == ((2, 1),)

    def test_gf2_matches_char0_on_spheres(self):
        c = cx(3, [(0, 1), (0, 2), (1, 2)])
        assert c.reduced_homology(char=2).dims == c.reduced_homology().dims

    def test_projective_plane_depends_on_char(self):
        # H_1(RP^2; Z) = Z/2: acyclic over Q, not over GF(2)
        c = cx(6, RP2_FACETS)
        assert c.reduced_homology().dims == ()
        assert c.reduced_homology(char=2).dims == ((1, 1), (2, 1))
        assert c.reduced_homology(char=3).dims == ()

    @pytest.mark.parametrize("char", [1, 4, 2.0])
    def test_char_must_be_zero_or_prime(self, char):
        with pytest.raises(ValueError, match="characteristic") as info:
            cx(6, RP2_FACETS).reduced_homology(char)
        assert repr(char) in str(info.value)

    def test_euler_poincare_on_random_corpus(self):
        rng = random.Random(24)
        for _ in range(30):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            delta = complex_of_ideal(I)
            if delta.is_void:
                continue
            counts = delta.face_counts()
            face_sum = sum((-1) ** (c - 1) * v for c, v in counts.items())
            for char in (0, 2, 3):
                profile = delta.reduced_homology(char)
                hom_sum = sum((-1) ** i * d for i, d in profile.dims)
                assert face_sum == hom_sum


def _dominated(facets):
    """The vertices whose facets all share some other vertex."""
    out = []
    for v in vertices_of(functools.reduce(int.__or__, facets, 0)):
        common = functools.reduce(int.__and__, (f for f in facets if f >> v & 1))
        if common != 1 << v:
            out.append(v)
    return out


class TestStrongCore:
    def _check(self, complex_):
        core = strong_core(complex_.facets)
        assert all(complex_.is_face(f) for f in core)
        assert _dominated(core) == []
        assert strong_core(core) == core
        for char in (0, 2, 3):
            raw = reduced_homology_from_faces(complex_.face_masks(), char)
            assert reduced_homology_from_faces(_faces(core), char) == raw
            assert homology_dims(complex_.facets, char) == raw
        return core

    def test_random_complexes(self):
        for complex_ in complex_corpus(600, seed=47):
            self._check(complex_)

    def test_projective_plane_has_no_dominated_vertex(self):
        c = cx(6, RP2_FACETS)
        assert self._check(c) == c.facets
        assert homology_dims(c.facets, 0) == {}
        assert homology_dims(c.facets, 2) == {1: 1, 2: 1}

    def test_hollow_tetrahedron_is_its_own_core(self):
        c = cx(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert self._check(c) == c.facets
        assert homology_dims(c.facets, 0) == {2: 1}

    def test_tree_collapses_to_a_vertex(self):
        c = cx(5, [(0, 1), (1, 2), (2, 3), (1, 4)])  # a tree, not a cone
        core = self._check(c)
        assert len(core) == 1 and bin(core[0]).count("1") == 1
        assert homology_dims(c.facets, 0) == {}

    def test_empty_and_void_complexes(self):
        assert self._check(cx(3, [()])) == (0,)
        assert homology_dims((0,), 0) == {-1: 1}
        assert self._check(cx(3, [])) == ()
        assert homology_dims((), 0) == {}

    def test_void_complex_takes_no_homology_call(self, monkeypatch):
        complexes = importlib.import_module("symdepth.complexes")

        def unreachable(faces, char):
            raise AssertionError("the void complex reached the rank code")

        monkeypatch.setattr(complexes, "reduced_homology_from_faces", unreachable)
        for char in (0, 2):
            assert homology_dims((), char) == {}


class TestComplexJson:
    def test_round_trip(self):
        from symdepth.formats import complex_from_json, complex_to_json
        c = cx(4, [(0, 1), (2, 3)])
        assert complex_from_json(complex_to_json(c)) == c

    def test_void_and_empty(self):
        from symdepth.formats import complex_from_json
        assert complex_from_json({"n": 3, "facets": []}).is_void
        assert complex_from_json({"n": 3, "facets": [[]]}).is_empty_complex
