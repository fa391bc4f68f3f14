import functools
import importlib
import json
import random
from pathlib import Path

import pytest

from symdepth import MonomialIdeal, SimplicialComplex, complex_of_ideal, zero_ideal
from symdepth.formats import complex_from_json
from symdepth.complexes import _bases_exchange, _faces, homology_dims, mask_of, strong_core, vertices_of
from symdepth.homology import reduced_homology_from_faces
from symdepth.monomial import support

from _corpus import (RP2_FACETS, complex_corpus, corpus, random_complex,
                     random_squarefree_ideal)
from _reference import (complex_to_json, face_counts, is_pure, matroid_witness,
                        vertex_decomposable)


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
        assert c.facets == (0,) and not c.is_void

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            cx(2, [(0, 2)])

    def test_boolean_vertex_rejected(self):
        # not read as vertex 1: DegreePair and check_exponents refuse
        # booleans too
        with pytest.raises(ValueError, match="outside range"):
            cx(3, [[True, 2]])

    @pytest.mark.parametrize("facet", [["a", 1], [None, 1], [1.5, "b"]])
    def test_vertex_of_another_type_rejected(self, facet):
        # a ValueError, though the vertices do not compare with ints
        with pytest.raises(ValueError, match=r"outside range\(0, 3\)"):
            cx(3, [facet])

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
        assert any(delta.facets == (0,) for delta in complexes)
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
        assert is_pure(cx(3, [(0, 1), (1, 2)]))

    def test_impure(self):
        assert not is_pure(cx(3, [(0, 1), (2,)]))

    def test_purity_matches_unmixedness(self):
        rng = random.Random(22)
        for _ in range(30):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            delta = complex_of_ideal(I)
            if delta.is_void or I.is_zero:
                continue
            assert is_pure(delta) == (I.height() == I.bight())


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

    def test_bases_exchange_agrees_with_face_pairs(self):
        def augmentation(delta):  # the independent-set axiom on all faces
            faces = set(delta.face_masks())
            return all(any(small | 1 << v in faces
                           for v in vertices_of(big & ~small))
                       for big in faces for small in faces
                       if big.bit_count() > small.bit_count())

        complexes = complex_corpus() + [cx(6, RP2_FACETS)]
        verdicts = [_bases_exchange(delta.facets) for delta in complexes]
        assert verdicts == [augmentation(delta) for delta in complexes]
        assert verdicts == [delta.is_matroid()[0] for delta in complexes]
        assert 0 < sum(verdicts) < len(complexes)
        assert not verdicts[-1]  # RP^2

    def test_matroids_are_pure_and_vertex_decomposable(self):
        rng = random.Random(23)
        for _ in range(40):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            delta = complex_of_ideal(I)
            if delta.is_void or not delta.is_matroid()[0]:
                continue
            assert is_pure(delta)
            assert delta.is_vertex_decomposable()

    def test_witness_is_the_first_over_all_faces(self):
        # the faces are made one size at a time, yet the pair is the one
        # the search over the list of every face finds first
        golden = json.loads((Path(__file__).parent / "golden_cli.json")
                            .read_text())["inputs"]
        rng = random.Random(25)
        complexes = (complex_corpus() + [cx(6, RP2_FACETS)]
                     + [random_complex(rng, rng.randint(2, 9))
                        for _ in range(200)]
                     + [complex_from_json(text) for text in golden.values()
                        if '"facets"' in text])
        seen = set()
        for delta in complexes:
            if delta.is_void:
                continue
            witness = matroid_witness(delta)
            assert delta.is_matroid() == (witness is None, witness)
            seen.add(witness is None)
        assert seen == {True, False}

    def test_witness_without_listing_every_face(self, monkeypatch):
        # a 39-vertex simplex and a point: 2^39 faces, a witness of size 2
        def refuse(self):
            raise AssertionError("every face listed")

        monkeypatch.setattr(SimplicialComplex, "face_masks", refuse)
        delta = cx(40, [range(39), (39,)])
        assert delta.is_matroid() == (False, ((0, 1), (39,)))

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

    def test_answers_match_the_recursive_definition(self):
        rng = random.Random(26)
        complexes = complex_corpus() + [cx(6, RP2_FACETS)] + [
            random_complex(rng, rng.randint(2, 9)) for _ in range(500)]
        complexes += [complex_of_ideal(I) for I in corpus()]
        answers = [(delta.is_vertex_decomposable(), vertex_decomposable(delta))
                   for delta in complexes if not delta.is_void]
        assert all(ours == reference for ours, reference in answers)
        assert {ours for ours, _ in answers} == {True, False}

    def test_long_path_without_deletion_or_link(self, monkeypatch):
        # each deletion is read off the facets, each link reduced from F - v
        def refuse(self, face):
            raise AssertionError("deletion or link built")

        monkeypatch.setattr(SimplicialComplex, "deletion", refuse)
        monkeypatch.setattr(SimplicialComplex, "link", refuse)
        path = cx(1000, [(v, v + 1) for v in range(999)])
        assert path.is_vertex_decomposable()


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
        assert not cx(4, [(0, 1, 2, 3)]).reduced_homology().dims

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
            counts = face_counts(delta)
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
        from symdepth.formats import complex_from_json
        c = cx(4, [(0, 1), (2, 3)])
        assert complex_from_json(complex_to_json(c)) == c

    def test_void_and_empty(self):
        from symdepth.formats import complex_from_json
        assert complex_from_json({"n": 3, "facets": []}).is_void
        assert complex_from_json({"n": 3, "facets": [[]]}).facets == (0,)
