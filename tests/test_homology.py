import importlib
import math
import random
import re
from fractions import Fraction

import pytest

from symdepth import betti_table, depth_via_takayama
from symdepth.complexes import SimplicialComplex
from symdepth.homology import (_boundary_matrix, check_char, matrix_rank,
                               reduced_homology_from_faces)

from _corpus import RP2_FACETS, corpus


def reference_rank(rows, char):
    """Rank of an integer matrix over Q (char 0) or GF(char)."""
    if not rows or not rows[0]:
        return 0
    if char == 0:
        mat = [[Fraction(a) for a in row] for row in rows]
    else:
        mat = [[a % char for a in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col] if char == 0 else pow(mat[row][col], -1, char)
        for r in range(row + 1, nrows):
            if mat[r][col]:
                factor = mat[r][col] * inv
                if char == 0:
                    mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
                else:
                    mat[r] = [(a - factor * b) % char for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


CHARS = [0, 2, 3, 5]


def _checked_rank(rows, char):
    """matrix_rank, asserting that it leaves its input as it was."""
    before = [list(row) for row in rows]
    rank = matrix_rank(rows, char)
    assert rows == before
    return rank


class TestMatrixRank:
    @pytest.mark.parametrize("char", CHARS)
    def test_matches_reference_on_random_matrices(self, char):
        rng = random.Random(100 + char)
        for trial in range(600):
            density = trial / 599  # from all zero to no forced zeros
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            rows = [[rng.randint(-3, 3) if rng.random() < density else 0
                     for _ in range(ncols)] for _ in range(nrows)]
            assert _checked_rank(rows, char) == reference_rank(rows, char), rows

    @pytest.mark.parametrize("char", CHARS)
    def test_matches_reference_on_low_rank_products(self, char):
        rng = random.Random(200 + char)
        for _ in range(300):
            nrows, inner, ncols = (rng.randint(1, 8), rng.randint(1, 4),
                                   rng.randint(1, 8))
            a = [[rng.randint(-50, 50) for _ in range(inner)]
                 for _ in range(nrows)]
            b = [[rng.randint(-50, 50) for _ in range(ncols)]
                 for _ in range(inner)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                    for row in a]
            rank = _checked_rank(rows, char)
            assert rank == reference_rank(rows, char), rows
            assert rank <= inner

    @pytest.mark.parametrize("rows, char, rank", [
        ([[1, 1], [1, -1]], 0, 2),
        ([[1, 1], [1, -1]], 3, 2),
        ([[1, 1], [1, -1]], 2, 1),
        ([[1, 2], [2, 1]], 0, 2),
        ([[1, 2], [2, 1]], 3, 1),
        ([[0, 4, 6], [0, 2, 3], [5, 0, 0]], 0, 2),
        ([], 0, 0),
        ([[]], 2, 0),
        ([[0, 0], [0, 0]], 0, 0),
    ])
    def test_field_dependent_ranks(self, rows, char, rank):
        assert _checked_rank(rows, char) == rank


class TestEngineComplexes:
    def test_euler_characteristic_and_reference_ranks(self, monkeypatch):
        # On every complex either engine asks about: the alternating sum of
        # the reduced Betti numbers is the reduced Euler characteristic,
        # counted from the faces without any rank (both sides negated, so
        # that H_-1 and the empty face take integer signs).  The engines
        # take homology on the strong-collapse core, so the dims are also
        # taken again on all faces of the raw complex, with reference_rank
        # in place of matrix_rank.
        engine = importlib.import_module("symdepth.depth")
        homology = engine._homology_dims
        answered = {"takayama": {}, "betti": {}}
        asking = answered["takayama"]

        def recorded(facets, char):
            asking[facets, char] = homology(facets, char)
            return asking[facets, char]

        monkeypatch.setattr(engine, "_homology_dims", recorded)
        for I in random.Random(43).sample(corpus(), 50):
            for k in (1, 2):
                for char in (0, 2):
                    asking = answered["takayama"]
                    depth_via_takayama(I.symbolic_power(k), char)
                    asking = answered["betti"]
                    betti_table(I.symbolic_power(k), char)
        assert len(answered["takayama"]) > 100
        assert len(answered["betti"]) > 50
        monkeypatch.setattr("symdepth.homology.matrix_rank", reference_rank)
        for (facets, char), dims in (answered["takayama"] | answered["betti"]).items():
            complex_ = SimplicialComplex(max(facets, default=0).bit_length(), facets)
            faces = complex_.face_counts()
            assert sum((-1) ** (i + 1) * d for i, d in dims.items()) == \
                sum((-1) ** c * count for c, count in faces.items()), facets
            assert dims == reduced_homology_from_faces(complex_.face_masks(), char)


def dense_homology(faces, char):
    """Reduced homology dims from matrix_rank on every dense boundary
    matrix, whatever the characteristic."""
    by_card = {}
    for mask in sorted(faces):
        by_card.setdefault(mask.bit_count(), []).append(mask)
    ranks = {c: matrix_rank(_boundary_matrix(by_card[c - 1], by_card[c]), char)
             for c in range(1, len(by_card))}
    dims = {c - 1: len(by_card[c]) - ranks.get(c, 0) - ranks.get(c + 1, 0)
            for c in range(len(by_card))}
    return {i: d for i, d in dims.items() if d}


def _count_dense_ranks(monkeypatch):
    """Patch homology.matrix_rank to count its calls; returns the list."""
    calls = []

    def counted(rows, char):
        calls.append(char)
        return matrix_rank(rows, char)

    monkeypatch.setattr("symdepth.homology.matrix_rank", counted)
    return calls


class TestGF2Certificate:
    """Char 0 and 2 take GF(2) ranks on bitmask columns.  Char 0 keeps the
    GF(2) dims only when they sit in at most one degree, and any other
    case takes the dense matrix_rank path."""

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_matches_dense_reference_on_random_complexes(self, monkeypatch,
                                                         char):
        rng = random.Random(300 + char)
        rp2 = [sum(1 << v for v in f) for f in RP2_FACETS]
        several = 0  # complexes whose GF(2) homology has two degrees or more
        torsion = 0  # complexes whose GF(2) and Q homology differ
        for trial in range(400):
            n = rng.randint(1, 7)
            # small facets, so that homology often sits in several degrees
            facets = [sum(1 << v for v in rng.sample(range(n),
                                                      rng.randint(1, min(n, 3))))
                      for _ in range(rng.randint(1, 9))]
            if n >= 6 and trial % 4 == 0:
                facets += rp2
            faces = SimplicialComplex.from_face_masks(n, facets).face_masks()
            expected = dense_homology(faces, char)
            gf2 = dense_homology(faces, 2)
            several += len(gf2) > 1
            torsion += gf2 != dense_homology(faces, 0)
            calls = _count_dense_ranks(monkeypatch)
            assert reduced_homology_from_faces(faces, char) == expected, facets
            monkeypatch.undo()
            dense = char == 3 or char == 0 and len(gf2) > 1
            assert bool(calls) == (dense and max(faces).bit_count() > 0), facets
        assert several > 15 and torsion > 10

    @pytest.mark.parametrize("char, dims, dense", [
        (0, {}, True), (2, {1: 1, 2: 1}, False), (3, {}, True)])
    def test_projective_plane(self, monkeypatch, char, dims, dense):
        # H_1(RP^2; Z) = Z/2: GF(2) homology in degrees 1 and 2 certifies
        # nothing over Q, so char 0 takes the dense ranks
        faces = SimplicialComplex.from_facets(6, RP2_FACETS).face_masks()
        calls = _count_dense_ranks(monkeypatch)
        assert reduced_homology_from_faces(faces, char) == dims
        assert bool(calls) == dense

    def test_void_and_empty_complexes(self, monkeypatch):
        calls = _count_dense_ranks(monkeypatch)
        for char in (0, 2, 3):
            assert reduced_homology_from_faces([], char) == {}
            assert reduced_homology_from_faces([0], char) == {-1: 1}
        assert not calls


class TestCheckChar:
    @pytest.mark.parametrize("char", [0, 2, 3, 37, 41, 2**31 - 1, 2**61 - 1,
                                      2**64 - 59])
    def test_primes_below_2_64_accepted(self, char):
        check_char(char)

    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2 and
    # 3215031751 one to the bases 2, 3, 5 and 7
    @pytest.mark.parametrize("char", [1, 4, -2, True, 2.0, 561, 2047,
                                      3215031751])
    def test_others_rejected(self, char):
        message = f"characteristic must be 0 or a prime, got {char!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_char(char)

    # the second is a strong pseudoprime to each of the twelve bases
    @pytest.mark.parametrize("char", [2**64, 318665857834031151167461])
    def test_from_2_64_on_rejected(self, char):
        with pytest.raises(ValueError,
                           match=r"characteristic must be below 2\^64"):
            check_char(char)

    def test_agrees_with_trial_division(self):
        for char in range(-3, 20000):
            prime = char >= 2 and all(
                char % d for d in range(2, math.isqrt(char) + 1))
            try:
                check_char(char)
            except ValueError:
                assert not prime
            else:
                assert prime or char == 0
