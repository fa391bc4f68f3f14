import importlib
import random
from fractions import Fraction

import pytest

from symdepth import betti_table, depth_via_takayama
from symdepth.complexes import SimplicialComplex
from symdepth.homology import matrix_rank, reduced_homology_from_faces

from _corpus import corpus


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
                    depth_via_takayama.__wrapped__(I.symbolic_power(k), char)
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
