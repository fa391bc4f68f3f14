"""Exact reduced simplicial homology from face bitmasks.

Faces are encoded as integer bitmasks over the vertex set.  Homology is
computed from ranks of dense boundary matrices, exactly, either over the
rationals (characteristic 0, the default) or over a prime field GF(p).
"""

from __future__ import annotations

import math
from fractions import Fraction


def check_char(char):
    """Validate a coefficient field characteristic: 0 or a prime."""
    valid = isinstance(char, int) and not isinstance(char, bool) and (
        char == 0
        or char >= 2 and all(char % d for d in range(2, math.isqrt(char) + 1))
    )
    if not valid:
        raise ValueError(f"characteristic must be 0 or a prime, got {char!r}")


def matrix_rank(rows, char):
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


def _boundary_matrix(lower, upper):
    """Boundary map from the span of ``upper`` (cardinality c) to the span
    of ``lower`` (cardinality c-1), faces given as sorted bitmask lists."""
    index = {mask: j for j, mask in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, mask in enumerate(upper):
        sign = 1
        bits = mask
        while bits:
            low = bits & -bits
            rows[index[mask ^ low]][j] = sign
            sign = -sign
            bits ^= low
    return rows


def reduced_homology_from_faces(faces, char=0):
    """Reduced homology dimensions {i: dim} from an iterable of face
    bitmasks (must be subset closed, including 0 for the empty face).

    Only the nonzero entries are returned; the void complex (no faces)
    yields an empty map.
    """
    by_card = {}
    for mask in faces:
        by_card.setdefault(bin(mask).count("1"), []).append(mask)
    if not by_card:
        return {}
    top = max(by_card)
    for c in by_card:
        by_card[c].sort()
    ranks = {}  # cardinality c -> rank of the boundary map leaving C_c
    for c in range(1, top + 1):
        ranks[c] = matrix_rank(_boundary_matrix(by_card[c - 1], by_card[c]), char)
    dims = {}
    for c in range(0, top + 1):
        kernel = len(by_card[c]) - ranks.get(c, 0)
        dim = kernel - ranks.get(c + 1, 0)
        if dim:
            dims[c - 1] = dim
    return dims
