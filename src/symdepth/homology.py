"""Exact reduced simplicial homology from face bitmasks.

Faces are encoded as integer bitmasks over the vertex set.  Homology is
computed from exact ranks of dense boundary matrices over Q (char 0, the
default) or GF(p), by one fraction-free elimination: below the pivot row
t, a row r with r[col] != 0 becomes t[col] * r - r[col] * t, then is
reduced mod p or, over Z, divided by its gcd.  Both are invertible over
the field, so ranks stay exact.
"""

from __future__ import annotations

import math


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
    def reduce(row):  # an invertible scaling over the field
        if char:
            return [a % char for a in row]
        g = math.gcd(*row)
        return [a // g for a in row] if g > 1 else row

    mat = [reduce(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        found = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if found is None:
            continue
        mat[rank], mat[found] = mat[found], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            if f := mat[r][col]:
                mat[r] = reduce([top[col] * a - f * b for a, b in zip(mat[r], top)])
        rank += 1
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
    by_card = {}  # cardinality -> sorted face masks
    for mask in sorted(faces):
        by_card.setdefault(bin(mask).count("1"), []).append(mask)
    top = len(by_card) - 1  # subset closed: cardinalities 0..top all occur
    # cardinality c -> rank of the boundary map leaving C_c
    ranks = {c: matrix_rank(_boundary_matrix(by_card[c - 1], by_card[c]), char)
             for c in range(1, top + 1)}
    dims = {}
    for c in range(top + 1):
        dim = len(by_card[c]) - ranks.get(c, 0) - ranks.get(c + 1, 0)
        if dim:
            dims[c - 1] = dim
    return dims
