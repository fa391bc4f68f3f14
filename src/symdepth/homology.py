"""Exact reduced simplicial homology from face bitmasks.

Faces are encoded as integer bitmasks over the vertex set.  Homology is
computed from exact ranks of boundary maps over Q (char 0, the default) or
GF(p).  Char 0 and 2 first take GF(2) ranks, each boundary column one int
bitmask reduced by XOR on its leading bit.  Char 2 keeps those dims, and
so does char 0 when they are nonzero in at most one degree: dim_Q H_i <=
dim_GF(2) H_i in every degree (universal coefficients) and both have the
same reduced Euler characteristic, so then they agree in every degree.

Any other case (another prime, or GF(2) homology in two or more degrees,
as 2-torsion gives on the real projective plane) takes dense boundary
matrices and one fraction-free elimination: below the pivot row t, a row
r with r[col] != 0 becomes t[col] * r - r[col] * t, then is reduced mod p
or, over Z, divided by its gcd.  Both are invertible over the field, so
ranks stay exact.
"""

from __future__ import annotations

import math


def _is_prime(p):
    """Deterministic Miller-Rabin: below 2^64 a strong probable prime to
    the first twelve primes is prime (Sorenson-Webster 2015)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1
               or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in bases)


def check_char(char):
    """Validate a coefficient field characteristic: 0 or a prime < 2^64."""
    valid = isinstance(char, int) and not isinstance(char, bool)
    if valid and char >= 2**64:
        raise ValueError(f"characteristic must be below 2^64, got {char!r}")
    if not valid or char and not _is_prime(char):
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


def _rank_gf2(lower, upper):
    """Rank over GF(2) of _boundary_matrix(lower, upper), each column a
    bitmask over the indices of ``lower``, XORed with the kept column of
    its leading bit until it is kept or vanishes."""
    index = {mask: 1 << j for j, mask in enumerate(lower)}
    pivots = {}  # leading bit -> kept column
    for mask in upper:
        column = 0
        bits = mask
        while bits:
            low = bits & -bits
            column |= index[mask ^ low]
            bits ^= low
        while column:
            lead = column.bit_length()
            if lead not in pivots:
                pivots[lead] = column
                break
            column ^= pivots[lead]
    return len(pivots)


def _dims(by_card, rank):
    """Nonzero reduced homology dims from the faces by cardinality, with
    rank(lower, upper) the rank of the boundary map between them."""
    top = len(by_card) - 1  # subset closed: cardinalities 0..top all occur
    # cardinality c -> rank of the boundary map leaving C_c
    ranks = {c: rank(by_card[c - 1], by_card[c]) for c in range(1, top + 1)}
    dims = {}
    for c in range(top + 1):
        dim = len(by_card[c]) - ranks.get(c, 0) - ranks.get(c + 1, 0)
        if dim:
            dims[c - 1] = dim
    return dims


def reduced_homology_from_faces(faces, char=0):
    """Reduced homology dimensions {i: dim} from an iterable of face
    bitmasks (must be subset closed, including 0 for the empty face).

    Only the nonzero entries are returned; the void complex (no faces)
    yields an empty map.  Char 0 and 2 take GF(2) ranks, char 0 only where
    they certify the answer (see the module docstring).
    """
    by_card = {}  # cardinality -> sorted face masks
    for mask in sorted(faces):
        by_card.setdefault(mask.bit_count(), []).append(mask)
    if char in (0, 2):
        dims = _dims(by_card, _rank_gf2)
        if char == 2 or len(dims) <= 1:
            return dims
    return _dims(by_card, lambda lower, upper:
                 matrix_rank(_boundary_matrix(lower, upper), char))
