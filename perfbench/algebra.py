"""Monomial arithmetic written for the benchmark alone.

The generator and the output checks use these functions instead of the
package, so that a bug in the package's arithmetic cannot hide itself.
Exponent vectors are tuples of non-negative ints; graphs are edge lists
over vertices 0..n-1.
"""

import itertools


def divides(g, u):
    return all(a <= b for a, b in zip(g, u))


def in_ideal(gens, u):
    return any(divides(g, u) for g in gens)


def minimalize(vectors):
    """The divisibility-minimal elements, in degree order."""
    minimal = []
    for u in sorted(set(vectors), key=lambda v: (sum(v), v)):
        if not any(divides(m, u) for m in minimal):
            minimal.append(u)
    return minimal


def edge_generators(n, edges):
    return minimalize(
        tuple(1 if i in edge else 0 for i in range(n)) for edge in edges
    )


def minimal_vertex_covers(n, supports):
    """Inclusion-minimal vertex sets meeting every support: the minimal
    primes of the squarefree ideal with these generator supports."""
    covers = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if any(c <= chosen for c in covers):
                continue
            if all(chosen & s for s in supports):
                covers.append(frozenset(chosen))
    return covers


def covers_of(n, gens):
    return minimal_vertex_covers(
        n, [{i for i, a in enumerate(g) if a} for g in gens]
    )


def symbolic_member(covers, k, u):
    """u lies in the k-th symbolic power iff every minimal prime sees
    exponent sum at least k."""
    return all(sum(u[i] for i in c) >= k for c in covers)


def symbolic_power_generators(n, covers, k):
    """Minimal generators of the k-th symbolic power; each exponent of a
    minimal generator is at most k."""
    return minimalize(
        u for u in itertools.product(range(k + 1), repeat=n)
        if symbolic_member(covers, k, u)
    )


def degree_bounds(n, gens):
    return tuple(max((g[i] for g in gens), default=0) for i in range(n))


def box(g):
    return itertools.product(*(range(b + 1) for b in g))
