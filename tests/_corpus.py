"""Fixed-seed random instance generators and fixed instances shared
across the test suite."""

import random

from symdepth import MonomialIdeal

CORPUS_SEED = 20240817

# Facets of the 6-vertex triangulation of the real projective plane
# (0-based); its homology, and so the depth of its Stanley-Reisner ring,
# depends on the characteristic.
RP2_FACETS = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]


def _edge_ideal(n, edges):
    return MonomialIdeal.from_generators(
        [tuple(1 if j in e else 0 for j in range(n)) for e in edges], n)


def cycle(n):
    """The edge ideal of the n-cycle."""
    return _edge_ideal(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    """The edge ideal of the path on n vertices."""
    return _edge_ideal(n, [(i, i + 1) for i in range(n - 1)])


def random_squarefree_ideal(rng, n):
    """A random proper nonzero squarefree ideal in n variables."""
    while True:
        count = rng.randint(1, n + 2)
        gens = []
        for _ in range(count):
            size = rng.randint(1, n)
            chosen = set(rng.sample(range(n), size))
            gens.append(tuple(1 if i in chosen else 0 for i in range(n)))
        ideal = MonomialIdeal.from_generators(gens, n)
        if not ideal.is_zero and ideal.is_proper:
            return ideal


def corpus(count=200, seed=CORPUS_SEED, nmax=5):
    rng = random.Random(seed)
    return [random_squarefree_ideal(rng, rng.randint(2, nmax)) for _ in range(count)]


def random_monomial(rng, n, max_degree):
    return tuple(rng.randint(0, max_degree) for _ in range(n))


def random_non_squarefree_ideal(rng, n, max_exponent=3):
    """A random proper nonzero monomial ideal in n variables with some
    exponent above 1.  Half are symbolic powers I^(k), k = 2 or 3, of a
    random squarefree I, half of those with one random monomial added;
    the rest have random generators."""
    while True:
        if rng.random() < 0.5:
            k = rng.randint(2, 3)
            gens = list(random_squarefree_ideal(rng, n).symbolic_power(k).gens)
            if rng.random() < 0.5:
                gens.append(random_monomial(rng, n, max_exponent))
        else:
            count = rng.randint(1, n + 1)
            gens = [random_monomial(rng, n, max_exponent) for _ in range(count)]
        ideal = MonomialIdeal.from_generators(gens, n)
        if not ideal.is_zero and ideal.is_proper and not ideal.is_squarefree:
            return ideal


def non_squarefree_corpus(count=300, seed=CORPUS_SEED, nmax=4):
    rng = random.Random(seed)
    return [random_non_squarefree_ideal(rng, rng.randint(2, nmax))
            for _ in range(count)]
