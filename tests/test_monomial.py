import ast
import importlib
import itertools
import pkgutil
import random

import pytest

import symdepth
from symdepth import MonomialIdeal, SimplicialComplex, unit_ideal, zero_ideal
from symdepth.monomial import (
    MAX_BOX_POINTS,
    BudgetExceeded,
    _symbolic_power_cached,
    box_divisors,
    check_exponents,
    divides,
    grlex_key,
    mul_exp,
    pow_exp,
    support,
)

from _corpus import (
    RP2_FACETS,
    complex_corpus,
    corpus,
    cycle,
    non_squarefree_corpus,
    path,
    random_monomial,
    random_squarefree_ideal,
)
from _reference import (enlarged_poset, ideal_to_text, intersect,
                        localized_contains)


def ideal(gens, n):
    return MonomialIdeal.from_generators(gens, n)


class TestNormalize:
    def test_divisibility_reduction(self):
        I = ideal([(2, 0, 0), (2, 1, 0), (0, 1, 1)], 3)
        assert I.gens == ((0, 1, 1), (2, 0, 0))

    def test_empty_input_is_zero_ideal(self):
        assert ideal([], 3).is_zero

    def test_deduplication(self):
        assert ideal([(1, 1), (1, 1)], 2).gens == ((1, 1),)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ideal([(1, 1, 0)], 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ideal([(1, -1)], 2)

    def test_boolean_exponent_rejected(self):
        # as formats._json_int does for a file
        with pytest.raises(ValueError, match="nonnegative integers"):
            ideal([(True, True, 0), (0, 1, 1)], 3)
        with pytest.raises(ValueError, match="nonnegative integers"):
            check_exponents((0, False), 2)


class TestContains:
    def test_generator_divides(self):
        I = ideal([(1, 1, 0), (0, 1, 1)], 3)
        assert I.contains((1, 1, 1))

    def test_not_contained(self):
        assert not ideal([(1, 1)], 2).contains((1, 0))

    def test_zero_ideal_contains_nothing(self):
        assert not zero_ideal(2).contains((3, 3))


class TestLocalizedContains:
    def test_full_localization_is_unit(self):
        assert localized_contains(ideal([(1, 1)], 2), (0, 0), {0, 1})

    def test_partial_localization(self):
        I = ideal([(1, 1)], 2)
        assert not localized_contains(I, (0, 0), {0})
        assert localized_contains(I, (0, 1), {0})


class TestIntersect:
    def test_principal(self):
        assert intersect(ideal([(1, 0)], 2), ideal([(0, 1)], 2)).gens == ((1, 1),)

    def test_idempotent(self):
        I = ideal([(1, 0), (0, 1)], 2)
        assert intersect(I, I) == I

    def test_three_prime_squares(self):
        # brute-force minimal solutions of a+b>=2, a+c>=2, b+c>=2
        p = lambda *vs: ideal(vs, 3)
        a = p((2, 0, 0), (1, 1, 0), (0, 2, 0))
        b = p((2, 0, 0), (1, 0, 1), (0, 0, 2))
        c = p((0, 2, 0), (0, 1, 1), (0, 0, 2))
        result = intersect(intersect(a, b), c)
        assert result.gens == (
            (1, 1, 1), (0, 2, 2), (2, 0, 2), (2, 2, 0),
        )

    def test_different_rings_rejected(self):
        with pytest.raises(ValueError, match="different rings"):
            intersect(ideal([(1, 0)], 2), ideal([(1, 0, 0)], 3))

    @pytest.mark.parametrize("left_zero", [True, False])
    def test_with_zero_ideal(self, left_zero):
        I = ideal([(1, 1, 0), (0, 1, 1)], 3)
        pair = (zero_ideal(3), I) if left_zero else (I, zero_ideal(3))
        result = intersect(*pair)
        assert result.is_zero and result.n == 3


class TestColon:
    def test_principal(self):
        assert ideal([(1, 1)], 2).colon((1, 0)).gens == ((0, 1),)

    def test_becomes_unit(self):
        I = ideal([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3)
        assert I.colon((1, 1, 1)).is_unit

    def test_zero_ideal(self):
        assert zero_ideal(2).colon((1, 1)).is_zero


class TestOrdinaryPower:
    def test_principal_square(self):
        assert ideal([(1, 1)], 2).power(2).gens == ((2, 2),)

    def test_first_power_is_identity(self):
        I = ideal([(1, 0, 1), (0, 1, 0)], 3)
        assert I.power(1) == I

    def test_two_variable_square(self):
        assert ideal([(1, 0), (0, 1)], 2).power(2).gens == (
            (0, 2), (1, 1), (2, 0),
        )

    def test_zeroth_power_rejected(self):
        with pytest.raises(ValueError, match="power exponent must be >= 1"):
            ideal([(1, 0), (0, 1)], 2).power(0)


class TestPowerExponent:
    # power, symbolic_power and symbolic_contains take one exponent check,
    # an int (not a bool) at least 1; TestPower and TestSymbolicPower
    # reject 0
    CALLS = {
        "power": lambda I, k: I.power(k),
        "symbolic_power": lambda I, k: I.symbolic_power(k),
        "symbolic_contains": lambda I, k: I.symbolic_contains(k, (1, 1, 1)),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("k", [1.5, 2.0, True, "2"])
    def test_rejected(self, name, k):
        I = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        with pytest.raises(ValueError, match=f"exponent must be >= 1 and an "
                           f"integer, got {k!r}"):
            self.CALLS[name](I, k)


class TestMinimalPrimes:
    def test_edge(self):
        assert ideal([(1, 1)], 2).minimal_primes() == (
            frozenset({0}), frozenset({1}),
        )

    def test_triangle(self):
        I = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        assert set(I.minimal_primes()) == {
            frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}),
        }

    def test_principal_three_variables(self):
        assert ideal([(1, 1, 1)], 3).minimal_primes() == (
            frozenset({0}), frozenset({1}), frozenset({2}),
        )

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError, match="squarefree ideals only"):
            ideal([(2, 1, 0), (0, 1, 1)], 3).minimal_primes()

    def test_mixed_heights(self):
        I = ideal([(1, 0, 0), (0, 1, 1)], 3)
        assert set(I.minimal_primes()) == {
            frozenset({0, 1}), frozenset({0, 2}),
        }
        assert I.height() == 2 and I.bight() == 2

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ValueError):
            zero_ideal(2).minimal_primes()
        with pytest.raises(ValueError):
            unit_ideal(2).minimal_primes()


def reference_minimal_primes(ideal):
    """Subset enumeration: the vertex covers of the generator supports
    found by size, skipping supersets of covers already found."""
    supports = [support(g) for g in ideal.gens]
    universe = sorted(frozenset().union(*supports))
    covers = []
    for size in range(1, len(universe) + 1):
        for subset in itertools.combinations(universe, size):
            cand = frozenset(subset)
            if any(found <= cand for found in covers):
                continue
            if all(cand & s for s in supports):
                covers.append(cand)
    return tuple(sorted(covers, key=lambda p: (len(p), sorted(p))))


class TestMinimalPrimesAgainstEnumeration:
    """Minimal primes come from the minimal-transversal fold; subset
    enumeration is the reference."""

    def test_corpus(self):
        for I in corpus(200):
            assert I.minimal_primes() == reference_minimal_primes(I)

    def test_stanley_reisner_ideals_of_random_complexes(self):
        checked = 0
        for delta in complex_corpus():
            I = delta.stanley_reisner_ideal()
            if I.is_zero:
                continue
            assert I.minimal_primes() == reference_minimal_primes(I)
            checked += 1
        assert checked > 1900

    def test_projective_plane(self):
        I = SimplicialComplex.from_facets(6, RP2_FACETS).stanley_reisner_ideal()
        primes = I.minimal_primes()
        assert primes == reference_minimal_primes(I)
        assert len(primes) == 10 and all(len(p) == 3 for p in primes)


class TestHeightDim:
    def test_triangle(self):
        I = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        assert (I.height(), I.bight(), I.n - I.height()) == (2, 2, 1)

    def test_principal(self):
        I = ideal([(1, 1, 1)], 3)
        assert (I.height(), I.bight(), I.n - I.height()) == (1, 1, 2)


class TestSymbolicPower:
    def triangle(self):
        return ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)

    def test_triangle_square_strictly_bigger_than_ordinary(self):
        I = self.triangle()
        I2 = I.symbolic_power(2)
        assert I2.gens == ((1, 1, 1), (0, 2, 2), (2, 0, 2), (2, 2, 0))
        assert I2.contains((1, 1, 1))
        assert not I.power(2).contains((1, 1, 1))

    def test_principal_symbolic_equals_ordinary(self):
        I = ideal([(1, 1, 1)], 3)
        assert I.symbolic_power(2) == I.power(2)

    def test_single_prime(self):
        I = ideal([(1, 0), (0, 1)], 2)
        assert I.symbolic_power(3) == I.power(3)

    def test_first_symbolic_power_is_identity(self):
        assert self.triangle().symbolic_power(1) == self.triangle()

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            self.triangle().symbolic_power(0)


class TestSymbolicPowerConstruction:
    """The prime-by-prime construction against independent oracles."""

    def test_matches_intersection_of_prime_powers(self):
        for I in corpus():
            primes = [
                ideal([tuple(int(i == v) for i in range(I.n)) for v in p], I.n)
                for p in I.minimal_primes()
            ]
            for k in (1, 2, 3):
                expected = primes[0].power(k)
                for P in primes[1:]:
                    expected = intersect(expected, P.power(k))
                assert I.symbolic_power(k).gens == expected.gens

    def test_generators_are_minimal_members(self):
        for I in corpus():
            for k in (1, 2, 3):
                for g in I.symbolic_power(k).gens:
                    assert I.symbolic_contains(k, g)
                    for i, a in enumerate(g):
                        if a:
                            lowered = g[:i] + (a - 1,) + g[i + 1:]
                            assert not I.symbolic_contains(k, lowered)

    @pytest.mark.parametrize("n, k, count", [(8, 3, 120), (10, 2, 55), (10, 3, 220)])
    def test_cycle_generator_counts(self, n, k, count):
        I = cycle(n)
        Ik = I.symbolic_power(k)
        assert len(Ik.gens) == count
        assert MonomialIdeal.from_generators(Ik.gens, n).prime_structure() == (
            I.minimal_primes(), k)
        assert Ik.prime_structure() == (I.minimal_primes(), k)


def prime_power_fold(primes, k, n):
    """P_1^k ∩ ... ∩ P_r^k through ``power`` and ``intersect``."""
    powers = [
        ideal([tuple(int(i == v) for i in range(n)) for v in p], n).power(k)
        for p in primes
    ]
    folded = powers[0]
    for P in powers[1:]:
        folded = intersect(folded, P)
    return folded


def reference_symbolic_power(n, primes, k):
    """The fold that re-sums a candidate's exponents over every prime
    folded so far to find its tight primes."""
    folded = []  # (variables, bitmask) of the primes in J_j
    gens = {(0,) * n}
    for prime in primes:
        variables = sorted(prime)
        folded.append((variables, sum(1 << i for i in variables)))
        candidates = set()
        for g in gens:
            short = k - sum(g[i] for i in variables)
            if short <= 0:
                candidates.add(g)
                continue
            for combo in itertools.combinations_with_replacement(variables, short):
                u = list(g)
                for i in combo:
                    u[i] += 1
                candidates.add(tuple(u))
        gens = set()
        for u in candidates:
            tight = 0
            for vs, mask in folded:
                if sum(u[i] for i in vs) == k:
                    tight |= mask
            if all(tight >> i & 1 for i, a in enumerate(u) if a):
                gens.add(u)
    return tuple(sorted(gens, key=grlex_key))


def brute_force_symbolic_power(n, sets, k):
    """The minimal elements of the intersection of the k-th powers of the
    ideals of the variable sets, inside the box [0, k]^n, which holds
    them all: a minimal u with u_i > k would have no tight set at i."""
    members = {
        u for u in itertools.product(range(k + 1), repeat=n)
        if all(sum(u[i] for i in s) >= k for s in sets)
    }
    return tuple(sorted(
        (u for u in members
         if not any(a and u[:i] + (a - 1,) + u[i + 1:] in members
                    for i, a in enumerate(u))),
        key=grlex_key,
    ))


def fold(n, sets, k):
    return _symbolic_power_cached(n, tuple(frozenset(s) for s in sets), k).gens


class TestFoldOnVariableSets:
    """The fold over any variable sets, as its callers give them: not
    only minimal primes but nested, duplicated and singleton sets."""

    @pytest.mark.parametrize("n, sets", [
        (4, [{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}]),  # a chain
        (4, [{0, 1}, {2, 3}, {0, 1}, {2, 3}]),  # each set twice
        (5, [{0}, {3}, {1, 2}, {0, 4}]),  # singletons
        (5, [{1, 2, 3}, {2}, {2}, {0, 4}, {0, 1, 4}]),  # all three
        (6, [{0, 1, 2, 3, 4, 5}, {5}, {0, 5}, {1, 2}]),
        (3, [{0, 1}, set()]),  # the zero ideal
    ])
    def test_families_against_brute_force(self, n, sets):
        for k in range(1, 5):
            assert fold(n, sets, k) == brute_force_symbolic_power(n, sets, k)

    def test_random_families_against_brute_force(self):
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(1, 6)
            k = rng.randint(1, 4)
            sets = [set(rng.sample(range(n), rng.randint(1, n)))
                    for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.5:  # nest one set in another, or repeat it
                sets.append(set(list(sets[0])[:rng.randint(1, len(sets[0]))]))
            assert fold(n, sets, k) == brute_force_symbolic_power(n, sets, k)

    def test_k_four_in_six_variables(self):
        sets = [{0, 1}, {1, 2, 3}, {3, 4}, {4, 5, 0}, {2}]
        assert fold(6, sets, 4) == brute_force_symbolic_power(6, sets, 4)

    def test_corpus_against_the_re_summing_fold(self):
        for I in corpus():
            primes = I.minimal_primes()
            for k in (1, 2, 3):
                assert _symbolic_power_cached(I.n, primes, k).gens == \
                    reference_symbolic_power(I.n, primes, k)

    @pytest.mark.parametrize("n, k", [(8, 3), (10, 2), (10, 3)])
    def test_cycles_against_the_re_summing_fold(self, n, k):
        primes = cycle(n).minimal_primes()
        assert _symbolic_power_cached(n, primes, k).gens == \
            reference_symbolic_power(n, primes, k)

    def test_generator_supports_and_facet_complements(self):
        # what minimal_primes and stanley_reisner_ideal hand to the fold
        for delta in complex_corpus(300):
            full = (1 << delta.n) - 1
            complements = [[i for i in range(delta.n) if (full & ~f) >> i & 1]
                           for f in delta.facets]
            assert fold(delta.n, complements, 1) == \
                reference_symbolic_power(delta.n, complements, 1)
        for I in non_squarefree_corpus(100):
            supports = [support(g) for g in I.gens]
            assert fold(I.n, supports, 1) == \
                brute_force_symbolic_power(I.n, supports, 1)


class TestFoldOrder:
    """Metamorphic: the generators do not depend on the order in which
    the primes are folded."""

    def test_corpus(self):
        rng = random.Random(48)
        for I in corpus():
            primes = list(I.minimal_primes())
            for k in (1, 2, 3):
                expected = _symbolic_power_cached(I.n, tuple(primes), k).gens
                rng.shuffle(primes)
                assert _symbolic_power_cached(I.n, tuple(primes), k).gens == expected

    @pytest.mark.parametrize("n, k", [(8, 2), (8, 3), (10, 2)])
    def test_cycles(self, n, k):
        primes = cycle(n).minimal_primes()
        expected = _symbolic_power_cached(n, primes, k).gens
        for order in (primes[::-1], primes[1::2] + primes[::2]):
            assert _symbolic_power_cached(n, order, k).gens == expected


class TestPrimeStructure:
    """prime_structure() is derived from the generators alone."""

    @pytest.mark.parametrize("gens", [[(2, 0), (1, 1)], [(2, 0), (0, 3)]])
    def test_no_prime_power_form(self, gens):
        assert ideal(gens, 2).prime_structure() is None

    def test_power_of_one_variable(self):
        assert ideal([(2, 0)], 2).prime_structure() == ((frozenset({0}),), 2)

    def test_zero_and_unit_have_none(self):
        assert zero_ideal(3).prime_structure() is None
        assert unit_ideal(3).prime_structure() is None

    def test_symbolic_powers_rebuilt_from_generators(self):
        for I in corpus():
            for k in (1, 2, 3):
                rebuilt = MonomialIdeal.from_generators(
                    I.symbolic_power(k).gens, I.n)
                assert rebuilt.prime_structure() == (I.minimal_primes(), k)

    def test_non_squarefree_forms_equal_the_fold(self):
        ideals = non_squarefree_corpus()
        found = 0
        for J in ideals:
            structure = J.prime_structure()
            if structure is not None:
                found += 1
                primes, k = structure
                assert prime_power_fold(primes, k, J.n) == J
        assert 0 < found < len(ideals)


    def test_squarefree_ideals_skip_the_radical_and_the_fold(
            self, monkeypatch):
        # a squarefree I is the intersection of its minimal primes; the
        # answer is the one the radical and the k = 1 fold give
        monomial = importlib.import_module("symdepth.monomial")
        ideals = corpus() + [cycle(n) for n in range(4, 11)]
        expected = []
        for I in ideals:
            radical = ideal([tuple(min(a, 1) for a in g) for g in I.gens], I.n)
            primes = radical.minimal_primes()
            k = min(sum(g[i] for i in primes[0]) for g in I.gens)
            same = _symbolic_power_cached(I.n, primes, k).gens == I.gens
            expected.append((primes, k) if same else None)

        def refuse(*args):
            raise AssertionError("radical or fold built")

        monkeypatch.setattr(monomial, "_symbolic_power_cached", refuse)
        monkeypatch.setattr(MonomialIdeal, "from_generators", refuse)
        assert [I.prime_structure() for I in ideals] == expected
        assert all(e == (I.minimal_primes(), 1)
                   for I, e in zip(ideals, expected))


class TestSymbolicPowerBoxCorner:
    """The exponent box of I^(k), for a squarefree I, has corner k on the
    support of I and 0 elsewhere; the Takayama engine reads it off the
    minimal primes and k."""

    def test_corner_is_k_on_the_support(self):
        cases = [(I, k) for I in corpus() for k in range(1, 5)]
        cases += [(graph(n), k) for graph, sizes in
                  ((cycle, range(4, 11)), (path, range(4, 8)))
                  for n in sizes for k in range(1, 4)]
        for I, k in cases:
            used = {i for g in I.gens for i, a in enumerate(g) if a}
            assert I.symbolic_power(k).generator_degree_bounds() == \
                tuple(k if i in used else 0 for i in range(I.n))


class TestSymbolicContains:
    def triangle(self):
        return ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)

    def test_squarefree_product_in_second_power(self):
        assert self.triangle().symbolic_contains(2, (1, 1, 1))

    def test_not_in_third_power(self):
        assert not self.triangle().symbolic_contains(3, (1, 1, 1))

    def test_generators_in_first_power(self):
        I = self.triangle()
        assert all(I.symbolic_contains(1, g) for g in I.gens)

    def test_zeroth_power_rejected(self):
        with pytest.raises(ValueError,
                           match="symbolic power exponent must be >= 1"):
            self.triangle().symbolic_contains(0, (1, 1, 1))


class TestRandomizedProperties:
    def test_symbolic_contains_matches_expansion(self):
        rng = random.Random(11)
        for _ in range(25):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            k = rng.randint(1, 4)
            Ik = I.symbolic_power(k)
            for _ in range(20):
                u = random_monomial(rng, I.n, k + 1)
                assert I.symbolic_contains(k, u) == Ik.contains(u)

    def test_ordinary_inside_symbolic(self):
        rng = random.Random(12)
        for _ in range(25):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            k = rng.randint(1, 3)
            for g in I.power(k).gens:
                assert I.symbolic_contains(k, g)

    def test_power_membership_biconditional(self):
        # u in I^(m) iff u^(k+1) in I^(km+j), for m-k <= j <= m
        rng = random.Random(13)
        for _ in range(25):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            m, k = rng.randint(1, 3), rng.randint(1, 3)
            u = random_monomial(rng, I.n, m + 1)
            for j in range(m - k, m + 1):
                if k * m + j < 1:
                    continue
                assert I.symbolic_contains(m, u) == \
                    I.symbolic_contains(k * m + j, pow_exp(u, k + 1))

    def test_localization_transfer_under_powering(self):
        rng = random.Random(14)
        for _ in range(10):
            I = random_squarefree_ideal(rng, 3)
            m, k = rng.randint(1, 2), rng.randint(1, 2)
            Im = I.symbolic_power(m)
            for j in range(m - k, m + 1):
                if k * m + j < 1:
                    continue
                J = I.symbolic_power(k * m + j)
                for _ in range(10):
                    u = random_monomial(rng, 3, m + 1)
                    for f_mask in range(8):
                        F = {i for i in range(3) if f_mask >> i & 1}
                        assert localized_contains(Im, u, F) == \
                            localized_contains(J, pow_exp(u, k + 1), F)

    def test_colon_distributes_over_intersection(self):
        rng = random.Random(15)
        for _ in range(25):
            n = rng.randint(2, 4)
            I = random_squarefree_ideal(rng, n)
            J = random_squarefree_ideal(rng, n)
            u = random_monomial(rng, n, 2)
            assert intersect(I, J).colon(u) == intersect(I.colon(u), J.colon(u))


def brute_force_box_divisors(gens, corner):
    return [(c, sum(1 << j for j, g in enumerate(gens) if divides(g, c)))
            for c in itertools.product(*(range(b + 1) for b in corner))]


class TestBoxDivisors:
    def test_against_brute_force(self):
        rng = random.Random(51)
        for _ in range(200):
            n = rng.randint(1, 5)
            gens = [tuple(rng.randint(0, 2) for _ in range(n))
                    for _ in range(rng.randint(0, 6))]  # zero coordinates too
            corner = [max((g[i] for g in gens), default=0) + rng.randint(0, 1)
                      for i in range(n)]
            assert box_divisors(gens, corner, "test") == \
                brute_force_box_divisors(gens, corner)

    def test_product_order(self):
        cells = box_divisors([(1, 0, 2), (0, 1, 1)], (1, 1, 2), "test")
        assert [c for c, _ in cells] == list(
            itertools.product(range(2), range(2), range(3)))

    def test_one_point_box(self):
        assert box_divisors([(0, 0, 0)], (0, 0, 0), "test") == [((0, 0, 0), 1)]
        assert box_divisors([], (0, 0), "test") == [((0, 0), 0)]
        assert box_divisors([], (), "test") == [((), 0)]

    def test_empty_generator_list(self):
        assert box_divisors([], (1, 2), "test") == [
            (c, 0) for c in itertools.product(range(2), range(3))]

    def test_limit(self):
        assert len(box_divisors([(1,) * 14], (1,) * 14, "test")) == MAX_BOX_POINTS
        at_limit = box_divisors([], (MAX_BOX_POINTS - 1,), "test")
        assert len(at_limit) == MAX_BOX_POINTS
        with pytest.raises(BudgetExceeded) as exc:
            box_divisors([], (MAX_BOX_POINTS,), "some")
        assert str(exc.value) == (f"some box has {MAX_BOX_POINTS + 1} points, "
                                  f"above the limit of {MAX_BOX_POINTS}")

    def test_limit_raises_before_enumerating(self, monkeypatch):
        monomial = importlib.import_module("symdepth.monomial")

        def unreachable(gens, bounds):
            raise AssertionError("the box was enumerated")

        monkeypatch.setattr(monomial, "divisor_masks", unreachable)
        over = MonomialIdeal(1, ((MAX_BOX_POINTS,),))
        limit = f"box has {MAX_BOX_POINTS + 1} points, above the limit of 16384"
        with pytest.raises(BudgetExceeded) as exc:
            symdepth.betti_table(over)
        assert str(exc.value) == "Betti lcm " + limit
        with pytest.raises(BudgetExceeded) as exc:
            symdepth.characteristic_poset(over, "ideal")
        assert str(exc.value) == "characteristic poset " + limit
        with pytest.raises(BudgetExceeded):
            enlarged_poset(ideal([(1, 1, 0)], 3), "quotient",
                           (MAX_BOX_POINTS,) * 3)

    def test_one_exception_class(self):
        sdepth_module = importlib.import_module("symdepth.sdepth")
        cli = importlib.import_module("symdepth.cli")
        assert symdepth.BudgetExceeded is BudgetExceeded
        assert sdepth_module.BudgetExceeded is BudgetExceeded
        assert cli.BudgetExceeded is BudgetExceeded


def _tree(module):
    """The syntax tree of a module's source."""
    path = importlib.import_module(f"symdepth.{module}").__file__
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _imports(module):
    """(level, module name) of every import statement in a module's source."""
    found = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
        elif isinstance(node, ast.Import):
            found.extend((0, alias.name) for alias in node.names)
    return found


class TestPublicSurface:
    def test_all_lists_the_re_exported_names(self):
        # no submodule, and nothing beyond what the package re-exports
        assert symdepth.__all__ == [
            "BettiTable", "BudgetExceeded", "CharacteristicPoset",
            "CheckResult", "DegreePair", "DepthWitness", "EngineDisagreement",
            "HomologyProfile", "INFINITY", "Interval", "IntervalPartition",
            "MatroidReport", "MonomialIdeal", "SdepthResult",
            "SequenceReport", "SimplicialComplex", "StabilityReport",
            "analyze_stability", "betti_table", "characteristic_poset",
            "complex_of_ideal", "depth", "depth_via_betti",
            "depth_via_takayama", "matroid_report", "sdepth",
            "sdepth_at_least", "sequence", "split_by_variable",
            "takayama_complex", "unit_ideal",
            "upper_koszul_complex", "verify_colon_identity",
            "verify_depth_comparison", "verify_power_membership",
            "verify_sdepth_comparison", "verify_splitting_bound",
            "zero_ideal",
        ]
        assert len(symdepth.__all__) == 38


class TestLayering:
    def test_depth_engines_do_not_import_sdepth(self):
        for module in ("depth", "monomial"):
            assert all("sdepth" not in name for _, name in _imports(module))

    def test_monomial_imports_nothing_from_the_package(self):
        for level, name in _imports("monomial"):
            assert level == 0 and name.split(".")[0] != "symdepth"

    def test_every_imported_name_is_used(self):
        # __init__ imports to re-export; every other module uses each name
        # it imports (__future__ features aside)
        modules = [info.name for info in pkgutil.iter_modules(symdepth.__path__)]
        assert "depth" in modules and "__init__" not in modules
        for module in modules:
            tree = _tree(module)
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = (alias.asname or alias.name).split(".")[0]
                        assert name in used, f"{module} imports {name} unused"

    def test_every_private_helper_is_reached(self):
        # a module-level _name of src must be reached from the public names
        # and module-level code, so that a helper left behind by a refactor
        # fails here, also when it only calls another such helper
        def referenced(node):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    yield sub.id
                elif isinstance(sub, ast.Attribute):
                    yield sub.attr
                elif isinstance(sub, ast.ImportFrom):
                    yield from (alias.name for alias in sub.names)

        with open(symdepth.__file__, encoding="utf-8") as fh:
            statements = ast.parse(fh.read()).body
        for info in pkgutil.iter_modules(symdepth.__path__):
            statements += _tree(info.name).body
        private, reached = {}, set()
        for node in statements:
            names = [node.name] if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else [
                t.id for t in getattr(node, "targets", ())
                if isinstance(t, ast.Name)]
            helpers = [n for n in names
                       if n.startswith("_") and not n.startswith("__")]
            for name in helpers:
                private.setdefault(name, []).append(node)
            if not helpers:
                reached.update(referenced(node))
        todo = list(reached & private.keys())
        while todo:
            for node in private[todo.pop()]:
                for name in set(referenced(node)) - reached:
                    reached.add(name)
                    if name in private:
                        todo.append(name)
        assert sorted(private.keys() - reached) == []


class TestJsonTextRoundTrip:
    def test_json(self):
        from symdepth.formats import ideal_from_json, ideal_to_json
        I = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        assert ideal_from_json(ideal_to_json(I)) == I

    def test_text(self):
        from symdepth.formats import ideal_from_text
        I = ideal([(2, 0, 1), (0, 1, 0)], 3)
        assert ideal_from_text(ideal_to_text(I)) == I

    def test_text_parse(self):
        from symdepth.formats import ideal_from_text
        I = ideal_from_text("n=3\nx1*x2\nx2*x3\n")
        assert I == ideal([(1, 1, 0), (0, 1, 1)], 3)

    def test_json_rejects_non_integers(self):
        from symdepth.formats import ideal_from_json
        for bad in (
            '{"n": 2, "generators": [[1.7, 0], [0, 1]]}',
            '{"n": 2, "generators": [[1.0, 0]]}',
            '{"n": 2, "generators": [["1", 0]]}',
            '{"n": 2, "generators": [[true, 0]]}',
            '{"n": 2.0, "generators": [[1, 0]]}',
            '{"n": "2", "generators": [[1, 0]]}',
            '{"n": 2, "generators": [1, 0]}',
        ):
            with pytest.raises(ValueError):
                ideal_from_json(bad)

    def test_json_integers_load_unchanged(self):
        from symdepth.formats import ideal_from_json
        I = ideal_from_json('{"n": 2, "generators": [[2, 0], [0, 1], [3, 1]]}')
        assert I == ideal([(2, 0), (0, 1)], 2)

    def test_complex_json_rejects_non_integer_vertices(self):
        from symdepth.formats import complex_from_json
        with pytest.raises(ValueError):
            complex_from_json('{"n": 3, "facets": [[1.5, 2]]}')

    def test_unit_text_round_trip(self):
        from symdepth.formats import ideal_from_text
        assert ideal_from_text(ideal_to_text(unit_ideal(2))).is_unit
