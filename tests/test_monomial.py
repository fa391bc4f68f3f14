import random

import pytest

from symdepth import MonomialIdeal, unit_ideal, zero_ideal
from symdepth.monomial import mul_exp, pow_exp

from _corpus import (
    corpus,
    cycle,
    non_squarefree_corpus,
    random_monomial,
    random_squarefree_ideal,
)


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
        assert ideal([(1, 1)], 2).localized_contains((0, 0), {0, 1})

    def test_partial_localization(self):
        I = ideal([(1, 1)], 2)
        assert not I.localized_contains((0, 0), {0})
        assert I.localized_contains((0, 1), {0})


class TestIntersect:
    def test_principal(self):
        assert ideal([(1, 0)], 2).intersect(ideal([(0, 1)], 2)).gens == ((1, 1),)

    def test_idempotent(self):
        I = ideal([(1, 0), (0, 1)], 2)
        assert I.intersect(I) == I

    def test_three_prime_squares(self):
        # brute-force minimal solutions of a+b>=2, a+c>=2, b+c>=2
        p = lambda *vs: ideal(vs, 3)
        a = p((2, 0, 0), (1, 1, 0), (0, 2, 0))
        b = p((2, 0, 0), (1, 0, 1), (0, 0, 2))
        c = p((0, 2, 0), (0, 1, 1), (0, 0, 2))
        result = a.intersect(b).intersect(c)
        assert result.gens == (
            (1, 1, 1), (0, 2, 2), (2, 0, 2), (2, 2, 0),
        )


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


class TestHeightDim:
    def test_triangle(self):
        I = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        assert (I.height(), I.bight(), I.krull_dim_quotient()) == (2, 2, 1)

    def test_principal(self):
        I = ideal([(1, 1, 1)], 3)
        assert (I.height(), I.bight(), I.krull_dim_quotient()) == (1, 1, 2)


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
                    expected = expected.intersect(P.power(k))
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
        folded = folded.intersect(P)
    return folded


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
                        assert Im.localized_contains(u, F) == \
                            J.localized_contains(pow_exp(u, k + 1), F)

    def test_colon_distributes_over_intersection(self):
        rng = random.Random(15)
        for _ in range(25):
            n = rng.randint(2, 4)
            I = random_squarefree_ideal(rng, n)
            J = random_squarefree_ideal(rng, n)
            u = random_monomial(rng, n, 2)
            assert I.intersect(J).colon(u) == I.colon(u).intersect(J.colon(u))


class TestJsonTextRoundTrip:
    def test_json(self):
        from symdepth.formats import ideal_from_json, ideal_to_json
        I = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
        assert ideal_from_json(ideal_to_json(I)) == I

    def test_text(self):
        from symdepth.formats import ideal_from_text, ideal_to_text
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
        from symdepth.formats import ideal_from_text, ideal_to_text
        assert ideal_from_text(ideal_to_text(unit_ideal(2))).is_unit
