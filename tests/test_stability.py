import importlib
import random

import pytest

from symdepth import (
    INFINITY,
    MonomialIdeal,
    SimplicialComplex,
    analyze_stability,
    depth,
    matroid_report,
    sequence,
    verify_colon_identity,
    verify_depth_comparison,
    verify_power_membership,
    verify_sdepth_comparison,
    verify_splitting_bound,
)

from symdepth.stability import _bight_bound
from _corpus import corpus, cycle, path, random_squarefree_ideal


def ideal(gens, n):
    return MonomialIdeal.from_generators(gens, n)


TRIANGLE = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)
MAXIMAL3 = ideal([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
PATH = ideal([(1, 1, 0), (0, 1, 1)], 3)


class TestSequence:
    def test_triangle_depth(self):
        report = sequence(TRIANGLE, "depth", 3)
        assert report.values == (1, 1, 1)

    def test_maximal_depth_floor(self):
        assert sequence(MAXIMAL3, "depth", 3).values == (0, 0, 0)

    def test_triangle_sdepth_quotient(self):
        assert sequence(TRIANGLE, "sdepth_quotient", 2).values == (1, 1)

    def test_triangle_sdepth_ideal(self):
        assert sequence(TRIANGLE, "sdepth_ideal", 2).values == (2, 2)

    def test_bad_quantity(self):
        with pytest.raises(ValueError):
            sequence(TRIANGLE, "regularity", 2)

    def test_bad_kmax(self):
        with pytest.raises(ValueError):
            sequence(TRIANGLE, "depth", 0)

    @pytest.mark.parametrize("quantity", ["sdepth_ideal", "sdepth_quotient"])
    def test_bad_char_without_homology(self, quantity):
        with pytest.raises(ValueError, match="characteristic"):
            sequence(TRIANGLE, quantity, 1, char=4)
        with pytest.raises(ValueError, match="characteristic"):
            analyze_stability(TRIANGLE, quantity, 1, char=4)

    def test_to_dict(self):
        d = sequence(TRIANGLE, "depth", 2).to_dict()
        assert d == {"quantity": "depth", "kmax": 2, "values": [1, 1],
                     "char": 0, "engine": "cross_check"}


class TestDepthValuesOfEachEngine:
    """sequence and analyze read depth S/I^(k) off the minimal primes on
    the Takayama path; their values are depth on the folded powers."""

    @pytest.mark.parametrize("engine", ["takayama", "betti", "cross_check"])
    def test_values_equal_depth_of_the_folded_powers(self, engine):
        ideals = corpus()[:40] + [cycle(6), path(6), ideal([(1, 0, 1)], 3)]
        for I in ideals:
            for char in (0, 2):
                expected = tuple(depth(I.symbolic_power(k), engine, char).depth
                                 for k in (1, 2, 3))
                assert sequence(I, "depth", 3, engine, char).values == \
                    expected
                report = analyze_stability(I, "depth", 3, engine, char)
                assert report.values == expected


class TestAnalyze:
    def test_triangle_matroid_certified(self):
        report = analyze_stability(TRIANGLE, "depth", 3)
        assert report.window_min == 1
        assert report.first_attainment == 1
        assert report.square_bound == 1
        assert report.certified
        assert report.certification_rule == "matroid"
        assert report.ell_s_estimate == 2
        assert "for all k >= 1" in report.tail_guarantee

    def test_matroid_rule_reads_only_the_facets(self, monkeypatch):
        # (x1, ..., x4) in 20 variables: one facet, 2^16 faces
        def no_faces(self):
            raise AssertionError("the matroid rule enumerated faces")

        monkeypatch.setattr(SimplicialComplex, "face_masks", no_faces)
        I = ideal([tuple(int(i == j) for i in range(20)) for j in range(4)],
                  20)
        report = analyze_stability(I, "depth", 1, engine="takayama")
        assert report.values == (16,)
        assert report.certification_rule == "matroid"

    def test_floor_certified(self):
        report = analyze_stability(MAXIMAL3, "depth", 2)
        assert report.window_min == 0
        assert report.certified
        assert report.certification_rule == "floor"
        assert report.ell_s_estimate == 3

    def test_principal_certified(self):
        I = ideal([(1, 1, 1)], 3)
        report = analyze_stability(I, "sdepth_ideal", 2)
        assert report.certified
        assert report.certification_rule == "principal"
        assert report.window_min == 3

    def test_path_uncertified(self):
        report = analyze_stability(PATH, "depth", 2)
        assert not report.certified
        assert report.certification_rule == "upper bound for the limit"
        assert report.ell_s_estimate is None
        assert "values[k] <=" in report.tail_guarantee

    def test_square_bound_formula(self):
        # first attainment at t gives the bound max(1, t^2 - t)
        report = analyze_stability(PATH, "sdepth_quotient", 3)
        t = report.first_attainment
        assert report.square_bound == max(1, t * t - t)

    def test_bight_bound_only_for_depth(self):
        # the triangle: 3 * 4 * 2^(3/2) = 33.94..., reported as 34
        assert analyze_stability(TRIANGLE, "depth", 2).bight_bound == 34
        assert analyze_stability(TRIANGLE, "sdepth_ideal", 2).bight_bound is None

    def test_bight_bound_past_the_float_range(self):
        # an int every time, also past the float range, where n (n + 1)
        # bight^(n/2) overflows or the float would round
        assert _bight_bound(5, 3) == 468  # 467.65...
        assert _bight_bound(4, 4) == 320  # a perfect square: no rounding up
        assert _bight_bound(130, 130) == 130 * 131 * 130 ** 65
        assert _bight_bound(300, 300) == 300 * 301 * 300 ** 150
        for n, b in ((3, 2), (5, 3), (7, 2), (130, 129), (253, 251),
                     (301, 301)):
            bound = _bight_bound(n, b)
            assert isinstance(bound, int)
            assert (bound - 1) ** 2 < (n * (n + 1)) ** 2 * b ** n <= bound ** 2

    def test_window_min_consistent_with_sequence(self):
        rng = random.Random(51)
        for _ in range(8):
            I = random_squarefree_ideal(rng, 3)
            report = analyze_stability(I, "depth", 3)
            vals = sequence(I, "depth", 3).values
            assert report.values == vals
            assert report.window_min == min(vals)
            assert report.first_attainment == vals.index(min(vals)) + 1


class TestVerifyDepth:
    def test_triangle_passes(self):
        result = verify_depth_comparison(TRIANGLE, 2, 2)
        assert result.passed
        assert result.name == "depsym"
        js = [row["j"] for row in result.comparisons]
        assert js == [0, 1, 2]

    def test_small_m_skips_nonpositive_powers(self):
        result = verify_depth_comparison(MAXIMAL3, 1, 2)
        assert result.passed
        # j ranges over -1..1 but km+j must stay >= 1
        assert [row["j"] for row in result.comparisons] == [-1, 0, 1]
        assert all(2 * 1 + row["j"] >= 1 for row in result.comparisons)

    def test_random_corpus_passes(self):
        rng = random.Random(52)
        for _ in range(10):
            I = random_squarefree_ideal(rng, 3)
            m, k = rng.randint(1, 2), rng.randint(1, 2)
            assert verify_depth_comparison(I, m, k).passed

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            verify_depth_comparison(TRIANGLE, 0, 1)

    def test_each_power_takes_one_engine_call(self, monkeypatch):
        # at m = 1 the lhs power I^(1) is also the row k m + j = 1
        stability = importlib.import_module("symdepth.stability")
        engine = stability._symbolic_depth
        powers = []

        def counted(ideal, k, engine_name, char):
            powers.append((ideal, k, engine_name))
            return engine(ideal, k, engine_name, char)

        monkeypatch.setattr(stability, "_symbolic_depth", counted)
        P4 = path(4)
        result = verify_depth_comparison(P4, 1, 2)
        assert powers == [(P4, t, "takayama") for t in (1, 2, 3)]
        assert result.comparisons == tuple(
            {"m": 1, "k": 2, "j": j, "lhs": 2, "rhs": rhs, "ok": True}
            for j, rhs in ((-1, 2), (0, 1), (1, 1)))


class TestVerifySdepth:
    def test_triangle_passes(self):
        result = verify_sdepth_comparison(TRIANGLE, 2, 1)
        assert result.passed
        kinds = {row["kind"] for row in result.comparisons}
        assert kinds == {"ideal", "quotient"}

    def test_result_dict(self):
        d = verify_sdepth_comparison(TRIANGLE, 1, 1).to_dict()
        assert d["check"] == "sdepsym"
        assert d["result"] == "PASS"
        assert "counterexample" not in d

    def test_each_power_takes_one_search_per_kind(self, monkeypatch):
        stability = importlib.import_module("symdepth.stability")
        search = stability.sdepth
        calls = []

        def counted(power, kind, node_budget):
            calls.append((kind, power))
            return search(power, kind, node_budget)

        monkeypatch.setattr(stability, "sdepth", counted)
        P5 = path(5)
        result = verify_sdepth_comparison(P5, 1, 1)
        assert calls == [(kind, P5.symbolic_power(t))
                         for kind in ("ideal", "quotient") for t in (1, 2)]
        assert result.comparisons == tuple(
            {"kind": kind, "m": 1, "k": 1, "j": j, "lhs": lhs, "rhs": rhs,
             "ok": True}
            for kind, lhs, rhs_by_j in (("ideal", 4, (4, 3)),
                                        ("quotient", 2, (2, 2)))
            for j, rhs in zip((0, 1), rhs_by_j))

    def test_random_corpus_passes(self):
        rng = random.Random(53)
        for _ in range(8):
            I = random_squarefree_ideal(rng, 3)
            assert verify_sdepth_comparison(I, rng.randint(1, 2), 1).passed


class TestVerifyPowerMembership:
    def test_triangle_passes(self):
        result = verify_power_membership(TRIANGLE, 2, 2, samples=50, seed=7)
        assert result.passed
        assert len(result.comparisons) == 50 * 3

    def test_deterministic_given_seed(self):
        a = verify_power_membership(PATH, 1, 2, samples=20, seed=3)
        b = verify_power_membership(PATH, 1, 2, samples=20, seed=3)
        assert a.comparisons == b.comparisons

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            verify_power_membership(TRIANGLE, 1, 1, samples=0)

    @pytest.mark.parametrize("m, k", [(0, 1), (1, 0)])
    def test_nonpositive_m_or_k_rejected(self, m, k):
        with pytest.raises(ValueError, match="m and k must be >= 1"):
            verify_power_membership(TRIANGLE, m, k)

    def test_random_corpus_passes(self):
        rng = random.Random(54)
        for _ in range(10):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            m, k = rng.randint(1, 3), rng.randint(1, 3)
            assert verify_power_membership(I, m, k, samples=30, seed=rng.random()).passed


class TestVerifyColon:
    def test_triangle_passes(self):
        result = verify_colon_identity(TRIANGLE, 5)
        assert result.passed
        assert [row["k"] for row in result.comparisons] == [1, 2, 3, 4, 5]
        assert all(row["height"] == 2 for row in result.comparisons)

    def test_maximal_passes(self):
        assert verify_colon_identity(MAXIMAL3, 7).passed

    def test_mixed_ideal_rejected(self):
        # (x1x3, x2x3) has minimal primes (x3) and (x1, x2) of heights 1, 2
        mixed = ideal([(1, 0, 1), (0, 1, 1)], 3)
        with pytest.raises(ValueError):
            verify_colon_identity(mixed, 2)

    def test_bad_kmax(self):
        with pytest.raises(ValueError, match="kmax"):
            verify_colon_identity(TRIANGLE, 0)

    def test_random_unmixed_corpus(self):
        rng = random.Random(55)
        seen = 0
        while seen < 8:
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            if not I.is_unmixed():
                continue
            seen += 1
            assert verify_colon_identity(I, 2 * I.height() + 1).passed


class TestVerifySplitting:
    def test_triangle_each_variable(self):
        for v in range(3):
            assert verify_splitting_bound(TRIANGLE, variable=v).passed

    def test_random_corpus(self):
        rng = random.Random(56)
        for _ in range(12):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            assert verify_splitting_bound(I, variable=rng.randrange(I.n)).passed

    def test_zero_ideal_rejected(self):
        from symdepth import zero_ideal
        with pytest.raises(ValueError):
            verify_splitting_bound(zero_ideal(2))


class TestMatroidReport:
    def test_hollow_triangle(self):
        delta = SimplicialComplex.from_facets(3, [(0, 1), (0, 2), (1, 2)])
        report = matroid_report(delta, 3)
        assert report.all_claims_hold
        assert report.dim == 1
        assert report.ell_s == 1
        for row in report.rows:
            assert row["depth"] == 2
            assert row["cohen_macaulay"]
            assert row["sdepth_quotient"] == 2
            assert row["sdepth_ideal"] == 3

    def test_isolated_vertices(self):
        delta = SimplicialComplex.from_facets(3, [(0,), (1,), (2,)])
        report = matroid_report(delta, 2)
        assert report.all_claims_hold
        assert report.ell_s == 2
        assert all(row["depth"] == 1 for row in report.rows)

    def test_degenerate_simplex(self):
        delta = SimplicialComplex.from_facets(3, [(0, 1, 2)])
        report = matroid_report(delta, 2)
        assert report.degenerate
        assert report.all_claims_hold
        assert all(row["sdepth_ideal"] == "infinity" for row in report.rows)
        assert all(row["depth"] == 3 for row in report.rows)

    def test_degenerate_simplex_checks_char(self):
        delta = SimplicialComplex.from_facets(3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="characteristic"):
            matroid_report(delta, 1, char=4)

    def test_non_matroid_rejected(self):
        delta = SimplicialComplex.from_facets(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            matroid_report(delta, 1)

    def test_bad_kmax(self):
        delta = SimplicialComplex.from_facets(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ValueError, match="kmax"):
            matroid_report(delta, 0)

    def test_to_dict(self):
        delta = SimplicialComplex.from_facets(3, [(0,), (1,), (2,)])
        d = matroid_report(delta, 1).to_dict()
        assert d["all_claims_hold"] is True
        assert d["n"] == 3 and d["dim"] == 0 and d["ell_s"] == 2


class TestConstantDepthWhenCohenMacaulayPersists:
    def test_matroid_sequences_are_constant(self):
        # symbolic powers of matroidal Stanley-Reisner ideals keep their
        # depth from the first power on
        for facets in ([(0, 1), (0, 2), (1, 2)], [(0,), (1,), (2,)]):
            delta = SimplicialComplex.from_facets(3, facets)
            I = delta.stanley_reisner_ideal()
            vals = sequence(I, "depth", 4).values
            assert len(set(vals)) == 1
