import collections
import functools
import importlib
import itertools
import random

import pytest

from symdepth import (
    BudgetExceeded,
    DegreePair,
    EngineDisagreement,
    MonomialIdeal,
    betti_table,
    depth,
    depth_via_betti,
    depth_via_takayama,
    sequence,
    takayama_complex,
    unit_ideal,
    upper_koszul_complex,
    zero_ideal,
)
from symdepth.complexes import (
    SimplicialComplex,
    _reduce_to_facets,
    homology_dims,
    mask_of,
    submasks,
    vertices_of,
)
from symdepth.depth import BettiTable, DepthWitness
from symdepth.homology import check_char
from symdepth.monomial import MAX_BOX_POINTS
from symdepth.monomial import (box_divisors, check_exponents, divides,
                               divisor_masks, support)

from _corpus import (
    RP2_FACETS,
    corpus,
    corpus_pairs,
    cycle,
    non_squarefree_corpus,
    path,
    random_monomial,
    random_squarefree_ideal,
)
from _reference import (join, k_polynomial, lcm_exp, localized_contains,
                        polarize, prime_power_complexes)


def ideal(gens, n):
    return MonomialIdeal.from_generators(gens, n)


TRIANGLE = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)


class TestTakayamaComplex:
    def test_edge_at_origin_gives_two_points(self):
        c = takayama_complex(ideal([(1, 1)], 2), DegreePair((0, 0), frozenset()))
        assert c == SimplicialComplex.from_facets(2, [(0,), (1,)])
        assert c.reduced_homology().dims == ((0, 1),)

    def test_void_when_monomial_already_inside(self):
        c = takayama_complex(ideal([(1, 1)], 2), DegreePair((1, 1), frozenset()))
        assert c.is_void

    def test_empty_complex_with_cosupport(self):
        c = takayama_complex(ideal([(1, 1)], 2), DegreePair((0, 0), frozenset({0})))
        assert c.facets == (0,)

    def test_cosupport_must_be_disjoint(self):
        with pytest.raises(ValueError):
            DegreePair((1, 0), frozenset({0}))


class TestDepthViaTakayama:
    def test_edge(self):
        w = depth_via_takayama(ideal([(1, 1)], 2))
        assert w.depth == 1
        assert w.alpha_plus == (0, 0)
        assert w.cosupport == ()
        assert w.homology_index == 0

    def test_maximal_ideal(self):
        w = depth_via_takayama(ideal([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
        assert w.depth == 0

    def test_triangle(self):
        assert depth_via_takayama(TRIANGLE).depth == 1

    def test_zero_ideal_convention(self):
        assert depth_via_takayama(zero_ideal(4)).depth == 4

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            depth_via_takayama(unit_ideal(2))


class TestUpperKoszul:
    def test_edge_generator_degree(self):
        c = upper_koszul_complex(ideal([(1, 1)], 2), (1, 1))
        assert c.facets == (0,)
        assert c.reduced_homology().dims == ((-1, 1),)

    def test_generator_degree_records_syzygy_start(self):
        I = ideal([(1, 1, 0), (0, 1, 1)], 3)
        for g in I.gens:
            assert upper_koszul_complex(I, g).reduced_homology().dim(-1) >= 1

    def test_unit_ideal_origin(self):
        c = upper_koszul_complex(unit_ideal(2), (0, 0))
        assert c.facets == (0,)

    def test_degree_outside_box_rejected(self):
        with pytest.raises(ValueError):
            upper_koszul_complex(ideal([(1, 1)], 2), (2, 1))


class TestBettiTable:
    def test_triangle(self):
        table = betti_table(TRIANGLE)
        assert table.total() == {0: 1, 1: 3, 2: 2}
        assert table.projective_dimension() == 2

    def test_principal(self):
        table = betti_table(ideal([(1, 1)], 2))
        assert table.total() == {0: 1, 1: 1}

    def test_complete_intersection(self):
        table = betti_table(ideal([(1, 0), (0, 1)], 2))
        assert table.total() == {0: 1, 1: 2, 2: 1}

    def test_koszul_resolution_of_maximal_ideal(self):
        from math import comb
        n = 4
        gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        table = betti_table(ideal(gens, n))
        assert table.total() == {i: comb(n, i) for i in range(n + 1)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_ideal(self, n):
        # no generator is tight anywhere, so the walk adds nothing
        assert betti_table(zero_ideal(n)).entries == ((0, (0,) * n, 1),)

    def test_box_limit(self):
        # (x1^a): the lcm box has a + 1 points, the same limit as sdepth's
        at_limit = MonomialIdeal(1, ((MAX_BOX_POINTS - 1,),))
        assert betti_table(at_limit).total() == {0: 1, 1: 1}
        over = MonomialIdeal(1, ((MAX_BOX_POINTS,),))
        with pytest.raises(BudgetExceeded,
                           match=f"lcm box has {MAX_BOX_POINTS + 1} points"):
            betti_table(over)


def reference_betti_table(ideal, char=0):
    """The membership-based scan: an upper Koszul complex from 2^|supp
    alpha| membership tests at every box point in the ideal."""
    check_char(char)
    if ideal.is_unit:
        raise ValueError("Betti table of the zero module is undefined")
    n = ideal.n
    entries = {(0, (0,) * n): 1}
    if not ideal.is_zero:
        member = _membership_test(ideal)
        box = ideal.generator_degree_bounds()
        for alpha in itertools.product(*(range(b + 1) for b in box)):
            if not member(alpha):
                continue  # void Koszul complex, no contribution
            facets = _koszul_complex(n, member, alpha).facets
            for h, dim in homology_dims(facets, char).items():
                key = (h + 2, alpha)
                entries[key] = entries.get(key, 0) + dim
    return BettiTable(
        n, tuple(sorted((i, a, v) for (i, a), v in entries.items()))
    )


def _koszul_complex(n, member, alpha):
    faces = [
        f for f in submasks(mask_of(support(alpha)))
        if member(_subtract_mask(alpha, f))
    ]
    return SimplicialComplex.from_face_masks(n, faces)


def _subtract_mask(alpha, mask):
    return tuple(a - (mask >> i & 1) for i, a in enumerate(alpha))


def _membership_test(ideal):
    structure = ideal.prime_structure()
    if structure is None:
        return lambda u: ideal.contains(u)
    primes, k = structure
    prime_vars = [sorted(p) for p in primes]

    def member(u):
        return all(a >= 0 for a in u) and all(
            sum(u[i] for i in vs) >= k for vs in prime_vars
        )

    return member


def reference_lattice_betti_table(ideal, char=0):
    """The full-box lattice scan: every point of monomial.box_divisors,
    the lcm-lattice test, and one slack mask per dividing generator.  It
    takes homology through the engine's memo, so a test that patches
    depth._homology_dims sees its calls."""
    check_char(char)
    if ideal.is_unit:
        raise ValueError("Betti table of the zero module is undefined")
    n = ideal.n
    entries = {(0, (0,) * n): 1}
    if not ideal.is_zero:
        engine = importlib.import_module("symdepth.depth")
        for alpha, slack in _reference_lattice(ideal):
            facets = SimplicialComplex.from_face_masks(n, slack).facets
            for h, dim in engine._homology_dims(facets, char).items():
                key = (h + 2, alpha)
                entries[key] = entries.get(key, 0) + dim
    return BettiTable(
        n, tuple(sorted((i, a, v) for (i, a), v in entries.items()))
    )


def _reference_lattice(ideal):
    """(alpha, slack masks of the dividing generators) at each lcm-lattice
    point of the box, in box order."""
    gens = ideal.gens
    box = ideal.generator_degree_bounds()
    exactly = divisor_masks(gens, box)[0]
    for alpha, divisors in box_divisors(gens, box, "Betti lcm"):
        if not divisors or not all(
            divisors & exactly[i][a] for i, a in enumerate(alpha)
        ):
            continue  # void complex, or a cone off the lcm lattice
        yield alpha, [
            mask_of(i for i, (a, b) in enumerate(zip(g, alpha)) if a < b)
            for j, g in enumerate(gens) if divisors >> j & 1
        ]


class TestBettiScanReference:
    def test_symbolic_powers_of_corpus(self):
        for I in corpus():
            for k in (1, 2, 3):
                J = I.symbolic_power(k)
                for char in (0, 2):
                    table = betti_table(J, char)
                    assert table == reference_betti_table(J, char)
                    assert table == reference_lattice_betti_table(J, char)

    def test_non_squarefree_ideals(self):
        rng = random.Random(38)
        for _ in range(150):
            n = rng.randint(2, 4)
            gens = [random_monomial(rng, n, 3) for _ in range(rng.randint(1, 5))]
            I = ideal(gens, n)
            if I.is_unit:
                continue
            for char in (0, 2, 3):
                table = betti_table(I, char)
                assert table == reference_betti_table(I, char)
                assert table == reference_lattice_betti_table(I, char)

    def test_one_variable_ideals(self):
        # (x^a): the first coordinate is also the last
        for a in range(1, 5):
            I = MonomialIdeal(1, ((a,),))
            for char in (0, 2, 3):
                table = betti_table(I, char)
                assert table == reference_betti_table(I, char)
                assert table == reference_lattice_betti_table(I, char)


ANCHORS = {"C6^(3)": (cycle(6), 3), "C7^(2)": (cycle(7), 2),
           "P7^(2)": (path(7), 2)}


class TestLatticeWalk:
    """betti_table walks only the box prefixes that can reach an
    lcm-lattice point; reference_lattice_betti_table scans the whole box."""

    @pytest.mark.parametrize("name", ANCHORS)
    def test_anchors_match_both_references(self, name):
        I, k = ANCHORS[name]
        J = I.symbolic_power(k)
        for char in (0, 2):
            table = betti_table(J, char)
            assert table == reference_lattice_betti_table(J, char)
            assert table == reference_betti_table(J, char)

    @pytest.mark.parametrize("name", ["C6^(3)", "C7^(2)"])
    def test_homology_calls_match_the_full_box_scan(self, monkeypatch, name):
        engine = importlib.import_module("symdepth.depth")
        memo = engine._homology_dims
        calls = []

        def recorded(facets, char):
            calls.append((facets, char))
            return memo(facets, char)

        monkeypatch.setattr(engine, "_homology_dims", recorded)
        I, k = ANCHORS[name]
        J = I.symbolic_power(k)
        for char in (0, 2):
            betti_table(J, char)
        walked = calls[:]
        calls.clear()
        for char in (0, 2):
            reference_lattice_betti_table(J, char)
        assert walked == calls

    def test_one_upper_koszul_complex_per_lattice_point(self, monkeypatch):
        engine = importlib.import_module("symdepth.depth")
        memo = engine._homology_dims
        passed = []  # the facets the walk takes homology on

        def recorded(facets, char):
            passed.append(facets)
            return memo(facets, char)

        rng = random.Random(18)
        ideals = [I.symbolic_power(k) for I in rng.sample(corpus(), 40)
                  for k in (1, 2, 3)]
        ideals += [I.symbolic_power(k) for I, k in ANCHORS.values()]
        counts = []
        for J in ideals:
            passed.clear()
            monkeypatch.setattr(engine, "_homology_dims", recorded)
            betti_table(J)
            monkeypatch.undo()
            expected = [upper_koszul_complex(J, alpha).facets
                        for alpha, _ in _reference_lattice(J)]
            assert passed == expected, J
            counts.append(len(passed))
        # C6^(3), C7^(2), P7^(2): lattice points of 4,096, 2,187, 2,187
        assert counts[-len(ANCHORS):] == [1414, 702, 405]


class TestLcmLattice:
    def test_betti_degrees_are_lcms_of_their_divisors(self):
        for I in corpus():
            for k in (1, 2):
                J = I.symbolic_power(k)
                for i, alpha, _ in betti_table(J).entries:
                    if i > 0:
                        divisors = [g for g in J.gens if divides(g, alpha)]
                        assert functools.reduce(lcm_exp, divisors) == alpha

    def test_upper_koszul_complex_off_the_lattice_is_a_cone(self):
        for I in corpus():
            for k in (1, 2):
                J = I.symbolic_power(k)
                box = J.generator_degree_bounds()
                for alpha in itertools.product(*(range(b + 1) for b in box)):
                    divisors = [g for g in J.gens if divides(g, alpha)]
                    if divisors and functools.reduce(lcm_exp, divisors) != alpha:
                        facets = upper_koszul_complex(J, alpha).facets
                        assert functools.reduce(int.__and__, facets)

    def test_cycle_8_symbolic_square(self, monkeypatch):
        J = cycle(8).symbolic_power(2)
        engine = importlib.import_module("symdepth.depth")
        memo = engine._homology_dims
        passed = []

        def recorded(facets, char):
            passed.append(facets)
            return memo(facets, char)

        monkeypatch.setattr(engine, "_homology_dims", recorded)
        table = betti_table(J)
        # one complex per lcm-lattice point of the 6561-point box
        assert len(passed) == 1828
        assert table.total() == {0: 1, 1: 36, 2: 112, 3: 148, 4: 95, 5: 24}
        assert len({alpha for i, alpha, _ in table.entries if i > 0}) == 393
        assert depth_via_betti(J).depth == 3


def _moved(u, perm):
    """The exponent vector with variable i renamed to perm[i]."""
    out = [0] * len(u)
    for i, a in enumerate(u):
        out[perm[i]] = a
    return tuple(out)


class TestMetamorphic:
    def test_permuting_variables(self):
        rng = random.Random(41)
        for I in rng.sample(corpus(), 50):
            perm = rng.sample(range(I.n), I.n)
            P = ideal([_moved(g, perm) for g in I.gens], I.n)
            for k in (1, 2):
                J, Q = I.symbolic_power(k), P.symbolic_power(k)
                moved = sorted(
                    (i, _moved(a, perm), v) for i, a, v in betti_table(J).entries
                )
                assert list(betti_table(Q).entries) == moved
                for engine in ("takayama", "betti"):
                    assert depth(Q, engine).depth == depth(J, engine).depth

    def test_free_variable(self):
        rng = random.Random(42)
        for I in rng.sample(corpus(), 50):
            F = ideal([g + (0,) for g in I.gens], I.n + 1)
            for k in (1, 2):
                J, G = I.symbolic_power(k), F.symbolic_power(k)
                padded = [(i, a + (0,), v) for i, a, v in betti_table(J).entries]
                assert list(betti_table(G).entries) == padded
                for engine in ("takayama", "betti"):
                    assert depth(G, engine).depth == depth(J, engine).depth + 1


def complete_intersection(d):
    """(x1 y1, ..., xd yd) in 2d variables, x_i and y_i adjacent."""
    return ideal([tuple(int(j // 2 == i) for j in range(2 * d))
                  for i in range(d)], 2 * d)


class TestKnownAnswers:
    """Relations with a theorem behind them, a third oracle beside the two
    engines."""

    def test_polarization_keeps_the_projective_dimension(self):
        # depth S/I = depth S'/I^pol - (n' - n): I^(2) and the
        # non-squarefree inputs take the prime-power or the generic path,
        # their squarefree polarizations the k = 1 path
        inputs = ([I.symbolic_power(2) for I in corpus()[:40]]
                  + non_squarefree_corpus()[:30])
        for J in inputs:
            P = polarize(J)
            assert P.is_squarefree and P.n >= J.n
            for engine in ("takayama", "betti"):
                assert depth(P, engine).depth - (P.n - J.n) == \
                    depth(J, engine).depth, (J, engine)

    def test_complete_intersections_are_cohen_macaulay(self):
        # I^(k) = I^k, and S/I^k is Cohen-Macaulay of dimension d for
        # every k; the Betti lcm box of d = 4, k = 3 is past the box limit
        for d, kmax in ((1, 3), (2, 3), (3, 3), (4, 2)):
            I = complete_intersection(d)
            for k in range(1, kmax + 1):
                assert I.symbolic_power(k) == I.power(k)
            for engine in ("takayama", "betti"):
                values = sequence(I, "depth", kmax, engine).values
                assert values == (d,) * kmax

    def test_kunneth_depth_adds(self):
        # S/(I + J) = A/I (x) B/J for I and J in disjoint variables, so
        # depth S/(I + J) = depth A/I + depth B/J
        for I, J in corpus_pairs():
            for engine in ("takayama", "betti"):
                assert depth(join(I, J), engine).depth == \
                    depth(I, engine).depth + depth(J, engine).depth, \
                    (I, J, engine)

    def test_kunneth_betti_table_is_the_convolution(self):
        # the tensor product of the minimal free resolutions of A/I and
        # B/J is a minimal free resolution of S/(I + J)
        for I, J in corpus_pairs():
            expected = {}
            for p, alpha, a in betti_table(I).entries:
                for q, beta, b in betti_table(J).entries:
                    key = (p + q, alpha + beta)
                    expected[key] = expected.get(key, 0) + a * b
            assert {(i, alpha): value for i, alpha, value
                    in betti_table(join(I, J)).entries} == expected, (I, J)


def _alternating_sum(table):
    """The sum of (-1)^i beta_(i, alpha) x^alpha over the Betti table."""
    out = collections.Counter()
    for i, alpha, value in table.entries:
        out[alpha] += (-1) ** i * value
    return {alpha: c for alpha, c in out.items() if c}


class TestKPolynomial:
    """The alternating sum of the Betti table is the K-polynomial of S/I,
    which tests/_reference.py computes by the colon recursion, with no
    resolution, complex or rank."""

    def test_known_polynomials(self):
        assert k_polynomial(zero_ideal(2)) == {(0, 0): 1}
        assert k_polynomial(unit_ideal(2)) == {}
        assert k_polynomial(ideal([(2, 1)], 2)) == {(0, 0): 1, (2, 1): -1}
        assert k_polynomial(TRIANGLE) == {
            (0, 0, 0): 1, (1, 1, 0): -1, (1, 0, 1): -1, (0, 1, 1): -1,
            (1, 1, 1): 2}

    @pytest.mark.parametrize("char", [0, 2])
    def test_betti_tables_of_the_corpus_and_of_graphs(self, char):
        ideals = [I.symbolic_power(k) for I in corpus() for k in (1, 2)]
        ideals += [cycle(6).symbolic_power(3), path(7).symbolic_power(2),
                   cycle(7).symbolic_power(2), cycle(8).symbolic_power(2)]
        for J in ideals:
            assert _alternating_sum(betti_table(J, char)) == k_polynomial(J)


class TestDepthViaBetti:
    def test_triangle(self):
        assert depth_via_betti(TRIANGLE).depth == 1

    def test_maximal_ideal(self):
        gens = [tuple(1 if j == i else 0 for j in range(3)) for i in range(3)]
        assert depth_via_betti(ideal(gens, 3)).depth == 0

    def test_zero_ideal(self):
        assert depth_via_betti(zero_ideal(5)).depth == 5

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError, match="^depth of the zero module"):
            depth_via_betti(unit_ideal(3))
        with pytest.raises(ValueError, match="^Betti table of the zero"):
            betti_table(unit_ideal(3))


class TestCrossCheck:
    def test_triangle(self):
        assert depth(TRIANGLE, "cross_check").depth == 1

    def test_symbolic_square_of_triangle(self):
        assert depth(TRIANGLE.symbolic_power(2), "cross_check").depth == 1

    def test_principal_powers_in_two_variables(self):
        I = ideal([(1, 1)], 2)
        for k in (1, 2, 3, 4):
            assert depth(I.power(k), "cross_check").depth == 1

    @pytest.mark.parametrize("char", [1, 4, 6, -2, True, 2.0])
    def test_char_must_be_zero_or_prime(self, char):
        for compute in (
            lambda: depth(TRIANGLE, "cross_check", char),
            lambda: depth_via_takayama(TRIANGLE, char),
            lambda: depth_via_betti(TRIANGLE, char),
            lambda: betti_table(TRIANGLE, char),
        ):
            with pytest.raises(ValueError, match="characteristic"):
                compute()

    @pytest.mark.parametrize("engine", ["takayama", "betti", "cross_check"])
    def test_projective_plane_is_cohen_macaulay_only_off_char_2(self, engine):
        # Reisner: the Stanley-Reisner ring of the 6-vertex RP^2 is
        # Cohen-Macaulay (depth 3 = dim) over Q but has depth 2 over GF(2)
        I = SimplicialComplex.from_facets(6, RP2_FACETS).stanley_reisner_ideal()
        assert depth(I, engine, 0).depth == 3
        assert depth(I, engine, 2).depth == 2
        assert depth(I, engine, 3).depth == 3

    def test_prime_char_accepted(self):
        for char in (2, 3, 5, 7):
            assert depth(TRIANGLE, "cross_check", char).depth == 1

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            depth(TRIANGLE, "magic")

    def test_disagreement_type_carries_witnesses(self):
        from symdepth.depth import DepthWitness
        a = DepthWitness(depth=1, engine="takayama", char=0)
        b = DepthWitness(depth=2, engine="betti", char=0)
        exc = EngineDisagreement(a, b)
        assert exc.witness_a.depth == 1 and exc.witness_b.depth == 2


def reference_takayama_complex(ideal, pair):
    """The subset scan: the localization sets F (disjoint from the
    cosupport) that fail to absorb x^alpha_plus, each of the 2^|free|
    subsets tested by the membership definition."""
    alpha = check_exponents(pair.alpha_plus, ideal.n)
    cos_mask = mask_of(pair.cosupport)
    free_mask = ((1 << ideal.n) - 1) & ~cos_mask
    faces = [
        f for f in submasks(free_mask)
        if not localized_contains(ideal, alpha, vertices_of(f | cos_mask))
    ]
    return SimplicialComplex.from_face_masks(ideal.n, faces)


def reference_takayama_witness(ideal, char=0):
    """The generic Takayama scan: reference_takayama_complex at every
    cosupport and every alpha of the box, whatever the ideal's form."""
    n = ideal.n
    rho = ideal.generator_degree_bounds()
    best = None  # (depth, cosupport, alpha_plus, homology index)
    for csize in range(n + 1):
        if best is not None and best[0] <= csize:
            break
        for cosupport in itertools.combinations(range(n), csize):
            ranges = [range(1) if j in cosupport else range(max(rho[j], 1))
                      for j in range(n)]
            for alpha in itertools.product(*ranges):
                pair = DegreePair(alpha, frozenset(cosupport))
                dims = reference_takayama_complex(ideal, pair).reduced_homology(
                    char).dims
                if dims and (best is None or dims[0][0] + csize + 1 < best[0]):
                    best = (dims[0][0] + csize + 1, cosupport, alpha, dims[0][0])
    i, cosupport, alpha, h_index = best
    return DepthWitness(depth=i, engine="takayama", char=char, alpha_plus=alpha,
                        cosupport=cosupport, homology_index=h_index)


_reference_homology_dims = functools.lru_cache(maxsize=None)(homology_dims)


def reference_depth_via_takayama(ideal, char=0):
    """The full box scan: with a prime-power form, the short primes are
    read off the exponent sums at every alpha of the box, however often
    the sums repeat; otherwise reference_takayama_complex at every alpha."""
    n = ideal.n
    if ideal.is_zero:
        return DepthWitness(depth=n, engine="takayama", char=char)
    rho = ideal.generator_degree_bounds()
    structure = ideal.prime_structure()
    if structure is not None:
        primes, k = structure
        prime_masks = [mask_of(p) for p in primes]
        prime_vars = [sorted(p) for p in primes]
    best = None  # (i, csize, cosupport tuple, alpha_plus, homology index)
    full_mask = (1 << n) - 1
    for csize in range(0, n + 1):
        if best is not None and best[0] <= csize:
            break
        for cosupport in itertools.combinations(range(n), csize):
            cos_mask = mask_of(cosupport)
            free_mask = full_mask & ~cos_mask
            ranges = [
                range(max(rho[j], 1)) if not cos_mask >> j & 1 else range(1)
                for j in range(n)
            ]
            for alpha in itertools.product(*ranges):
                if structure is not None:
                    sums = [sum(alpha[i] for i in vs) for vs in prime_vars]
                    facets = _reduce_to_facets(
                        free_mask & ~p_mask for p_mask, s in zip(prime_masks, sums)
                        if s < k and not p_mask & cos_mask
                    )
                else:
                    pair = DegreePair(alpha, frozenset(cosupport))
                    facets = reference_takayama_complex(ideal, pair).facets
                dims = _reference_homology_dims(facets, char)
                if not dims:
                    continue
                i = min(dims) + csize + 1
                if best is None or i < best[0]:
                    best = (i, csize, cosupport, alpha, i - csize - 1)
    i, _, cosupport, alpha, h_index = best
    return DepthWitness(depth=i, engine="takayama", char=char, alpha_plus=alpha,
                        cosupport=cosupport, homology_index=h_index)


def _ordinary_power_plus_x1_5():
    """C6^3 + (x1^5): an ordinary power with no prime-power form."""
    cube = cycle(6).power(3)
    return ideal(cube.gens + ((5, 0, 0, 0, 0, 0),), 6)


def _builder_pairs():
    """The 3,000 seeded (ideal, pair) draws of
    test_builder_matches_subset_scan, in the same order."""
    rng = random.Random(47)
    for _ in range(3000):
        n = rng.randint(1, 6)
        shape = rng.randrange(10)
        if shape == 0:
            I = zero_ideal(n)
        elif shape == 1:
            I = unit_ideal(n)
        else:
            I = ideal([random_monomial(rng, n, 3)
                       for _ in range(rng.randint(1, 6))], n)
        if rng.randrange(5):
            G = frozenset(j for j in range(n) if not rng.randrange(3))
        else:
            G = frozenset(range(n))
        alpha = tuple(0 if j in G else rng.randint(0, 4) for j in range(n))
        yield I, DegreePair(alpha, G)


def reference_principal_witness(ideal, char=0):
    """The former one-generator shortcut: (x^a) has depth n - 1, with
    alpha_plus = 0, the cosupport outside supp(a) and the boundary of the
    simplex on supp(a) as the witness complex."""
    n = ideal.n
    supp = support(ideal.gens[0])
    return DepthWitness(
        depth=n - 1, engine="takayama", char=char, alpha_plus=(0,) * n,
        cosupport=tuple(j for j in range(n) if j not in supp),
        homology_index=len(supp) - 2,
    )


class TestGenericPath:
    """Ideals without a prime-power form, and principal ideals, take the
    Alexander dual of the Takayama complex at every multidegree; it is
    checked against takayama_complex, which is checked against the subset
    scan, and the scan stops at the first multidegree whose index is its
    cosupport size or n - mu(I)."""

    def test_builder_matches_subset_scan(self):
        rng = random.Random(47)
        seen = set()
        for _ in range(3000):
            n = rng.randint(1, 6)
            shape = rng.randrange(10)
            if shape == 0:
                I = zero_ideal(n)
            elif shape == 1:
                I = unit_ideal(n)
            else:
                I = ideal([random_monomial(rng, n, 3)
                           for _ in range(rng.randint(1, 6))], n)
            if rng.randrange(5):
                G = frozenset(j for j in range(n) if not rng.randrange(3))
            else:
                G = frozenset(range(n))
            # exponents up to 4: past the box of every generator
            alpha = tuple(0 if j in G else rng.randint(0, 4) for j in range(n))
            pair = DegreePair(alpha, G)
            built = takayama_complex(I, pair)
            assert built == reference_takayama_complex(I, pair), (I, pair)
            seen.add("void" if built.is_void else
                     "empty" if built.facets == (0,) else "other")
        assert seen == {"void", "empty", "other"}

    def test_generic_path_takes_no_membership_test(self, monkeypatch):
        J = _ordinary_power_plus_x1_5()
        assert J.prime_structure() is None

        # neither the library's membership tests nor the builder that
        # witnesses are checked against: the subset scan by the membership
        # definition (_reference.localized_contains) is the tests' alone
        engine = importlib.import_module("symdepth.depth")

        def refuse(*args):
            raise AssertionError("membership test on the generic path")

        monkeypatch.setattr(MonomialIdeal, "contains", refuse)
        monkeypatch.setattr(engine, "divides", refuse)
        monkeypatch.setattr(engine, "takayama_complex", refuse)
        witness = depth_via_takayama(J)
        assert witness.to_dict() == {
            "depth": 1, "engine": "takayama", "char": 0,
            "alpha_plus": [0, 0, 1, 2, 1, 0], "cosupport": [],
            "homology_index": 0,
        }

    def test_path_yields_the_alexander_dual(self):
        # at the builder's pairs the path yields () exactly where the built
        # complex is void, and otherwise the facets of its Alexander dual in
        # V, the vertices outside G: the complements in V of the non-faces.
        # H_j of the complex is H_(|V|-j-3) of the dual.  The zero ideal,
        # whose complex is the full simplex with a void dual, never takes
        # the path.
        engine = importlib.import_module("symdepth.depth")
        seen = set()
        for I, pair in _builder_pairs():
            if I.is_zero:
                continue
            box = tuple(a + 1 for a in pair.alpha_plus)  # alpha comes last
            cosupport = tuple(sorted(pair.cosupport))
            (alpha, facets), = collections.deque(engine._generic_complexes(
                I, box, mask_of(cosupport)), maxlen=1)
            assert alpha == pair.alpha_plus
            built = takayama_complex(I, pair)
            faces = built.face_masks()
            free_mask = ((1 << I.n) - 1) & ~mask_of(cosupport)
            dual = () if built.is_void else _reduce_to_facets(
                free_mask & ~f for f in submasks(free_mask) if f not in faces)
            assert facets == dual
            size = I.n - len(cosupport)
            for char in (0, 2):
                flipped = {size - 3 - j: d
                           for j, d in homology_dims(facets, char).items()}
                assert dict(built.reduced_homology(char).dims) == flipped
            seen.add("void" if not facets else
                     "empty dual" if facets == (0,) else "other")
        assert seen == {"void", "empty dual", "other"}

    def test_generic_path_builds_no_complex(self, monkeypatch):
        engine = importlib.import_module("symdepth.depth")

        def refuse(*args):
            raise AssertionError("complex built on the generic path")

        for name in ("takayama_complex", "complex_of_ideal", "DegreePair",
                     "SimplicialComplex"):
            monkeypatch.setattr(engine, name, refuse)
        witness = depth_via_takayama(_ordinary_power_plus_x1_5())
        assert witness.to_dict() == {
            "depth": 1, "engine": "takayama", "char": 0,
            "alpha_plus": [0, 0, 1, 2, 1, 0], "cosupport": [],
            "homology_index": 0,
        }

    def test_ideals_without_a_prime_power_form(self):
        rng = random.Random(49)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 5)
            I = ideal([random_monomial(rng, n, 2)
                       for _ in range(rng.randint(2, 5))], n)
            if I.is_unit or I.prime_structure() is not None:
                continue
            checked += 1
            for char in (0, 3):
                _assert_same_witness(I, char)

    def test_principal_ideals_match_the_former_shortcut(self):
        rng = random.Random(48)
        for _ in range(200):
            n = rng.randint(1, 7)
            g = random_monomial(rng, n, rng.choice((1, 3)))
            if not any(g):
                continue
            I = ideal([g], n)
            for char in (0, 3):
                assert depth_via_takayama(I, char) == \
                    reference_principal_witness(I, char)

    @pytest.mark.parametrize("n, a", [(40, 1), (30, 2)])
    def test_principal_ideal_takes_one_homology_call(self, monkeypatch, n,
                                                     a):
        # the first complex is the boundary of the simplex on all n
        # vertices; its dual is {emptyset}, and the index n - 1 meets the
        # Taylor bound n - mu(I)
        engine = importlib.import_module("symdepth.depth")
        calls = []

        def counted(facets, char):
            calls.append(facets)
            return homology_dims(facets, char)

        monkeypatch.setattr(engine, "_homology_dims", counted)
        J = ideal([(a,) * n], n)
        assert depth_via_takayama(J) == reference_principal_witness(J)
        assert calls == [(0,)]

    def test_stop_rule_on_cycle_5_cube(self, monkeypatch):
        # the witness has index 0 at the empty cosupport, so nothing after
        # it is scanned: 122 homology calls, against 243 for the whole box
        engine = importlib.import_module("symdepth.depth")
        memo = functools.lru_cache(maxsize=None)(homology_dims)
        calls = []

        def counted(facets, char):
            calls.append(1)
            return memo(facets, char)

        monkeypatch.setattr(engine, "_homology_dims", counted)
        J = cycle(5).power(3)
        witness = depth_via_takayama(J)
        assert len(calls) == 122
        assert witness.depth == 0 and witness.cosupport == ()
        assert witness == reference_depth_via_takayama(J)

    @pytest.mark.parametrize("char", [0, 2])
    def test_ordinary_powers(self, char):
        for J in (cycle(5).power(2), cycle(5).power(3), cycle(7).power(2),
                  _ordinary_power_plus_x1_5()):
            _assert_same_witness(J, char)


def _spread(u, slots, m):
    """The exponent vector in m variables with variable i moved to
    slots[i]; the variables outside slots are free."""
    out = [0] * m
    for i, a in zip(slots, u):
        out[i] = a
    return tuple(out)


def _short_prime_complexes(prime_masks, k, rho, cos_mask):
    """(alpha_plus, facets) at a cosupport for the first degree of the box,
    in scan order, of each set of short primes: its facets are those
    _reduce_to_facets makes of the complements of the short primes, which
    the prime-power path sorts without reducing."""
    first = {}
    for alpha in itertools.product(*(
        range(1) if cos_mask >> j & 1 else range(max(r, 1))
        for j, r in enumerate(rho)
    )):
        short = tuple(
            p for p in prime_masks if not p & cos_mask
            and sum(a for j, a in enumerate(alpha) if p >> j & 1) < k
        )
        first.setdefault(short, alpha)
    free_mask = ((1 << len(rho)) - 1) & ~cos_mask
    return [(alpha, _reduce_to_facets(free_mask & ~p for p in short))
            for short, alpha in first.items()]


def _assert_same_witness(ideal, char):
    assert depth_via_takayama(ideal, char).to_dict() == \
        reference_depth_via_takayama(ideal, char).to_dict()


class TestTakayamaBoxScanReference:
    def test_symbolic_powers_of_corpus(self):
        for I in corpus():
            for k in (1, 2, 3):
                for char in (0, 2):
                    _assert_same_witness(I.symbolic_power(k), char)

    def test_non_squarefree_ideals(self):
        for J in non_squarefree_corpus():
            for char in (0, 2):
                _assert_same_witness(J, char)

    @pytest.mark.parametrize("n", [8, 10])
    def test_cycles(self, n):
        for k in (1, 2):
            for char in (0, 2):
                _assert_same_witness(cycle(n).symbolic_power(k), char)

    def test_capped_sums_reached_by_several_degrees(self):
        # the witness's capped prime sums are reached by more than one
        # degree of the box, so only the lex-first one matches the scan
        J = ideal([(0, 0, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0),
                   (1, 0, 1, 0, 0, 0)], 6).symbolic_power(3)
        for char in (0, 2):
            _assert_same_witness(J, char)
        assert depth_via_takayama(J).alpha_plus == (1, 0, 1, 1, 0, 0)

    def test_first_degree_of_each_short_prime_set(self):
        # at every cosupport that passes the cover test: the first degree
        # of the box, in scan order, for each set of short primes, and
        # nothing else; at the others, nothing
        engine = importlib.import_module("symdepth.depth")
        for I in random.Random(44).sample(corpus(), 30):
            J = I.symbolic_power(3)
            primes, k = J.prime_structure()
            masks = [mask_of(p) for p in primes]
            rho = J.generator_degree_bounds()
            for cos_mask in range(1 << I.n):
                kept = engine._prime_power_complexes(masks, k, rho, cos_mask)
                assert list(kept) == (
                    [] if _uncovered(masks, I.n, cos_mask) else
                    _short_prime_complexes(masks, k, rho, cos_mask))

    def test_principal_ideals(self):
        # the generic path against the reference scan, which finds the
        # same witness at the cosupport outside the generator's support
        rng = random.Random(39)
        for _ in range(60):
            n = rng.randint(1, 7)
            g = random_monomial(rng, n, 3 if n <= 4 else 2)
            if not any(g):
                continue
            for char in (0, 2):
                _assert_same_witness(ideal([g], n), char)

    def test_facet_reductions_on_cycle_10_square(self, monkeypatch):
        engine = importlib.import_module("symdepth.depth")
        scan = engine._prime_power_complexes
        reduced = []
        complexes = []

        def counted(masks):
            reduced.append(1)
            return _reduce_to_facets(masks)

        def recorded(*args):
            for alpha, facets in scan(*args):
                complexes.append(facets)
                yield alpha, facets

        monkeypatch.setattr(engine, "_reduce_to_facets", counted)
        monkeypatch.setattr(engine, "_prime_power_complexes", recorded)
        witness = depth_via_takayama(cycle(10).symbolic_power(2))
        # one complex per distinct short-prime set at the cosupports of
        # size 0 and 1: the witness at () has index 3, so the scan ends
        # before size 2, whose 25 cosupports that pass the cover test took
        # 290 more (the box scan made one per multidegree, 17,664).  The
        # complements of the short primes are already the facets, so none
        # is reduced
        assert len(complexes) == 774
        assert not reduced
        assert witness.depth == 3

    def test_homology_calls_on_cycle_10_square(self, monkeypatch):
        engine = importlib.import_module("symdepth.depth")
        complexes = importlib.import_module("symdepth.complexes")
        raw = complexes.reduced_homology_from_faces
        calls = []

        def counted(faces, char):
            calls.append(1)
            return raw(faces, char)

        # a fresh memo, so that the count does not depend on earlier tests
        monkeypatch.setattr(engine, "_homology_dims",
                            functools.lru_cache(maxsize=None)(homology_dims))
        monkeypatch.setattr(complexes, "reduced_homology_from_faces", counted)
        witness = depth_via_takayama(cycle(10).symbolic_power(2))
        # this counts work: ranks are taken only on strong-collapse cores
        # that are not a single vertex (on the raw facets there were 377
        # such calls), and the one void complex of C10^(2) no longer
        # reaches the rank code (it took one call more).  Past the witness
        # of index 3 at (), the scan ends before size 2 (25 calls more) and
        # at size 1 only disconnected complexes reach homology (20 more)
        assert len(calls) == 11
        assert witness.depth == 3

    def test_free_variables(self):
        # corpus ideals with free variables put among the others: the scan
        # takes only cosupports that hold every free variable, in the order
        # of the full scan
        rng = random.Random(46)
        for I in rng.sample(corpus(), 40) + rng.sample(non_squarefree_corpus(), 20):
            m = I.n + rng.randint(1, 2)
            slots = sorted(rng.sample(range(m), I.n))
            F = ideal([_spread(g, slots, m) for g in I.gens], m)
            powers = [F.symbolic_power(k) for k in (1, 2)] if I.is_squarefree else [F]
            for J in powers:
                for char in (0, 2):
                    _assert_same_witness(J, char)
        # a witness cosupport with a free variable below one in a
        # generator: the path x4 - x2 - x1 - x3 spread to x2, x3, x5, x6
        P = ideal([(0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)], 4)
        F = ideal([_spread(g, [1, 2, 4, 5], 6) for g in P.gens], 6)
        for J in (F, F.symbolic_power(2)):
            for char in (0, 2):
                _assert_same_witness(J, char)
        assert depth_via_takayama(F).cosupport == (0, 3, 4)

    def test_free_variables_take_no_scan(self, monkeypatch):
        # (x1 x2, x2 x3) in 40 variables: the witness is at the first
        # cosupport that holds the 37 free variables, the only one scanned
        engine = importlib.import_module("symdepth.depth")
        scanned = engine._prime_power_complexes
        cosupports = []

        def counted(prime_masks, k, rho, cos_mask):
            cosupports.append(cos_mask)
            assert len(cosupports) < 10, "scanned a cosupport without a free variable"
            return scanned(prime_masks, k, rho, cos_mask)

        monkeypatch.setattr(engine, "_prime_power_complexes", counted)
        J = ideal([(1, 1) + (0,) * 38, (0, 1, 1) + (0,) * 37], 40)
        witness = depth_via_takayama(J)
        assert witness.depth == 38
        assert witness.cosupport == tuple(range(3, 40))
        assert cosupports == [mask_of(range(3, 40))]


class TestCappedWalk:
    """The prime-power walk caps each deficit at 1 from the last vertex of
    its prime on, and keeps no second pass for the sets of short primes.
    Its stream is that of the walk keyed on whole deficit vectors
    (_reference.prime_power_complexes) at every cosupport, and so are its
    witnesses at powers past those the box scan reaches."""

    @staticmethod
    def _slice():
        yield from ((I, k) for I in corpus() for k in (2, 3, 4))
        for graph, sizes in ((cycle, range(4, 9)), (path, range(4, 8))):
            yield from ((graph(n), k) for n in sizes for k in (2, 3, 4))
        for graph in (cycle, path):
            yield from ((graph(n), k) for n in range(4, 7) for k in (5, 6))
        yield from ((cycle(n), 2) for n in (9, 10))

    def test_stream_equals_the_reference_walk(self):
        engine = importlib.import_module("symdepth.depth")
        streams = 0
        for I, k in self._slice():
            masks = [mask_of(p) for p in I.minimal_primes()]
            rho = tuple(k * any(p >> j & 1 for p in masks)
                        for j in range(I.n))
            for cos_mask in range(1 << I.n):
                walked = engine._prime_power_complexes(masks, k, rho, cos_mask)
                assert list(walked) == list(prime_power_complexes(
                    masks, k, rho, cos_mask)), (I.gens, k, cos_mask)
                streams += 1
        assert streams == 13240  # over 641 (ideal, k) pairs

    @pytest.mark.parametrize("graph, n, values", [
        (path, 7, (3, 2, 2, 2, 1, 1, 1, 1)), (cycle, 6, (2, 2, 2, 1, 1, 1)),
    ])
    def test_witnesses_at_high_powers(self, monkeypatch, graph, n, values):
        engine = importlib.import_module("symdepth.depth")
        I, powers = graph(n), range(1, len(values) + 1)
        walked = [engine._symbolic_depth(I, k, "takayama", 0) for k in powers]
        assert tuple(w.depth for w in walked) == values
        assert [w.depth for w in walked[:3]] == [
            engine._symbolic_depth(I, k, "betti", 0).depth for k in (1, 2, 3)]
        monkeypatch.setattr(engine, "_prime_power_complexes",
                            prime_power_complexes)
        # every field: depth, alpha_plus, cosupport, homology_index
        assert walked == [engine._symbolic_depth(I, k, "takayama", 0)
                          for k in powers]


class TestSymbolicDepth:
    """The private front end for depth S/I^(k): the Takayama engine reads
    I^(k) off the minimal primes of I and k, and finds the witness that
    depth_via_takayama finds on the folded power."""

    @staticmethod
    def _assert_same(I, k, char):
        engine = importlib.import_module("symdepth.depth")
        # every field: depth, alpha_plus, cosupport, homology_index
        assert engine._symbolic_depth(I, k, "takayama", char) == \
            depth_via_takayama(I.symbolic_power(k), char)

    def test_corpus_in_characteristics_0_and_2(self):
        for I in corpus()[:120]:
            for k in (1, 2, 3):
                for char in (0, 2):
                    self._assert_same(I, k, char)

    @pytest.mark.parametrize("graph, sizes, kmax", [
        (cycle, range(4, 11), 2), (path, range(4, 8), 3),
    ])
    def test_cycles_and_paths(self, graph, sizes, kmax):
        for n in sizes:
            for k in range(1, kmax + 1):
                self._assert_same(graph(n), k, 0)

    def test_takayama_builds_no_power(self, monkeypatch):
        engine = importlib.import_module("symdepth.depth")
        I = cycle(8)
        expected = depth_via_takayama(I.symbolic_power(3))

        def refuse(*args):
            raise AssertionError("symbolic power built")

        monkeypatch.setattr(MonomialIdeal, "symbolic_power", refuse)
        monkeypatch.setattr(MonomialIdeal, "prime_structure", refuse)
        assert engine._symbolic_depth(I, 3, "takayama", 0) == expected

    @pytest.mark.parametrize("engine_name",
                             ["takayama", "betti", "cross_check"])
    def test_principal_ideals_take_the_fold(self, monkeypatch, engine_name):
        engine = importlib.import_module("symdepth.depth")
        fold = MonomialIdeal.symbolic_power
        built = []

        def counted(self, k):
            built.append(k)
            return fold(self, k)

        def refuse(*args):
            raise AssertionError("prime-power scan of a principal ideal")

        monkeypatch.setattr(MonomialIdeal, "symbolic_power", counted)
        monkeypatch.setattr(engine, "_prime_power_depth", refuse)
        I = ideal([(1, 1, 0, 1)], 4)
        for k in (1, 2, 3):
            assert engine._symbolic_depth(I, k, engine_name, 0) == \
                depth(fold(I, k), engine_name, 0)
        assert built == [1, 2, 3]

    def test_disagreement_and_bad_arguments(self, monkeypatch):
        engine = importlib.import_module("symdepth.depth")
        with pytest.raises(ValueError, match="unknown depth engine"):
            engine._symbolic_depth(TRIANGLE, 2, "fastest", 0)
        with pytest.raises(ValueError, match="characteristic"):
            engine._symbolic_depth(TRIANGLE, 2, "takayama", 4)
        with pytest.raises(ValueError, match="squarefree"):
            engine._symbolic_depth(ideal([(2, 0), (0, 1)], 2), 2,
                                   "takayama", 4)
        betti = DepthWitness(3, "betti", 0, betti_index=0,
                             betti_degree=(0, 0, 0))
        monkeypatch.setattr(engine, "depth_via_betti", lambda J, char: betti)
        with pytest.raises(EngineDisagreement):
            engine._symbolic_depth(TRIANGLE, 2, "cross_check", 0)


def _uncovered(prime_masks, n, cos_mask):
    """Whether a vertex outside the cosupport lies in no prime missing it."""
    reach = 0
    for p in prime_masks:
        if not p & cos_mask:
            reach |= p
    return bool(((1 << n) - 1) & ~cos_mask & ~reach)


class TestCoverTest:
    """On the prime-power path a cosupport with a vertex outside it in no
    live prime yields no complex: every complex there is a cone or void.
    The corpus witnesses are compared in TestTakayamaBoxScanReference."""

    @staticmethod
    def _assert_scanned(monkeypatch, J, visited, skipped):
        engine = importlib.import_module("symdepth.depth")
        scan = engine._prime_power_complexes
        scanned = []  # the cosupports at which the walk yields

        def counted(prime_masks, k, rho, cos_mask):
            kept = list(scan(prime_masks, k, rho, cos_mask))
            if kept:
                scanned.append(cos_mask)
            return kept

        monkeypatch.setattr(engine, "_prime_power_complexes", counted)
        witness = depth_via_takayama(J)
        assert witness.to_dict() == reference_depth_via_takayama(J).to_dict()
        # the scan stops before the cosupports of size witness.depth - 1:
        # none of them beats an index one above its size
        masks = [mask_of(p) for p in J.prime_structure()[0]]
        reached = [mask_of(G) for size in range(witness.depth - 1)
                   for G in itertools.combinations(range(J.n), size)]
        assert len(reached) == visited
        assert scanned == [G for G in reached
                           if not _uncovered(masks, J.n, G)]
        assert len(reached) - len(scanned) == skipped

    @pytest.mark.parametrize("n, k, visited, skipped", [
        (8, 1, 9, 0), (8, 2, 9, 0), (10, 1, 11, 0), (10, 2, 11, 0),
    ])
    def test_skipped_cosupports_on_cycles(self, monkeypatch, n, k, visited,
                                          skipped):
        self._assert_scanned(monkeypatch, cycle(n).symbolic_power(k),
                             visited, skipped)

    @pytest.mark.parametrize("n, k, visited, skipped", [
        (7, 1, 8, 2), (8, 2, 9, 2),
    ])
    def test_skipped_cosupports_on_paths(self, monkeypatch, n, k, visited,
                                         skipped):
        # below the level where the cycles stop, each of their cosupports
        # passes the cover test; the paths skip two
        self._assert_scanned(monkeypatch, path(n).symbolic_power(k),
                             visited, skipped)

    def test_skipped_cosupports_are_acyclic_on_the_corpus(self):
        engine = importlib.import_module("symdepth.depth")
        skipped = 0
        for I in corpus():
            for k in (1, 2):
                J = I.symbolic_power(k)
                primes, _ = J.prime_structure()
                masks = [mask_of(p) for p in primes]
                rho = J.generator_degree_bounds()
                for cos_mask in range(1 << I.n):
                    if not _uncovered(masks, I.n, cos_mask):
                        continue
                    skipped += 1
                    assert not list(engine._prime_power_complexes(
                        masks, k, rho, cos_mask))
                    for _, facets in _short_prime_complexes(
                            masks, k, rho, cos_mask):
                        assert homology_dims(facets, 0) == {}
        # of the 2^n cosupports of each power of the fixed corpus
        assert skipped == 4180


class TestWitnessBound:
    """On the prime-power path a witness of index b leaves a cosupport of
    size c only homology in degree <= b - c - 2 to beat it: none at
    c = b - 1, and only degree 0 (a disconnected complex) at c = b - 2."""

    def test_disconnected_matches_low_homology_on_the_corpus(self):
        engine = importlib.import_module("symdepth.depth")
        seen = collections.Counter()
        for I in corpus():
            for k in (1, 2, 3):
                J = I.symbolic_power(k)
                primes, _ = J.prime_structure()
                masks = [mask_of(p) for p in primes]
                rho = J.generator_degree_bounds()
                for cos_mask in range(1 << I.n):
                    for _, facets in engine._prime_power_complexes(
                            masks, k, rho, cos_mask):
                        low = engine._disconnected(facets)
                        for char in (0, 2):
                            dims = homology_dims(facets, char)
                            assert low == (-1 in dims or 0 in dims), facets
                        seen["void" if not facets else "empty"
                             if facets == (0,) else str(low)] += 1
        assert set(seen) == {"void", "empty", "True", "False"}

    def test_a_cosupport_of_a_minimal_prime_is_beaten_below_it(self):
        # {emptyset}, the only complex with homology in degree -1, comes at
        # alpha = 0 of G = V - P, P a minimal prime.  When I has another
        # minimal prime Q, the complex at alpha = 0 of the meet H of G with
        # a facet V - Q of largest meet is disconnected, so the smaller
        # cosupport H has index |H| + 1 <= |G|: G never beats an index
        # |G| + 1 in hand, and the scan ends a level early
        engine = importlib.import_module("symdepth.depth")
        checked = 0
        for I in corpus():
            masks = [mask_of(p) for p in I.minimal_primes()]
            full = (1 << I.n) - 1
            rho = I.generator_degree_bounds()
            for P in masks:
                G = full & ~P
                others = [full & ~Q for Q in masks if Q != P]
                if not others:
                    continue
                H = max((G & F for F in others), key=int.bit_count)
                (alpha, facets), *_ = engine._prime_power_complexes(
                    masks, 1, rho, H)
                assert alpha == (0,) * I.n
                assert H.bit_count() < G.bit_count()
                assert 0 in homology_dims(facets, 0)
                checked += 1
        assert checked == 260  # primes of corpus ideals with two or more

    def test_empty_complex_witnesses_only_one_minimal_prime(self):
        # so no witness of the corpus has homology index -1 unless I has a
        # single minimal prime, as P^(k) = P^k does: its witness is the
        # {emptyset} complex at the cosupport V - P
        for I in corpus():
            for k in (1, 2, 3):
                witness = depth_via_takayama(I.symbolic_power(k))
                assert (witness.homology_index == -1) == \
                    (len(I.minimal_primes()) == 1)
        prime = ideal([(0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)], 5)
        for k in (1, 2, 3):
            for char in (0, 2):
                J = prime.symbolic_power(k)
                witness = depth_via_takayama(J, char)
                assert witness == reference_depth_via_takayama(J, char)
                assert witness.to_dict() == {
                    "depth": 2, "engine": "takayama", "char": char,
                    "alpha_plus": [0] * 5, "cosupport": [1, 5],
                    "homology_index": -1,
                }


class TestEngineAgreementRandom:
    def test_random_ideals_and_symbolic_powers(self):
        rng = random.Random(31)
        for _ in range(15):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            for k in (1, 2, 3):
                J = I.symbolic_power(k)
                assert depth_via_takayama(J).depth == depth_via_betti(J).depth

    def test_prime_structure_agrees_with_generic_membership(self):
        rng = random.Random(32)
        for _ in range(10):
            I = random_squarefree_ideal(rng, 3)
            J = I.symbolic_power(rng.randint(1, 3))
            assert J.prime_structure() is not None
            assert depth_via_takayama(J) == reference_takayama_witness(J)

    def test_non_squarefree_ideals(self):
        # ideals with a prime-power form take the engine's prime path and
        # are checked against the generic scan; the others take the
        # generic path and are checked against the Betti engine
        for J in non_squarefree_corpus():
            prime_path = J.prime_structure() is not None
            for char in (0, 2):
                witness = depth_via_takayama(J, char)
                if prime_path:
                    assert witness == reference_takayama_witness(J, char)
                else:
                    assert witness.depth == depth_via_betti(J, char).depth


class TestSearchBoxJustification:
    def test_cone_vanishing_beyond_the_box(self):
        # raising any exponent past the generator bound yields a cone
        rng = random.Random(33)
        for _ in range(50):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            J = I.symbolic_power(rng.randint(1, 2))
            rho = J.generator_degree_bounds()
            j = rng.randrange(J.n)
            alpha = list(rng.randint(0, max(r - 1, 0)) for r in rho)
            alpha[j] = rho[j] + rng.randint(0, 2)
            c = takayama_complex(J, DegreePair(tuple(alpha), frozenset()))
            assert not c.reduced_homology().dims

    def test_cosupport_magnitude_irrelevance(self):
        # the complex only sees alpha outside the cosupport
        rng = random.Random(34)
        for _ in range(50):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            n = I.n
            cos = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            alpha = tuple(0 if i in cos else rng.randint(0, 2) for i in range(n))
            reference = takayama_complex(I, DegreePair(alpha, cos))
            perturbed = tuple(
                rng.randint(1, 3) if i in cos else alpha[i] for i in range(n)
            )
            faces = [
                f for f in range(1 << n)
                if not f & sum(1 << i for i in cos)
                and not localized_contains(
                    I, perturbed, {i for i in range(n) if f >> i & 1} | cos
                )
            ]
            rebuilt = SimplicialComplex.from_face_masks(n, faces)
            assert rebuilt == reference


class TestDepthBounds:
    def test_depth_between_zero_and_dimension(self):
        rng = random.Random(35)
        for _ in range(20):
            I = random_squarefree_ideal(rng, rng.randint(2, 5))
            w = depth(I, "cross_check")
            assert 0 <= w.depth <= I.n - I.height()

    def test_cohen_macaulay_iff_pd_equals_height(self):
        rng = random.Random(36)
        for _ in range(20):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            pd = betti_table(I).projective_dimension()
            cm = depth(I, "cross_check").depth == I.n - I.height()
            assert cm == (pd == I.height())


class TestWitnessSerialization:
    def test_golden_edge_witness(self):
        w = depth_via_takayama(ideal([(1, 1)], 2))
        assert w.to_dict() == {
            "depth": 1,
            "engine": "takayama",
            "char": 0,
            "alpha_plus": [0, 0],
            "cosupport": [],
            "homology_index": 0,
        }

    def test_witness_reproduces_nonvanishing(self):
        rng = random.Random(37)
        for _ in range(10):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            w = depth_via_takayama(I)
            pair = DegreePair(w.alpha_plus, frozenset(w.cosupport))
            profile = takayama_complex(I, pair).reduced_homology()
            assert profile.dim(w.homology_index) > 0
            assert w.homology_index + len(w.cosupport) + 1 == w.depth
