"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain ``pytest -s tests/test_acceptance.py`` run.
"""

import itertools
import random

from symdepth import (
    INFINITY,
    DegreePair,
    MonomialIdeal,
    SimplicialComplex,
    analyze_stability,
    characteristic_poset,
    complex_of_ideal,
    depth_via_betti,
    depth_via_takayama,
    matroid_report,
    sdepth,
    takayama_complex,
    verify_colon_identity,
    verify_depth_comparison,
    verify_power_membership,
    verify_sdepth_comparison,
    verify_splitting_bound,
    zero_ideal,
)

from _corpus import corpus, random_squarefree_ideal
from _reference import face_counts, is_pure, localized_contains

CORPUS = corpus(200)

TRIANGLE = MonomialIdeal.from_generators(
    [(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3
)
MAXIMAL3 = MonomialIdeal.from_generators(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3
)


def report(number, label, passed):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}  {label}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_1_engine_agreement():
    ok = True
    for ideal in CORPUS:
        for k in (1, 2, 3):
            power = ideal.symbolic_power(k)
            if depth_via_takayama(power).depth != depth_via_betti(power).depth:
                ok = False
                break
        if not ok:
            break
    report(1, "two depth engines agree on 200 ideals x 3 symbolic powers", ok)


def test_criterion_2_golden_depth_witness():
    edge = MonomialIdeal.from_generators([(1, 1)], 2)
    delta = takayama_complex(edge, DegreePair((0, 0), frozenset()))
    witness = depth_via_takayama(edge)
    ok = (
        delta == SimplicialComplex.from_facets(2, [(0,), (1,)])
        and delta.reduced_homology().dim(0) == 1
        and witness.to_dict() == {
            "depth": 1,
            "engine": "takayama",
            "char": 0,
            "alpha_plus": [0, 0],
            "cosupport": [],
            "homology_index": 0,
        }
    )
    report(2, "edge ideal golden witness matches exactly", ok)


def test_criterion_3_depth_comparison():
    ok = True
    for ideal in CORPUS:
        for m in range(1, 6):
            for k in range(1, 6):
                if k * m + m > 6:
                    continue
                if not verify_depth_comparison(ideal, m, k).passed:
                    ok = False
    report(3, "depth comparison holds on the corpus for km+m <= 6", ok)


def test_criterion_4_power_membership():
    ok = all(
        verify_power_membership(ideal, m, k, samples=100, seed=index).passed
        for index, ideal in enumerate(CORPUS)
        for m in (1, 2, 3)
        for k in (1, 2, 3)
    )
    report(4, "power membership biconditional, 100 samples per ideal", ok)


def test_criterion_5_colon_identity():
    ok = all(
        verify_colon_identity(ideal, 2 * ideal.height() + 1).passed
        for ideal in CORPUS
        if ideal.is_unmixed()
    )
    report(5, "colon identity exact on all unmixed corpus ideals", ok)


def test_criterion_6_sdepth_goldens():
    cases = [
        (TRIANGLE, "ideal", 2),
        (TRIANGLE, "quotient", 1),
        (MAXIMAL3, "quotient", 0),
    ]
    ok = True
    for ideal, kind, expected in cases:
        result = sdepth(ideal, kind)
        poset = characteristic_poset(ideal, kind)
        if result.value != expected:
            ok = False
        if not result.witness.is_exact_cover_of(poset.points):
            ok = False
        if result.witness.sdepth() != expected:
            ok = False
    if sdepth(zero_ideal(3), "ideal").value != INFINITY:
        ok = False
    report(6, "Stanley depth goldens with verified witness partitions", ok)


def _all_squarefree_ideals_n3():
    subsets = [
        tuple(1 if i in s else 0 for i in range(3))
        for size in (1, 2, 3)
        for s in itertools.combinations(range(3), size)
    ]
    seen = set()
    for mask in range(1, 1 << len(subsets)):
        gens = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        ideal = MonomialIdeal.from_generators(gens, 3)
        if not ideal.is_zero and not ideal.is_unit:
            seen.add(ideal)
    return sorted(seen, key=lambda I: I.gens)


def test_criterion_7_sdepth_comparison():
    ideals = _all_squarefree_ideals_n3()
    ok = len(ideals) == 18 and all(
        verify_sdepth_comparison(ideal, m, k).passed
        for ideal in ideals
        for m, k in ((1, 1), (1, 2))
    )
    report(7, "Stanley depth comparison on all 18 squarefree n=3 ideals", ok)


def test_criterion_8_matroid_reports():
    u13 = SimplicialComplex.from_facets(3, [(0,), (1,), (2,)])
    u23 = SimplicialComplex.from_facets(3, [(0, 1), (0, 2), (1, 2)])
    ok = True
    for delta in (u13, u23):
        rep = matroid_report(delta, 2)
        d = delta.dim()
        if not rep.all_claims_hold or rep.ell_s != delta.n - d - 1:
            ok = False
        for row in rep.rows:
            if row["depth"] != d + 1 or row["sdepth_quotient"] != d + 1:
                ok = False
            if row["sdepth_ideal"] != "infinity" and row["sdepth_ideal"] < d + 2:
                ok = False
    report(8, "matroid reports for U(1,3) and U(2,3), k <= 2", ok)


def test_criterion_9_stability_reports():
    floor = analyze_stability(MAXIMAL3, "depth", 3)
    matroid = analyze_stability(TRIANGLE, "depth", 3)
    path = MonomialIdeal.from_generators([(1, 1, 0), (0, 1, 1)], 3)
    open_case = analyze_stability(path, "depth", 3)
    ok = (
        floor.certified
        and floor.certification_rule == "floor"
        and floor.window_min == 0
        and floor.first_attainment == 1
        and matroid.certified
        and matroid.certification_rule == "matroid"
        and matroid.window_min == 1
        and matroid.square_bound == 1
        and not open_case.certified
        and open_case.certification_rule == "upper bound for the limit"
        and "<=" in open_case.tail_guarantee
    )
    report(9, "stability analysis: floor, matroid, and uncertified cases", ok)


def test_criterion_10_property_suites():
    ok = True
    rng = random.Random(1010)

    # cone vanishing: degrees past the generator box give acyclic complexes
    for _ in range(50):
        ideal = random_squarefree_ideal(rng, rng.randint(2, 4))
        power = ideal.symbolic_power(rng.randint(1, 2))
        rho = power.generator_degree_bounds()
        j = rng.randrange(power.n)
        alpha = [rng.randint(0, max(r - 1, 0)) for r in rho]
        alpha[j] = rho[j] + rng.randint(0, 2)
        delta = takayama_complex(power, DegreePair(tuple(alpha), frozenset()))
        if delta.reduced_homology().dims:
            ok = False

    # cosupport irrelevance: exponents on cosupport variables never matter
    for _ in range(50):
        ideal = random_squarefree_ideal(rng, rng.randint(2, 4))
        n = ideal.n
        cos = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
        alpha = tuple(0 if i in cos else rng.randint(0, 2) for i in range(n))
        reference = takayama_complex(ideal, DegreePair(alpha, cos))
        perturbed = tuple(
            rng.randint(1, 3) if i in cos else alpha[i] for i in range(n)
        )
        cos_mask = sum(1 << i for i in cos)
        faces = [
            f for f in range(1 << n)
            if not f & cos_mask
            and not localized_contains(
                ideal, perturbed, {i for i in range(n) if f >> i & 1} | cos
            )
        ]
        if SimplicialComplex.from_face_masks(n, faces) != reference:
            ok = False

    sample = CORPUS[:60]

    # Stanley-Reisner round trip and Euler-Poincare
    for ideal in sample:
        delta = complex_of_ideal(ideal)
        if delta.stanley_reisner_ideal() != ideal:
            ok = False
        counts = face_counts(delta)
        face_sum = sum((-1) ** (c - 1) * v for c, v in counts.items())
        profile = delta.reduced_homology()
        if face_sum != sum((-1) ** i * d for i, d in profile.dims):
            ok = False

    # matroid implies pure implies vertex decomposable
    for ideal in sample:
        delta = complex_of_ideal(ideal)
        if delta.is_void:
            continue
        if delta.is_matroid()[0]:
            if not is_pure(delta) or not delta.is_vertex_decomposable():
                ok = False
        if delta.is_vertex_decomposable() and delta.is_matroid()[0]:
            if not is_pure(delta):
                ok = False

    # splitting bound on 20 instances
    for ideal in CORPUS[:20]:
        if not verify_splitting_bound(ideal, rng.randrange(ideal.n)).passed:
            ok = False

    report(10, "structural property suites all exact", ok)
