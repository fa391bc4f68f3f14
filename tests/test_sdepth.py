import functools
import importlib
import itertools
import math
import operator
import random

import pytest

from symdepth import (
    INFINITY,
    BudgetExceeded,
    Interval,
    IntervalPartition,
    MonomialIdeal,
    SdepthResult,
    characteristic_poset,
    sdepth,
    sdepth_at_least,
    split_by_variable,
    unit_ideal,
    zero_ideal,
)
from symdepth.monomial import MAX_BOX_POINTS
from symdepth.sdepth import (
    DEFAULT_NODE_BUDGET,
    _Budget,
    _minimal_points,
    _rho,
    counting_bound,
    splitting_witness,
)
from _corpus import (
    corpus,
    cycle,
    non_squarefree_corpus,
    path,
    random_monomial,
    random_squarefree_ideal,
)
from _reference import enlarged_poset, polarize, poset_sdepth


def ideal(gens, n):
    return MonomialIdeal.from_generators(gens, n)


TRIANGLE = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)], 3)


class TestCharacteristicPoset:
    def test_triangle_ideal_points(self):
        poset = characteristic_poset(TRIANGLE, "ideal")
        assert poset.g == (1, 1, 1)
        assert set(poset.points) == {
            (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1),
        }

    def test_triangle_quotient_points(self):
        poset = characteristic_poset(TRIANGLE, "quotient")
        assert set(poset.points) == {
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        }

    def test_partition_of_the_box(self):
        rng = random.Random(41)
        for _ in range(20):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            a = characteristic_poset(I, "ideal")
            b = characteristic_poset(I, "quotient")
            total = 1
            for x in a.g:
                total *= x + 1
            assert len(a.points) + len(b.points) == total
            assert not set(a.points) & set(b.points)

    def test_matches_membership_scan(self):
        # the generator bitmasks keep the points and their grlex order, in
        # the generator box and in a box past it
        rng = random.Random(54)
        for I in rng.sample(corpus(), 40):
            J = I.symbolic_power(rng.randint(1, 3))
            default = J.generator_degree_bounds()
            g = tuple(b + rng.randint(0, 1) for b in default)
            for kind in ("ideal", "quotient"):
                posets = (characteristic_poset(J, kind),
                          enlarged_poset(J, kind, g))
                for poset in posets:
                    box = itertools.product(
                        *(range(b + 1) for b in poset.g))
                    expected = sorted(
                        (c for c in box
                         if J.contains(c) == (kind == "ideal")),
                        key=lambda c: (sum(c), c))
                    assert poset.points == tuple(expected)
                assert posets[0].g == default

    def test_principal_ideal_poset(self):
        poset = characteristic_poset(ideal([(1, 0)], 2), "ideal")
        assert poset.points == ((1, 0),)

    def test_degenerate_kinds_rejected(self):
        with pytest.raises(ValueError):
            characteristic_poset(zero_ideal(2), "ideal")
        with pytest.raises(ValueError):
            characteristic_poset(unit_ideal(2), "quotient")


class TestSdepthAtLeast:
    def test_triangle_quotient_one(self):
        poset = characteristic_poset(TRIANGLE, "quotient")
        partition = sdepth_at_least(poset, 1)
        assert partition is not None
        assert partition.sdepth() >= 1
        assert partition.is_exact_cover_of(poset.points)

    def test_triangle_quotient_two_impossible(self):
        poset = characteristic_poset(TRIANGLE, "quotient")
        assert sdepth_at_least(poset, 2) is None

    def test_points_out_of_order_rejected(self):
        # the search takes the lowest uncovered point as minimal
        poset = characteristic_poset(TRIANGLE, "quotient")
        with pytest.raises(ValueError):
            sdepth_at_least(poset._replace(points=poset.points[::-1]), 1)

    def test_singletons_always_cover_at_zero(self):
        rng = random.Random(42)
        for _ in range(10):
            I = random_squarefree_ideal(rng, 3)
            poset = characteristic_poset(I, "quotient")
            partition = sdepth_at_least(poset, 0)
            assert partition is not None
            assert partition.is_exact_cover_of(poset.points)


class TestSdepthValues:
    def test_triangle(self):
        assert sdepth(TRIANGLE, "ideal").value == 2
        assert sdepth(TRIANGLE, "quotient").value == 1

    def test_maximal_ideal_quotient_is_zero(self):
        m = ideal([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert sdepth(m, "quotient").value == 0

    def test_maximal_ideal_in_two_variables(self):
        m = ideal([(1, 0), (0, 1)], 2)
        assert sdepth(m, "ideal").value == 1
        assert sdepth(m, "quotient").value == 0

    def test_principal_is_free(self):
        I = ideal([(1, 1, 1)], 3)
        assert sdepth(I, "ideal").value == 3

    def test_zero_module_conventions(self):
        assert sdepth(zero_ideal(3), "ideal").value == INFINITY
        assert sdepth(unit_ideal(3), "quotient").value == INFINITY

    def test_unknown_kind_rejected(self):
        for I in (TRIANGLE, zero_ideal(2), unit_ideal(2)):
            with pytest.raises(ValueError, match="unknown kind"):
                sdepth(I, "module")

    def test_full_ring_conventions(self):
        assert sdepth(unit_ideal(3), "ideal").value == 3
        assert sdepth(zero_ideal(3), "quotient").value == 3

    def test_ring_with_no_variables(self):
        # the one poset point () is its own interval; the meets of its
        # divisor rows AND no rows and are cut to the poset's points
        result = sdepth(MonomialIdeal(0, ((),)), "ideal")
        assert result.value == 0
        assert result.witness.intervals == (Interval((), ()),)
        assert sdepth(zero_ideal(0), "quotient").value == 0

    def test_symbolic_square_of_triangle(self):
        I2 = TRIANGLE.symbolic_power(2)
        assert sdepth(I2, "ideal").value == 2
        assert sdepth(I2, "quotient").value == 1


class TestWitnesses:
    def test_witness_is_exact_cover_with_claimed_value(self):
        rng = random.Random(43)
        for _ in range(15):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            for kind in ("ideal", "quotient"):
                result = sdepth(I, kind)
                poset = characteristic_poset(I, kind)
                assert result.witness.is_exact_cover_of(poset.points)
                assert result.witness.sdepth() == result.value

    def test_no_better_partition_exists(self):
        rng = random.Random(44)
        for _ in range(10):
            I = random_squarefree_ideal(rng, 3)
            for kind in ("ideal", "quotient"):
                result = sdepth(I, kind)
                if result.value < I.n:
                    poset = characteristic_poset(I, kind)
                    assert sdepth_at_least(poset, result.value + 1) is None

    def test_serialization(self):
        d = sdepth(TRIANGLE, "ideal").to_dict()
        assert d["kind"] == "ideal"
        assert d["value"] == 2
        assert d["g"] == [1, 1, 1]
        assert all(len(pair) == 2 for pair in d["intervals"])

    def test_infinity_serialization(self):
        assert sdepth(zero_ideal(2), "ideal").to_dict()["value"] == "infinity"


class TestBoxEnlargement:
    def test_value_stable_under_bigger_box(self):
        rng = random.Random(45)
        for _ in range(10):
            I = random_squarefree_ideal(rng, 3)
            for kind in ("ideal", "quotient"):
                base = sdepth(I, kind).value
                g = tuple(b + rng.randint(0, 1) for b in I.generator_degree_bounds())
                assert poset_sdepth(enlarged_poset(I, kind, g)) == base


class TestOrderProperties:
    def test_colon_never_decreases_sdepth(self):
        rng = random.Random(46)
        for _ in range(15):
            I = random_squarefree_ideal(rng, 3)
            u = random_monomial(rng, 3, 1)
            J = I.colon(u)
            if J.is_unit or J.is_zero:
                continue
            assert sdepth(J, "ideal").value >= sdepth(I, "ideal").value

    def test_interval_tops_respect_support(self):
        # every interval of an ideal witness has its bottom inside the ideal
        rng = random.Random(47)
        for _ in range(10):
            I = random_squarefree_ideal(rng, 3)
            result = sdepth(I, "ideal")
            for iv in result.witness.intervals:
                assert I.contains(iv.a)

    def test_variable_multiple_stays_inside(self):
        # each point of an ideal interval stays in the ideal, intervals are
        # upward closed within the box
        result = sdepth(TRIANGLE, "ideal")
        for iv in result.witness.intervals:
            for c in iv.members():
                assert TRIANGLE.contains(c)


class TestMetamorphic:
    def test_permuting_variables(self):
        rng = random.Random(49)
        for I in rng.sample(corpus(), 40):
            perm = rng.sample(range(I.n), I.n)
            P = ideal([tuple(g[j] for j in perm) for g in I.gens], I.n)
            for k in (1, 2):
                J, Q = I.symbolic_power(k), P.symbolic_power(k)
                for kind in ("ideal", "quotient"):
                    assert sdepth(Q, kind).value == sdepth(J, kind).value

    def test_polarization(self):
        # Ichim-Katthan-Moyano-Fernandez: polarization adds n' - n to the
        # Stanley depth of the ideal and of its quotient
        for J in non_squarefree_corpus()[:40]:
            P = polarize(J)
            for kind in ("ideal", "quotient"):
                assert sdepth(P, kind, DECIDED_BUDGET).value - (P.n - J.n) \
                    == sdepth(J, kind, DECIDED_BUDGET).value, (J, kind)

    def test_free_variable(self):
        # HVZ 2009: adding a variable that no generator uses adds 1
        rng = random.Random(50)
        for I in rng.sample(corpus(), 40):
            F = ideal([g + (0,) for g in I.gens], I.n + 1)
            for k in (1, 2):
                J, G = I.symbolic_power(k), F.symbolic_power(k)
                for kind in ("ideal", "quotient"):
                    assert sdepth(G, kind).value == sdepth(J, kind).value + 1


class TestSplitByVariable:
    def test_triangle_split(self):
        restriction, colon = split_by_variable(TRIANGLE, 0)
        assert restriction == ideal([(1, 1)], 2)
        assert colon == ideal([(0, 1, 0), (0, 0, 1)], 3)

    def test_splitting_bound(self):
        # sdepth(I) >= min over the two split parts
        rng = random.Random(48)
        for _ in range(15):
            I = random_squarefree_ideal(rng, rng.randint(2, 4))
            i = rng.randrange(I.n)
            restriction, colon = split_by_variable(I, i)
            bound = sdepth(colon, "ideal").value
            if not restriction.is_zero:
                bound = min(bound, sdepth(restriction, "ideal").value)
            assert sdepth(I, "ideal").value >= bound

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            split_by_variable(zero_ideal(2), 0)
        with pytest.raises(ValueError):
            split_by_variable(TRIANGLE, 3)


class TestIntervals:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval((1, 0), (0, 1))

    def test_bounds_of_different_lengths(self):
        # zip alone would stop at the shorter bound and yield 1-tuples
        for a, b in (((0, 0), (1,)), ((0,), (1, 1)), ((), (0,))):
            with pytest.raises(ValueError):
                Interval(a, b)

    def test_members(self):
        iv = Interval((0, 1), (1, 2))
        assert set(iv.members()) == {(0, 1), (0, 2), (1, 1), (1, 2)}

    def test_exact_cover(self):
        points = {(0, 1), (0, 2), (1, 1), (1, 2)}
        cover = IntervalPartition((1, 2), (Interval((0, 1), (0, 2)),
                                           Interval((1, 1), (1, 2))))
        assert cover.is_exact_cover_of(points)
        # a point missing from the intervals
        assert not cover.is_exact_cover_of(points | {(0, 0)})

    def test_overlap_is_no_exact_cover(self):
        points = {(0, 1), (0, 2), (1, 1), (1, 2)}
        overlap = IntervalPartition((1, 2), (Interval((0, 1), (1, 1)),
                                             Interval((0, 1), (0, 2)),
                                             Interval((1, 2), (1, 2))))
        assert not overlap.is_exact_cover_of(points)

    def test_point_outside_the_poset_is_no_exact_cover(self):
        points = {(0, 1), (0, 2), (1, 1)}
        outside = IntervalPartition((1, 2), (Interval((0, 1), (0, 2)),
                                             Interval((1, 1), (1, 2))))
        assert not outside.is_exact_cover_of(points)


class TestBudget:
    def test_tiny_budget_raises(self):
        I = TRIANGLE.symbolic_power(2)
        with pytest.raises(BudgetExceeded):
            sdepth(I, "quotient", node_budget=2)

    def test_budget_error_is_not_a_value(self):
        # a budgeted failure must raise, never return an approximation
        poset = characteristic_poset(TRIANGLE, "quotient")
        with pytest.raises(BudgetExceeded):
            sdepth_at_least(poset, 1, _Budget(1))

    def test_budget_below_one_is_input_error(self):
        with pytest.raises(ValueError, match="node budget"):
            sdepth(TRIANGLE, "ideal", node_budget=0)
        with pytest.raises(ValueError, match="node budget"):
            sdepth(zero_ideal(3), "ideal", node_budget=0)
        with pytest.raises(ValueError, match="node budget"):
            _Budget(-3)

    def test_box_limit(self):
        # (x1^a): the box has a + 1 points, the ideal's poset just one
        at_limit = MonomialIdeal(1, ((MAX_BOX_POINTS - 1,),))
        assert sdepth(at_limit, "ideal").value == 1
        over = MonomialIdeal(1, ((MAX_BOX_POINTS,),))
        with pytest.raises(BudgetExceeded, match=f"{MAX_BOX_POINTS + 1} points"):
            characteristic_poset(over, "ideal")
        with pytest.raises(BudgetExceeded, match="box"):
            enlarged_poset(TRIANGLE, "quotient", (MAX_BOX_POINTS,) * 3)


def _levels(poset, budget):
    """Nodes used at each level s = n, n-1, ... with one shared budget, as
    in sdepth, and the first level's witness."""
    nodes = []
    for s in range(poset.n, -1, -1):
        before = budget.nodes
        witness = sdepth_at_least(poset, s, budget)
        nodes.append(budget.nodes - before)
        if witness is not None:
            return nodes, s, witness


class TestSearchOrder:
    """The node counts pin the order in which minimal points and tops are
    tried; a representation change of the search must keep them."""

    @pytest.mark.parametrize("ideal_, k, kind, nodes, value, intervals", [
        (cycle(5), 2, "quotient", [1, 1, 1, 35], 2, 16),
        (cycle(4), 3, "ideal", [2, 36, 17], 2, 16),
        (path(4), 2, "quotient", [1, 1, 312, 8], 1, 7),
    ], ids=["C5^(2)-quotient", "C4^(3)-ideal", "P4^(2)-quotient"])
    def test_nodes_per_level(self, ideal_, k, kind, nodes, value, intervals):
        poset = characteristic_poset(ideal_.symbolic_power(k), kind)
        got_nodes, got_value, witness = _levels(
            poset, _Budget(DEFAULT_NODE_BUDGET))
        assert got_nodes == nodes
        assert got_value == value
        assert len(witness.intervals) == intervals
        assert witness.is_exact_cover_of(poset.points)

    def test_frontier_exhausts_budget_at_the_same_node(self):
        poset = characteristic_poset(cycle(6).symbolic_power(2), "quotient")
        budget = _Budget(1000)
        with pytest.raises(BudgetExceeded):
            _levels(poset, budget)
        assert budget.nodes == 1001


def reference_up_down(poset):
    """up[i], down[i]: the bitmasks of the points >= and <= point i, one
    coordinate at a time."""
    g, points = poset.g, poset.points
    up, down = [-1] * len(points), [-1] * len(points)
    for t, corner in enumerate(g):
        at = [0] * (corner + 1)
        for i, p in enumerate(points):
            at[p[t]] |= 1 << i
        at_most = list(itertools.accumulate(at, operator.or_))
        at_least = list(itertools.accumulate(at[::-1], operator.or_))[::-1]
        for i, p in enumerate(points):
            up[i] &= at_least[p[t]]
            down[i] &= at_most[p[t]]
    return up, down


def reference_sdepth_at_least(poset, s, budget):
    """The interval-partition search as it was before candidate tops were
    cached per bottom: each node recomputes every interval's box size."""
    g, points = poset.g, poset.points
    up, down = reference_up_down(poset)
    high = sum(1 << i for i, b in enumerate(points) if _rho(b, g) >= s)
    failed = set()

    def bits(mask):
        while mask:
            yield (mask & -mask).bit_length() - 1
            mask &= mask - 1

    def search(uncovered):
        budget.tick()
        if not uncovered:
            return []
        if uncovered in failed:
            return None
        best_a, best_tops = None, None
        for a in bits(uncovered):
            if down[a] & uncovered != 1 << a:
                continue
            tops = [b for b in bits(up[a] & high & uncovered)
                    if (up[a] & down[b] & uncovered).bit_count() == math.prod(
                        y - x + 1 for x, y in zip(points[a], points[b]))]
            if not tops:
                failed.add(uncovered)
                return None
            if best_tops is None or len(tops) < len(best_tops):
                best_a, best_tops = a, tops
        for b in sorted(best_tops, key=lambda b: -sum(points[b])):
            rest = search(uncovered & ~(up[best_a] & down[b]))
            if rest is not None:
                return [(best_a, b)] + rest
        failed.add(uncovered)
        return None

    found = search((1 << len(points)) - 1)
    if found is None:
        return None
    return IntervalPartition(
        g, tuple(Interval(points[a], points[b]) for a, b in sorted(found)))


def reference_sdepth_from_poset(poset, node_budget=DEFAULT_NODE_BUDGET):
    """The level loop as it was before the counting bound: s = n, n - 1,
    ... with one budget.  Returns the result and the nodes used."""
    budget = _Budget(node_budget)
    for s in range(poset.n, -1, -1):
        witness = reference_sdepth_at_least(poset, s, budget)
        if witness is not None:
            return SdepthResult(poset.kind, s, poset.g, witness), budget.nodes


@pytest.fixture
def budgets(monkeypatch):
    """Every node budget sdepth makes, in order."""
    made = []
    module = importlib.import_module("symdepth.sdepth")

    class Recorded(module._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(module, "_Budget", Recorded)
    return made


def brute_polarized_f_vector(ideal, kind, g):
    """Sets of each size in the squarefree poset of the polarization of
    ideal: x_i^a becomes the first a of the g_i variables of coordinate i,
    and every subset of those variables is tried."""
    offsets = list(itertools.accumulate(g, initial=0))
    gens = [sum(((1 << a) - 1) << offsets[i] for i, a in enumerate(u))
            for u in ideal.gens]
    f = [0] * (offsets[-1] + 1)
    for subset in range(1 << offsets[-1]):
        if any(u & subset == u for u in gens) == (kind == "ideal"):
            f[subset.bit_count()] += 1
    return f


# Node budget within which a corpus triple counts as decided.  One triple,
# S/I^(2) for corpus()[23], is not decided within 2,000,000 nodes.
DECIDED_BUDGET = 20_000


@functools.lru_cache(maxsize=None)
def decided_triples():
    """(I^(k), poset, reference result, reference nodes) for each corpus
    triple (I^(k) with k <= 2, kind) that the reference search decides."""
    decided = []
    for I in corpus():
        for k in (1, 2):
            J = I.symbolic_power(k)
            for kind in ("ideal", "quotient"):
                poset = characteristic_poset(J, kind)
                try:
                    decided.append((J, poset, *reference_sdepth_from_poset(
                        poset, DECIDED_BUDGET)))
                except BudgetExceeded:
                    pass
    return tuple(decided)


SDEPTH_ANCHORS = [(path(5), 3, "ideal"), (cycle(4), 3, "ideal"),
                  (cycle(5), 2, "quotient"), (cycle(4), 3, "quotient")]


def reference_polarized_f_vector(poset):
    """f[r]: the points with r elements in the squarefree poset of the
    polarization, where coordinate i becomes g_i variables and a set
    maps to the point whose c_i is the length of its run from the first
    variable of coordinate i.  Point c then weighs the product over i of
    t^c_i (1 + t)^(g_i - c_i - 1) below the corner and t^g_i at it, which
    is t^|c| (1 + t)^(sum(g) - n + rho(c) - |c|)."""
    g = poset.g
    shift = sum(g) - poset.n
    f = [0] * (sum(g) + 1)
    for c in poset.points:
        m = shift + _rho(c, g) - sum(c)
        for j in range(m + 1):
            f[sum(c) + j] += math.comb(m, j)
    return f


def reference_counting_bound(poset):
    """The counting bound in the polarized ring: the largest level s whose
    h-vector, taken from the polarized f-vector by the triangular
    inversion at the polarized level s + sum(g) - n, is nonnegative."""
    shift = sum(poset.g) - poset.n
    f = reference_polarized_f_vector(poset)
    for s in range(poset.n, 0, -1):
        top = s + shift
        if all(
                sum((-1) ** (r - t) * math.comb(top - t, r - t) * f[t]
                    for t in range(r + 1)) >= 0
                for r in range(top + 1)):
            return s
    return 0


@functools.lru_cache(maxsize=None)
def corpus_posets():
    """The poset of every corpus triple (I^(k) with k <= 2, kind)."""
    return tuple(characteristic_poset(I.symbolic_power(k), kind)
                 for I in corpus() for k in (1, 2)
                 for kind in ("ideal", "quotient"))


class TestCountingBound:
    @pytest.mark.parametrize("ideal_, k", [
        (cycle(4), 2), (cycle(5), 2), (path(5), 3),
    ], ids=["C4^(2)", "C5^(2)", "P5^(3)"])
    @pytest.mark.parametrize("kind", ["ideal", "quotient"])
    def test_f_vector_matches_brute_force(self, ideal_, k, kind):
        J = ideal_.symbolic_power(k)
        poset = characteristic_poset(J, kind)
        assert reference_polarized_f_vector(poset) == brute_polarized_f_vector(
            J, kind, poset.g)

    def test_f_vector_of_an_enlarged_box(self):
        J = TRIANGLE.symbolic_power(2)
        for kind in ("ideal", "quotient"):
            poset = enlarged_poset(J, kind, (3, 2, 2))
            assert reference_polarized_f_vector(poset) == \
                brute_polarized_f_vector(J, kind, poset.g)
            assert counting_bound(poset) == reference_counting_bound(poset)

    def test_equals_the_polarized_bound_on_the_corpus(self):
        posets = corpus_posets()
        assert len(posets) == 800
        for poset in posets:
            assert counting_bound(poset) == reference_counting_bound(poset)

    @pytest.mark.parametrize("ideal_, kmax, kind", SDEPTH_ANCHORS,
                             ids=["P5-ideal", "C4-ideal", "C5-quotient",
                                  "C4-quotient"])
    def test_equals_the_polarized_bound_on_the_anchors(self, ideal_, kmax,
                                                       kind):
        for k in range(1, kmax + 1):
            poset = characteristic_poset(ideal_.symbolic_power(k), kind)
            assert counting_bound(poset) == reference_counting_bound(poset)

    def test_bound_is_at_least_sdepth_on_the_corpus(self):
        assert len(decided_triples()) == 799
        for _, poset, expected, _ in decided_triples():
            assert counting_bound(poset) >= expected.value

    @pytest.mark.parametrize("ideal_, k, kind, bound", [
        (cycle(6), 2, "quotient", 2), (path(5), 3, "quotient", 2),
        (cycle(6), 2, "ideal", 4),
    ], ids=["C6^(2)-quotient", "P5^(3)-quotient", "C6^(2)-ideal"])
    def test_frontier_bounds(self, ideal_, k, kind, bound):
        poset = characteristic_poset(ideal_.symbolic_power(k), kind)
        assert counting_bound(poset) == bound
        assert reference_counting_bound(poset) == bound

    def test_free_coordinates(self):
        # g_i = 0: the coordinate is free in every interval
        assert counting_bound(characteristic_poset(unit_ideal(3), "ideal")) == 3
        assert counting_bound(
            characteristic_poset(zero_ideal(2), "quotient")) == 2
        I = ideal([(1, 1, 0)], 3)
        assert counting_bound(characteristic_poset(I, "ideal")) == 3
        assert counting_bound(characteristic_poset(I, "quotient")) == 2

    @pytest.mark.parametrize("gens, n, kind, bound", [
        ([(100,)], 1, "quotient", 0),
        ([(40, 40)], 2, "quotient", 1),
        ([(40, 40)], 2, "ideal", 2),
        ([(16383,)], 1, "quotient", 0),
    ], ids=["x^100-quotient", "x1^40x2^40-quotient", "x1^40x2^40-ideal",
            "x^16383-quotient"])
    def test_large_boxes(self, gens, n, kind, bound, monkeypatch):
        # far more than 64 polarized variables: the bound is still counted
        # from the box, with one rho per point and no walk over subsets
        I = ideal(gens, n)
        poset = characteristic_poset(I, kind)
        calls = []

        def counted(b, g):
            calls.append(b)
            return _rho(b, g)

        monkeypatch.setattr(importlib.import_module("symdepth.sdepth"),
                            "_rho", counted)
        assert counting_bound(poset) == bound
        assert calls == list(poset.points)
        if len(poset.points) < 2000:
            assert sdepth(I, kind).value <= bound


class TestAgainstReferenceSearch:
    """The counting bound only skips levels that fail, and the cheaper
    kernel keeps the search order: the value and witness stay, and the
    nodes do not grow."""

    def _compare(self, J, poset, expected, reference_nodes, budgets):
        del budgets[:]
        assert sdepth(J, poset.kind, DECIDED_BUDGET) == expected
        assert len(budgets) == 1 and budgets[0].nodes <= reference_nodes

    def test_corpus(self, budgets):
        for decided in decided_triples():
            self._compare(*decided, budgets)

    @pytest.mark.parametrize("ideal_, kmax, kind", SDEPTH_ANCHORS,
                             ids=["P5-ideal", "C4-ideal", "C5-quotient",
                                  "C4-quotient"])
    def test_sdepth_search_anchors(self, ideal_, kmax, kind, budgets):
        for k in range(1, kmax + 1):
            J = ideal_.symbolic_power(k)
            poset = characteristic_poset(J, kind)
            self._compare(J, poset, *reference_sdepth_from_poset(poset),
                          budgets)

    def test_kernel_matches_reference_per_level(self):
        rng = random.Random(52)
        cases = [(characteristic_poset(I.symbolic_power(2), kind),
                  DEFAULT_NODE_BUDGET)
                 for I in rng.sample(corpus(), 30)
                 for kind in ("ideal", "quotient")]
        # C6^(2) as an ideal: at the counting bound 4 both searches run
        # out of 5,000 nodes
        frontier = characteristic_poset(cycle(6).symbolic_power(2), "ideal")
        cases.append((frontier, 5000))

        def outcome(search, poset, s, limit):
            budget = _Budget(limit)
            try:
                found = search(poset, s, budget)
            except BudgetExceeded:
                found = BudgetExceeded
            return found, budget.nodes

        for poset, limit in cases:
            for s in range(poset.n + 1):
                assert outcome(sdepth_at_least, poset, s, limit) == \
                    outcome(reference_sdepth_at_least, poset, s, limit)
        assert outcome(sdepth_at_least, frontier, 4, 5000) == (
            BudgetExceeded, 5001)


class TestMinimalPoints:
    def test_peel_matches_the_brute_force_minimal_points(self):
        rng = random.Random(22)
        for poset in rng.sample(corpus_posets(), 60):
            up, down = reference_up_down(poset)
            full = (1 << len(poset.points)) - 1
            for mask in [0, full] + [rng.getrandbits(len(poset.points))
                                     for _ in range(20)]:
                assert list(_minimal_points(mask, up)) == [
                    a for a in range(len(poset.points))
                    if down[a] & mask == 1 << a]


def reference_minimal_generators(poset):
    """The box walk: the minimal points of the box [0, g] that lie in the
    ideal, the box enumerated again for a quotient poset.  They generate
    the ideal whose characteristic poset this is."""
    if poset.kind == "ideal":
        inside = set(poset.points)
    else:
        outside = set(poset.points)
        inside = {c for c in itertools.product(*(range(b + 1) for b in poset.g))
                  if c not in outside}
    return [c for c in inside if not any(
        c[:i] + (x - 1,) + c[i + 1:] in inside for i, x in enumerate(c) if x)]


class TestSplittingWitness:
    def test_frontier_witness_with_the_box_walk(self):
        # the splitting starts from the ideal, which is the one that the
        # box walk reads off the poset, so the S/C6^(2) witness stays
        J = cycle(6).symbolic_power(2)
        poset = characteristic_poset(J, "quotient")
        assert ideal(reference_minimal_generators(poset), J.n) == J
        witness = splitting_witness(J, poset, 2, 1000)
        assert len(witness.intervals) == 33
        assert witness.is_exact_cover_of(poset.points)
        assert witness.sdepth() >= 2

    @pytest.mark.parametrize("ideal_, k, intervals", [
        (cycle(6), 2, 33), (path(5), 3, 50),
    ], ids=["C6^(2)", "P5^(3)"])
    def test_frontier_quotients(self, ideal_, k, intervals, budgets):
        J = ideal_.symbolic_power(k)
        poset = characteristic_poset(J, "quotient")
        result = sdepth(J, "quotient", node_budget=1000)
        assert result.value == 2
        assert len(budgets) == 2  # the search, then the splitting
        assert budgets[0].nodes == 1001 and budgets[1].nodes <= 1000
        witness = result.witness
        assert witness.is_exact_cover_of(poset.points)
        assert witness.sdepth() == 2
        assert len(witness.intervals) == intervals
        assert list(witness.intervals) == sorted(
            witness.intervals, key=lambda iv: (sum(iv.a), iv.a))

    def test_witnesses_on_the_corpus(self):
        # wherever splitting finds a witness at s, it is an exact cover
        # with tops of rank >= s, so s <= sdepth
        found = 0
        for J, poset, expected, _ in decided_triples()[::4]:
            for s in range(expected.value + 2):
                witness = splitting_witness(J, poset, s, DECIDED_BUDGET)
                if witness is not None:
                    found += 1
                    assert s <= expected.value
                    assert witness.is_exact_cover_of(poset.points)
                    assert witness.sdepth() >= s
        assert found > 200

    def test_not_tight(self):
        # C5^(2): splitting gives 1 against the true 2 for the quotient
        J = cycle(5).symbolic_power(2)
        poset = characteristic_poset(J, "quotient")
        assert splitting_witness(J, poset, 2) is None
        assert splitting_witness(J, poset, 1).sdepth() == 1

    def test_ideal_frontier_still_exceeds(self):
        J = cycle(6).symbolic_power(2)
        with pytest.raises(BudgetExceeded, match="exceeded 1000 nodes"):
            sdepth(J, "ideal", node_budget=1000)

    def test_splitting_budget(self):
        J = cycle(6).symbolic_power(2)
        poset = characteristic_poset(J, "quotient")
        assert splitting_witness(J, poset, 2, node_budget=10) is None
