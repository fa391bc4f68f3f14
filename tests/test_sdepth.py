import random

import pytest

from symdepth import (
    INFINITY,
    BudgetExceeded,
    Interval,
    MonomialIdeal,
    characteristic_poset,
    sdepth,
    sdepth_at_least,
    sdepth_from_poset,
    split_by_variable,
    unit_ideal,
    zero_ideal,
)
from symdepth.sdepth import DEFAULT_NODE_BUDGET, _Budget
from _corpus import (
    corpus,
    cycle,
    path,
    random_monomial,
    random_squarefree_ideal,
)


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

    def test_principal_ideal_poset(self):
        poset = characteristic_poset(ideal([(1, 0)], 2), "ideal")
        assert poset.points == ((1, 0),)

    def test_box_override_must_dominate(self):
        with pytest.raises(ValueError):
            characteristic_poset(TRIANGLE, "ideal", g=(1, 1, 0))

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
                enlarged = sdepth_from_poset(characteristic_poset(I, kind, g=g))
                assert enlarged.value == base


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

    def test_members(self):
        iv = Interval((0, 1), (1, 2))
        assert set(iv.members()) == {(0, 1), (0, 2), (1, 1), (1, 2)}


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


def _levels(poset, budget):
    """Nodes used at each level s = n, n-1, ... with one shared budget, as
    in sdepth_from_poset, and the first level's witness."""
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
