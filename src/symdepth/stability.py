"""Depth and Stanley depth along symbolic powers: sequences, stability
analysis with the square bound on the stabilization index, inequality
verifiers, and the matroid report."""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .complexes import complex_of_ideal
from .depth import depth, depth_via_takayama
from .homology import check_char
from .monomial import MonomialIdeal, pow_exp
from .sdepth import (DEFAULT_NODE_BUDGET, INFINITY, json_value, sdepth,
                     split_by_variable)

QUANTITIES = ("depth", "sdepth_ideal", "sdepth_quotient")


class SequenceReport(namedtuple("SequenceReport",
                                "quantity kmax values char engine")):
    __slots__ = ()
    # values[i] is the value at symbolic power i+1

    def to_dict(self):
        return dict(self._asdict(), values=[json_value(v) for v in self.values])


class StabilityReport(namedtuple(
        "StabilityReport", "quantity kmax values window_min first_attainment "
        "square_bound tail_guarantee certified certification_rule "
        "ell_s_estimate bight_bound char", defaults=(None, None, 0))):
    __slots__ = ()

    def to_dict(self):
        out = dict(self._asdict(), values=list(self.values))
        optional = {k: out.pop(k) for k in ("ell_s_estimate", "bight_bound")}
        out.update((k, v) for k, v in optional.items() if v is not None)
        return out


class CheckResult(namedtuple("CheckResult",
                             "name passed comparisons counterexample",
                             defaults=(None,))):
    __slots__ = ()
    # comparisons: per-instance dicts

    def to_dict(self):
        out = {
            "check": self.name,
            "result": "PASS" if self.passed else "FAIL",
            "comparisons": list(self.comparisons),
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class MatroidReport(namedtuple(
        "MatroidReport", "n dim ell_s rows all_claims_hold degenerate char",
        defaults=(False, 0))):
    __slots__ = ()

    def to_dict(self):
        return dict(self._asdict(), rows=list(self.rows))


def _value_at(ideal, k, quantity, engine, char, node_budget):
    power = ideal.symbolic_power(k)
    if quantity == "depth":
        return depth(power, engine, char).depth
    kind = "ideal" if quantity == "sdepth_ideal" else "quotient"
    return sdepth(power, kind, node_budget).value


def sequence(ideal, quantity, kmax, engine="cross_check", char=0,
             node_budget=DEFAULT_NODE_BUDGET):
    """Values of the chosen quantity on I^(1), ..., I^(kmax)."""
    check_char(char)
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    values = tuple(
        _value_at(ideal, k, quantity, engine, char, node_budget)
        for k in range(1, kmax + 1)
    )
    return SequenceReport(quantity, kmax, values, char, engine)


def analyze_stability(ideal, quantity, kmax, engine="cross_check", char=0,
                      node_budget=DEFAULT_NODE_BUDGET):
    """Window minimum, first attainment index, the square stabilization
    bound, and whether the window minimum is certified to be the limit."""
    report = sequence(ideal, quantity, kmax, engine, char, node_budget)
    values = report.values
    m = min(values)
    t = values.index(m) + 1
    bound = max(1, t * t - t)
    certified, rule = _certify(ideal, quantity, m)
    tail = (
        f"values[k] == {m} for all k >= {bound}" if certified
        else f"values[k] <= {m} for all k >= {bound}"
    )
    ell_s = None
    bight_bound = None
    if quantity == "depth":
        if certified:
            ell_s = ideal.n - m
        bight_bound = _bight_bound(ideal.n, ideal.bight())
    return StabilityReport(
        quantity=quantity,
        kmax=kmax,
        values=values,
        window_min=m,
        first_attainment=t,
        square_bound=bound,
        tail_guarantee=tail,
        certified=certified,
        certification_rule=rule if certified else "upper bound for the limit",
        ell_s_estimate=ell_s,
        bight_bound=bight_bound,
        char=char,
    )


def _bight_bound(n, bight):
    """n (n + 1) bight^(n/2) as a float, or its exact integer ceiling where
    the float would overflow."""
    try:
        bound = n * (n + 1) * bight ** (n / 2)
    except OverflowError:
        bound = math.inf
    if math.isfinite(bound):
        return bound
    return math.isqrt((n * (n + 1)) ** 2 * bight ** n - 1) + 1


def _certify(ideal, quantity, window_min):
    """Rules under which a window minimum is provably the limit."""
    if window_min == 0:
        return True, "floor"
    if len(ideal.gens) == 1 and quantity in ("depth", "sdepth_ideal"):
        # symbolic powers of a principal ideal are its ordinary powers;
        # depth is constant and a principal ideal is one Stanley space
        return True, "principal"
    # `sequence` built I^(1), so I is squarefree, proper and nonzero, and
    # its complex contains the empty face
    if quantity in ("depth", "sdepth_quotient") and \
            complex_of_ideal(ideal).is_matroid()[0]:
        return True, "matroid"
    return False, None


def _admissible_j(m, k):
    return [j for j in range(m - k, m + 1) if k * m + j >= 1]


def _check(name, ideal, rows, details=None):
    """The check over the rows: its counterexample is the first row whose
    ok is false, or that row's entry in details, with the ideal's
    generators attached."""
    failed = next((i for i, row in enumerate(rows) if not row["ok"]), None)
    counterexample = None if failed is None else dict(
        (rows if details is None else details)[failed],
        ideal=[list(g) for g in ideal.gens])
    return CheckResult(name, failed is None, tuple(rows), counterexample)


def _compare_powers(name, ideal, m, k, kinds, value):
    """value(kind, I^(m)) >= value(kind, I^(km+j)) for each kind and all
    admissible j; a kind of None puts no "kind" key in the rows."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    rows = []
    for kind in kinds:
        lhs = value(kind, ideal.symbolic_power(m))
        for j in _admissible_j(m, k):
            rhs = value(kind, ideal.symbolic_power(k * m + j))
            rows.append(dict({} if kind is None else {"kind": kind},
                             m=m, k=k, j=j, lhs=json_value(lhs),
                             rhs=json_value(rhs), ok=lhs >= rhs))
    return _check(name, ideal, rows)


def verify_depth_comparison(ideal, m, k, char=0):
    """Takayama depth(S/I^(m)) >= depth(S/I^(km+j)) for all admissible j."""
    return _compare_powers(
        "depsym", ideal, m, k, (None,),
        lambda _, power: depth_via_takayama(power, char).depth)


def verify_sdepth_comparison(ideal, m, k, node_budget=DEFAULT_NODE_BUDGET):
    """sdepth(I^(m)) >= sdepth(I^(km+j)) and the quotient analogue."""
    return _compare_powers(
        "sdepsym", ideal, m, k, ("ideal", "quotient"),
        lambda kind, power: sdepth(power, kind, node_budget).value)


def verify_power_membership(ideal, m, k, samples=100, seed=0):
    """u in I^(m) iff u^(k+1) in I^(km+j), sampled over random monomials."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    rows, details = [], []
    for _ in range(samples):
        u = tuple(rng.randint(0, m + k) for _ in range(ideal.n))
        lhs = ideal.symbolic_contains(m, u)
        for j in _admissible_j(m, k):
            rhs = ideal.symbolic_contains(k * m + j, pow_exp(u, k + 1))
            rows.append({"u": list(u), "j": j, "ok": lhs == rhs})
            details.append({"u": list(u), "m": m, "k": k, "j": j,
                            "lhs": lhs, "rhs": rhs})
    return _check("power-lemma", ideal, rows, details)


def verify_colon_identity(ideal, kmax):
    """(I^(k) : x_1...x_n) is the unit ideal for k <= height and equals
    I^(k-height) beyond; needs an unmixed ideal."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not ideal.is_unmixed():
        raise ValueError("the colon identity requires an unmixed ideal")
    h = ideal.height()
    all_vars = (1,) * ideal.n
    rows, details = [], []
    for k in range(1, kmax + 1):
        actual = ideal.symbolic_power(k).colon(all_vars)
        if k <= h:
            expected = MonomialIdeal.from_generators([(0,) * ideal.n], ideal.n)
        else:
            expected = ideal.symbolic_power(k - h)
        rows.append({"k": k, "height": h, "ok": actual == expected})
        details.append({"k": k, "height": h,
                        "actual": [list(g) for g in actual.gens],
                        "expected": [list(g) for g in expected.gens]})
    return _check("colon-lemma", ideal, rows, details)


def verify_splitting_bound(ideal, variable=0, node_budget=DEFAULT_NODE_BUDGET):
    """sdepth(I) >= min(sdepth of I with the variable removed, computed in
    the smaller ring, sdepth of (I : x_variable))."""
    restriction, colon_part = split_by_variable(ideal, variable)
    lhs = sdepth(ideal, "ideal", node_budget).value
    restr_val = sdepth(restriction, "ideal", node_budget).value
    colon_val = sdepth(colon_part, "ideal", node_budget).value
    return _check("splitting-bound", ideal, [{
        "variable": variable + 1, "lhs": json_value(lhs),
        "restriction": json_value(restr_val), "colon": json_value(colon_val),
        "ok": lhs >= min(restr_val, colon_val)}])


def matroid_report(delta, kmax, char=0, node_budget=DEFAULT_NODE_BUDGET):
    """Per-power depth/sdepth rows for the Stanley-Reisner ideal of a
    matroid, with the Cohen-Macaulay and sdepth claims checked on each."""
    check_char(char)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    is_mat, witness = delta.is_matroid()
    if not is_mat:
        raise ValueError(
            f"not a matroid; exchange fails for faces "
            f"{[v + 1 for v in witness[0]]} and {[v + 1 for v in witness[1]]}"
        )
    n = delta.n
    d = delta.dim()
    ideal = delta.stanley_reisner_ideal()
    # a zero ideal: Delta is the full simplex, so d = n - 1 and S/I = S
    dim = n if ideal.is_zero else n - ideal.height()
    rows = []
    for k in range(1, kmax + 1):
        dep, sq, si = (n, n, INFINITY) if ideal.is_zero else (
            _value_at(ideal, k, q, "cross_check", char, node_budget)
            for q in ("depth", "sdepth_quotient", "sdepth_ideal"))
        rows.append({
            "k": k, "depth": dep, "dim": dim, "cohen_macaulay": dep == dim,
            "sdepth_quotient": sq,
            "sdepth_ideal": json_value(si),
            "claims_hold": (dep == d + 1) and (dep == dim) and (sq == dep)
            and (si >= d + 2),
        })
    return MatroidReport(n, d, n - d - 1, tuple(rows),
                         all(row["claims_hold"] for row in rows),
                         degenerate=ideal.is_zero, char=char)
