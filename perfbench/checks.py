"""Independent checks of every job's output.

Each check returns an outcome: "ok" (a decided answer that passed),
"undecided" (the frontier job ran out of its node budget, exit 4) or
"bad" (a wrong answer, a failed check or an unexpected exit code).
The checks use the benchmark's own arithmetic in `algebra`; the only
call into the package is the public `takayama_complex(...)
.reduced_homology(char)` that re-checks a Takayama depth witness.
"""

import json

import algebra

EXIT_OK = 0
EXIT_BUDGET = 4


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def check_job(job, exit_code, stdout, stderr):
    """(outcome, message) for one finished job."""
    if job.frontier and exit_code == EXIT_BUDGET:
        if "exceeded" in stderr:
            return "undecided", "node budget exhausted"
        return "bad", f"exit 4 without a budget message: {stderr.strip()!r}"
    if exit_code != EXIT_OK:
        return "bad", f"exit code {exit_code}: {stderr.strip()[-300:]!r}"
    try:
        data = json.loads(stdout)
        _CHECKS[job.check](job, data)
    except (CheckFailed, ValueError, KeyError, TypeError) as exc:
        return "bad", f"{type(exc).__name__}: {exc}"
    return "ok", ""


class _Ideal:
    """What the checks know about the ideal in a job's input file."""

    def __init__(self, job):
        self.n = job.n
        self.gens = [tuple(g) for g in job.gens]
        # Minimal primes of a monomial ideal: the minimal vertex covers of
        # its generator supports.
        self.covers = algebra.covers_of(self.n, self.gens)

    @property
    def dim(self):
        """Krull dimension of S/I^(k) for every k: n - height."""
        return self.n - min(len(c) for c in self.covers)


def _depth_value(ideal, value, what):
    # Symbolic powers of a graph's edge ideal never have the maximal ideal
    # as an associated prime, so 1 <= depth <= dim.
    require(isinstance(value, int) and 1 <= value <= ideal.dim,
            f"{what} = {value!r} outside [1, n - height = {ideal.dim}]")


def _check_analyze(job, data):
    ideal = _Ideal(job)
    kmax, char = job.params["kmax"], job.params["char"]
    values = data["values"]
    require(data["quantity"] == "depth" and data["kmax"] == kmax
            and data["char"] == char, "echoed request differs")
    require(len(values) == kmax, f"{len(values)} values for kmax={kmax}")
    for k, value in enumerate(values, 1):
        _depth_value(ideal, value, f"depth S/I^({k})")
    low = min(values)
    require(data["window_min"] == low, "window_min is not the minimum")
    require(data["first_attainment"] == values.index(low) + 1,
            "first_attainment is not the first index of the minimum")
    _check_reference(job, values)


def _check_depsym(job, data):
    ideal = _Ideal(job)
    m, k = job.params["m"], job.params["k"]
    require(data["check"] == "depsym", "wrong check name")
    require(data["result"] == "PASS", "verify depsym did not PASS")
    rows = data["comparisons"]
    js = [j for j in range(m - k, m + 1) if k * m + j >= 1]
    require([row["j"] for row in rows] == js, "comparison rows differ from j range")
    ref = job.params.get("ref")
    for row in rows:
        _depth_value(ideal, row["lhs"], f"depth S/I^({m})")
        _depth_value(ideal, row["rhs"], f"depth S/I^({k * m + row['j']})")
        require(row["ok"] is True and row["lhs"] >= row["rhs"],
                f"row {row} breaks the inequality")
        if ref is not None:
            require(row["lhs"] == ref[m - 1]
                    and row["rhs"] == ref[k * m + row["j"] - 1],
                    f"row {row} differs from reference depths {ref}")


def _check_power_lemma(job, data):
    ideal = _Ideal(job)
    m, k = job.params["m"], job.params["k"]
    require(data["result"] == "PASS", "verify power-lemma did not PASS")
    rows = data["comparisons"]
    js = [j for j in range(m - k, m + 1) if k * m + j >= 1]
    require(len(rows) == job.params["samples"] * len(js),
            f"{len(rows)} comparison rows")
    for row in rows:
        u, j = tuple(row["u"]), row["j"]
        lhs = algebra.symbolic_member(ideal.covers, m, u)
        rhs = algebra.symbolic_member(
            ideal.covers, k * m + j, tuple((k + 1) * a for a in u))
        require(row["ok"] is True and lhs == rhs,
                f"membership of {u} (j={j}) recomputes to {lhs} vs {rhs}")


def _check_depth(job, data):
    """Re-check the Takayama witness through the package's public API."""
    from symdepth import DegreePair, MonomialIdeal, takayama_complex

    ideal = _Ideal(job)
    value, char = data["depth"], job.params["char"]
    _depth_value(ideal, value, "depth S/I")
    require(data["engine"] == "takayama" and data["char"] == char,
            "not a Takayama witness")
    cosupport = frozenset(i - 1 for i in data["cosupport"])
    h = data["homology_index"]
    require(value == h + len(cosupport) + 1,
            "depth != homology index + |cosupport| + 1")
    complex_ = takayama_complex(
        MonomialIdeal.from_generators(ideal.gens, ideal.n),
        DegreePair(tuple(data["alpha_plus"]), cosupport),
    )
    require(complex_.reduced_homology(char).dim(h) > 0,
            f"witness complex has no reduced homology in degree {h}")


def _check_sdepth_value(ideal, kind, value):
    if kind == "ideal":
        require(isinstance(value, int) and 1 <= value <= ideal.n,
                f"sdepth(I) = {value!r} outside [1, n]")
    else:
        require(isinstance(value, int) and 0 <= value <= ideal.dim,
                f"sdepth(S/I) = {value!r} outside [0, dim S/I]")


def _check_sequence(job, data):
    ideal = _Ideal(job)
    quantity = job.params["quantity"]
    require(data["quantity"] == quantity
            and len(data["values"]) == job.params["kmax"],
            "echoed request differs")
    kind = quantity.split("_")[1]
    for value in data["values"]:
        _check_sdepth_value(ideal, kind, value)
    _check_reference(job, data["values"])


def _check_sdepsym(job, data):
    ideal = _Ideal(job)
    m, k = job.params["m"], job.params["k"]
    require(data["result"] == "PASS", "verify sdepsym did not PASS")
    ref = job.params.get("ref") or {}
    for row in data["comparisons"]:
        kind = row["kind"]
        for side in ("lhs", "rhs"):
            _check_sdepth_value(ideal, kind, row[side])
        require(row["ok"] is True and row["lhs"] >= row["rhs"],
                f"row {row} breaks the inequality")
        values = ref.get(kind)
        if values is not None:
            require(row["lhs"] == values[m - 1]
                    and row["rhs"] == values[k * m + row["j"] - 1],
                    f"row {row} differs from reference {values}")


def _check_splitting(job, data):
    require(data["result"] == "PASS", "verify splitting-bound did not PASS")
    (row,) = data["comparisons"]
    require(row["ok"] is True
            and row["lhs"] >= min(row["restriction"], row["colon"]),
            f"row {row} breaks the bound")
    ref = job.params.get("ref")
    if ref is not None:
        require(all(row[key] == ref[key] for key in ref),
                f"row {row} differs from reference {ref}")


def _check_sdepth(job, data):
    """The witness must be an exact interval cover of the characteristic
    poset, built here, whose least top rank is the reported value."""
    ideal = _Ideal(job)
    kind = job.params["kind"]
    require(data["kind"] == kind, "wrong kind")
    g = algebra.degree_bounds(ideal.n, ideal.gens)
    require(tuple(data["g"]) == g, f"box corner {data['g']} is not {list(g)}")
    points = {
        c for c in algebra.box(g)
        if algebra.in_ideal(ideal.gens, c) == (kind == "ideal")
    }
    seen = set()
    ranks = []
    for a, b in data["intervals"]:
        require(len(a) == len(b) == ideal.n and algebra.divides(a, b),
                f"bad interval [{a}, {b}]")
        for c in algebra.box(tuple(y - x for x, y in zip(a, b))):
            c = tuple(x + d for x, d in zip(a, c))
            require(c in points, f"{c} is not in the poset")
            require(c not in seen, f"{c} is covered twice")
            seen.add(c)
        ranks.append(sum(1 for x, y in zip(b, g) if x == y))
    require(seen == points, f"{len(points - seen)} poset points uncovered")
    require(min(ranks) == data["value"],
            f"least top rank {min(ranks)} != value {data['value']}")
    _check_sdepth_value(ideal, kind, data["value"])


def _check_reference(job, values):
    ref = job.params.get("ref")
    if ref is not None:
        require(list(values) == list(ref[:len(values)]),
                f"values {values} differ from reference {ref}")


_CHECKS = {
    "analyze": _check_analyze,
    "depsym": _check_depsym,
    "power-lemma": _check_power_lemma,
    "depth": _check_depth,
    "sequence": _check_sequence,
    "sdepsym": _check_sdepsym,
    "splitting-bound": _check_splitting,
    "sdepth": _check_sdepth,
}
