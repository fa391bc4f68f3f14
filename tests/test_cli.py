import argparse
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from symdepth import MonomialIdeal, SdepthResult, formats
from symdepth.cli import build_parser, main
from symdepth.complexes import homology_dims
from symdepth.depth import DepthWitness
from _corpus import cycle

TRIANGLE_JSON = json.dumps(
    {"n": 3, "generators": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}
)
HOLLOW_TRIANGLE_JSON = json.dumps({"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]})
# one digit past the limit that int() itself enforces by default
HUGE = "1" + "0" * 4300


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(TRIANGLE_JSON)
    return str(path)


@pytest.fixture
def hollow_file(tmp_path):
    path = tmp_path / "hollow.json"
    path.write_text(HOLLOW_TRIANGLE_JSON)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parents[1] / "src"

# the CLI in a fresh interpreter whose address space is capped at 1 GiB, so
# that a run without a memory bound fails fast instead of filling the machine
LIMITED_MAIN = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from symdepth.cli import main; sys.exit(main(sys.argv[1:]))")


def refuse_enumeration(*args):
    raise AssertionError("an exponent box was enumerated")


def run_python(code, *args):
    """Run `python -c code args` with this checkout's package first."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


class TestDepthCommand:
    def test_json_output(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["depth", triangle_file])
        assert code == 0
        data = json.loads(out)
        assert data["depth"] == 1
        assert data["engine"] == "takayama"
        assert data["char"] == 0

    def test_engine_choice(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["depth", triangle_file, "--engine", "betti"])
        assert code == 0
        assert json.loads(out)["depth"] == 1

    def test_text_input(self, tmp_path, capsys):
        path = tmp_path / "ideal.txt"
        path.write_text("n=2\nx1*x2\n")
        code, out, _ = run(capsys, ["depth", str(path)])
        assert code == 0
        assert json.loads(out)["depth"] == 1

    def test_deterministic_output(self, triangle_file, capsys):
        _, first, _ = run(capsys, ["depth", triangle_file])
        _, second, _ = run(capsys, ["depth", triangle_file])
        assert first == second

    def test_table_format(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["depth", triangle_file, "--format", "table"])
        assert code == 0
        assert "depth" in out and "1" in out

    def test_principal_ideal_in_many_variables(self, tmp_path, capsys,
                                               monkeypatch):
        # the Taylor bound n - mu(I) ends the scan at its first complex,
        # so the engine takes one homology call
        engine = importlib.import_module("symdepth.depth")
        calls = []

        def counted(facets, char):
            calls.append(facets)
            return homology_dims(facets, char)

        monkeypatch.setattr(engine, "_homology_dims", counted)
        path = tmp_path / "principal.json"
        path.write_text(json.dumps({"n": 40, "generators": [[1] * 40]}))
        code, out, _ = run(capsys, ["depth", str(path), "--engine", "takayama"])
        assert len(calls) == 1
        assert code == 0
        assert json.loads(out) == {
            "depth": 39, "engine": "takayama", "char": 0,
            "alpha_plus": [0] * 40, "cosupport": [], "homology_index": 38,
        }


class TestBettiCommand:
    def test_totals(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["betti", triangle_file])
        assert code == 0
        data = json.loads(out)
        assert data["total"] == {"0": 1, "1": 3, "2": 2}
        assert data["projective_dimension"] == 2

    @pytest.mark.parametrize("argv", [["depth", "--engine", "betti"],
                                      ["betti"]])
    def test_box_too_large_exits_4(self, tmp_path, capsys, monkeypatch,
                                   argv):
        # (x2, ..., x12)^(2): the Betti engine would scan a 3^11 lcm box
        prime = [tuple(int(j == i) for j in range(12)) for i in range(1, 12)]
        power = MonomialIdeal.from_generators(prime, 12).symbolic_power(2)
        path = tmp_path / "square.json"
        path.write_text(json.dumps(formats.ideal_to_json(power)))
        result = run_python(LIMITED_MAIN, argv[0], str(path), *argv[1:])
        assert result.returncode == 4
        assert result.stdout == ""
        assert "Betti lcm box has 177147 points" in result.stderr
        # the box is refused before its divisor table is made
        monkeypatch.setattr(importlib.import_module("symdepth.depth"),
                            "divisor_masks", refuse_enumeration)
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert (code, out) == (4, "")
        assert "Betti lcm box has 177147 points" in err


class TestSdepthCommand:
    def test_ideal_kind(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["sdepth", triangle_file])
        data = json.loads(out)
        assert code == 0
        assert data["kind"] == "ideal" and data["value"] == 2
        assert data["g"] == [1, 1, 1]
        assert data["intervals"]

    def test_quotient_kind(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["sdepth", triangle_file, "--kind", "quotient"])
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_budget_exhaustion_exit_code(self, triangle_file, capsys):
        code, _, err = run(capsys, ["sdepth", triangle_file, "--budget", "1"])
        assert code == 4
        assert "budget" in err or "nodes" in err

    def test_box_too_large_exits_4(self, tmp_path, capsys, monkeypatch):
        # (x2, ..., x12)^(2) in 12 variables: a 3^11 box, whose order masks
        # alone would take about 8 GB
        prime = [tuple(int(j == i) for j in range(12)) for i in range(1, 12)]
        power = MonomialIdeal.from_generators(prime, 12).symbolic_power(2)
        path = tmp_path / "square.json"
        path.write_text(json.dumps(formats.ideal_to_json(power)))
        result = run_python(LIMITED_MAIN, "sdepth", str(path))
        assert result.returncode == 4
        assert result.stdout == ""
        assert "177147 points" in result.stderr
        # the box is refused before its divisor table is made
        monkeypatch.setattr(importlib.import_module("symdepth.monomial"),
                            "divisor_masks", refuse_enumeration)
        code, out, err = run(capsys, ["sdepth", str(path)])
        assert (code, out) == (4, "")
        assert "177147 points" in err

    def test_frontier_quotient_decided_by_splitting(self, tmp_path, capsys):
        # the search runs out of its 1000 nodes at the counting bound 2, and
        # the splitting finds a witness there with a second budget
        path = tmp_path / "c6_sym2.json"
        power = cycle(6).symbolic_power(2)
        path.write_text(json.dumps(formats.ideal_to_json(power)))
        code, out, _ = run(capsys, ["sdepth", str(path), "--kind", "quotient",
                                    "--budget", "1000"])
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 2
        assert len(data["intervals"]) == 33

    def test_splitting_that_misses_a_point_exits_3(self, tmp_path, capsys,
                                                   monkeypatch):
        # each interval loses its first Stanley space: the exact-cover
        # re-check turns that into an internal error, never a wrong witness
        stanley = importlib.import_module("symdepth.sdepth")
        spaces, dropped = stanley._stanley_spaces, []

        def drop_first(interval, g):
            first, *rest = spaces(interval, g)
            dropped.append(first)
            return rest

        monkeypatch.setattr(stanley, "_stanley_spaces", drop_first)
        path = tmp_path / "c6_sym2.json"
        power = cycle(6).symbolic_power(2)
        path.write_text(json.dumps(formats.ideal_to_json(power)))
        code, out, err = run(capsys, ["sdepth", str(path), "--kind", "quotient",
                                      "--budget", "1000"])
        assert dropped
        assert code == 3
        assert out == ""
        assert err == ("internal error: RuntimeError: splitting produced no "
                       "interval partition of the poset\n")

    def test_frontier_ideal_still_exits_4(self, tmp_path, capsys):
        path = tmp_path / "c6_sym2.json"
        power = cycle(6).symbolic_power(2)
        path.write_text(json.dumps(formats.ideal_to_json(power)))
        code, out, err = run(capsys, ["sdepth", str(path), "--kind", "ideal",
                                      "--budget", "1000"])
        assert code == 4
        assert out == ""
        assert "exceeded 1000 nodes" in err


class TestSymbolicPowerCommand:
    def test_triangle_square(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["symbolic-power", triangle_file, "-k", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert [1, 1, 1] in data["generators"]
        assert data["equals_ordinary_power"] is False

    def test_principal_power_flag(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "generators": [[1, 1]]}))
        code, out, _ = run(capsys, ["symbolic-power", str(path), "-k", "3"])
        assert code == 0
        assert json.loads(out)["equals_ordinary_power"] is True

    def test_bad_k(self, triangle_file, capsys):
        code, _, err = run(capsys, ["symbolic-power", triangle_file, "-k", "0"])
        assert code == 2
        assert "error" in err


class TestSequenceCommand:
    def test_json(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["sequence", triangle_file, "--kmax", "3"])
        assert code == 0
        assert json.loads(out)["values"] == [1, 1, 1]

    def test_csv(self, triangle_file, capsys):
        code, out, _ = run(capsys, [
            "sequence", triangle_file, "--kmax", "2", "--format", "csv",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value,engine,char"
        assert lines[1] == "1,1,cross_check,0"
        assert lines[2] == "2,1,cross_check,0"


class TestAnalyzeCommand:
    def test_matroid_certification(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["analyze", triangle_file, "--kmax", "3"])
        assert code == 0
        data = json.loads(out)
        assert data["certified"] is True
        assert data["certification_rule"] == "matroid"
        assert data["ell_s_estimate"] == 2

    def test_bight_bound_past_the_float_range(self, tmp_path, capsys):
        # n (n + 1) bight^(n/2) overflows a float at n = 300: the exact
        # integer is reported instead
        path = tmp_path / "maximal.json"
        path.write_text(json.dumps({"n": 300, "generators": [
            [int(i == j) for j in range(300)] for i in range(300)]}))
        code, out, err = run(capsys, ["analyze", str(path), "--quantity",
                                      "depth", "--engine", "takayama",
                                      "--kmax", "1"])
        assert (code, err) == (0, "")
        assert json.loads(out)["bight_bound"] == 300 * 301 * 300 ** 150

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_bight_bound_past_the_digit_limit(self, tmp_path, capsys, fmt):
        # 9000 * 9001 * 10^4500 has 4,508 digits, past the interpreter's
        # default limit of 4,300 on int-to-str conversion; the limit is
        # lifted only while printing
        path = tmp_path / "maximal.txt"
        path.write_text("n=9000\n" + "\n".join(f"x{i}" for i in range(1, 11)))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, ["analyze", str(path), "--quantity",
                                      "depth", "--engine", "takayama",
                                      "--kmax", "1", "--format", fmt])
        assert (code, err) == (0, "")
        digits = re.search(r'bight_bound"?:? +(\d+)', out).group(1)
        assert digits == "81009000" + "0" * 4500
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def first_call_then(first, later):
    """A stand-in whose first call returns first, and later ones later."""
    calls = itertools.count()
    return lambda *args, **kwargs: first if next(calls) == 0 else later


class TestVerifyCommands:
    def test_depsym_pass(self, triangle_file, capsys):
        code, out, _ = run(capsys, [
            "verify", "depsym", triangle_file, "-m", "2", "-k", "2",
        ])
        assert code == 0
        assert json.loads(out)["result"] == "PASS"

    @pytest.mark.parametrize("command, options", [
        (["verify", "depsym"], ["-m", "1", "-k", "2"]),
        (["sequence"], ["--quantity", "depth", "--kmax", "3",
                        "--engine", "takayama"]),
    ])
    def test_takayama_drivers_fold_no_power(self, tmp_path, capsys,
                                            monkeypatch, command, options):
        # the fold runs only at k = 1, for minimal primes: I^(2) and I^(3)
        # are read off those and k
        monomial = importlib.import_module("symdepth.monomial")
        complexes = importlib.import_module("symdepth.complexes")
        fold = monomial._symbolic_power_cached
        folded = []

        def counted(n, primes, k):
            folded.append(k)
            return fold(n, primes, k)

        for module in (monomial, complexes):
            monkeypatch.setattr(module, "_symbolic_power_cached", counted)
        path = tmp_path / "c7.json"
        path.write_text(json.dumps(formats.ideal_to_json(cycle(7))))
        code, out, _ = run(capsys, [*command, str(path), *options])
        assert code == 0
        assert set(folded) <= {1}
        values = json.loads(out).get("values") or [
            row["rhs"] for row in json.loads(out)["comparisons"]]
        assert values == [2, 2, 2]

    def test_sdepsym_pass(self, triangle_file, capsys):
        code, out, _ = run(capsys, [
            "verify", "sdepsym", triangle_file, "-m", "1", "-k", "2",
        ])
        assert code == 0
        assert json.loads(out)["result"] == "PASS"

    def test_power_lemma_pass(self, triangle_file, capsys):
        code, out, _ = run(capsys, [
            "verify", "power-lemma", triangle_file, "-m", "2", "-k", "1",
            "--samples", "40", "--seed", "5",
        ])
        assert code == 0
        assert json.loads(out)["result"] == "PASS"

    def test_colon_lemma_pass(self, triangle_file, capsys):
        code, out, _ = run(capsys, [
            "verify", "colon-lemma", triangle_file, "--kmax", "5",
        ])
        assert code == 0
        assert json.loads(out)["result"] == "PASS"

    def test_colon_lemma_mixed_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(
            {"n": 3, "generators": [[1, 0, 1], [0, 1, 1]]}
        ))
        code, _, err = run(capsys, [
            "verify", "colon-lemma", str(path), "--kmax", "2",
        ])
        assert code == 2
        assert "unmixed" in err

    def test_splitting_bound_pass(self, triangle_file, capsys):
        code, out, _ = run(capsys, [
            "verify", "splitting-bound", triangle_file, "--var", "2",
        ])
        assert code == 0
        data = json.loads(out)
        assert data["result"] == "PASS"
        assert data["comparisons"][0]["variable"] == 2

    def test_splitting_bound_of_the_unit_ideal(self, tmp_path, capsys):
        # the restriction lives in no variables, where sdepth is 0
        path = tmp_path / "unit.json"
        path.write_text('{"n": 1, "generators": [[0]]}')
        code, out, err = run(capsys, ["verify", "splitting-bound", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "check": "splitting-bound", "result": "PASS", "comparisons": [
                {"variable": 1, "lhs": 1, "restriction": 0, "colon": 1,
                 "ok": True}]}

    def test_depsym_table_format(self, triangle_file, capsys):
        code, out, _ = run(capsys, [
            "verify", "depsym", triangle_file, "-m", "1", "-k", "1",
            "--format", "table",
        ])
        assert code == 0
        assert out == (
            "check        depsym\n"
            "result       PASS\n"
            "comparisons:\n"
            "    m    1\n    k    1\n    j    0\n"
            "    lhs  1\n    rhs  1\n    ok   True\n"
            "\n"
            "    m    1\n    k    1\n    j    1\n"
            "    lhs  1\n    rhs  1\n    ok   True\n"
            "\n")

    def _counterexample(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 1
        data = json.loads(out)
        assert data["result"] == "FAIL"
        return data["counterexample"]

    TRIANGLE_GENS = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]  # as stored

    def test_depsym_counterexample(self, triangle_file, capsys, monkeypatch):
        # depth S/I^(m) = 0 against depth 1 at every higher power
        monkeypatch.setattr(
            "symdepth.stability._symbolic_depth", first_call_then(
                DepthWitness(0, "takayama", 0), DepthWitness(1, "takayama", 0)))
        assert self._counterexample(capsys, [
            "verify", "depsym", triangle_file, "-m", "2", "-k", "1",
        ]) == {"m": 2, "k": 1, "j": 1, "lhs": 0, "rhs": 1, "ok": False,
               "ideal": self.TRIANGLE_GENS}

    def test_sdepsym_counterexample(self, triangle_file, capsys, monkeypatch):
        # I^(1) is searched once, for the lhs and the row j = -1 alike
        monkeypatch.setattr("symdepth.stability.sdepth", first_call_then(
            SdepthResult("ideal", 1), SdepthResult("ideal", 2)))
        assert self._counterexample(capsys, [
            "verify", "sdepsym", triangle_file, "-m", "1", "-k", "2",
        ]) == {"kind": "ideal", "m": 1, "k": 2, "j": 0, "lhs": 1, "rhs": 2,
               "ok": False, "ideal": self.TRIANGLE_GENS}

    def test_power_lemma_counterexample(self, triangle_file, capsys,
                                        monkeypatch):
        # u in I^(k) exactly for k = 1: u^2 is then outside I^(2)
        monkeypatch.setattr(MonomialIdeal, "symbolic_contains",
                            lambda self, k, u: k == 1)
        counterexample = self._counterexample(capsys, [
            "verify", "power-lemma", triangle_file, "-m", "1", "-k", "1",
            "--samples", "1",
        ])
        assert len(counterexample.pop("u")) == 3
        assert counterexample == {"m": 1, "k": 1, "j": 1, "lhs": True,
                                  "rhs": False, "ideal": self.TRIANGLE_GENS}

    def test_colon_lemma_counterexample(self, triangle_file, capsys,
                                        monkeypatch):
        # (I^(k) : x1 x2 x3) = I^(k): not the unit ideal at k = 1
        monkeypatch.setattr(MonomialIdeal, "colon", lambda self, u: self)
        assert self._counterexample(capsys, [
            "verify", "colon-lemma", triangle_file, "--kmax", "2",
        ]) == {"k": 1, "height": 2, "actual": self.TRIANGLE_GENS,
               "expected": [[0, 0, 0]], "ideal": self.TRIANGLE_GENS}

    def test_splitting_bound_counterexample(self, triangle_file, capsys,
                                            monkeypatch):
        monkeypatch.setattr("symdepth.stability.sdepth", first_call_then(
            SdepthResult("ideal", 0), SdepthResult("ideal", 1)))
        assert self._counterexample(capsys, [
            "verify", "splitting-bound", triangle_file, "--var", "1",
        ]) == {"variable": 1, "lhs": 0, "restriction": 1, "colon": 1,
               "ok": False, "ideal": self.TRIANGLE_GENS}


class TestMatroidReportCommand:
    def test_hollow_triangle(self, hollow_file, capsys):
        code, out, _ = run(capsys, ["matroid-report", hollow_file, "--kmax", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["all_claims_hold"] is True
        assert data["ell_s"] == 1

    def test_non_matroid_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 4, "facets": [[1, 2], [3, 4]]}))
        code, _, err = run(capsys, ["matroid-report", str(path), "--kmax", "1"])
        assert code == 2
        assert "matroid" in err


class TestComplexCommands:
    def test_check_matroid_true(self, hollow_file, capsys):
        code, out, _ = run(capsys, ["complex", "check-matroid", hollow_file])
        assert code == 0
        assert json.loads(out)["matroid"] is True

    def test_check_matroid_false_with_witness(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 4, "facets": [[1, 2], [3, 4]]}))
        code, out, _ = run(capsys, ["complex", "check-matroid", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["matroid"] is False
        assert set(data["witness"]) == {"F", "G"}

    def test_check_vd(self, hollow_file, capsys):
        code, out, _ = run(capsys, ["complex", "check-vd", hollow_file])
        assert code == 0
        assert json.loads(out)["vertex_decomposable"] is True

    def test_check_vd_on_a_long_path(self, tmp_path, capsys):
        # decided without recursion: 500 vertices are past the limit
        path = tmp_path / "path.json"
        path.write_text(json.dumps(
            {"n": 500, "facets": [[v, v + 1] for v in range(1, 500)]}))
        code, out, err = run(capsys, ["complex", "check-vd", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"vertex_decomposable": True}

    def test_check_matroid_without_listing_every_face(self, tmp_path, capsys,
                                                      monkeypatch):
        # a 20-vertex simplex and a point: the witness has faces of size <= 2
        monkeypatch.setattr("symdepth.SimplicialComplex.face_masks",
                            refuse_enumeration)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 21, "facets": [list(range(1, 21)),
                                                         [21]]}))
        code, out, err = run(capsys, ["complex", "check-matroid", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"matroid": False,
                                   "witness": {"F": [1, 2], "G": [21]}}

    def test_sr_ideal(self, hollow_file, capsys):
        code, out, _ = run(capsys, ["complex", "sr-ideal", hollow_file])
        assert code == 0
        assert json.loads(out) == {"n": 3, "generators": [[1, 1, 1]]}

    def test_sr_ideal_of_one_vertex_in_many(self, tmp_path, capsys):
        path = tmp_path / "vertex.json"
        path.write_text('{"n": 22, "facets": [[1]]}')
        code, out, err = run(capsys, ["complex", "sr-ideal", str(path)])
        assert code == 0 and err == ""
        generators = json.loads(out)["generators"]
        assert sorted(g.index(1) + 1 for g in generators) == list(range(2, 23))
        assert all(sum(g) == 1 for g in generators)


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["depth", "/nonexistent/ideal.json"])
        assert code == 2
        assert "error" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["depth", str(path)])
        assert code == 2

    def test_malformed_text(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n=2\ny1*y2\n")
        code, _, _ = run(capsys, ["depth", str(path)])
        assert code == 2

    @pytest.mark.parametrize("char", ["1", "4", "6"])
    @pytest.mark.parametrize("command, options", [
        ("depth", ["--engine", "takayama"]),
        ("depth", ["--engine", "betti"]),
        ("depth", []),
        ("betti", []),
        ("sequence", ["--quantity", "sdepth_ideal", "--kmax", "1"]),
        ("analyze", ["--kmax", "1"]),
        ("verify depsym", ["-m", "1", "-k", "1"]),
    ], ids=lambda v: v.replace(" ", "-") if isinstance(v, str) else None)
    def test_bad_char_is_input_error(self, triangle_file, capsys, command,
                                     options, char):
        code, out, err = run(capsys, [*command.split(), triangle_file,
                                      *options, "--char", char])
        assert code == 2
        assert out == ""
        assert "characteristic" in err

    def test_large_prime_char_is_quick(self, triangle_file, capsys,
                                       monkeypatch):
        # 2^61 - 1 is prime; trial division to its square root never ended.
        # Each primality test (the option and each entry point check the
        # char; all but the first read the memo) takes at most 1 + s
        # modular powers for each of its 12 bases, where 2^61 - 2 = d * 2^s
        # with d odd (s = 1)
        homology = importlib.import_module("symdepth.homology")
        tests, powers = [], []

        def tested(p):
            tests.append(p)
            return is_prime(p)

        def counted(*args):
            powers.append(args)
            return pow(*args)

        is_prime = homology._is_prime
        is_prime.cache_clear()  # Miller-Rabin runs here, whatever ran before
        monkeypatch.setattr(homology, "_is_prime", tested)
        monkeypatch.setattr(homology, "pow", counted, raising=False)
        char = 2**61 - 1
        code, out, _ = run(capsys, ["depth", triangle_file,
                                    "--char", str(char)])
        assert tests and set(tests) == {char}
        assert len(tests) <= len(powers) <= 24 * len(tests)
        assert code == 0
        assert json.loads(out)["char"] == char

    @pytest.mark.parametrize("char", [2**64, 318665857834031151167461])
    def test_char_from_2_64_on_is_input_error(self, triangle_file, capsys,
                                              char):
        code, out, err = run(capsys, ["depth", triangle_file,
                                      "--char", str(char)])
        assert code == 2
        assert out == ""
        assert f"characteristic must be below 2^64, got {char}" in err

    @pytest.mark.parametrize("argv, text, message", [
        (["depth", "{ideal}", "--char", HUGE], None,
         "argument --char: characteristic must be below 2^64, got 4301 digits"),
        (["sdepth", "{ideal}", "--budget", HUGE], None,
         "argument --budget: node budget must have at most 4300 digits, "
         "got 4301 digits"),
        (["depth", "{input}"], f"n={HUGE}\nx1*x2\n",
         "error: variable count n must have at most 4300 digits"),
        (["depth", "{input}"], f"n=3\nx1^{HUGE}*x2\n",
         "error: exponent must have at most 4300 digits"),
        (["depth", "{input}"], f'{{"n": 3, "generators": [[{HUGE}, 1, 0]]}}',
         "error: exponent must have at most 4300 digits"),
        (["complex", "check-vd", "{input}"],
         f'{{"n": 3, "facets": [[1, {HUGE}]]}}',
         "error: vertex must have at most 4300 digits"),
    ], ids=["char", "budget", "text-n", "text-exponent", "json-exponent",
            "json-vertex"])
    def test_huge_integer_names_its_bound(self, triangle_file, tmp_path,
                                          capsys, argv, text, message):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        files = {"{ideal}": triangle_file, "{input}": str(path)}
        code, out, err = run(capsys, [files.get(a, a) for a in argv])
        assert code == 2
        assert out == ""
        assert message in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("command, text, message", [
        ("depth", "n=100000000000000000000\nx1*x2\n",
         "error: variable count n must be at most 10000"),
        ("depth", '{"n": 100000000000000000000, "generators": [[1, 1]]}',
         "error: variable count n must be at most 10000"),
        ("complex check-matroid", '{"n": 10001, "facets": [[1]]}',
         "error: vertex count n must be at most 10000"),
    ], ids=["text", "json", "complex-json"])
    def test_ring_size_above_the_bound_is_input_error(self, tmp_path, capsys,
                                                      command, text, message):
        path = tmp_path / "input"
        path.write_text(text)
        code, out, err = run(capsys, [*command.split(), str(path)])
        assert code == 2
        assert out == ""
        assert message in err

    def test_ring_size_at_the_bound_is_read(self, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_text("n=10000\nx1*x2\n")
        code, out, _ = run(capsys, ["depth", str(path), "--engine", "betti"])
        assert code == 0
        assert json.loads(out)["depth"] == 9999

    def test_budget_at_the_digit_limit_is_read(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["sdepth", triangle_file,
                                    "--budget", "9" * 4300])
        assert code == 0
        assert json.loads(out)["value"] == 2

    @pytest.mark.parametrize("argv", [
        ["depth", "--format", "csv"],
        ["sdepth", "--char", "2"],
    ])
    def test_option_not_offered_is_usage_error(self, triangle_file, capsys,
                                               argv):
        code, out, err = run(capsys, [argv[0], triangle_file, *argv[1:]])
        assert code == 2
        assert out == ""
        assert argv[1] in err

    @pytest.mark.parametrize("command, message", [
        ("sdepth {ideal} --budget 0", "node budget must be >= 1, got 0"),
        ("sequence {ideal} --quantity sdepth_ideal --kmax 1 --budget -3",
         "node budget must be >= 1, got -3"),
        ("verify colon-lemma {ideal} --kmax 0", "kmax must be >= 1"),
        ("verify power-lemma {ideal} -m 1 -k 1 --samples 0",
         "samples must be >= 1"),
        ("matroid-report {complex} --kmax 0", "kmax must be >= 1"),
        ("verify splitting-bound {ideal} --var 0",
         "variable index 0 out of range 1..3"),
        ("verify splitting-bound {ideal} --var 4",
         "variable index 4 out of range 1..3"),
        ("sdepth {zero} --budget 0", "node budget must be >= 1, got 0"),
        ("sdepth {unit} --kind quotient --budget -5",
         "node budget must be >= 1, got -5"),
        ("sequence {ideal} --quantity depth --kmax 1 --budget 0",
         "node budget must be >= 1, got 0"),
        ("matroid-report {simplex} --kmax 1 --budget 0",
         "node budget must be >= 1, got 0"),
        ("depth {text_n0}", "variable count must be >= 1"),
        ("betti {text_n0}", "variable count must be >= 1"),
        ("sdepth {text_n0} --kind quotient", "variable count must be >= 1"),
        ("complex sr-ideal {negative}", "vertex count must be >= 1"),
        ("complex check-matroid {facets_int}",
         "facets must be a list of vertex lists"),
        ("complex check-matroid {facet_int}",
         "facets must be a list of vertex lists"),
    ], ids=["budget-0", "budget-negative", "colon-lemma-kmax-0",
            "power-lemma-samples-0", "matroid-report-kmax-0", "var-0",
            "var-4", "budget-0-zero-ideal", "budget-negative-unit-quotient",
            "budget-0-depth-sequence", "budget-0-matroid-simplex",
            "depth-text-n-0", "betti-text-n-0", "sdepth-text-n-0",
            "complex-n-negative", "facets-not-a-list",
            "facet-not-a-list"])
    def test_value_out_of_range_is_input_error(self, triangle_file,
                                               hollow_file, tmp_path, capsys,
                                               command, message):
        files = {"{ideal}": triangle_file, "{complex}": hollow_file}
        for name, text in (("zero", '{"n": 3, "generators": []}'),
                           ("unit", '{"n": 3, "generators": [[0, 0, 0]]}'),
                           ("simplex", '{"n": 3, "facets": [[1, 2, 3]]}'),
                           ("text_n0", "n=0\n"),
                           ("negative", '{"n": -2, "facets": [[]]}'),
                           ("facets_int", '{"n": 3, "facets": 5}'),
                           ("facet_int", '{"n": 3, "facets": [5]}')):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            files[f"{{{name}}}"] = str(path)
        argv = [files.get(word, word) for word in command.split()]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_fractional_exponent_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "frac.json"
        path.write_text('{"n": 2, "generators": [[1.7, 0], [0, 1]]}')
        code, out, err = run(capsys, ["depth", str(path)])
        assert code == 2
        assert out == ""
        assert "1.7" in err

    @pytest.mark.parametrize("exc", [
        RuntimeError("no nonvanishing cohomology found; search box bug"),
        RecursionError("maximum recursion depth exceeded"),
        MemoryError(),
        OverflowError("(34, 'Numerical result out of range')"),
        KeyError("missing"),
        ZeroDivisionError("division by zero"),
    ])
    def test_internal_error_exit_code(self, triangle_file, capsys,
                                      monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("symdepth.cli.depth", fail)
        code, out, err = run(capsys, ["depth", triangle_file])
        assert code == 3
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    # Each "... bug" guard of src, reached by a stub that makes the step
    # before it answer wrongly: the run is an internal error (exit 3), never
    # a failed verification (exit 1), and prints no result.
    @pytest.mark.parametrize("module, name, stub, argv, text, message", [
        ("complexes", "_bases_exchange", lambda facets: False,
         ["complex", "check-matroid"], HOLLOW_TRIANGLE_JSON,
         "no exchange-axiom violation; basis exchange bug"),
        ("depth", "_homology_dims", lambda facets, char: {},
         ["depth", "--engine", "takayama"], TRIANGLE_JSON,
         "no nonvanishing cohomology found; search box bug"),
        ("sdepth", "sdepth_at_least", lambda poset, s, budget=None: None,
         ["sdepth"], TRIANGLE_JSON,
         "no interval partition at level 0; search bug"),
    ], ids=["check-matroid", "depth-takayama", "sdepth"])
    def test_bug_guard_exits_3(self, tmp_path, capsys, monkeypatch, module,
                               name, stub, argv, text, message):
        # the module, not the function that `symdepth.depth` names
        monkeypatch.setattr(importlib.import_module(f"symdepth.{module}"),
                            name, stub)
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run(capsys, [*argv, str(path)])
        assert code == 3
        assert out == ""
        assert err == f"internal error: RuntimeError: {message}\n"

    def test_engine_disagreement_exit_code(self, triangle_file, capsys,
                                           monkeypatch):
        # the module, not the function that `symdepth.depth` names
        engines = importlib.import_module("symdepth.depth")
        betti = DepthWitness(2, "betti", 0, betti_index=1,
                             betti_degree=(1, 1, 0))
        monkeypatch.setattr(engines, "depth_via_betti",
                            lambda ideal, char: betti)
        code, out, err = run(capsys, ["depth", triangle_file])
        assert code == 3
        assert out == ""
        data = json.loads(err)
        assert data["error"] == "engine disagreement"
        assert data["takayama"]["engine"] == "takayama"
        assert data["takayama"]["depth"] == 1
        assert data["betti"] == {"depth": 2, "engine": "betti", "char": 0,
                                 "betti_index": 1, "betti_degree": [1, 1, 0]}


class TestParser:
    def leaves(self, parser):
        subparsers = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
        if not subparsers:
            return [parser]
        return [leaf for child in subparsers[0].choices.values()
                for leaf in self.leaves(child)]

    def test_each_command_names_the_function_it_runs(self):
        leaves = self.leaves(build_parser())
        assert len(leaves) == 15
        assert all(callable(leaf.get_default("run")) for leaf in leaves)

    def test_each_shared_option_reads_the_same_everywhere(self):
        def described(action):
            # a type built by a factory is named by its code and closure
            cells = getattr(action.type, "__closure__", None) or ()
            kind = (getattr(action.type, "__code__", action.type),
                    tuple(cell.cell_contents for cell in cells))
            return (action.option_strings, action.dest, kind, action.default,
                    action.choices, action.required, action.metavar,
                    action.help)

        shared = ("--kmax", "-k", "-m", "--engine", "--char", "--budget",
                  "--format", "--quantity")
        seen = {flag: [] for flag in shared}
        for leaf in self.leaves(build_parser()):
            for action in leaf._actions:
                flag = action.option_strings[:1]
                if flag and flag[0] in seen and "csv" not in (
                        action.choices or ()):  # sequence's own --format
                    seen[flag[0]].append(described(action))
        for flag, descriptions in seen.items():
            assert len(descriptions) >= 2, flag
            assert all(d == descriptions[0] for d in descriptions), flag


class TestStartup:
    def test_import_skips_dataclasses_and_inspect(self):
        result = run_python("import sys, symdepth.cli; print(sorted("
                            "{'dataclasses', 'inspect'} & set(sys.modules)))")
        assert result.returncode == 0
        assert result.stdout == "[]\n"
