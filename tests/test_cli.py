import json

import pytest

from symdepth.cli import main

TRIANGLE_JSON = json.dumps(
    {"n": 3, "generators": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}
)
HOLLOW_TRIANGLE_JSON = json.dumps({"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]})


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


class TestBettiCommand:
    def test_totals(self, triangle_file, capsys):
        code, out, _ = run(capsys, ["betti", triangle_file])
        assert code == 0
        data = json.loads(out)
        assert data["total"] == {"0": 1, "1": 3, "2": 2}
        assert data["projective_dimension"] == 2


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


class TestVerifyCommands:
    def test_depsym_pass(self, triangle_file, capsys):
        code, out, _ = run(capsys, [
            "verify", "depsym", triangle_file, "-m", "2", "-k", "2",
        ])
        assert code == 0
        assert json.loads(out)["result"] == "PASS"

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

    def test_sr_ideal(self, hollow_file, capsys):
        code, out, _ = run(capsys, ["complex", "sr-ideal", hollow_file])
        assert code == 0
        assert json.loads(out) == {"n": 3, "generators": [[1, 1, 1]]}


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
    ], ids=["budget-0", "budget-negative", "colon-lemma-kmax-0",
            "power-lemma-samples-0", "matroid-report-kmax-0", "var-0",
            "var-4", "budget-0-zero-ideal", "budget-negative-unit-quotient",
            "budget-0-depth-sequence", "budget-0-matroid-simplex",
            "depth-text-n-0", "betti-text-n-0", "sdepth-text-n-0",
            "complex-n-negative"])
    def test_value_out_of_range_is_input_error(self, triangle_file,
                                               hollow_file, tmp_path, capsys,
                                               command, message):
        files = {"{ideal}": triangle_file, "{complex}": hollow_file}
        for name, text in (("zero", '{"n": 3, "generators": []}'),
                           ("unit", '{"n": 3, "generators": [[0, 0, 0]]}'),
                           ("simplex", '{"n": 3, "facets": [[1, 2, 3]]}'),
                           ("text_n0", "n=0\n"),
                           ("negative", '{"n": -2, "facets": [[]]}')):
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
    ])
    def test_internal_error_exit_code(self, triangle_file, capsys,
                                      monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("symdepth.cli.depth", fail)
        code, out, err = run(capsys, ["depth", triangle_file])
        assert code == 3
        assert out == ""
        assert "internal error" in err and type(exc).__name__ in err
