"""Golden CLI transcripts: every command recorded in golden_cli.json gives
the same exit code, stdout and stderr, byte for byte.  They cover every
README example, each verifier in JSON and table format, `analyze` on
every quantity, `matroid-report` (the degenerate complexes included) and
the `-h` text of the program and of each command, check and action at a
terminal width of 80 columns, so a change meant to keep the output must
keep them all.

    PYTHONPATH=src python tests/test_golden_cli.py   # re-record the outputs

Re-recording keeps the inputs and command lines and overwrites what they
print; do it only for a change of output that is meant.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from symdepth.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
DATA = json.loads(GOLDEN.read_text())
# argparse wraps the help text to the width that COLUMNS names
COLUMNS = "80"


def write_inputs(directory):
    for name, text in DATA["inputs"].items():
        (Path(directory) / name).write_text(text)


def transcript(argv):
    """Run the CLI in this process on argv, relative to the current
    directory, and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.mark.parametrize("recorded", DATA["transcripts"],
                         ids=[" ".join(t["argv"]) for t in DATA["transcripts"]])
def test_transcript(recorded, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert transcript(recorded["argv"]) == recorded


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as work:
        write_inputs(work)
        here = os.getcwd()
        os.chdir(work)
        try:
            DATA["transcripts"] = [transcript(t["argv"])
                                   for t in DATA["transcripts"]]
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(DATA, indent=1) + "\n")
