"""Record the anchor reference values in `references.json`.

    python3 perfbench/record_references.py

It records the anchor plan of `workloads.py` (DEPTH_ANCHORS,
SDEPTH_ANCHORS, SPLITTING_ANCHOR).  Depth values come from the Takayama
engine and are confirmed by the independent Betti engine wherever that
finishes within BETTI_TIMEOUT_S; `confirmed_by_betti` lists the confirmed
(anchor, char, k).  Stanley depths come from the exact search; the
benchmark re-checks every witness it prints.  Run this once per change of
the anchor plan, never as part of a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Longest wait for one Betti-engine confirmation of a depth value.
BETTI_TIMEOUT_S = 120


def symdepth(*args, timeout=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "symdepth.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=timeout,
        check=True)
    return json.loads(proc.stdout)


def depth_values(path, kmax, char, engine, timeout=None):
    return symdepth("sequence", path, "--quantity", "depth", "--kmax", kmax,
                    "--engine", engine, "--char", char,
                    timeout=timeout)["values"]


def main():
    workdir = ROOT / ".bench_work" / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    writer = workloads.JobWriter(workdir, {})

    refs = {"depth": {}, "sdepth_ideal": {}, "sdepth_quotient": {},
            "splitting_bound": {}, "confirmed_by_betti": []}
    for (name, char), kmax in workloads.DEPTH_ANCHORS.items():
        path = writer.anchor_file(name)[0]
        values = depth_values(path, kmax, char, "takayama")
        refs["depth"].setdefault(name, {})[str(char)] = values
        for k in range(1, kmax + 1):
            try:
                betti = depth_values(path, k, char, "betti",
                                     BETTI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                break
            if betti[-1] != values[k - 1]:
                raise SystemExit(f"engines disagree on {name}^({k})")
            refs["confirmed_by_betti"].append([name, char, k])
        print(name, char, values, file=sys.stderr)
    for kind, anchors in workloads.SDEPTH_ANCHORS.items():
        for name, kmax in anchors.items():
            path = writer.anchor_file(name)[0]
            refs[f"sdepth_{kind}"][name] = symdepth(
                "sequence", path, "--quantity", f"sdepth_{kind}",
                "--kmax", kmax)["values"]
    name, var = workloads.SPLITTING_ANCHOR
    row = symdepth("verify", "splitting-bound", writer.anchor_file(name)[0],
                   "--var", var)["comparisons"][0]
    refs["splitting_bound"][name] = {
        key: row[key] for key in ("variable", "lhs", "restriction", "colon")}
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
