"""The symdepth benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
`src/`, nothing needs installing.  Each job is one `symdepth` command in a
fresh interpreter, so the package's caches start cold, as they do for a
user.  One harness process runs the jobs one at a time (a closed loop with
one client).  A sweep runs every job of the workload once; the run repeats
sweeps while the next one is expected to end within S seconds of the
start (at least three sweeps) and averages over sweeps.  Every output is
checked by `checks.py` before it counts.

The machine's speed drifts, so a fixed loop is timed in the harness
before and after every process, and end-to-end times are reported at the
reference speed (see `calibrate`); the report on stderr also shows the
measured seconds.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of `layers.py`, taken from sweeps
whose jobs run under `traced_job.py`, interleaved with untraced sweeps so
that the tracing overhead can be reported.  Inputs, outputs and spans are
written under `.bench_work/` in the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# At least three sweeps; a traced run alternates traced and plain sweeps,
# so it has two traced ones for the counter repeat check.
MIN_SWEEPS = 3
# Set-up probe rounds after each sweep of a --trace 0 run; one round
# probes every job once.
SETUP_ROUNDS_PER_SWEEP = 2
JOB_TIMEOUT_S = 60
# No job runs past this many seconds after the harness starts, and once
# MIN_SWEEPS are done no sweep starts that is expected to end after it.
RUN_LIMIT_S = 160

# The machine's speed drifts by up to half within a minute.  A fixed
# pure-Python loop, timed in the harness before and after each process,
# tracks most of that drift; times are reported as the seconds they would
# take at the speed at which the loop takes REFERENCE_LOOP_S (about its
# time on a quiet 2.1 GHz Xeon with Python 3.11).
CALIBRATION_LOOPS = 80_000
CALIBRATION_REPEATS = 5
REFERENCE_LOOP_S = 0.005

# One job's set-up: interpreter start, `import symdepth` and input load.
SETUP_PROBE = ("import sys; from symdepth import cli, formats; "
               "formats.load_ideal(sys.argv[1])")

END_TO_END = (
    ("wall_s", "s"),
    ("slowest_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decided_share", "ratio"),
)


@dataclass
class Result:
    """One finished process."""

    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    max_rss_kb: int
    ref_seconds: float = 0.0  # `seconds` at the reference speed


def calibrate():
    """Seconds the calibration loop takes now: the fastest of a few runs,
    as a burst of other work on the machine only adds time."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i
        times.append(time.perf_counter() - start)
    return min(times)


def run_process(argv, env, out_dir, timeout):
    """Run argv to completion, with its wall time and peak RSS."""
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(seconds, proc.returncode, out_path.read_text(),
                  err_path.read_text(), usage.ru_maxrss)


@dataclass
class Sweep:
    traced: bool
    results: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    layer_jobs: list = field(default_factory=list)  # traced sweeps only

    @property
    def measured_s(self):
        """Sum of the jobs' measured seconds."""
        return sum(result.seconds for result in self.results)

    @property
    def ref_s(self):
        """Sum of the jobs' seconds at the reference speed."""
        return sum(result.ref_seconds for result in self.results)


class Bench:
    def __init__(self, workload, seed, seconds):
        self.seconds = seconds
        self.workdir = WORK / f"{workload}-{seed}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        references = json.loads((HERE / "references.json").read_text())
        self.jobs = workloads.build_jobs(workload, seed, self.workdir,
                                         references)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.env["PYTHONHASHSEED"] = "0"
        # Jobs read cached bytecode, as an installed package does.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.start = time.perf_counter()
        self.spans = []  # {"sweep", "job", "spans"} of every traced job
        self.setups = []  # probe rounds: set-up seconds of each job

    def elapsed(self):
        return time.perf_counter() - self.start

    def timeout(self):
        return max(1.0, min(JOB_TIMEOUT_S, RUN_LIMIT_S - self.elapsed()))

    def run_all(self, argvs):
        """Run argvs back to back.  The calibration loop runs before the
        first and after each; a process's time at the reference speed
        uses the mean of the two loop times on either side of it."""
        results = []
        before = calibrate()
        for argv in argvs:
            result = run_process(argv, self.env, self.workdir, self.timeout())
            after = calibrate()
            result.ref_seconds = (
                result.seconds * 2 * REFERENCE_LOOP_S / (before + after))
            before = after
            results.append(result)
        return results

    def probe_setup(self):
        """One probe round: each job's set-up at the reference speed."""
        results = self.run_all(
            [sys.executable, "-c", SETUP_PROBE,
             next(a for a in job.argv if a.endswith(".json"))]
            for job in self.jobs)
        for result in results:
            if result.exit_code != 0:
                raise RuntimeError(f"set-up probe failed: {result.stderr}")
        return [result.ref_seconds for result in results]

    def sweep(self, traced, index):
        sweep = Sweep(traced)
        spans_paths = [self.workdir / f"job-spans-{i}.json"
                       for i in range(len(self.jobs))]
        argvs = []
        for job, spans_path in zip(self.jobs, spans_paths):
            if traced:
                spans_path.unlink(missing_ok=True)
                argvs.append([sys.executable, str(HERE / "traced_job.py"),
                              str(spans_path), *job.argv])
            else:
                argvs.append([sys.executable, "-m", "symdepth.cli",
                              *job.argv])
        sweep.results = self.run_all(argvs)
        for job, spans_path, result in zip(
                self.jobs, spans_paths, sweep.results):
            if traced:
                # A job killed at its timeout leaves no spans; its exit
                # code already fails the check.
                data = json.loads(spans_path.read_text()) \
                    if spans_path.exists() else {"import_s": 0.0, "spans": []}
                self.spans.append(
                    {"sweep": index, "job": job.name, "spans": data["spans"]})
                sweep.layer_jobs.append(layers.job_metrics(
                    data["spans"], data["import_s"],
                    len(result.stdout.encode())))
            sweep.outcomes.append(checks.check_job(
                job, result.exit_code, result.stdout, result.stderr))
        return sweep

    def measure(self, kinds, probe_setup=False):
        """At least MIN_SWEEPS sweeps, of the given kinds in turn, and more
        while the next is expected to end within the run's seconds.  With
        `probe_setup`, set-up probe rounds follow each sweep, so that both
        see the same phases of a noisy machine."""
        sweeps = []
        while True:
            begin = time.perf_counter()
            index = len(sweeps)
            sweeps.append(self.sweep(kinds[index % len(kinds)], index))
            if probe_setup:
                self.setups += [self.probe_setup()
                                for _ in range(SETUP_ROUNDS_PER_SWEEP)]
            step = time.perf_counter() - begin
            if len(sweeps) >= MIN_SWEEPS and self.elapsed() + step > min(
                    self.seconds, RUN_LIMIT_S):
                return sweeps


def end_to_end(bench, sweeps):
    """Times are at the reference speed.  Jobs run back to back, so a
    sweep's wall time is the sum of its jobs' times; each job's time is its
    mean over the run's sweeps.  Set-up is each job's median over the probe
    rounds, summed over the jobs."""
    results = [r for s in sweeps for r in s.results]
    outcomes = [o for s in sweeps for o, _ in s.outcomes]
    job_s = [statistics.fmean(s.results[i].ref_seconds for s in sweeps)
             for i in range(len(bench.jobs))]
    return {
        "wall_s": sum(job_s),
        "slowest_job_s": max(job_s),
        "setup_s": sum(statistics.median(r[i] for r in bench.setups)
                       for i in range(len(bench.jobs))),
        "peak_rss_mb": max(r.max_rss_kb for r in results) / 1024,
        "decided_share": outcomes.count("ok") / len(outcomes),
    }


def per_layer(sweeps):
    """Per-layer medians over traced sweeps, and whether counters repeat."""
    traced = [s for s in sweeps if s.traced]
    plain = [s for s in sweeps if not s.traced]
    tables = [layers.sweep_metrics(s.layer_jobs) for s in traced]
    repeat = all(
        t[name] == tables[0][name] for t in tables for name in layers.COUNTERS)
    metrics = {
        name: tables[0][name] if name in layers.COUNTERS
        else statistics.median(t[name] for t in tables)
        for name, _ in layers.METRICS
    }
    # At the reference speed: the machine's drift between sweeps is larger
    # than the overhead.
    traced_wall = statistics.median(s.ref_s for s in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(
        s.ref_s for s in plain)
    if not repeat:
        print("counters differ between traced sweeps:", file=sys.stderr)
        for name in layers.COUNTERS:
            print(f"  {name}: {[t[name] for t in tables]}", file=sys.stderr)
    return metrics, repeat


def units():
    table = dict(END_TO_END)
    table.update(layers.METRICS)
    table.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return table


def report(bench, sweeps):
    for sweep in sweeps:
        kind = "traced" if sweep.traced else "plain"
        print(f"{kind} sweep {sweep.measured_s:.3f} s measured, "
              f"{sweep.ref_s:.3f} s at the reference speed", file=sys.stderr)
        for job, result, (outcome, message) in zip(
                bench.jobs, sweep.results, sweep.outcomes):
            print(f"  {result.seconds:7.3f} s {result.ref_seconds:7.3f} s "
                  f"exit {result.exit_code} {outcome:9} {job.name} {message}",
                  file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that the running job is killed
    # and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "symdepth" / "cli.py").is_file():
        print(f"error: no symdepth sources under {SRC}", file=sys.stderr)
        return 2
    # The Takayama witness check calls the package's public API.
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed, args.seconds)
    bench.probe_setup()  # warm-up: byte-compiles the package once
    if args.trace:
        sweeps = bench.measure([True, False])
        metrics, counters_repeat = per_layer(sweeps)
    else:
        sweeps = bench.measure([False], probe_setup=True)
        metrics = end_to_end(bench, sweeps)
        counters_repeat = True
    report(bench, sweeps)
    (bench.workdir / "spans.json").write_text(json.dumps(bench.spans))

    outcomes = [o for s in sweeps for o, _ in s.outcomes]
    failed = outcomes.count("bad")
    unit = units()
    print(json.dumps({
        "correct": failed == 0 and counters_repeat,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
