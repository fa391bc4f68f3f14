"""Seeded job lists for the three workloads.

A job is one `symdepth` command line plus what the checks need to know
about it.  Every input is an ideal file written here; the program sees
nothing else.  The same seed gives the same files and the same jobs.

Random graphs are drawn with a fixed vertex count, edge count and number
of minimal vertex covers (minimal primes).  Those three fix most of the
work the engines do, so runs with different seeds cost about the same
while the graphs themselves differ.
"""

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import algebra

WORKLOADS = ("depth-crosscheck", "depth-takayama", "sdepth-search")

# Node budget of the frontier job: the search for sdepth(S/C6^(2)) does
# not finish within it at the seed commit, so the job exits 4.
FRONTIER_BUDGET = 1000


@dataclass
class Job:
    name: str
    argv: list  # arguments after `symdepth`
    check: str  # which output check applies
    n: int  # the ideal in the job's input file
    gens: list
    params: dict = field(default_factory=dict)
    frontier: bool = False


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


ANCHORS = {f"C{n}": (n, cycle_edges(n)) for n in range(4, 11)}
ANCHORS.update({f"P{n}": (n, path_edges(n)) for n in range(4, 8)})

# The anchor values that `references.json` holds; `record_references.py`
# records exactly these.  Depth of S/I^(k) for k <= kmax, keyed by anchor
# and characteristic; Stanley depth of I^(k) and S/I^(k) for k <= kmax;
# the splitting bound of one anchor at one variable.  A job that asks for a
# reference outside this plan fails with a KeyError when its jobs are built.
DEPTH_ANCHORS = {("C6", 0): 3, ("C6", 2): 3, ("C7", 0): 2, ("P7", 0): 2,
                 ("C8", 0): 3, ("C10", 0): 2}
SDEPTH_ANCHORS = {"ideal": {"P5": 3, "C4": 3},
                  "quotient": {"C5": 2, "C4": 3}}
SPLITTING_ANCHOR = ("C6", 1)


def random_graph(rng, n, m, covers):
    """A graph on n vertices with m edges, no isolated vertex and exactly
    `covers` minimal vertex covers."""
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(10_000):
        edges = sorted(rng.sample(pairs, m))
        if len({v for e in edges for v in e}) < n:
            continue
        gens = algebra.edge_generators(n, edges)
        if len(algebra.covers_of(n, gens)) == covers:
            return edges
    raise RuntimeError(f"no graph with n={n}, m={m}, {covers} covers")


class JobWriter:
    """Writes ideal files into the work directory and collects jobs."""

    def __init__(self, workdir, references):
        self.workdir = Path(workdir)
        self.references = references
        self.jobs = []

    def graph_file(self, label, n, edges, k=1):
        """Writes the k-th symbolic power of a graph's edge ideal."""
        gens = algebra.edge_generators(n, edges)
        if k > 1:
            gens = algebra.symbolic_power_generators(
                n, algebra.covers_of(n, gens), k
            )
        path = self.workdir / f"{label}.json"
        path.write_text(json.dumps(
            {"n": n, "generators": [list(g) for g in gens]}
        ))
        return str(path), n, gens

    def anchor_file(self, name, k=1):
        n, edges = ANCHORS[name]
        label = name if k == 1 else f"{name}_sym{k}"
        return self.graph_file(label, n, edges, k)

    def ref(self, table, name, *keys):
        value = self.references[table][name]
        for key in keys:
            value = value[key]
        return value

    def add(self, name, command, ideal, options, check, frontier=False,
            **params):
        path, n, gens = ideal
        self.jobs.append(Job(
            name, [*command, path, *options], check, n, gens, params,
            frontier,
        ))


def build_jobs(workload, seed, workdir, references):
    """The job list of one workload; inputs are written to `workdir`."""
    rng = random.Random(f"{workload}/{seed}")
    b = JobWriter(workdir, references)
    if workload == "depth-crosscheck":
        _depth_crosscheck(b, rng)
    elif workload == "depth-takayama":
        _depth_takayama(b, rng)
    elif workload == "sdepth-search":
        _sdepth_search(b, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.jobs


def _analyze(b, name, ideal, kmax, char, ref=None):
    options = ["--quantity", "depth", "--kmax", str(kmax)]
    if char:
        options += ["--char", str(char)]
    b.add(name, ["analyze"], ideal, options, "analyze",
          kmax=kmax, char=char, ref=ref)


def _depth_crosscheck(b, rng):
    """Default `analyze` path: Betti box scan plus Takayama, cheap I^(k)."""
    for anchor, char in (("C6", 0), ("C7", 0), ("P7", 0), ("C6", 2)):
        kmax = DEPTH_ANCHORS[anchor, char]
        _analyze(b, f"analyze-{anchor}-k{kmax}-char{char}",
                 b.anchor_file(anchor), kmax, char,
                 b.ref("depth", anchor, str(char)))
    ideals = {"C7": b.anchor_file("C7")}
    # The random graphs cost less than the C6 and C7 anchors, so the
    # slowest job is an anchor job whatever the seed.
    graphs = [("R6a", 6, 8, 5, 0), ("R6b", 6, 8, 5, 2), ("R7", 7, 8, 5, 0)]
    for label, n, m, covers, char in graphs:
        ideal = ideals[label] = b.graph_file(
            label, n, random_graph(rng, n, m, covers))
        _analyze(b, f"analyze-{label}-k2-char{char}", ideal, 2, char)
        b.add(f"depth-{label}", ["depth"], ideal, [], "depth", char=0)
    for label, m, k in (("C7", 2, 1), ("R7", 1, 2)):
        seed = rng.randrange(10**6)
        b.add(f"power-lemma-{label}", ["verify", "power-lemma"],
              ideals[label],
              ["-m", str(m), "-k", str(k), "--samples", "100",
               "--seed", str(seed)],
              "power-lemma", m=m, k=k, samples=100)


def _depsym(b, name, ideal, m, k, ref=None):
    b.add(name, ["verify", "depsym"], ideal, ["-m", str(m), "-k", str(k)],
          "depsym", m=m, k=k, ref=ref)


def _depth_takayama(b, rng):
    """The paper's depth inequality through the Takayama engine alone."""
    for anchor, m, k in (("C10", 1, 1), ("C8", 1, 2)):
        _depsym(b, f"depsym-{anchor}-m{m}-k{k}", b.anchor_file(anchor), m, k,
                b.ref("depth", anchor, "0"))
    graphs = [("R9a", 9, 12, 8), ("R9b", 9, 12, 8), ("R10", 10, 15, 11)]
    for label, n, m, covers in graphs:
        ideal = b.graph_file(label, n, random_graph(rng, n, m, covers))
        _depsym(b, f"depsym-{label}-m1-k1", ideal, 1, 1)
        b.add(f"depth-{label}", ["depth"], ideal, ["--engine", "takayama"],
              "depth", char=0)


def _sdepth_search(b, rng):
    """Interval-partition search only; no homology at all."""
    for anchor, kind in (("P5", "ideal"), ("C5", "quotient")):
        kmax, quantity = SDEPTH_ANCHORS[kind][anchor], f"sdepth_{kind}"
        b.add(f"sequence-{anchor}-{quantity}-k{kmax}", ["sequence"],
              b.anchor_file(anchor),
              ["--quantity", quantity, "--kmax", str(kmax)], "sequence",
              quantity=quantity, kmax=kmax, ref=b.ref(quantity, anchor))
    b.add("sdepsym-C4-m1-k2", ["verify", "sdepsym"], b.anchor_file("C4"),
          ["-m", "1", "-k", "2"], "sdepsym", m=1, k=2,
          ref={kind: b.ref(f"sdepth_{kind}", "C4")
               for kind in ("ideal", "quotient")})
    anchor, var = SPLITTING_ANCHOR
    b.add(f"splitting-bound-{anchor}", ["verify", "splitting-bound"],
          b.anchor_file(anchor), ["--var", str(var)], "splitting-bound",
          ref=b.ref("splitting_bound", anchor))
    # n = 5 stays at k = 1: some five-vertex graphs need minutes of search
    # at k = 2, which is the frontier job's role below.
    graphs = [("S4a", 4, 4, 3, 2, "ideal"), ("S4b", 4, 4, 3, 2, "quotient"),
              ("S4c", 4, 3, 3, 2, "ideal"), ("S5a", 5, 6, 4, 1, "ideal"),
              ("S5b", 5, 6, 4, 1, "quotient")]
    for label, n, m, covers, k, kind in graphs:
        ideal = b.graph_file(label, n, random_graph(rng, n, m, covers), k)
        b.add(f"sdepth-{label}-k{k}-{kind}", ["sdepth"], ideal,
              ["--kind", kind], "sdepth", kind=kind)
    b.add("sdepth-C6-sym2-quotient-frontier", ["sdepth"],
          b.anchor_file("C6", 2),
          ["--kind", "quotient", "--budget", str(FRONTIER_BUDGET)],
          "sdepth", frontier=True, kind="quotient")
