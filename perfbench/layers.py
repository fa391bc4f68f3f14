"""Per-layer metrics from the spans of one traced sweep.

A span is [name, start, end, parent index, attrs], as `traced_job.py`
writes it.  A span's self time is its duration minus the durations of its
children; calls are nested and single-threaded, so children never overlap.
"""

from collections import defaultdict

# Per-layer metrics in the order they are reported.  Names ending in "_s"
# are seconds; the rest are exact counts or ratios of counts, except the
# two ratios of times `depth.crosscheck_betti_share` and
# `sdepth.ms_per_node`.
METRICS = (
    ("monomial.symbolic_power_s", "s"),
    ("monomial.symbolic_power_gens", "count"),
    ("monomial.minimal_primes_s", "s"),
    ("complexes.from_face_masks_calls", "count"),
    ("complexes.from_face_masks_s", "s"),
    ("homology.complexes", "count"),
    ("homology.faces", "count"),
    ("homology.reduced_homology_s", "s"),
    ("homology.rank_calls", "count"),
    ("homology.rank_entries", "count"),
    ("homology.rank_s.char0", "s"),
    ("homology.rank_s.charp", "s"),
    ("depth.takayama_self_s", "s"),
    ("depth.betti_self_s", "s"),
    ("depth.betti_box_points", "count"),
    ("depth.betti_nonzero_degrees", "count"),
    ("depth.betti_useful_share", "ratio"),
    ("depth.crosscheck_betti_share", "ratio"),
    ("sdepth.poset_s", "s"),
    ("sdepth.poset_points", "count"),
    ("sdepth.nodes", "count"),
    ("sdepth.nodes_final_level", "count"),
    ("sdepth.ms_per_node", "ms"),
    ("sdepth.search_s", "s"),
    ("stability.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "count"),
    ("formats.load_s", "s"),
    ("setup.import_s", "s"),
    ("trace.jobs_s", "s"),
    ("trace.spans", "count"),
)

# Exact counters: they must repeat between two traced sweeps of one seed.
COUNTERS = tuple(name for name, unit in METRICS if unit == "count")


def job_metrics(spans, import_s, output_bytes):
    """Sums over the spans of one job."""
    m = defaultdict(float)
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    budget_last = {}
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        total = end - start
        own = total - child_time[index]
        if name == "monomial.symbolic_power":
            m["monomial.symbolic_power_s"] += total
            m["monomial.symbolic_power_gens"] += attrs["gens"]
        elif name == "monomial.minimal_primes":
            m["monomial.minimal_primes_s"] += total
        elif name == "complexes.from_face_masks":
            m["complexes.from_face_masks_calls"] += 1
            m["complexes.from_face_masks_s"] += total
        elif name == "homology.reduced_homology_from_faces":
            m["homology.complexes"] += 1
            m["homology.faces"] += attrs["faces"]
            m["homology.reduced_homology_s"] += total
        elif name == "homology.matrix_rank":
            m["homology.rank_calls"] += 1
            m["homology.rank_entries"] += attrs["entries"]
            key = "char0" if attrs["char"] == 0 else "charp"
            m[f"homology.rank_s.{key}"] += total
        elif name == "depth.depth_via_takayama":
            m["depth.takayama_self_s"] += own
        elif name == "depth.betti_table":
            m["depth.betti_self_s"] += own
            m["depth.betti_box_points"] += attrs["box_points"]
            m["depth.betti_nonzero_degrees"] += attrs["nonzero_degrees"]
            if _under_crosscheck(spans, parent):
                m["_betti_in_crosscheck_s"] += total
        elif name == "depth.depth":
            if attrs["engine"] == "cross_check" and not _under_crosscheck(
                    spans, parent):
                m["_crosscheck_s"] += total
        elif name == "sdepth.characteristic_poset":
            m["sdepth.poset_s"] += total
            m["sdepth.poset_points"] += attrs["points"]
        elif name == "sdepth.sdepth_at_least":
            m["sdepth.search_s"] += total
            if "budget" in attrs:
                m["sdepth.nodes"] += attrs["nodes"]
                budget_last[attrs["budget"]] = attrs["nodes"]
        elif name.startswith("stability."):
            m["stability.self_s"] += own
        elif name == "cli.main":
            m["cli.self_s"] += own
            m["trace.jobs_s"] += total
        elif name == "formats.load_ideal":
            m["formats.load_s"] += total
    m["sdepth.nodes_final_level"] += sum(budget_last.values())
    m["setup.import_s"] += import_s
    m["cli.output_bytes"] += output_bytes
    m["trace.spans"] += len(spans)
    return m


def _under_crosscheck(spans, index):
    while index >= 0:
        name, _, _, parent, attrs = spans[index]
        if name == "depth.depth" and attrs["engine"] == "cross_check":
            return True
        index = parent
    return False


def sweep_metrics(per_job):
    """Per-layer metrics of one traced sweep from its jobs' sums."""
    m = defaultdict(float)
    for job in per_job:
        for key, value in job.items():
            m[key] += value
    box = m["depth.betti_box_points"]
    m["depth.betti_useful_share"] = (
        m["depth.betti_nonzero_degrees"] / box if box else 0.0)
    cross = m.pop("_crosscheck_s", 0.0)
    betti = m.pop("_betti_in_crosscheck_s", 0.0)
    m["depth.crosscheck_betti_share"] = betti / cross if cross else 0.0
    nodes = m["sdepth.nodes"]
    m["sdepth.ms_per_node"] = (
        1000 * m["sdepth.search_s"] / nodes if nodes else 0.0)
    out = {}
    for name, unit in METRICS:
        value = m.get(name, 0.0)
        out[name] = int(value) if unit == "count" else value
    return out
