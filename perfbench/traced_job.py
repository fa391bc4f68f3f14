"""Run one `symdepth` command with spans around the package's public
functions, recorded from outside the package.

    python3 traced_job.py SPANS_OUT [symdepth arguments...]

Each public function is replaced, in every module that looks it up, by a
wrapper that records a span: [name, start, end, parent index, attrs].
Counters go into attrs and are read at the same boundaries, from the
arguments and results.  Spans stay in memory and are written to SPANS_OUT
as JSON when the command returns; the exit code is the command's.
"""

import functools
import importlib
import json
import sys
from time import perf_counter

# The package's modules.  `symdepth.depth` the attribute is the function
# `depth`, so modules are reached through importlib.
MODULES = ("monomial", "complexes", "homology", "depth", "sdepth",
           "stability", "formats", "cli")

STABILITY_DRIVERS = (
    "sequence", "analyze_stability", "verify_depth_comparison",
    "verify_sdepth_comparison", "verify_power_membership",
    "verify_colon_identity", "verify_splitting_bound", "matroid_report",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.budgets = []  # kept alive so that their ids stay unique

    def wrap(self, name, fn, before=None, after=None):
        """`before(attrs, args, kwargs)` runs before the span opens and
        `after(attrs, args, kwargs, result)` after it closes (result is
        None when fn raised), so counting is not timed."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if before is not None:
                before(attrs, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(attrs, args, kwargs, result)

        return traced


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def install(tracer):
    """Patch every public function named in the benchmark's layer list."""
    package = importlib.import_module("symdepth")
    mods = {m: importlib.import_module(f"symdepth.{m}") for m in MODULES}
    everywhere = [package, *mods.values()]

    def patch(module, attr, before=None, after=None):
        original = getattr(mods[module], attr)
        traced = tracer.wrap(f"{module}.{attr}", original, before, after)
        for mod in everywhere:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, traced)

    def patch_method(cls, module, attr, after=None, classmethod_=False):
        original = vars(cls)[attr]
        fn = original.__func__ if classmethod_ else original
        traced = tracer.wrap(f"{module}.{attr}", fn, None, after)
        setattr(cls, attr, classmethod(traced) if classmethod_ else traced)

    def power_after(attrs, args, kwargs, result):
        attrs["gens"] = len(result.gens) if result is not None else 0

    def rank_before(attrs, args, kwargs):
        rows = _arg(args, kwargs, 0, "rows")
        attrs["entries"] = len(rows) * len(rows[0]) if rows else 0
        attrs["char"] = _arg(args, kwargs, 1, "char")

    def homology_before(attrs, args, kwargs):
        faces = _arg(args, kwargs, 0, "faces")
        attrs["faces"] = len(faces) if hasattr(faces, "__len__") else -1

    def depth_before(attrs, args, kwargs):
        attrs["engine"] = _arg(args, kwargs, 1, "engine", "cross_check")

    def betti_after(attrs, args, kwargs, result):
        ideal = _arg(args, kwargs, 0, "ideal")
        points = 1
        for i in range(ideal.n):
            points *= 1 + max((g[i] for g in ideal.gens), default=0)
        attrs["box_points"] = points
        attrs["nonzero_degrees"] = 0 if result is None else len(
            {alpha for i, alpha, _ in result.entries if i > 0})

    def poset_after(attrs, args, kwargs, result):
        attrs["points"] = len(result.points) if result is not None else 0

    def search_before(attrs, args, kwargs):
        budget = _arg(args, kwargs, 2, "budget")
        if budget is None:
            return
        if budget not in tracer.budgets:
            tracer.budgets.append(budget)
        attrs["budget"] = tracer.budgets.index(budget)
        attrs["s"] = _arg(args, kwargs, 1, "s")
        attrs["nodes"] = -budget.nodes

    def search_after(attrs, args, kwargs, result):
        if "budget" in attrs:
            attrs["nodes"] += tracer.budgets[attrs["budget"]].nodes

    monomial_ideal = mods["monomial"].MonomialIdeal
    patch_method(monomial_ideal, "monomial", "symbolic_power", power_after)
    patch_method(monomial_ideal, "monomial", "minimal_primes")
    patch_method(mods["complexes"].SimplicialComplex, "complexes",
                 "from_face_masks", classmethod_=True)
    patch("homology", "matrix_rank", before=rank_before)
    patch("homology", "reduced_homology_from_faces", before=homology_before)
    patch("depth", "depth_via_takayama")
    patch("depth", "betti_table", after=betti_after)
    patch("depth", "depth", before=depth_before)
    patch("sdepth", "characteristic_poset", after=poset_after)
    patch("sdepth", "sdepth_at_least", before=search_before,
          after=search_after)
    for driver in STABILITY_DRIVERS:
        patch("stability", driver)
    patch("formats", "load_ideal")
    return tracer.wrap("cli.main", mods["cli"].main)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    importlib.import_module("symdepth.cli")
    import_s = perf_counter() - start
    tracer = Tracer()
    cli_main = install(tracer)
    try:
        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
