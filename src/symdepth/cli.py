"""Command-line front end.

Exit codes: 0 success / verification passed, 1 verification failed (a
mathematical counterexample), 2 input or usage error, 3 internal error
(engine disagreement, or an engine failure such as RuntimeError,
RecursionError or MemoryError), 4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .depth import EngineDisagreement, betti_table, depth
from .homology import check_char
from .sdepth import (DEFAULT_NODE_BUDGET, BudgetExceeded, check_budget,
                     json_value, sdepth)
from .stability import (
    QUANTITIES,
    analyze_stability,
    matroid_report,
    sequence,
    verify_colon_identity,
    verify_depth_comparison,
    verify_power_membership,
    verify_sdepth_comparison,
    verify_splitting_bound,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4

ENGINES = ("cross_check", "takayama", "betti")


def _emit(data, fmt):
    if fmt == "table":
        _print_table(data)
    else:
        print(json.dumps(data, indent=2))


def _print_table(data, indent=""):
    if isinstance(data, dict):
        width = max((len(str(k)) for k in data), default=0)
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _print_table(value, indent + "  ")
            else:
                print(f"{indent}{str(key).ljust(width)}  {value}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                _print_table(item, indent + "  ")
                print()
            else:
                print(f"{indent}{item}")
    else:
        print(f"{indent}{data}")


def _checked(check):
    """argparse type: an int that passes check, so a bad --char or
    --budget exits 2 before any work, even where nothing would use it."""
    def parse(text):
        try:
            value = int(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symdepth",
        description="Exact depth, Stanley depth, and symbolic-power "
                    "stability checks for squarefree monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, char=False, budget=False, csv=False):
        if char:
            p.add_argument("--char", type=_checked(check_char), default=0,
                           help="coefficient field characteristic "
                                "(0 or a prime)")
        p.add_argument("--format", default="json",
                       choices=("json", "table", "csv") if csv
                       else ("json", "table"))
        if budget:
            p.add_argument("--budget", type=_checked(check_budget),
                           default=DEFAULT_NODE_BUDGET,
                           help="node limit for the Stanley depth search, "
                                "and again for its splitting fallback")

    p = sub.add_parser("depth", help="depth of S/I")
    p.add_argument("ideal")
    p.add_argument("--engine", choices=ENGINES, default="cross_check")
    add_common(p, char=True)

    p = sub.add_parser("betti", help="multigraded Betti numbers of S/I")
    p.add_argument("ideal")
    add_common(p, char=True)

    p = sub.add_parser("sdepth", help="Stanley depth of I or S/I")
    p.add_argument("ideal")
    p.add_argument("--kind", choices=("ideal", "quotient"), default="ideal")
    add_common(p, budget=True)

    p = sub.add_parser("symbolic-power", help="k-th symbolic power of I")
    p.add_argument("ideal")
    p.add_argument("-k", type=int, required=True)
    add_common(p)

    for name, help_ in (("sequence", "quantity along symbolic powers"),
                        ("analyze", "stability analysis of a sequence")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("ideal")
        p.add_argument("--quantity", choices=QUANTITIES, default="depth")
        p.add_argument("--kmax", type=int, required=True)
        p.add_argument("--engine", choices=ENGINES, default="cross_check")
        add_common(p, char=True, budget=True, csv=name == "sequence")

    p = sub.add_parser("verify", help="check an inequality or identity")
    vsub = p.add_subparsers(dest="check", required=True)
    for name in ("depsym", "sdepsym", "power-lemma"):
        vp = vsub.add_parser(name)
        vp.add_argument("ideal")
        vp.add_argument("-m", type=int, required=True)
        vp.add_argument("-k", type=int, required=True)
        if name == "power-lemma":
            vp.add_argument("--samples", type=int, default=100)
            vp.add_argument("--seed", type=int, default=0)
        add_common(vp, char=name == "depsym", budget=name == "sdepsym")
    vp = vsub.add_parser("colon-lemma")
    vp.add_argument("ideal")
    vp.add_argument("--kmax", type=int, required=True)
    add_common(vp)
    vp = vsub.add_parser("splitting-bound")
    vp.add_argument("ideal")
    vp.add_argument("--var", type=int, default=1, help="1-based variable index")
    add_common(vp, budget=True)

    p = sub.add_parser("matroid-report", help="per-power report for a matroid")
    p.add_argument("complex")
    p.add_argument("--kmax", type=int, required=True)
    add_common(p, char=True, budget=True)

    p = sub.add_parser("complex", help="simplicial complex utilities")
    csub = p.add_subparsers(dest="action", required=True)
    for name in ("check-matroid", "check-vd", "sr-ideal"):
        cp = csub.add_parser(name)
        cp.add_argument("complex")
        add_common(cp)

    return parser


def _run(args):
    fmt = args.format
    if "ideal" in args:
        ideal = formats.load_ideal(args.ideal)
    else:
        delta = formats.load_complex(args.complex)

    if args.command == "depth":
        witness = depth(ideal, args.engine, args.char)
        _emit(witness.to_dict(), fmt)
        return EXIT_OK

    if args.command == "betti":
        table = betti_table(ideal, args.char)
        data = table.to_dict()
        data["total"] = {str(i): v for i, v in sorted(table.total().items())}
        data["projective_dimension"] = table.projective_dimension()
        _emit(data, fmt)
        return EXIT_OK

    if args.command == "sdepth":
        result = sdepth(ideal, args.kind, args.budget)
        _emit(result.to_dict(), fmt)
        return EXIT_OK

    if args.command == "symbolic-power":
        power = ideal.symbolic_power(args.k)
        data = formats.ideal_to_json(power)
        data["equals_ordinary_power"] = power == ideal.power(args.k)
        _emit(data, fmt)
        return EXIT_OK

    if args.command == "sequence":
        report = sequence(ideal, args.quantity, args.kmax,
                          engine=args.engine, char=args.char,
                          node_budget=args.budget)
        if fmt == "csv":
            print("k,value,engine,char")
            for k, value in enumerate(report.values, start=1):
                print(f"{k},{json_value(value)},{report.engine},{report.char}")
        else:
            _emit(report.to_dict(), fmt)
        return EXIT_OK

    if args.command == "analyze":
        report = analyze_stability(ideal, args.quantity, args.kmax,
                                   engine=args.engine, char=args.char,
                                   node_budget=args.budget)
        _emit(report.to_dict(), fmt)
        return EXIT_OK

    if args.command == "verify":
        if args.check == "depsym":
            result = verify_depth_comparison(ideal, args.m, args.k,
                                             char=args.char)
        elif args.check == "sdepsym":
            result = verify_sdepth_comparison(ideal, args.m, args.k,
                                              node_budget=args.budget)
        elif args.check == "power-lemma":
            result = verify_power_membership(ideal, args.m, args.k,
                                             samples=args.samples,
                                             seed=args.seed)
        elif args.check == "colon-lemma":
            result = verify_colon_identity(ideal, args.kmax)
        else:
            if not 1 <= args.var <= ideal.n:
                raise ValueError(
                    f"variable index {args.var} out of range 1..{ideal.n}")
            result = verify_splitting_bound(ideal, args.var - 1,
                                            node_budget=args.budget)
        _emit(result.to_dict(), fmt)
        return EXIT_OK if result.passed else EXIT_VERIFY_FAIL

    if args.command == "matroid-report":
        report = matroid_report(delta, args.kmax, char=args.char,
                                node_budget=args.budget)
        _emit(report.to_dict(), fmt)
        return EXIT_OK if report.all_claims_hold else EXIT_VERIFY_FAIL

    if args.command == "complex":
        if args.action == "check-matroid":
            is_mat, witness = delta.is_matroid()
            data = {"matroid": is_mat}
            if witness is not None:
                data["witness"] = {
                    "F": [v + 1 for v in witness[0]],
                    "G": [v + 1 for v in witness[1]],
                }
            _emit(data, fmt)
        elif args.action == "check-vd":
            _emit({"vertex_decomposable": delta.is_vertex_decomposable()}, fmt)
        else:
            _emit(formats.ideal_to_json(delta.stanley_reisner_ideal()), fmt)
        return EXIT_OK

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors (exit 2) and --help (exit 0)
        return exc.code
    try:
        return _run(args)
    except EngineDisagreement as exc:
        print(json.dumps({
            "error": "engine disagreement",
            "takayama": exc.witness_a.to_dict(),
            "betti": exc.witness_b.to_dict(),
        }), file=sys.stderr)
        return EXIT_INTERNAL
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (RuntimeError, RecursionError, MemoryError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
