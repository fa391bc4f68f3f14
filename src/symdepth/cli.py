"""Command-line front end.

Exit codes: 0 success / verification passed, 1 verification failed (a
mathematical counterexample), 2 input or usage error, 3 internal error
(engine disagreement, or any other exception), 4 search budget
exhausted.
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
    """Print data in fmt; None means the rows are already printed."""
    if data is None:
        return
    if fmt == "table":
        _print_table(data)
    else:
        print(json.dumps(data, indent=2))


def _print_table(data, indent=""):
    """Print a dict or a list, one scalar a line, nesting by indent."""
    if isinstance(data, dict):
        width = max((len(str(k)) for k in data), default=0)
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _print_table(value, indent + "  ")
            else:
                print(f"{indent}{str(key).ljust(width)}  {value}")
    else:
        for item in data:
            if isinstance(item, (dict, list)):
                _print_table(item, indent + "  ")
                print()
            else:
                print(f"{indent}{item}")


def _checked(check, what, bound=None):
    """argparse type: an int that passes check, so a bad --char or
    --budget exits 2 before any work, even where nothing would use it."""
    def parse(text):
        try:
            value = formats.parse_int(text, what, bound)
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
            p.add_argument("--char", default=0,
                           type=_checked(check_char, "characteristic", "2^64"),
                           help="coefficient field characteristic "
                                "(0 or a prime)")
        p.add_argument("--format", default="json",
                       choices=("json", "table", "csv") if csv
                       else ("json", "table"))
        if budget:
            p.add_argument("--budget", default=DEFAULT_NODE_BUDGET,
                           type=_checked(check_budget, "node budget"),
                           help="node limit for the Stanley depth search, "
                                "and again for its splitting fallback")

    def command(parent, name, subject="ideal", **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.add_argument(subject)
        return p

    p = command(sub, "depth", help="depth of S/I")
    p.add_argument("--engine", choices=ENGINES, default="cross_check")
    add_common(p, char=True)

    add_common(command(sub, "betti", help="multigraded Betti numbers of S/I"),
               char=True)

    p = command(sub, "sdepth", help="Stanley depth of I or S/I")
    p.add_argument("--kind", choices=("ideal", "quotient"), default="ideal")
    add_common(p, budget=True)

    p = command(sub, "symbolic-power", help="k-th symbolic power of I")
    p.add_argument("-k", type=int, required=True)
    add_common(p)

    for name, help_ in (("sequence", "quantity along symbolic powers"),
                        ("analyze", "stability analysis of a sequence")):
        p = command(sub, name, help=help_)
        p.add_argument("--quantity", choices=QUANTITIES, default="depth")
        p.add_argument("--kmax", type=int, required=True)
        p.add_argument("--engine", choices=ENGINES, default="cross_check")
        add_common(p, char=True, budget=True, csv=name == "sequence")

    p = sub.add_parser("verify", help="check an inequality or identity")
    vsub = p.add_subparsers(dest="check", required=True)
    for name in ("depsym", "sdepsym", "power-lemma"):
        vp = command(vsub, name)
        vp.add_argument("-m", type=int, required=True)
        vp.add_argument("-k", type=int, required=True)
        if name == "power-lemma":
            vp.add_argument("--samples", type=int, default=100)
            vp.add_argument("--seed", type=int, default=0)
        add_common(vp, char=name == "depsym", budget=name == "sdepsym")
    vp = command(vsub, "colon-lemma")
    vp.add_argument("--kmax", type=int, required=True)
    add_common(vp)
    vp = command(vsub, "splitting-bound")
    vp.add_argument("--var", type=int, default=1, help="1-based variable index")
    add_common(vp, budget=True)

    p = command(sub, "matroid-report", "complex",
                help="per-power report for a matroid")
    p.add_argument("--kmax", type=int, required=True)
    add_common(p, char=True, budget=True)

    p = sub.add_parser("complex", help="simplicial complex utilities")
    csub = p.add_subparsers(dest="action", required=True)
    for name in ("check-matroid", "check-vd", "sr-ideal"):
        add_common(command(csub, name, "complex"))

    return parser


def _run(args):
    if "ideal" in args:
        ideal = formats.load_ideal(args.ideal)
    else:
        delta = formats.load_complex(args.complex)
    passed = True

    if args.command == "depth":
        data = depth(ideal, args.engine, args.char).to_dict()
    elif args.command == "betti":
        table = betti_table(ideal, args.char)
        data = dict(table.to_dict(),
                    total={str(i): v for i, v in sorted(table.total().items())},
                    projective_dimension=table.projective_dimension())
    elif args.command == "sdepth":
        data = sdepth(ideal, args.kind, args.budget).to_dict()
    elif args.command == "symbolic-power":
        power = ideal.symbolic_power(args.k)
        data = dict(formats.ideal_to_json(power),
                    equals_ordinary_power=power == ideal.power(args.k))
    elif args.command in ("sequence", "analyze"):
        compute = sequence if args.command == "sequence" else analyze_stability
        report = compute(ideal, args.quantity, args.kmax, engine=args.engine,
                         char=args.char, node_budget=args.budget)
        data = None if args.format == "csv" else report.to_dict()
        if data is None:
            print("k,value,engine,char")
            for k, value in enumerate(report.values, start=1):
                print(f"{k},{json_value(value)},{report.engine},{report.char}")
    elif args.command == "verify":
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
        data, passed = result.to_dict(), result.passed
    elif args.command == "matroid-report":
        report = matroid_report(delta, args.kmax, char=args.char,
                                node_budget=args.budget)
        data, passed = report.to_dict(), report.all_claims_hold
    elif args.action == "check-matroid":
        is_mat, witness = delta.is_matroid()
        data = {"matroid": is_mat}
        if witness is not None:
            data["witness"] = {
                "F": [v + 1 for v in witness[0]],
                "G": [v + 1 for v in witness[1]],
            }
    elif args.action == "check-vd":
        data = {"vertex_decomposable": delta.is_vertex_decomposable()}
    else:
        data = formats.ideal_to_json(delta.stanley_reisner_ideal())

    _emit(data, args.format)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


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
    except (ValueError, OSError) as exc:  # json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
