"""Command-line front end.

Exit codes: 0 success / verification passed, 1 verification failed (a
mathematical counterexample), 2 input or usage error, 3 internal error
(engine disagreement, or any other exception), 4 search budget
exhausted.
"""

import argparse
import json
import sys

from . import formats
from .depth import ENGINES, EngineDisagreement, betti_table, depth
from .homology import check_char
from .sdepth import DEFAULT_NODE_BUDGET, BudgetExceeded, check_budget, sdepth
from .stability import (QUANTITIES, analyze_stability, matroid_report,
                        sequence, verify_colon_identity,
                        verify_depth_comparison, verify_power_membership,
                        verify_sdepth_comparison, verify_splitting_bound)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4


def _emit(data, fmt):
    """Print data in fmt, every integer in full: the interpreter's limit
    on int-to-str conversion, where it has one, is lifted meanwhile."""
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "table":
            _print_table(data)
        elif fmt == "csv":  # the values of a sequence, one row a power
            print("k,value,engine,char")
            for k, value in enumerate(data["values"], start=1):
                print(f"{k},{value},{data['engine']},{data['char']}")
        else:
            print(json.dumps(data, indent=2))
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


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


def _betti(ideal, char):
    table = betti_table(ideal, char)
    return dict(table.to_dict(),
                total={str(i): v for i, v in sorted(table.total().items())},
                projective_dimension=table.projective_dimension())


def _symbolic_power(ideal, k):
    power = ideal.symbolic_power(k)
    return dict(formats.ideal_to_json(power),
                equals_ordinary_power=power == ideal.power(k))


def _splitting_bound(ideal, var, node_budget):
    """verify_splitting_bound at the 1-based variable index var."""
    if not 1 <= var <= ideal.n:
        raise ValueError(f"variable index {var} out of range 1..{ideal.n}")
    return verify_splitting_bound(ideal, var - 1, node_budget)


def _check_matroid(delta):
    """Whether delta is a matroid, with a failing exchange 1-based."""
    is_mat, witness = delta.is_matroid()
    data = {"matroid": is_mat}
    if witness is not None:
        data["witness"] = {"F": [v + 1 for v in witness[0]],
                           "G": [v + 1 for v in witness[1]]}
    return data


def build_parser():
    """Each command's `run` is the function it calls with its options, read
    from this module's globals on each build, so a replaced one runs."""
    options = {  # a short name -> the flag and its add_argument keywords
        "k": ("-k", dict(type=int, required=True)),
        "m": ("-m", dict(type=int, required=True)),
        "kmax": ("--kmax", dict(type=int, required=True)),
        "engine": ("--engine", dict(choices=ENGINES, default="cross_check")),
        "quantity": ("--quantity", dict(choices=QUANTITIES, default="depth")),
        "kind": ("--kind", dict(choices=("ideal", "quotient"),
                                default="ideal")),
        "samples": ("--samples", dict(type=int, default=100)),
        "seed": ("--seed", dict(type=int, default=0)),
        "var": ("--var", dict(type=int, default=1,
                              help="1-based variable index")),
        "char": ("--char", dict(
            default=0, type=_checked(check_char, "characteristic", "2^64"),
            help="coefficient field characteristic (0 or a prime)")),
        "format": ("--format", dict(default="json",
                                    choices=("json", "table"))),
        "csv": ("--format", dict(default="json",
                                 choices=("json", "table", "csv"))),
        "budget": ("--budget", dict(
            dest="node_budget", metavar="BUDGET", default=DEFAULT_NODE_BUDGET,
            type=_checked(check_budget, "node budget"),
            help="node limit for the Stanley depth search, "
                 "and again for its splitting fallback")),
    }
    groups = {"verify": ("check", "check an inequality or identity"),
              "complex": ("action", "simplicial complex utilities")}
    commands = (  # (group, name, run, subject, help, options), in help order
        (None, "depth", depth, "ideal", "depth of S/I", "engine char format"),
        (None, "betti", _betti, "ideal", "multigraded Betti numbers of S/I",
         "char format"),
        (None, "sdepth", sdepth, "ideal", "Stanley depth of I or S/I",
         "kind format budget"),
        (None, "symbolic-power", _symbolic_power, "ideal",
         "k-th symbolic power of I", "k format"),
        (None, "sequence", sequence, "ideal", "quantity along symbolic powers",
         "quantity kmax engine char csv budget"),
        (None, "analyze", analyze_stability, "ideal",
         "stability analysis of a sequence",
         "quantity kmax engine char format budget"),
        ("verify", "depsym", verify_depth_comparison, "ideal",
         "depth S/I^(m) >= depth S/I^(km+j)", "m k char format"),
        ("verify", "sdepsym", verify_sdepth_comparison, "ideal",
         "sdepth I^(m) >= sdepth I^(km+j), ideal and quotient",
         "m k format budget"),
        ("verify", "power-lemma", verify_power_membership, "ideal",
         "u in I^(m) iff u^(k+1) in I^(km+j), on sampled u",
         "m k samples seed format"),
        ("verify", "colon-lemma", verify_colon_identity, "ideal",
         "(I^(k) : x1...xn) = I^(k-height), I unmixed", "kmax format"),
        ("verify", "splitting-bound", _splitting_bound, "ideal",
         "sdepth I >= min(sdepth of I without x_i, of (I : x_i))",
         "var format budget"),
        (None, "matroid-report", matroid_report, "complex",
         "per-power report for a matroid", "kmax char format budget"),
        ("complex", "check-matroid", _check_matroid, "complex",
         "whether the complex is a matroid", "format"),
        ("complex", "check-vd", lambda delta: {
            "vertex_decomposable": delta.is_vertex_decomposable()},
         "complex", "whether the complex is vertex decomposable", "format"),
        ("complex", "sr-ideal", lambda delta: formats.ideal_to_json(
            delta.stanley_reisner_ideal()), "complex",
         "Stanley-Reisner ideal of the complex", "format"),
    )
    parser = argparse.ArgumentParser(
        prog="symdepth",
        description="Exact depth, Stanley depth, and symbolic-power "
                    "stability checks for squarefree monomial ideals.",
    )
    parents = {None: parser.add_subparsers(dest="command", required=True)}
    for group, name, run, subject, help_, names in commands:
        if group not in parents:  # a group is made at its first command
            dest, group_help = groups[group]
            sub = parents[None].add_parser(group, help=group_help)
            parents[group] = sub.add_subparsers(dest=dest, required=True)
        p = parents[group].add_parser(name, help=help_)
        p.add_argument(subject)
        p.set_defaults(run=run)
        for key in names.split():
            flag, kwargs = options[key]
            p.add_argument(flag, **kwargs)
    return parser


def _run(args):
    """Load the ideal or complex, make the one call the command names,
    print what it returns, and exit 1 when a check it made failed."""
    options = {key: value for key, value in vars(args).items() if key not in
               ("command", "check", "action", "run", "format")}
    if "ideal" in options:
        subject = formats.load_ideal(options.pop("ideal"))
    else:
        subject = formats.load_complex(options.pop("complex"))
    result = args.run(subject, **options)
    _emit(result if isinstance(result, dict) else result.to_dict(),
          args.format)
    passed = getattr(result, "passed", getattr(result, "all_claims_hold", True))
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
