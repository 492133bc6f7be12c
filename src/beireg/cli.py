"""Command-line surface.

Commands: invariants, recognize {cl|wl|sig}, gen {lrc|lrw}, reg, verify,
search-l2.  All output is JSON (pretty by default, --compact for one-line).
Exit codes: 0 success or recognized, 1 usage or parse error, 2 principled
negative (not recognized / impossible request / failed verification).
A command imports recognition, witnesses or verification only when it runs
them, so that invariants and reg load none of the three.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import formats as fm
from . import graphs as gr
from . import regularity as rg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


def _emit(obj, args):
    print(fm.dumps(obj, compact=args.compact))


def _load(args):
    return fm.load_graph(args.input, fmt=args.format)


def cmd_invariants(args):
    g = _load(args)
    inv = gr.invariants(g)
    lo, hi = rg.bounds(g)
    _emit({
        "n": g.n,
        "edges": g.edge_count(),
        "components": inv.component_count,
        "ell": inv.ell,
        "cliqueCount": inv.clique_count,
        "omega": inv.omega,
        "chordal": inv.chordal,
        "bounds": {"lo": lo, "hi": hi},
    }, args)
    return EXIT_OK


def cmd_recognize(args):
    from . import recognition as rec

    g = _load(args)
    if args.kind == "cl":
        result = rec.recognize_cl(g)
        if isinstance(result, rec.NotCLReason):
            _emit({"recognized": False,
                   "componentIndex": result.component_index,
                   "ell": result.ell,
                   "cliqueCount": result.clique_count}, args)
            return EXIT_NEGATIVE
        _emit(fm.cl_certificate_to_jsonable(result), args)
        return EXIT_OK
    if args.kind == "wl":
        try:
            result = rec.recognize_wl(g)
        except ValueError:
            # recognize_wl owns the connectivity check
            print("error: wl recognition needs a connected graph", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(result, rec.NotWLReason):
            _emit({"recognized": False, "ell": result.ell,
                   "n": result.n, "omega": result.omega}, args)
            return EXIT_NEGATIVE
        _emit(fm.wl_to_jsonable(result), args)
        return EXIT_OK
    # sig
    result = rec.recognize_sig(g)
    payload = {"recognized": result.is_sig}
    if result.families is not None:
        payload["families"] = [fm.family_to_jsonable(fam)
                               for fam in result.families]
    _emit(payload, args)
    return EXIT_OK if result.is_sig else EXIT_NEGATIVE


def cmd_gen(args):
    from . import witnesses as wt

    try:
        if args.kind == "lrc":
            g = wt.gen_lrc(args.ell, args.r, args.bound)
        else:
            g = wt.gen_lrw(args.ell, args.r, args.bound)
    except fm.ParseError:
        raise  # a witness past the vertex limit: an error, not a refusal
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(fm.graph_to_jsonable(g), args)
    return EXIT_OK


def cmd_reg(args):
    if args.budget < 0:
        print("error: --budget must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    if args.oracle_max_n is not None and args.oracle_max_n < 0:
        print("error: --oracle-max-n must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    g = _load(args)
    report = rg.reg(g, method=args.method, budget=args.budget,
                    oracle_max_n=args.oracle_max_n)
    _emit(fm.report_to_jsonable(report), args)
    return EXIT_OK


def cmd_verify(args):
    from . import verification as vf

    if not 1 <= args.max_n <= gr.ENUMERATION_MAX_N:
        print(f"error: --max-n must be between 1 and {gr.ENUMERATION_MAX_N}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    # the pool starts all its workers at once, so cap them at the CPUs
    cpus = os.cpu_count() or 1
    if args.jobs > cpus:
        print(f"error: --jobs must be at most the CPU count, {cpus}",
              file=sys.stderr)
        return EXIT_USAGE
    report = vf.run_verification(max_n=args.max_n,
                                 connected_only=args.connected_only,
                                 jobs=args.jobs)
    _emit(report.to_jsonable(), args)
    return EXIT_OK if report.all_passed else EXIT_NEGATIVE


def cmd_search_l2(args):
    from . import witnesses as wt

    try:
        hits = wt.search_l2(args.r, args.wbar, args.max_omega)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit({"r": args.r, "wbar": args.wbar, "maxOmega": args.max_omega,
           "hits": [fm.graph_to_jsonable(g) for g in hits]}, args)
    return EXIT_OK


class UsageError(Exception):
    """A malformed command line, with argparse's one-line message."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError instead of printing its usage
    block and exiting; add_subparsers hands the class on to every
    subcommand's parser."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(
        prog="beireg",
        description="Certify and compute regularity bounds of binomial edge ideals")
    common = _Parser(add_help=False)
    common.add_argument("--compact", action="store_true",
                        help="one-line JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="graph file")
        p.add_argument("--format", choices=["edgelist", "json"], default=None,
                       help="input format (default: sniff)")

    p = sub.add_parser("invariants", parents=[common],
                       help="graph invariants and bounds")
    add_input(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("recognize", parents=[common],
                       help="recognize cl/wl/sig with certificate")
    p.add_argument("kind", choices=["cl", "wl", "sig"])
    add_input(p)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("gen", parents=[common], help="generate a witness graph")
    p.add_argument("kind", choices=["lrc", "lrw"])
    p.add_argument("ell", type=int)
    p.add_argument("r", type=int)
    p.add_argument("bound", type=int,
                   help="clique count (lrc) or n - omega + 1 (lrw)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reg", parents=[common], help="regularity report")
    add_input(p)
    p.add_argument("--method", choices=["auto", "structural", "oracle"],
                   default="auto")
    p.add_argument("--budget", type=int, default=rg.DEFAULT_BUDGET,
                   help="refinement recursion depth")
    p.add_argument("--oracle-max-n", type=int, default=None,
                   help=f"oracle size gate (default {rg.ORACLE_MAX_N_DEFAULT}, "
                        f"or ${rg.ORACLE_MAX_N_ENV})")
    p.set_defaults(func=cmd_reg)

    p = sub.add_parser("verify", parents=[common], help="exhaustive theorem sweep")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search-l2", parents=[common],
                       help="explore length-2 realizability")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--wbar", type=int, required=True)
    p.add_argument("--max-omega", type=int, required=True)
    p.set_defaults(func=cmd_search_l2)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:  # after --help: errors raise UsageError instead
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (fm.ParseError, OSError, rg.OracleGateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:
        # the structural solver recurses once per sub-solve level
        print(f"error: graph too large: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
