"""Command-line interface for constructing, analyzing, and certifying codes.

Subcommands
-----------
construct tamo-barg|gcc2|pyramid|gcc|alg1|alg3
    Build a code and emit it as a plain-text code file (stdout or --out).
shorten
    Delete information from chosen coordinates of a code file (1-based
    positions, applied right-to-left so all positions refer to the input).
analyze
    Print the full analysis report: recomputed parameters, profile with
    repair-set witnesses, both bounds, rate limit, and dominance check.
bound singleton|cm|ml-singleton|ml-alphabet
    Evaluate one bound from command-line parameters.
certify
    Print optimality certificates for one or more code files; with
    --expect-optimal the exit code reports the verdict.

Exit codes: 0 success; 1 verification failure (an --expect-optimal verdict
that is not "true") or exceeded enumeration budget; 2 usage errors,
malformed files, and precondition failures.  Error messages carry distinct
prefixes: "usage error:", "parse error:", "precondition error:",
"budget error:", "file error:".

All coordinates and positions in the CLI are 1-based; the library API is
0-based.  Every output is deterministic: rerunning a command reproduces it
byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

from .bounds import (
    KOptOracle,
    cm_bound,
    load_kopt_table,
    ml_alphabet,
    ml_singleton,
    singleton_r_local,
)
from .certify import (
    certify,
    certify_pyramid,
    full_analysis,
    render_analysis_kv,
    render_analysis_text,
    render_bound_kv,
    render_bound_text,
    render_certificate_kv,
    render_certificate_text,
)
from .constructions import (
    algorithm1_ml_lrc,
    algorithm3_ml_lrc,
    construction2_binary_lrc,
    gcc_generator,
    load_gcc_spec,
    load_pyramid_spec,
    ml_pyramid,
    tamo_barg,
)
from .errors import BudgetError, ParseError, PreconditionError
from .linear_code import (
    LinearCode,
    code_to_lines,
    load_code,
    parse_profile_shape,
    resolve_budget,
)

__all__ = ["build_parser", "main", "run"]


class _UsageError(Exception):
    """Invalid flag combination or value detected after argparse."""


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _parse_positions(text: str, n: int) -> list[int]:
    """Comma-separated 1-based positions -> sorted distinct 0-based indices."""
    try:
        positions = [int(p) for p in text.split(",")]
    except ValueError:
        raise _UsageError(f"positions must be comma-separated integers: {text!r}")
    if len(set(positions)) != len(positions):
        raise _UsageError(f"positions must be distinct: {text!r}")
    for p in positions:
        if not 1 <= p <= n:
            raise _UsageError(f"position {p} outside 1..{n}")
    return sorted(p - 1 for p in positions)


def _parse_groups(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated groups of comma-separated 1-based coordinates."""
    groups = []
    for part in text.split(";"):
        try:
            coords = [int(c) for c in part.split(",")]
        except ValueError:
            raise _UsageError(f"malformed group list: {text!r}")
        if any(c < 1 for c in coords):
            raise _UsageError("group coordinates are 1-based and positive")
        groups.append(tuple(c - 1 for c in coords))
    return tuple(groups)


def _oracle(args) -> KOptOracle | None:
    table = load_kopt_table(args.table) if getattr(args, "table", None) else None
    mode = getattr(args, "oracle", "default")
    if mode == "default":
        return KOptOracle.default(table=table)
    if mode == "table":
        return KOptOracle.table_only(table=table)
    if mode == "analytic":
        return KOptOracle.analytic_only()
    if mode == "exhaustive":
        return KOptOracle.exhaustive_only()
    if mode == "singleton":
        return KOptOracle.singleton_only()
    raise _UsageError(f"unknown oracle mode {mode!r}")


def _profile_arg(args) -> tuple[tuple[int, int], ...]:
    shape = parse_profile_shape(args.profile)
    if args.n is not None and args.n != sum(sz for sz, _ in shape):
        raise _UsageError(
            f"--n {args.n} does not match the profile's total size "
            f"{sum(sz for sz, _ in shape)}"
        )
    return shape


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _emit_code(code: LinearCode, out: str | None) -> None:
    _emit(code_to_lines(code), out)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    groups = _parse_groups(args.groups) if getattr(args, "groups", None) else None
    if args.what == "tamo-barg":
        code = tamo_barg(args.q, args.n, args.k, args.r)
    elif args.what == "gcc2":
        code = construction2_binary_lrc(args.r, args.j)
    elif args.what == "pyramid":
        code = ml_pyramid(load_pyramid_spec(args.spec))
    elif args.what == "gcc":
        code = gcc_generator(load_gcc_spec(args.spec))
    elif args.what == "alg1":
        code = algorithm1_ml_lrc(
            load_code(args.input), args.r1, args.n1, repair_groups=groups
        )
    else:  # alg3
        code = algorithm3_ml_lrc(
            load_code(args.input), args.r1, args.alpha, repair_groups=groups
        )
    _emit_code(code, args.out)
    return 0


def _cmd_shorten(args) -> int:
    code = load_code(args.input)
    for pos in reversed(_parse_positions(args.at, code.n)):
        code = code.shorten(pos)
    _emit_code(code, args.out)
    return 0


def _cmd_analyze(args) -> int:
    report = full_analysis(
        load_code(args.input),
        oracle=_oracle(args),
        mode=args.mode,
        budget=args.budget,
    )
    render = render_analysis_kv if args.format == "kv" else render_analysis_text
    _emit(render(report).splitlines(), args.out)
    return 0


def _cmd_bound(args) -> int:
    if args.which == "singleton":
        value = singleton_r_local(args.n, args.k, args.r)
        lines = [f"singleton bound: {value}"] if args.format == "text" else [
            "name=singleton",
            f"bound={value}",
        ]
        _emit(lines, args.out)
        return 0
    if args.which == "cm":
        report = cm_bound(args.n, args.d, args.r, args.q, oracle=_oracle(args))
    elif args.which == "ml-singleton":
        report = ml_singleton(_profile_arg(args), args.k)
    else:  # ml-alphabet
        report = ml_alphabet(_profile_arg(args), args.d, args.q, oracle=_oracle(args))
    render = render_bound_kv if args.format == "kv" else render_bound_text
    _emit(render(report).splitlines(), args.out)
    return 0


def _certify_one(task):
    path, oracle, mode, budget = task
    return certify(load_code(path), oracle=oracle, mode=mode, budget=budget)


def _cmd_certify(args) -> int:
    render = render_certificate_kv if args.format == "kv" else render_certificate_text
    if args.pyramid:
        if args.input:
            raise _UsageError("--pyramid and code files are mutually exclusive")
        certs = [certify_pyramid(load_pyramid_spec(args.pyramid), budget=args.budget)]
    else:
        if not args.input:
            raise _UsageError("certify needs code files or --pyramid")
        tasks = [
            (path, _oracle(args), args.mode, args.budget) for path in args.input
        ]
        if args.jobs > 1 and len(tasks) > 1:
            workers = min(args.jobs, len(tasks))  # fork starts every worker at once
            with ProcessPoolExecutor(max_workers=workers) as pool:
                certs = list(pool.map(_certify_one, tasks))
        else:
            certs = [_certify_one(task) for task in tasks]
    _emit(["\n".join(render(c) for c in certs)], args.out)
    if args.expect_optimal:
        key = args.expect_optimal + "_optimal"
        failed = [
            i for i, cert in enumerate(certs, 1)
            if getattr(cert, key) is not True
        ]
        if failed:
            print(
                f"verification failure: {args.expect_optimal} optimality not "
                f"certified for input {','.join(map(str, failed))}",
                file=sys.stderr,
            )
            return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="write output here (default stdout)")


def _add_oracle(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--oracle",
        choices=["default", "table", "analytic", "exhaustive", "singleton"],
        default="default",
        help="best-known-dimension oracle mode (default: default chain)",
    )
    p.add_argument("--table", metavar="FILE", help="k_opt table file to load")


def _add_report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "kv"], default="text")
    p.add_argument("--mode", choices=["loose", "strict"], default="loose",
                   help="locality profile mode")
    p.add_argument("--budget", type=int, default=None,
                   help="enumeration budget override (> 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mllrc",
        description="Construct, bound, and certify multiple-locality "
        "locally repairable codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a code and emit a code file")
    csub = con.add_subparsers(dest="what", required=True)
    tb = csub.add_parser("tamo-barg", help="polynomial-evaluation LRC")
    tb.add_argument("--q", type=int, required=True)
    tb.add_argument("--n", type=int, required=True)
    tb.add_argument("--k", type=int, required=True)
    tb.add_argument("--r", type=int, required=True)
    gcc2 = csub.add_parser("gcc2", help="binary concatenated r-local family")
    gcc2.add_argument("--r", type=int, required=True)
    gcc2.add_argument("--j", type=int, default=0, help="shortening depth")
    pyr = csub.add_parser("pyramid", help="parity-splitting construction")
    pyr.add_argument("--spec", required=True, metavar="FILE")
    gcc = csub.add_parser("gcc", help="generalized concatenation from a spec")
    gcc.add_argument("--spec", required=True, metavar="FILE")
    alg1 = csub.add_parser("alg1", help="two-locality code by group deletion")
    alg1.add_argument("--in", dest="input", required=True, metavar="FILE")
    alg1.add_argument("--r1", type=int, required=True)
    alg1.add_argument("--n1", type=int, required=True)
    alg1.add_argument("--groups", help="repair groups, e.g. '1,2,3;4,5,6' (1-based)")
    alg3 = csub.add_parser("alg3", help="iterated class-splitting deletion")
    alg3.add_argument("--in", dest="input", required=True, metavar="FILE")
    alg3.add_argument("--r1", type=int, required=True)
    alg3.add_argument("--alpha", type=int, required=True)
    alg3.add_argument("--groups", help="repair groups, e.g. '1,2,3;4,5,6' (1-based)")
    for p in (tb, gcc2, pyr, gcc, alg1, alg3):
        _add_out(p)
    con.set_defaults(func=_cmd_construct)

    sh = sub.add_parser("shorten", help="shorten a code at given positions")
    sh.add_argument("--in", dest="input", required=True, metavar="FILE")
    sh.add_argument("--at", required=True,
                    help="comma-separated 1-based positions in the input code")
    _add_out(sh)
    sh.set_defaults(func=_cmd_shorten)

    an = sub.add_parser("analyze", help="print the full analysis report")
    an.add_argument("--in", dest="input", required=True, metavar="FILE")
    _add_oracle(an)
    _add_report(an)
    _add_out(an)
    an.set_defaults(func=_cmd_analyze)

    bo = sub.add_parser("bound", help="evaluate one bound")
    bsub = bo.add_subparsers(dest="which", required=True)
    bs = bsub.add_parser("singleton", help="single-locality distance bound")
    bs.add_argument("--n", type=int, required=True)
    bs.add_argument("--k", type=int, required=True)
    bs.add_argument("--r", type=int, required=True)
    bc = bsub.add_parser("cm", help="single-locality dimension bound")
    bc.add_argument("--n", type=int, required=True)
    bc.add_argument("--d", type=int, required=True)
    bc.add_argument("--r", type=int, required=True)
    bc.add_argument("--q", type=int, required=True)
    _add_oracle(bc)
    bms = bsub.add_parser("ml-singleton", help="multi-locality distance bound")
    bms.add_argument("--profile", required=True,
                     help='shape string like "(3,2),(8,3)"')
    bms.add_argument("--k", type=int, required=True)
    bms.add_argument("--n", type=int, help="cross-check against the profile sum")
    bma = bsub.add_parser("ml-alphabet", help="multi-locality dimension bound")
    bma.add_argument("--profile", required=True,
                     help='shape string like "(3,2),(8,3)"')
    bma.add_argument("--d", type=int, required=True)
    bma.add_argument("--q", type=int, required=True)
    bma.add_argument("--n", type=int, help="cross-check against the profile sum")
    _add_oracle(bma)
    for p in (bs, bc, bms, bma):
        p.add_argument("--format", choices=["text", "kv"], default="text")
        _add_out(p)
    bo.set_defaults(func=_cmd_bound)

    ce = sub.add_parser("certify", help="print optimality certificates")
    ce.add_argument("--in", dest="input", nargs="*", action="extend",
                    metavar="FILE",
                    help="code files to certify (in order); repeatable")
    ce.add_argument("--pyramid", metavar="FILE",
                    help="certify a pyramid spec under information-symbol "
                    "accounting instead of a code file")
    ce.add_argument("--expect-optimal", choices=["singleton", "alphabet"],
                    help="exit 1 unless this verdict is true for every input")
    ce.add_argument("--jobs", type=int, default=1,
                    help="parallel workers for batch certification (never "
                    "more than the number of inputs)")
    _add_oracle(ce)
    _add_report(ce)
    _add_out(ce)
    ce.set_defaults(func=_cmd_certify)

    return parser


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    if hasattr(args, "budget"):  # --budget, else MLLRC_BUDGET
        try:
            resolve_budget(args.budget)
        except PreconditionError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "jobs", 1) < 1:
        print("usage error: --jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
