"""Command-line entry point.

Commands: fib, alpha, entry-exponent, contract, verify, report-asymptotics,
series.  Exit codes: 0 success, 1 check failure, 2 usage or cache error,
3 factorization budget exhausted.

Cache path precedence: --cache flag, then the FIBDIRICHLET_CACHE environment
variable, then no cache.  All emissions are byte-deterministic for a given
configuration.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from contextlib import suppress
from typing import Optional

from . import cache as cache_io
from . import verify as verify_mod
from .contraction import CLOSED_FORMS, alpha_contract_iter
from .fib import clear_fib_factorizations, entry_exponent, fib, rank
from .numtheory import (
    BudgetExceededError,
    DEFAULT_FACTOR_BUDGET,
    NAMED_FUNCTIONS,
    ExactLog,
    factor_budget,
)
from .verify import (
    EULER_SERIES,
    asymptotic_mangoldt_report,
    euler_product_checks,
    growth_sample,
    pi_alpha_row,
    primitive_totals_at,
    run_suite,
)

ENV_CACHE = "FIBDIRICHLET_CACHE"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CONTRACTIBLE = ("mu", "lambda", "phi", "one", "divisor_count")
DEFAULT_ASYMPTOTIC_XS = (5, 12, 30, 60, 200)
DEFAULT_CONTRACT_N_MAX = 24


def _fmt_real(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def _normalize(value, precision: int, for_json: bool):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(_fmt_real(value, precision)) if for_json \
            else _fmt_real(value, precision)
    return value


def emit_rows(rows: list[dict], name: str, args: argparse.Namespace) -> None:
    """Write rows as CSV (header + RFC quoting) or a JSON samples object, in
    the --format, --precision and --out of args."""
    # each format's module is imported only where rows are written in it, so
    # the scalar commands, which write none, load neither
    if args.format == "json":
        import json

        samples = [{k: _normalize(v, args.precision, True) for k, v in row.items()}
                   for row in rows]
        text = json.dumps({"report": name, "samples": samples},
                          indent=2, sort_keys=True) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_normalize(row[k], args.precision, False)
                                 for k in header])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, rows: bool = True) -> None:
    """--cache and --budget, and the emission flags where rows are written."""
    parser.add_argument("--cache", help="cache file path (FIBDIRICHLET_CACHE "
                                        "overrides the default, flag wins)")
    parser.add_argument("--budget", type=int, default=DEFAULT_FACTOR_BUDGET,
                        help=f"factorization work budget "
                             f"(default {DEFAULT_FACTOR_BUDGET})")
    if not rows:
        return
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="emission format (default csv)")
    parser.add_argument("--out", help="write emission to this file")
    parser.add_argument("--precision", type=int, default=12,
                        help="decimal digits for emitted reals (default 12)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibdirichlet",
        description="Exact Dirichlet products at Fibonacci numbers: rank of "
                    "apparition, contractions, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib", help="print the n-th Fibonacci number")
    p.add_argument("n", type=int)
    _add_common(p, rows=False)

    p = sub.add_parser("alpha", help="print the rank of apparition of n")
    p.add_argument("n", type=int)
    _add_common(p, rows=False)

    p = sub.add_parser("entry-exponent",
                       help="print the largest m with n^m dividing F(rank(n))")
    p.add_argument("n", type=int)
    _add_common(p, rows=False)

    p = sub.add_parser("contract",
                       help="tabulate an iterated contraction against its "
                            "closed form")
    p.add_argument("fn", choices=CONTRACTIBLE)
    p.add_argument("depth", type=int, nargs="?", default=1,
                   help="contraction depth (default 1)")
    p.add_argument("n_max", type=int, nargs="?", default=DEFAULT_CONTRACT_N_MAX,
                   help=f"largest index to tabulate "
                        f"(default {DEFAULT_CONTRACT_N_MAX})")
    _add_common(p)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("check", choices=sorted(verify_mod.SUITE) + ["all"])
    p.add_argument("--x", type=_finite_float,
                   help="range or argument for the check")
    p.add_argument("--s", type=float, help="Dirichlet series exponent")
    p.add_argument("--n", type=int, help="truncation length / range bound")
    p.add_argument("--which", choices=sorted(EULER_SERIES),
                   help="series selector for euler-product")
    _add_common(p)

    p = sub.add_parser("report-asymptotics",
                       help="emit exact-vs-predicted growth samples")
    p.add_argument("--x", help="comma-separated sample points "
                               f"(default {','.join(map(str, DEFAULT_ASYMPTOTIC_XS))})")
    _add_common(p)

    p = sub.add_parser("series",
                       help="emit truncated Dirichlet series comparisons")
    p.add_argument("--which", choices=sorted(EULER_SERIES) + ["all"],
                   default="all")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--n", type=int, default=10_000)
    _add_common(p)

    return parser


def cmd_scalar(args: argparse.Namespace) -> int:
    if args.command == "fib":
        # str() refuses an int of over 4300 digits (Python 3.10.7 and 3.11
        # on); Decimal reads the int's digits, not its string
        from decimal import Decimal
        print(Decimal(fib(args.n)))
    elif args.command == "alpha":
        print(rank(args.n))
    else:
        print(entry_exponent(args.n))
    return EXIT_OK


def cmd_contract(args: argparse.Namespace) -> int:
    depth, n_max = args.depth, args.n_max
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    f = NAMED_FUNCTIONS[args.fn]
    closed = CLOSED_FORMS.get((args.fn, depth))
    rows = []
    for n in range(1, n_max + 1):
        row: dict = {"n": n}
        try:
            row["direct"] = alpha_contract_iter(f, depth, n)
        except BudgetExceededError:
            row["direct"] = "budget-exceeded"
        if closed is not None:
            row["closed_form"] = closed(n)
            row["match"] = ("yes" if row["direct"] == row["closed_form"]
                            else "no" if isinstance(row["direct"], int) else "")
        else:
            row["closed_form"] = ""
            row["match"] = ""
        rows.append(row)
    emit_rows(rows, f"contract-{args.fn}-depth{depth}", args)
    mismatches = [row["n"] for row in rows if row["match"] == "no"]
    if mismatches:
        print(f"FAILED: contract {args.fn} depth {depth} differs from its "
              f"closed form at n={mismatches[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_CHECK_OVERRIDES: dict[str, dict[str, tuple[str, type]]] = {
    "theorem1": {"x": ("x", float)},
    "corollary-mult": {"n": ("n_max", int)},
    "logprod": {"x": ("x", float)},
    "ep-sum": {"x": ("x", int)},
    "pi-alpha": {"x": ("x", int)},
    "phi-identity": {"x": ("x", float)},
    "phi-recursion": {"x": ("x_max", int)},
    "euler-product": {"s": ("s", float), "n": ("n_terms", int),
                      "which": ("which", str)},
}


def cmd_verify(args: argparse.Namespace) -> int:
    overrides: dict = {}
    accepted = _CHECK_OVERRIDES.get(args.check, {})
    for flag in ("x", "s", "n", "which"):
        value = getattr(args, flag)
        if value is not None and flag not in accepted:
            raise ValueError(f"verify {args.check} takes no --{flag}")
        if value is not None:
            kwarg, cast = accepted[flag]
            if cast is int and value != int(value):   # not truncated
                raise ValueError(f"{args.check} expects an integral "
                                 f"--{flag}, got {value}")
            overrides[kwarg] = cast(value)
    reports = run_suite(args.check, **overrides)
    rows = []
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.check_name} "
              f"[{rep.parameters}]")
        rows.append({
            "check": rep.check_name,
            "parameters": rep.parameters,
            "passed": rep.passed,
            "residual": rep.residual if isinstance(rep.residual, int)
            else float(rep.residual),
        })
    if args.out:
        emit_rows(rows, f"verify-{args.check}", args)
    failing = [r for r in reports if not r.passed]
    if failing:
        print(f"FAILED: {failing[0].check_name} [{failing[0].parameters}]",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _sample_point(text: str) -> int:
    """An integral --x point, read exactly by int(), else by float()."""
    with suppress(ValueError):
        return int(text)
    with suppress(ValueError, OverflowError):   # int() refuses nan and inf
        if float(text) == int(float(text)):
            return int(float(text))
    raise ValueError(f"report-asymptotics expects integral --x points, "
                     f"got {text.strip()}")


def cmd_report_asymptotics(args: argparse.Namespace) -> int:
    if args.x:
        xs = [_sample_point(part) for part in args.x.split(",") if part.strip()]
    else:
        xs = list(DEFAULT_ASYMPTOTIC_XS)
    rows = [{"kind": "log_lcm", **sample.row()}
            for sample in asymptotic_mangoldt_report(xs)]
    totals = {}
    try:
        for x, count, product in primitive_totals_at(xs):
            totals[x] = count, product
    except BudgetExceededError:
        # each F(n) factors or fails on its own, so the x from the first
        # failing n on are exceeded, and no x before it
        pass
    for x in xs:
        count, product = totals.get(x, (0, 1))
        pi = pi_alpha_row(x, count)
        rows += [{"kind": "ep_log_sum",
                  **growth_sample(x, ExactLog(product)).row()},
                 {"kind": "pi_alpha_scaled", "x": x, "exact": pi["scaled"],
                  "predicted": pi["bound"], "ratio": pi["scaled"] / pi["bound"]}]
        if x not in totals:
            for row in rows[-2:]:
                row.update(exact="budget-exceeded", ratio="")
    rows.sort(key=lambda r: (r["kind"], r["x"]))
    emit_rows(rows, "asymptotics", args)
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    names = sorted(EULER_SERIES) if args.which == "all" else [args.which]
    rows = []
    for name, rep in zip(names, euler_product_checks(names, args.s, args.n)):
        detail = rep.details[0]
        rows.append({
            "which": name, "s": args.s, "N": args.n,
            "zeta_times_series": detail["zeta_N_times_D_N"],
            "polynomial": detail["polynomial"],
            "residual": float(rep.residual),
            "tolerance": detail["tolerance"],
            "passed": rep.passed,
        })
    emit_rows(rows, "series", args)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error(f"--budget must be at least 1, got {args.budget}")
    if "precision" in args and args.precision < 0:
        parser.error(f"--precision must be at least 0, got {args.precision}")
    cache_path = args.cache or os.environ.get(ENV_CACHE)
    # each call starts from an empty memo, so the cache file it writes holds
    # what this call loaded or factored, as a fresh process would write it
    clear_fib_factorizations()

    if cache_path and os.path.exists(cache_path):
        try:
            cache_io.apply_records(cache_io.load_cache_file(cache_path))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    # the command's factorizations are charged to --budget, cache I/O is not
    try:
        with factor_budget(args.budget):
            if args.command in ("fib", "alpha", "entry-exponent"):
                status = cmd_scalar(args)
            elif args.command == "contract":
                status = cmd_contract(args)
            elif args.command == "verify":
                status = cmd_verify(args)
            elif args.command == "report-asymptotics":
                status = cmd_report_asymptotics(args)
            else:
                status = cmd_series(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if cache_path:
        cache_io.save_cache_file(cache_path, cache_io.collect_records())
    return status


if __name__ == "__main__":
    sys.exit(main())
