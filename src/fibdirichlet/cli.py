"""Command-line entry point.

Commands: fib, alpha, entry-exponent, contract, verify, report-asymptotics,
series.  Exit codes: 0 success, 1 check failure, 2 usage error, corrupt
cache or a cache or --out file that cannot be opened (one `error:` line
naming the path), 3 factorization budget exhausted or an input past a
command's scale (logprod's x, the series' N, fib's n), 141 stdout closed by
its reader.

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
from collections.abc import Callable
from contextlib import suppress

from . import cache as cache_io
from . import fib as fib_module
from . import verify as verify_mod
from .contraction import CLOSED_FORMS, alpha_contract_iter
from .fib import entry_exponent, fib, rank
from .numtheory import (
    BudgetExceededError,
    DEFAULT_FACTOR_BUDGET,
    NAMED_FUNCTIONS,
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
EXIT_BROKEN_PIPE = 128 + 13   # SIGPIPE, as a shell reports `yes | head -1`

CONTRACTIBLE = ("mu", "lambda", "phi", "one", "divisor_count")
DEFAULT_ASYMPTOTIC_XS = "5,12,30,60,200"
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


def _add_common(parser: argparse.ArgumentParser,
                run: Callable[[argparse.Namespace], int],
                rows: bool = True) -> None:
    """Set run as the command's handler; add --cache and --budget, and the
    emission flags where rows are written."""
    parser.set_defaults(run=run)
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

    for name, help_text, value in SCALARS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("n", type=int)
        p.set_defaults(value=value)
        _add_common(p, cmd_scalar, rows=False)

    p = sub.add_parser("contract",
                       help="tabulate an iterated contraction against its "
                            "closed form")
    p.add_argument("fn", choices=CONTRACTIBLE)
    p.add_argument("depth", type=int, nargs="?", default=1,
                   help="contraction depth (default 1)")
    p.add_argument("n_max", type=int, nargs="?", default=DEFAULT_CONTRACT_N_MAX,
                   help=f"largest index to tabulate "
                        f"(default {DEFAULT_CONTRACT_N_MAX})")
    _add_common(p, cmd_contract)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("check", choices=sorted(verify_mod.SUITE) + ["all"])
    p.add_argument("--x", type=_finite_float,
                   help="range or argument for the check")
    p.add_argument("--s", type=float, help="Dirichlet series exponent")
    p.add_argument("--n", type=int, help="truncation length / range bound")
    p.add_argument("--which", choices=sorted(EULER_SERIES),
                   help="series selector for euler-product")
    _add_common(p, cmd_verify)

    p = sub.add_parser("report-asymptotics",
                       help="emit exact-vs-predicted growth samples")
    p.add_argument("--x", default=DEFAULT_ASYMPTOTIC_XS,
                   help="comma-separated sample points (default %(default)s)")
    _add_common(p, cmd_report_asymptotics)

    p = sub.add_parser("series",
                       help="emit truncated Dirichlet series comparisons")
    p.add_argument("--which", choices=sorted(EULER_SERIES) + ["all"],
                   default="all")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--n", type=int, default=10_000)
    _add_common(p, cmd_series)

    return parser


# F(n)'s digits, about 0.209·n of them, take time quadratic in n to write:
# n = 10⁶ took 0.95 s and n = 3·10⁶, the largest n measured, 8.2 s on a
# 2-vCPU VM (10⁷ took 87.6 s), so past it a run is refused
FIB_N_MAX = 3 * 10**6


def _fib_digits(n: int):
    if n > FIB_N_MAX:   # before F(n) is computed
        raise BudgetExceededError(f"fib stops at n={FIB_N_MAX}")
    # str() refuses an int of over 4300 digits (Python 3.10.7 and 3.11 on);
    # Decimal reads the int's digits, not its string
    from decimal import Decimal
    return Decimal(fib(n))


# (command, help, the value it prints for its argument n)
SCALARS = (
    ("fib", "print the n-th Fibonacci number", _fib_digits),
    ("alpha", "print the rank of apparition of n", rank),
    ("entry-exponent", "print the largest m with n^m dividing F(rank(n))",
     entry_exponent),
)


def cmd_scalar(args: argparse.Namespace) -> int:
    print(args.value(args.n))
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
        row["closed_form"] = row["match"] = ""
        if closed is not None:
            row["closed_form"] = closed(n)
            row["match"] = ("yes" if row["direct"] == row["closed_form"]
                            else "no" if isinstance(row["direct"], int) else "")
        rows.append(row)
    emit_rows(rows, f"contract-{args.fn}-depth{depth}", args)
    mismatches = [row["n"] for row in rows if row["match"] == "no"]
    if mismatches:
        print(f"FAILED: contract {args.fn} depth {depth} differs from its "
              f"closed form at n={mismatches[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # a check takes the flags it has keyword defaults for; "all" takes none
    takes = {} if args.check == "all" else \
        verify_mod.SUITE[args.check].__kwdefaults__ or {}
    flags = {flag: value for flag in ("x", "s", "n", "which")
             if (value := getattr(args, flag)) is not None}
    for flag, value in flags.items():
        if flag not in takes:
            raise ValueError(f"verify {args.check} takes no --{flag}")
        if isinstance(takes[flag], int):
            if value != int(value):   # not truncated
                raise ValueError(f"{args.check} expects an integral "
                                 f"--{flag}, got {value}")
            flags[flag] = int(value)
    reports = run_suite(args.check, **flags)
    rows = []
    for rep in reports:
        print(f"{'PASS' if rep.passed else 'FAIL'} {rep.check_name} "
              f"[{rep.parameters}]")
        rows.append({
            "check": rep.check_name,
            "parameters": rep.parameters,
            "passed": rep.passed,
            "residual": rep.residual,
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
    xs = [_sample_point(part) for part in args.x.split(",") if part.strip()]
    if not xs:
        raise ValueError(f"report-asymptotics expects at least one --x point, "
                         f"got {args.x!r}")
    rows = [{"kind": "log_lcm", **sample}
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
        rows += [{"kind": "ep_log_sum", **growth_sample(x, product)},
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
    for name, rep in zip(names, euler_product_checks(names, [args.s], args.n)):
        detail = rep.details[0]
        rows.append({
            "which": name, "s": args.s, "N": args.n,
            "zeta_times_series": detail["zeta_N_times_D_N"],
            "polynomial": detail["polynomial"],
            "residual": rep.residual,
            "tolerance": detail["tolerance"],
            "passed": rep.passed,
        })
    emit_rows(rows, "series", args)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error(f"--budget must be at least 1, got {args.budget}")
    if "precision" in args and args.precision < 0:
        parser.error(f"--precision must be at least 0, got {args.precision}")
    cache_path = args.cache or os.environ.get(ENV_CACHE)
    # each call starts from an empty memo, so the cache file it writes holds
    # what this call loaded or factored, as a fresh process would write it
    fib_module.FIB_FACTORS.clear()

    try:
        if cache_path and os.path.exists(cache_path):
            cache_io.apply_records(cache_io.load_cache_file(cache_path))
        # --budget is charged for the command's factorizations, not cache I/O
        with factor_budget(args.budget):
            status = args.run(args)
        if cache_path:
            cache_io.save_cache_file(cache_path, cache_io.collect_records())
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:   # an OSError, so caught ahead of the next clause
        # the reader has gone; what is still buffered goes to devnull, so
        # the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:   # an OSError names its file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return status


if __name__ == "__main__":
    sys.exit(main())
