"""Command-line entry point.

Commands: fib, alpha, entry-exponent, contract, verify, report-asymptotics,
series.  Exit codes: 0 success, 1 check failure, 2 usage error, corrupt
cache or a cache or --out file that cannot be opened (one `error:` line
naming the path), 3 factorization budget exhausted or an input past a
command's scale (logprod's x, the series' N, fib's n, contract's n_max),
141 stdout closed by its reader.

Cache path precedence: --cache flag, then the FIBDIRICHLET_CACHE environment
variable, then no cache.  All emissions are byte-deterministic for a given
configuration.
"""

from __future__ import annotations

import io
import math
import os
import sys
from collections import namedtuple
from contextlib import suppress
from types import SimpleNamespace

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


def emit_rows(rows: list[dict], name: str, args: SimpleNamespace) -> None:
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


def cmd_scalar(args: SimpleNamespace) -> int:
    print(args.value(args.n))
    return EXIT_OK


# each row is held until the table is written: n_max = 10⁵, the largest
# n_max measured, took 1.7 s at 48.6 MB in csv and 2.2 s at 151.7 MB in json
# on a 2-vCPU VM (3·10⁵ took 4.8 s at 98.4 MB and 6.2 s at 423.8 MB), and
# past a few hundred every row reads budget-exceeded, so past it a run is
# refused
CONTRACT_N_MAX = 10**5


def cmd_contract(args: SimpleNamespace) -> int:
    depth, n_max = args.depth, args.n_max
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > CONTRACT_N_MAX:   # before any row is made
        raise BudgetExceededError(f"contract stops at n_max={CONTRACT_N_MAX}")
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


def cmd_verify(args: SimpleNamespace) -> int:
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


def cmd_report_asymptotics(args: SimpleNamespace) -> int:
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


def cmd_series(args: SimpleNamespace) -> int:
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


PROG = "fibdirichlet"
DESCRIPTION = ("Exact Dirichlet products at Fibonacci numbers: rank of "
               "apparition, contractions, and identity verification.")
HELP_FLAGS = ("-h", "--help")
REQUIRED = object()   # the default of a positional that must be given


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# what each reader of a value expects, as a usage error names it
EXPECTED = {int: "an integer", float: "a number",
            _finite_number: "a finite number"}


class _Checks:   # verify's choices: verify.SUITE's checks when read, and all
    def __iter__(self):
        return iter((*sorted(verify_mod.SUITE), "all"))


# Each positional and flag maps to (kind, default, help): its kind is the
# reader of its value (str or a key of EXPECTED) or, not callable, its
# choices.  `fixed` holds the attributes that a command always sets.
Command = namedtuple("Command", "run help positionals flags fixed")
COMMON_FLAGS = {
    "--cache": (str, None, "cache file path (FIBDIRICHLET_CACHE overrides "
                           "the default, flag wins)"),
    "--budget": (int, DEFAULT_FACTOR_BUDGET, f"factorization work budget "
                 f"(default {DEFAULT_FACTOR_BUDGET})"),
}
ROW_FLAGS = {   # where rows are written
    **COMMON_FLAGS,
    "--format": (("csv", "json"), "csv", "emission format (default csv)"),
    "--out": (str, None, "write emission to this file"),
    "--precision": (int, 12, "decimal digits for emitted reals (default 12)"),
}
SCALAR_N = {"n": (int, REQUIRED, "")}

COMMANDS = {
    "fib": Command(cmd_scalar, "print the n-th Fibonacci number", SCALAR_N,
                   COMMON_FLAGS, {"value": _fib_digits}),
    "alpha": Command(cmd_scalar, "print the rank of apparition of n",
                     SCALAR_N, COMMON_FLAGS, {"value": rank}),
    "entry-exponent": Command(
        cmd_scalar, "print the largest m with n^m dividing F(rank(n))",
        SCALAR_N, COMMON_FLAGS, {"value": entry_exponent}),
    "contract": Command(
        cmd_contract, "tabulate an iterated contraction against its closed "
                      "form",
        {"fn": (CONTRACTIBLE, REQUIRED, ""),
         "depth": (int, 1, "contraction depth (default 1)"),
         "n_max": (int, DEFAULT_CONTRACT_N_MAX, f"largest index to tabulate "
                   f"(default {DEFAULT_CONTRACT_N_MAX})")},
        ROW_FLAGS, {}),
    "verify": Command(
        cmd_verify, "run identity checks",
        {"check": (_Checks(), REQUIRED, "")},
        {"--x": (_finite_number, None, "range or argument for the check"),
         "--s": (float, None, "Dirichlet series exponent"),
         "--n": (int, None, "truncation length / range bound"),
         "--which": (tuple(sorted(EULER_SERIES)), None,
                     "series selector for euler-product"),
         **ROW_FLAGS}, {}),
    "report-asymptotics": Command(
        cmd_report_asymptotics, "emit exact-vs-predicted growth samples", {},
        {"--x": (str, DEFAULT_ASYMPTOTIC_XS, f"comma-separated sample points "
                 f"(default {DEFAULT_ASYMPTOTIC_XS})"),
         **ROW_FLAGS}, {}),
    "series": Command(
        cmd_series, "emit truncated Dirichlet series comparisons", {},
        {"--which": ((*sorted(EULER_SERIES), "all"), "all", ""),
         "--s": (float, 2.0, ""),
         "--n": (int, 10_000, ""),
         **ROW_FLAGS}, {}),
}


def _metavar(name: str, kind) -> str:
    if not callable(kind):
        return "{" + ",".join(kind) + "}"
    return name[2:].upper() if name[0] == "-" else name


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {PROG} [-h] {_metavar('command', COMMANDS)} ..."
    spec = COMMANDS[command]
    return " ".join([
        f"usage: {PROG} {command} [-h]",
        *(f"[{name} {_metavar(name, kind)}]"
          for name, (kind, _, _) in spec.flags.items()),
        *(_metavar(name, kind) if default is REQUIRED
          else f"[{_metavar(name, kind)}]"
          for name, (kind, default, _) in spec.positionals.items())])


def _print_help(command: str | None):
    """Write the usage and a line for each command, or for each of the
    command's arguments, to stdout, and exit 0."""
    if command is None:
        text = DESCRIPTION
        rows = [(name, spec.help) for name, spec in COMMANDS.items()]
    else:
        spec = COMMANDS[command]
        text = spec.help
        rows = [(_metavar(name, kind), help_text) for name, (kind, _, help_text)
                in spec.positionals.items()]
        rows += [(f"{name} {_metavar(name, kind)}", help_text)
                 for name, (kind, _, help_text) in spec.flags.items()]
    rows.append((", ".join(HELP_FLAGS), "show this help message and exit"))
    print(_usage(command), "", text, "",
          *(f"  {left:<22} {right}".rstrip() for left, right in rows),
          sep="\n")
    raise SystemExit(EXIT_OK)


def _usage_error(command: str | None, message: str):
    """Write the usage and an `error:` line to stderr, and exit 2."""
    prog = PROG if command is None else f"{PROG} {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _is_flag(token: str, flags) -> bool:
    """Whether token is read as a flag: it starts with '-' and names one of
    flags before any '=', or it is not '-', a negative number or a text with
    a space, which are read as values."""
    if token[:1] != "-" or token == "-":
        return False
    whole, dot, fraction = token[1:].partition(".")
    negative = (fraction.isdecimal() and (not whole or whole.isdecimal())
                if dot else whole.isdecimal())
    return token.partition("=")[0] in flags or not (negative or " " in token)


def _read(command: str | None, name: str, kind, text: str):
    """text as kind reads it, or a usage error that names the argument."""
    if not callable(kind):
        if text in kind:
            return text
        _usage_error(command, f"argument {name}: invalid choice: {text!r} "
                              f"(choose from {', '.join(kind)})")
    try:
        return kind(text)
    except ValueError:
        _usage_error(command, f"argument {name}: expected {EXPECTED[kind]}, "
                              f"got {text!r}")


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """The command's attributes read off argv against COMMANDS: its
    positionals in order, and its flags before, between or after them, as
    `--flag value` or `--flag=value`, the last of a repeated flag winning;
    after `--` every token is a positional.  -h or --help prints the help
    and exits 0; a usage error exits 2."""
    tokens = iter(sys.argv[1:] if argv is None else argv)
    command = args = None
    flags, positionals, extras, ended = {}, iter(()), [], False
    for token in tokens:
        if ended or not _is_flag(token, flags):
            if command is None:
                command = _read(None, "command", COMMANDS, token)
                spec = COMMANDS[command]
                flags, positionals = spec.flags, iter(spec.positionals.items())
                args = SimpleNamespace(
                    command=command, run=spec.run, **spec.fixed,
                    **{name.lstrip("-"): default for name, (_, default, _)
                       in (*spec.positionals.items(), *flags.items())})
            elif (positional := next(positionals, None)) is None:
                extras.append(token)
            else:
                name, (kind, _, _) = positional
                setattr(args, name, _read(command, name, kind, token))
        elif token == "--":
            ended = True
        elif token in HELP_FLAGS:
            _print_help(command)
        elif (name := token.partition("=")[0]) not in flags:
            extras.append(token)
        else:
            _, inline, value = token.partition("=")
            if not inline:
                value = next(tokens, None)
                if value is None or _is_flag(value, flags):
                    _usage_error(command,
                                 f"argument {name}: expected one argument")
            setattr(args, name[2:], _read(command, name, flags[name][0], value))
    missing = [name for name, (_, default, _) in positionals
               if default is REQUIRED]
    if command is None or missing:
        _usage_error(command, f"the following arguments are required: "
                              f"{', '.join(missing or ['command'])}")
    if extras:
        _usage_error(command, f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.budget < 1:
        _usage_error(args.command,
                     f"--budget must be at least 1, got {args.budget}")
    if getattr(args, "precision", 0) < 0:
        _usage_error(args.command,
                     f"--precision must be at least 0, got {args.precision}")
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
