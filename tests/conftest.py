"""Shared test oracles."""

import argparse
import math

import pytest

from fibdirichlet import cli, verify
from fibdirichlet.numtheory import DEFAULT_FACTOR_BUDGET


def _rank_scan(n):
    """Rank of apparition by scanning Fibonacci residues mod n.

    The scan is bounded by 6n, the classical Pisano-period bound; the
    library computes the rank by one walk down from a multiple of it
    instead, and is tested against this definition-level oracle.
    """
    a, b = 1 % n, 1 % n  # F(1), F(2)
    for k in range(1, 6 * n + 1):
        if a == 0:
            return k
        a, b = b, (a + b) % n
    raise RuntimeError(f"no rank of apparition found for {n} within 6n steps")


@pytest.fixture
def rank_scan():
    return _rank_scan


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(parser, run, rows=True):
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


def _reference_parser():
    """The CLI's argparse parser as it was before `cli.parse_args` read argv
    off `cli.COMMANDS`; the parsing tests hold the two to the same values."""
    parser = argparse.ArgumentParser(
        prog="fibdirichlet",
        description="Exact Dirichlet products at Fibonacci numbers: rank of "
                    "apparition, contractions, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, value in (
            ("fib", "print the n-th Fibonacci number", cli._fib_digits),
            ("alpha", "print the rank of apparition of n", cli.rank),
            ("entry-exponent",
             "print the largest m with n^m dividing F(rank(n))",
             cli.entry_exponent)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("n", type=int)
        p.set_defaults(value=value)
        _add_common(p, cli.cmd_scalar, rows=False)

    p = sub.add_parser("contract",
                       help="tabulate an iterated contraction against its "
                            "closed form")
    p.add_argument("fn", choices=cli.CONTRACTIBLE)
    p.add_argument("depth", type=int, nargs="?", default=1,
                   help="contraction depth (default 1)")
    p.add_argument("n_max", type=int, nargs="?",
                   default=cli.DEFAULT_CONTRACT_N_MAX,
                   help=f"largest index to tabulate "
                        f"(default {cli.DEFAULT_CONTRACT_N_MAX})")
    _add_common(p, cli.cmd_contract)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("check", choices=sorted(verify.SUITE) + ["all"])
    p.add_argument("--x", type=_finite_float,
                   help="range or argument for the check")
    p.add_argument("--s", type=float, help="Dirichlet series exponent")
    p.add_argument("--n", type=int, help="truncation length / range bound")
    p.add_argument("--which", choices=sorted(verify.EULER_SERIES),
                   help="series selector for euler-product")
    _add_common(p, cli.cmd_verify)

    p = sub.add_parser("report-asymptotics",
                       help="emit exact-vs-predicted growth samples")
    p.add_argument("--x", default=cli.DEFAULT_ASYMPTOTIC_XS,
                   help="comma-separated sample points (default %(default)s)")
    _add_common(p, cli.cmd_report_asymptotics)

    p = sub.add_parser("series",
                       help="emit truncated Dirichlet series comparisons")
    p.add_argument("--which", choices=sorted(verify.EULER_SERIES) + ["all"],
                   default="all")
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--n", type=int, default=10_000)
    _add_common(p, cli.cmd_series)

    return parser


@pytest.fixture
def reference_parser():
    return _reference_parser()
