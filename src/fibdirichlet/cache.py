"""Persistence for computed Fibonacci factorizations, ranks and entry exponents.

One record per line, self-describing and diff-friendly:

    n=12 fib=2^4*3^2 alpha=12 e=2

``fib`` is the factorization of F(n) (``1`` for the empty product), ``alpha``
the rank of apparition of n and ``e`` its entry exponent.  Records exist for
n ≥ 2 only; the entry exponent of 1 is unbounded.  Loading validates all
three fields but keeps only ``fib``; saving computes ``alpha`` and ``e``.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, NamedTuple, Union

from .fib import (
    _LOG2_GOLDEN,
    _exponent_at_rank,
    divisor_has_rank,
    fib,
    fib_mod,
    known_fib_factorizations,
    preload_fib_factorization,
    rank,
)
from .numtheory import is_prime


class CacheRecord(NamedTuple):
    n: int
    fib_factorization: tuple[tuple[int, int], ...]
    rank: int
    entry_exponent: int


def _format_factors(factors: tuple[tuple[int, int], ...]) -> str:
    if not factors:
        return "1"
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)


def _parse_factors(text: str) -> tuple[tuple[int, int], ...]:
    if text == "1":
        return ()
    factors = []
    for part in text.split("*"):
        if "^" in part:
            p, e = part.split("^", 1)
            factors.append((int(p), int(e)))
        else:
            factors.append((int(part), 1))
    return tuple(factors)


def format_record(record: CacheRecord) -> str:
    return (f"n={record.n} fib={_format_factors(record.fib_factorization)} "
            f"alpha={record.rank} e={record.entry_exponent}")


def parse_record(line: str) -> CacheRecord:
    """One validated record; raises ValueError on a record to distrust."""
    return _parse_record(line, set())


def _parse_record(line: str, proven: set[int]) -> CacheRecord:
    """parse_record, skipping the primality test of primes in proven and
    adding those it tests."""
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise ValueError(f"malformed token {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    if sorted(fields) != ["alpha", "e", "fib", "n"]:
        raise ValueError(f"expected fields n, fib, alpha, e; got {sorted(fields)}")
    record = CacheRecord(
        n=int(fields["n"]),
        fib_factorization=_parse_factors(fields["fib"]),
        rank=int(fields["alpha"]),
        entry_exponent=int(fields["e"]),
    )
    n, alpha = record.n, record.rank
    if n < 2:
        raise ValueError(f"records start at n=2, got n={n}")
    factors = record.fib_factorization
    primes = [p for p, _ in factors]
    if (primes != sorted(set(primes))
            or any(p < 2 or e < 1 for p, e in factors)):
        raise ValueError("factors must be distinct ascending primes with "
                         "exponents >= 1")
    # F(n) has n·log2 φ − log2 √5 bits to within one, and its residue mod
    # the prime 2^64 − 59 costs O(log n): both are checked first, so that a
    # forged record costs no primality test and nothing at the scale of n
    m = 2**64 - 59
    try:
        excess = sum(e * math.log2(p) for p, e in factors) - n * _LOG2_GOLDEN
    except OverflowError:
        excess = math.inf
    if (abs(excess + math.log2(5) / 2) > 1
            or math.prod(pow(p, e, m) for p, e in factors) % m != fib_mod(n, m)):
        raise ValueError(f"factorization does not reconstruct F({n})")
    for p in primes:
        if p not in proven:
            if not is_prime(p):
                raise ValueError(f"factor {p} of F({n}) is not prime")
            proven.add(p)
    if math.prod(p**e for p, e in factors) != fib(n):
        raise ValueError(f"factorization does not reconstruct F({n})")
    # every rank is at most 6n (the Pisano-period bound); checking that first
    # keeps factoring alpha at the scale of n
    if not (1 <= alpha <= 6 * n and fib_mod(alpha, n) == 0
            and divisor_has_rank(n, alpha)):
        raise ValueError(f"alpha={alpha} is not the rank of apparition of {n}")
    # counted from the residues, so a forged e is never used as an exponent
    if record.entry_exponent != _exponent_at_rank(n, alpha):
        raise ValueError(f"e={record.entry_exponent} is not the exponent of "
                         f"{n} in F({alpha})")
    return record


def load_cache_file(path: Union[str, os.PathLike]) -> list[CacheRecord]:
    """Parse a cache file; a corrupt line raises with its line number.

    Each distinct prime is tested once per file.
    """
    records = []
    proven: set[int] = set()
    with open(path) as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(_parse_record(line, proven))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return records


def save_cache_file(path: Union[str, os.PathLike],
                    records: Iterable[CacheRecord]) -> None:
    """Write records sorted by n; identical inputs give identical bytes."""
    unique = {r.n: r for r in records}
    lines = [format_record(unique[n]) for n in sorted(unique)]
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


def apply_records(records: Iterable[CacheRecord]) -> None:
    """Preload the memo of F(n) factorizations from records.

    Only the factorizations are kept: rank and entry exponent are computed
    wherever they are needed, and parse_record has already checked them.
    """
    for r in records:
        preload_fib_factorization(r.n, r.fib_factorization)


def collect_records() -> list[CacheRecord]:
    """Every Fibonacci index in the memo as a cache record.

    alpha and e are computed here from the factors of n, by `rank`.
    """
    records = []
    for n, fac in sorted(known_fib_factorizations().items()):
        if n >= 2:
            r = rank(n)
            records.append(CacheRecord(n, fac.factors, r, _exponent_at_rank(n, r)))
    return records
