"""Shared test oracles."""

import pytest


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
