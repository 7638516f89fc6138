"""Shared fixtures and golden fixtures for the test suite."""

from __future__ import annotations

import pytest

import rootheight.identities as identities
from rootheight import build, default_catalog
from rootheight.exactalg import Polynomial


@pytest.fixture(scope="session")
def catalog():
    """All default systems, built once and shared (instances are immutable)."""
    return {str(rsid): build(rsid) for rsid in default_catalog()}


def clear_identity_memos():
    """Empty every lru_cache defined in rootheight.identities, so the next
    run computes each memoised value afresh."""
    for value in vars(identities).values():
        if hasattr(value, "cache_clear") and value.__module__ == identities.__name__:
            value.cache_clear()


def get_system(catalog, family, rank):
    return catalog[f"{family}{rank}"]


def golden_exponents(family, rank):
    """Exponent lists from the classical tables, used as golden fixtures."""
    if family == "A":
        return list(range(1, rank + 1))
    if family in ("B", "C"):
        return list(range(1, 2 * rank, 2))
    if family == "D":
        return sorted(list(range(1, 2 * rank - 2, 2)) + [rank - 1])
    return {
        ("E", 6): [1, 4, 5, 7, 8, 11],
        ("E", 7): [1, 5, 7, 9, 11, 13, 17],
        ("E", 8): [1, 7, 11, 13, 17, 19, 23, 29],
        ("F", 4): [1, 5, 7, 11],
        ("G", 2): [1, 5],
    }[(family, rank)]


def golden_charpoly_factors(family, rank):
    """Binomial exponents (numerator list, denominator list) of the classical
    factorizations of the Coxeter characteristic polynomial."""
    if family == "A":
        return [rank + 1], [1]
    if family in ("B", "C"):
        return [2 * rank], [rank]
    if family == "D":
        return [2 * rank - 2, 2], [rank - 1, 1]
    return {
        ("E", 6): ([12, 3, 2], [6, 4, 1]),
        ("E", 7): ([18, 3, 2], [9, 6, 1]),
        ("E", 8): ([30, 5, 3, 2], [15, 10, 6, 1]),
        ("F", 4): ([12, 2], [6, 4]),
        ("G", 2): ([6, 1], [3, 2]),
    }[(family, rank)]


def golden_charpoly(family, rank):
    num_exps, den_exps = golden_charpoly_factors(family, rank)
    num = Polynomial((1,))
    for d in num_exps:
        num = num * Polynomial((-1,) + (0,) * (d - 1) + (1,))
    den = Polynomial((1,))
    for d in den_exps:
        den = den * Polynomial((-1,) + (0,) * (d - 1) + (1,))
    return num.divexact(den)


def conjugate_partition(exponents, h):
    """Height counts b_1..b_{h-1} from an exponent list."""
    return [sum(1 for e in exponents if e >= k) for k in range(1, h)]
