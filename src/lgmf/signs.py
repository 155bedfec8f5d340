"""The sign policy: every Koszul/wedge/contraction/permutation sign in one place.

Theta-subsets are tuples of 0-based indices in strictly increasing order; the
basis ordering is (cardinality, lex).  All other modules derive their signs
from these helpers, which are unit-tested against epsilon and PsiPhi = 1.
"""

from __future__ import annotations

import itertools


def subsets_ordered(n: int):
    """All subsets of {0..n-1} ordered by (cardinality, lex)."""
    out = []
    for size in range(n + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


def wedge_insert(i: int, subset):
    """theta_i wedge theta_subset: (sign, new sorted subset), or None if i in subset."""
    if i in subset:
        return None
    passed = sum(1 for s in subset if s < i)
    new = tuple(sorted(subset + (i,)))
    return (-1) ** passed, new


def contract(i: int, subset):
    """theta_i^* applied to theta_subset: (sign, subset minus i), or None."""
    if i not in subset:
        return None
    k = subset.index(i)
    return (-1) ** k, subset[:k] + subset[k + 1:]


def wedge_complement_sign(subset, n: int):
    """(s, complement) with theta_subset wedge theta_complement = (-1)^s theta_top.

    The complement is returned in increasing order b_1 < ... < b_l.
    """
    comp = tuple(i for i in range(n) if i not in subset)
    return int(perm_sign(subset + comp) < 0), comp


def perm_sign(sigma) -> int:
    """Sign (+1/-1) of a permutation given as a sequence of distinct values."""
    inv = sum(
        1
        for a in range(len(sigma))
        for b in range(a + 1, len(sigma))
        if sigma[a] > sigma[b]
    )
    return -1 if inv % 2 else 1


def binom2(l: int) -> int:
    """The exponent binom(l, 2), reduced use in (-1)^binom(l,2) signs."""
    return l * (l - 1) // 2


def minus_one_to(e: int) -> int:
    return -1 if e % 2 else 1
