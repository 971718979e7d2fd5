"""Brute-force reference solver for the restricted four-square systems.

This module imports only numpy and the standard library, never the
arithmetic, residue or descent code it is used to check, so that an
agreement between the two is evidence rather than a tautology.

Every integer 4-tuple of norm m is enumerated as a join of two pairs:
(x, y) and (z, t) with x**2 + y**2 + z**2 + t**2 = m.  The pairs cover
the disk x**2 + y**2 <= m only, and the join needs no Python loop.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Optional, Sequence

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


@lru_cache(maxsize=4)
def norm_tuples(m: int) -> np.ndarray:
    """All integer 4-tuples of norm m as a read-only (k, 4) int64 array.

    Rows are lexicographically ascending.  The pairs of the disk are
    numbered in lexicographic order and stably sorted by their norm, so
    each run of equal norm stays lexicographic; joining the pairs in
    number order to their partner runs emits the rows already in order.
    """
    s = isqrt(m)
    xs = np.arange(-s, s + 1, dtype=np.int64)
    # The float root truncates to the exact floor root below 2**52.
    ylim = np.sqrt(m - xs * xs).astype(np.int64)
    counts = 2 * ylim + 1
    starts = np.cumsum(counts) - counts
    # Pair i lies in run r of x = xs[r] and has y = i - starts[r] - ylim[r].
    # Only the norms are built for the whole disk, not the pairs.
    q = (np.repeat(xs * xs, counts)
         + (np.arange(int(counts.sum())) - np.repeat(starts + ylim, counts)) ** 2)
    # Keep only the pairs with a partner, so that the sort and the join
    # run on far fewer pairs than the disk holds.
    partners = np.bincount(q, minlength=m + 1)[m - q]
    keep = np.flatnonzero(partners)
    q, partners = q[keep], partners[keep]
    run = np.searchsorted(starts, keep, side="right") - 1
    x, y = xs[run], keep - starts[run] - ylim[run]
    by_norm = np.argsort(q, kind="stable")
    first = np.searchsorted(q[by_norm], m - q)
    left = np.repeat(np.arange(q.size), partners)
    # Index of each row within its left pair's run of partners.
    within = np.arange(left.size) - np.repeat(np.cumsum(partners) - partners,
                                              partners)
    right = by_norm[first[left] + within]
    rows = np.stack((x[left], y[left], x[right], y[right]), axis=1)
    rows.setflags(write=False)
    return rows


def _members(n: np.ndarray, target: str) -> np.ndarray:
    """Boolean mask of the values of n in the target set."""
    if target == "pow2":
        return (n > 0) & ((n & (n - 1)) == 0)
    # The root of |n| is nonnegative, so a negative n never matches it.
    if target == "squares":
        root = np.rint(np.sqrt(np.abs(n))).astype(np.int64)
        return root * root == n
    root = np.rint(np.cbrt(np.abs(n))).astype(np.int64)
    return root * root * root == n


# Callers loop over the quadruples and, within each, over the three sets,
# so one entry serves the second and third set of the same (m, quad).
@lru_cache(maxsize=1)
def _linear_values(m: int, quad: tuple[int, int, int, int]) -> np.ndarray:
    """ax+by+cz+dt on every row of norm_tuples(m), shared by the sets."""
    n = norm_tuples(m) @ np.asarray(quad, dtype=np.int64)
    n.setflags(write=False)
    return n


def least_solution(m: int, quad: Sequence[int], target: str
                   ) -> Optional[tuple[int, int, int, int, int]]:
    """(x, y, z, t, n) with the smallest n = ax+by+cz+dt in the target set.

    Ties go to the lexicographically least tuple.  None when no tuple of
    norm m has its value in the set.  m and target are not checked here:
    `foursq.solver.brute_force_oracle` validates them.
    """
    n = _linear_values(m, tuple(quad))
    member = _members(n, target)
    # argmin takes the first minimum, and rows are in lexicographic order.
    best = int(np.argmin(np.where(member, n, _INT64_MAX)))
    if not member[best]:
        return None
    x, y, z, t = (int(v) for v in norm_tuples(m)[best])
    return x, y, z, t, int(n[best])
