"""Brute-force reference solver for the restricted four-square systems.

This module imports only numpy and the standard library, never the
arithmetic, residue or descent code it is used to check, so that an
agreement between the two is evidence rather than a tautology.

Every integer 4-tuple of norm m is enumerated as a join of two pairs:
(x, y) and (z, t) with x**2 + y**2 + z**2 + t**2 = m.  The pairs cover
the disk x**2 + y**2 <= m only, and the join needs no Python loop.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt
from typing import Optional, Sequence

import numpy as np


# Callers walk m outermost, so only the current m's table is kept.
@lru_cache(maxsize=1)
def norm_tuples(m: int) -> np.ndarray:
    """All integer 4-tuples of norm m as a read-only (k, 4) int32 array.

    Rows are lexicographically ascending.  The pairs of the disk are
    numbered in lexicographic order and stably sorted by their norm, so
    each run of equal norm stays lexicographic; joining the pairs in
    number order to their partner runs emits the rows already in order.
    Entries are at most isqrt(m) in absolute value, so int32 holds them
    for every m a table of this size can be built for.
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
    x = xs[run].astype(np.int32)
    y = (keep - starts[run] - ylim[run]).astype(np.int32)
    by_norm = np.argsort(q, kind="stable")
    first = np.searchsorted(q[by_norm], m - q)
    # Pair i is the left half of partners[i] consecutive rows, whose right
    # halves are its partner run by_norm[first[i]:first[i] + partners[i]].
    # Filled column by column, so no int64 copy of the rows is held; the
    # array is column-major, so each column is contiguous here and in
    # `_value_table`.  Row numbers fit in int32 far past the oracle's
    # bound of 10**6 (16,343,040 rows at m = 999,999).
    rows = np.empty((int(partners.sum()), 4), dtype=np.int32, order="F")
    rows[:, 0] = np.repeat(x, partners)
    rows[:, 1] = np.repeat(y, partners)
    at = np.arange(len(rows), dtype=np.int32)
    at += np.repeat((first - np.cumsum(partners) + partners).astype(np.int32),
                    partners)
    rows[:, 2] = x[by_norm][at]
    rows[:, 3] = y[by_norm][at]
    rows.setflags(write=False)
    return rows


# Callers loop over the quadruples and, within each, over the three sets,
# so one entry serves the second and third set of the same (m, quad).
@lru_cache(maxsize=1)
def _value_table(m: int, quad: tuple[int, int, int, int]
                 ) -> tuple[np.ndarray, int, np.ndarray]:
    """(v, lo, count) for n = ax+by+cz+dt on the rows of norm_tuples(m):
    v = n - lo row by row, lo the least n, and count[v] the number of rows
    with that v.

    Values are at most sqrt((a*a+b*b+c*c+d*d) * m) in absolute value, so
    they stay in the rows' int32.
    """
    rows = norm_tuples(m)
    v = np.zeros(len(rows), dtype=np.int32)
    for col, coef in enumerate(quad):
        if coef:
            v += rows[:, col] * coef
    lo = int(v.min())
    v -= lo
    count = np.bincount(v)
    v.setflags(write=False)
    count.setflags(write=False)
    return v, lo, count


def least_solution(m: int, quad: Sequence[int], target: str
                   ) -> Optional[tuple[int, int, int, int, int]]:
    """(x, y, z, t, n) with the smallest n = ax+by+cz+dt in the target set.

    Ties go to the lexicographically least tuple.  None when no tuple of
    norm m has its value in the set.  m and target are not checked here:
    `foursq.solver.brute_force_oracle` validates them.
    """
    v, lo, count = _value_table(m, tuple(quad))
    hi = lo + len(count) - 1
    # The members in ascending order; the first one some row holds is least.
    if target == "pow2":
        members = (1 << k for k in itertools.count())
    else:
        power = 2 if target == "squares" else 3
        members = (k ** power for k in itertools.count())
    for n in members:
        if n > hi:
            return None
        if n >= lo and count[n - lo]:
            # The first row holding n is the least, as rows are ascending.
            x, y, z, t = norm_tuples(m)[int(np.argmax(v == n - lo))].tolist()
            return x, y, z, t, n
