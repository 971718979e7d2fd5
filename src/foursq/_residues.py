"""Residue-class tables backing the quaternion descent enumeration.

For a coefficient quadruple beta = a+bi+cj+dk with norm l, a candidate
rho = n + Ai + Bj + Ck yields a solution iff gamma = rho*conj(beta)/l is
integral, i.e. iff M @ (n, A, B, C) == 0 (mod l) componentwise, where M is
the matrix of right-multiplication by conj(beta).  That condition only
depends on residues mod l, so we precompute, per (quad, n mod l), a sparse
map from the residue class of a canonical triple (A, B, C) to the bitmask
of valid signed-permutation variants.  The solver then only has to probe
classes along its enumeration order.

The valid rho are the right multiples of beta, a lattice of index l**2 in
Z**4, so for each n mod l exactly l signed triples mod l are valid.  One
array pass over the l**3 triples of a quadruple finds the n each is valid
for and groups them by n; each table is then built, on first use, from the
l triples of one n: one sort of their 48 variants puts the bits of each
class in one run.

The condition is linear and signed permutations commute with scalars, so
for a unit u mod l the valid triples at n = u*d are u times those at d.
Every n mod l is u*d for d = gcd(n, l) mod l and some unit u, so a table is
built only per divisor d (52 for the 18 quadruples the solver accepts, in
place of 402 per-n tables) and read at n through u's inverse: class
(A, B, C) at n is class (A, B, C) * u**-1 at d.  The B-planes are read
the same way, so an n holds no table of its own.

Internal module: everything here is an implementation detail of
foursq.solver.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

# All six permutations of (0,1,2) in lexicographic order.  Variant v in
# [0, 48) means: apply permutation PERMS[v >> 3] to the canonical triple,
# then negate component i when bit (2 - i) of (v & 7) is set -- i.e. signs
# run (+,+,+), (+,+,-), (+,-,+), ... with + before -.
PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def signed_permutation(triple: tuple[int, int, int], v: int) -> tuple[int, int, int]:
    """Apply variant v (0 <= v < 48) to a triple."""
    p = PERMS[v >> 3]
    a = triple[p[0]]
    b = triple[p[1]]
    c = triple[p[2]]
    if v & 4:
        a = -a
    if v & 2:
        b = -b
    if v & 1:
        c = -c
    return a, b, c


def mmatrix(quad: tuple[int, int, int, int]) -> tuple[tuple[int, int, int, int], ...]:
    """Rows of (n,A,B,C) -> components of (n+Ai+Bj+Ck) * conj(a+bi+cj+dk)."""
    a, b, c, d = quad
    return (
        (a, b, c, d),
        (-b, a, -d, c),
        (-c, d, a, -b),
        (-d, -c, b, a),
    )


# The same variants as tables: _INV[v] inverts the permutation of variant
# v, and the class c with signed_permutation(c, v) == t has
# c[j] = (t, -t)[_SRC[v, j]]: t un-negated (bit 2 - i of v negates t[i]),
# then un-permuted.
_VARIANTS = np.arange(48, dtype=np.int64)
_INV = np.argsort(np.array(PERMS), axis=1)[_VARIANTS >> 3]
_SRC = _INV + 3 * ((_VARIANTS[:, None] >> (2 - _INV)) & 1)
_BITS = np.int64(1) << _VARIANTS


@lru_cache(maxsize=None)
def _valid_classes(quad: tuple[int, int, int, int], l: int) -> tuple[np.ndarray, ...]:
    """For each n mod l, the classes (A%l, B%l, C%l) that make (n, A, B, C)
    valid, as the columns of a (3, l) array.

    A class is valid for at most one n: two would differ by an integer r
    with r*conj(beta) = 0 (mod l), and gcd(a, b, c, d, l) = 1 gives l | r.
    A row of M whose n coefficient is a unit mod l fixes that n; each
    quadruple the solver accepts has one.
    """
    rows = mmatrix(quad)
    unit = next(row for row in rows if gcd(row[0], l) == 1)
    r = np.arange(l, dtype=np.int32)
    A, B, C = r[:, None, None], r[None, :, None], r[None, None, :]

    def rest(row: tuple[int, int, int, int]) -> np.ndarray:
        return row[1] * A + row[2] * B + row[3] * C

    n = -pow(unit[0], -1, l) * rest(unit) % l
    valid = np.ones((l, l, l), dtype=bool)
    for row in rows:
        valid &= (row[0] * n + rest(row)) % l == 0
    n = n[valid]
    order = np.argsort(n)
    return tuple(np.split(np.stack(np.nonzero(valid))[:, order],
                          np.searchsorted(n[order], r[1:]), axis=1))


@lru_cache(maxsize=None)
def _base_table(
    quad: tuple[int, int, int, int], l: int, d: int
) -> tuple[dict[int, int], tuple[tuple[int, ...], ...]]:
    """(mask, planes) at n = d, which `masks_for` reads for every n = u*d
    with u a unit mod l."""
    t = _valid_classes(quad, l)[d]
    # Keys c*64 + v for the class c that variant v maps onto each valid t,
    # sorted, put each class's variants in one run.
    c = np.concatenate((t, -t % l))[_SRC]
    keys = np.array([l * l * 64, l * 64, 64]) @ c + _VARIANTS[:, None]
    keys = np.sort(keys, axis=None)
    cls = keys >> 6
    first = np.flatnonzero(np.concatenate(([True], cls[1:] != cls[:-1])))
    idx = cls[first]
    bits = np.bitwise_or.reduceat(_BITS[keys & 63], first)
    ab = idx // l  # A*l + B of the classes, ascending
    ab = ab[np.concatenate(([True], ab[1:] != ab[:-1]))]
    edge = np.searchsorted(ab, np.arange(l + 1) * l).tolist()
    b = (ab % l).tolist()
    return (dict(zip(idx.tolist(), bits.tolist())),
            tuple(tuple(b[lo:hi]) for lo, hi in zip(edge, edge[1:])))


@lru_cache(maxsize=None)
def masks_for(
    quad: tuple[int, int, int, int], l: int, n_mod: int
) -> tuple[dict[int, int], int, tuple[tuple[int, ...], ...]]:
    """(mask, ui, planes) for one (quad, n mod l).

    mask and planes are shared by every n with the same gcd(n, l), and
    read at this n through the unit ui: class (A, B, C) is looked up as
    (A*ui % l, B*ui % l, C*ui % l).
    mask: packed class -> nonzero bitmask of valid variants (bit v set iff
    variant v of a triple in that class yields an integral gamma).
    planes[a]: sorted B*ui % l of the B that can possibly hit, given
    A*ui % l == a.
    Keys, values, ui and plane entries are Python ints.
    """
    if not 0 <= n_mod < l:
        raise ValueError(f"n_mod must be in range({l}), got {n_mod}")
    d = gcd(n_mod, l) % l
    u = next(u for u in range(1, l) if gcd(u, l) == 1 and u * d % l == n_mod)
    mask, planes = _base_table(quad, l, d)
    return mask, pow(u, -1, l), planes
