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
Z**4, so for each n mod l exactly l signed triples mod l are valid.  Each
table is therefore built from those l triples: bit v is set on the class
that variant v maps onto each of them.

Internal module: everything here is an implementation detail of
foursq.solver.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=None)
def masks_for(
    quad: tuple[int, int, int, int], l: int, n_mod: int
) -> tuple[dict[int, int], tuple[tuple[int, ...], ...]]:
    """(mask, planes) for one (quad, n mod l).

    mask: packed residue class (A%l, B%l, C%l) -> nonzero bitmask of valid
    variants (bit v set iff variant v of a triple in that class yields an
    integral gamma).  planes[a]: sorted B-residues that can possibly hit,
    given A % l == a.
    """
    grid = np.indices((l, l, l)).reshape(3, -1)
    valid = np.ones(grid.shape[1], dtype=bool)
    for row in mmatrix(quad):
        valid &= (row[0] * n_mod + row[1] * grid[0] + row[2] * grid[1]
                  + row[3] * grid[2]) % l == 0
    mask: dict[int, int] = {}
    for t in grid[:, valid].T.tolist():
        for v in range(48):
            # The class c with signed_permutation(c, v) == t (mod l):
            # un-negate t, then un-permute.
            c = [0, 0, 0]
            for i, bit in enumerate((4, 2, 1)):
                c[PERMS[v >> 3][i]] = -t[i] % l if v & bit else t[i]
            idx = (c[0] * l + c[1]) * l + c[2]
            mask[idx] = mask.get(idx, 0) | 1 << v
    plane_sets: list[set[int]] = [set() for _ in range(l)]
    ll = l * l
    for idx in mask:
        plane_sets[idx // ll].add((idx // l) % l)
    planes = tuple(tuple(sorted(s)) for s in plane_sets)
    return mask, planes


@lru_cache(maxsize=None)
def residue_array(residues: tuple[int, ...]) -> np.ndarray:
    """One plane of `masks_for` as an int64 array, for the vectorized B-scan."""
    return np.array(residues, dtype=np.int64)
