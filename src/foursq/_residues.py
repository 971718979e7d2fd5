"""Residue-class tables backing the quaternion descent enumeration.

For a coefficient quadruple beta = a+bi+cj+dk with norm l, a candidate
rho = n + Ai + Bj + Ck yields a solution iff gamma = rho*conj(beta)/l is
integral, i.e. iff M @ (n, A, B, C) == 0 (mod l) componentwise, where M is
the matrix of right-multiplication by conj(beta).  That condition only
depends on residues mod l, so we precompute, per (quad, n mod l), a sparse
map from the residue class of a canonical triple (A, B, C) to the bitmask
of valid signed-permutation variants.  The solver then only has to probe
classes along its enumeration order.

The valid rho are the multiples gamma*beta, a lattice of index l**2 in
Z**4 spanned by beta, i*beta, j*beta and k*beta, so for each n mod l
exactly l signed triples mod l are valid.  The closure of those four
generators mod l finds all l**2 valid (n, A, B, C) and groups them by n;
each table is then built, on first use, from the l triples of one n by
sending them back through each of the 48 variants.

The condition is linear and signed permutations commute with scalars, so
for a unit u mod l the valid triples at n = u*d are u times those at d.
Every n mod l is u*d for d = gcd(n, l) mod l and some unit u, so a table is
built only per divisor d (52 for the 18 quadruples the solver accepts, in
place of 402 per-n tables) and read at n through u's inverse: class
(A, B, C) at n is class (A, B, C) * u**-1 at d, so an n holds no table
of its own.

Internal module: everything here is an implementation detail of
foursq.solver.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

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
    """Rows of (n,A,B,C) -> components of (n+Ai+Bj+Ck) * conj(a+bi+cj+dk).

    The rows are also 1*beta, i*beta, j*beta and k*beta as (n, A, B, C).
    """
    a, b, c, d = quad
    return (
        (a, b, c, d),
        (-b, a, -d, c),
        (-c, d, a, -b),
        (-d, -c, b, a),
    )


@lru_cache(maxsize=None)
def _valid_classes(quad: tuple[int, int, int, int],
                   l: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each n mod l, the l classes (A%l, B%l, C%l) that make
    (n, A, B, C) valid, ascending, as the three columns As, Bs, Cs.

    They are the closure mod l of the rows of `mmatrix`: every valid rho
    is an integer combination of them, and each row is valid.  A class is
    valid for at most one n: two would differ by an integer r with
    r*conj(beta) = 0 (mod l), and gcd(a, b, c, d, l) = 1 gives l | r.
    """
    rows = mmatrix(quad)
    seen = {(0, 0, 0, 0)}
    todo = [(0, 0, 0, 0)]
    for n, A, B, C in todo:  # todo grows as the closure finds new points
        for a, b, c, d in rows:
            q = ((n + a) % l, (A + b) % l, (B + c) % l, (C + d) % l)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    groups = [[] for _ in range(l)]
    for n, *t in sorted(seen):
        groups[n].append(t)
    return tuple(tuple(zip(*group)) for group in groups)


@lru_cache(maxsize=None)
def _base_table(quad: tuple[int, int, int, int], l: int, d: int) -> dict[int, int]:
    """The mask at n = d, which `masks_for` reads for every n = u*d with u
    a unit mod l."""
    # cols[i] holds t[i] and cols[3 + i] holds -t[i] % l, for the valid t.
    cols = [*_valid_classes(quad, l)[d]]
    cols += [[-x % l for x in col] for col in cols]
    mask = {}
    for v in range(48):
        # The class c with signed_permutation(c, v) == t: t un-negated
        # (bit 2 - p of v negates t[p]), then un-permuted.
        i, j, k = (p + 3 * (v >> (2 - p) & 1)
                   for p in map(PERMS[v >> 3].index, range(3)))
        bit = 1 << v
        for c in [(A * l + B) * l + C
                  for A, B, C in zip(cols[i], cols[j], cols[k])]:
            mask[c] = mask.get(c, 0) | bit
    return mask


@lru_cache(maxsize=None)
def masks_for(quad: tuple[int, int, int, int], l: int,
              n_mod: int) -> tuple[dict[int, int], int]:
    """(mask, ui) for one (quad, n mod l).

    mask is shared by every n with the same gcd(n, l), and read at this n
    through the unit ui: class (A, B, C) is looked up as
    (A*ui % l, B*ui % l, C*ui % l).
    mask: packed class -> nonzero bitmask of valid variants (bit v set iff
    variant v of a triple in that class yields an integral gamma).
    Keys, values and ui are Python ints.
    """
    if not 0 <= n_mod < l:
        raise ValueError(f"n_mod must be in range({l}), got {n_mod}")
    d = gcd(n_mod, l) % l
    u = next(u for u in range(1, l) if gcd(u, l) == 1 and u * d % l == n_mod)
    return _base_table(quad, l, d), pow(u, -1, l)
