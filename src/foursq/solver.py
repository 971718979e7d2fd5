"""Solving x**2+y**2+z**2+t**2 = m with ax+by+cz+dt constrained to a value set.

The core routine descends from a representation l*m - n**2 = A**2+B**2+C**2
to an integral quaternion gamma = (n+Ai+Bj+Ck)*conj(beta)/l, whose
components give a solution of the linear system at value n.  On top of that
sit the admissibility filters (which value sets / residue classes can work
at all).  Beside the search, as certificates rather than a search step,
sits a family of transformation rules that transport solutions between
related coefficient quadruples via quaternion identities beta*u == v*beta'.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import count, repeat, takewhile
from math import gcd, isqrt, prod
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import _residues, oracle
from .arith import iroot, is_square, is_three_square, four_square_reps
from .lipschitz import (INT64_MAX, ArithmeticRangeError, Quaternion, mul, norm,
                        sandwich)


class UnsupportedQuadrupleError(ValueError):
    """Raised for coefficient quadruples outside the supported family."""


class NoSolutionError(Exception):
    """Raised when a restricted system has no solution.

    Carries the search trace: every candidate value n that survived the
    filters and was tried without success.
    """

    def __init__(self, m: int, quad: "SystemQuadruple", target_set: "TargetSet",
                 tried: Sequence[int]):
        self.m = m
        self.quad = quad
        self.target_set = target_set
        self.tried = tuple(tried)
        super().__init__(
            f"no solution for m={m}, coefficients {tuple(quad)}, "
            f"values in {target_set.value}; tried n={list(self.tried)}"
        )


class ResourceLimitError(RuntimeError):
    """Raised when a brute-force request exceeds its configured bound."""


class SystemQuadruple(NamedTuple):
    """Coefficients (a, b, c, d) of the linear form ax + by + cz + dt."""

    a: int
    b: int
    c: int
    d: int

    @property
    def l(self) -> int:
        a, b, c, d = self
        return a * a + b * b + c * c + d * d

    def beta(self) -> Quaternion:
        return Quaternion(self.a, self.b, self.c, self.d)

    def linear_form(self, x: int, y: int, z: int, t: int) -> int:
        return self.a * x + self.b * y + self.c * z + self.d * t

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c},{self.d})"


class RestrictedSolution(NamedTuple):
    """A solution (x, y, z, t) together with the linear-form value n."""

    x: int
    y: int
    z: int
    t: int
    n: int


class TargetSet(Enum):
    """Value set the linear form is restricted to."""

    SQUARES = "squares"
    CUBES = "cubes"
    POW2 = "pow2"

    @classmethod
    def parse(cls, name: Union[str, "TargetSet"]) -> "TargetSet":
        if isinstance(name, cls):
            return name
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown value set {name!r} (expected squares, cubes or pow2)")

    def contains(self, n: int) -> bool:
        if self is TargetSet.POW2:
            return n >= 1 and n & (n - 1) == 0
        if n < 0:
            return False
        if self is TargetSet.SQUARES:
            return is_square(n)
        return iroot(n, 3) ** 3 == n

    def members(self) -> Iterator[int]:
        """Every member of the set, ascending, without end and without roots."""
        if self is TargetSet.POW2:
            return map((1).__lshift__, count())
        return map(pow, count(), repeat(2 if self is TargetSet.SQUARES else 3))


# The nine supported coefficient quadruples, in the order the solvability
# results list them.
NINE_QUADRUPLES = (
    SystemQuadruple(1, 1, 2, 2),
    SystemQuadruple(1, 2, 2, 2),
    SystemQuadruple(2, 2, 3, 0),
    SystemQuadruple(1, 3, 3, 0),
    SystemQuadruple(1, 2, 4, 0),
    SystemQuadruple(1, 1, 2, 4),
    SystemQuadruple(2, 3, 4, 0),
    SystemQuadruple(1, 1, 2, 5),
    SystemQuadruple(1, 2, 3, 5),
)

# The four quadruples of the squares result (1.3) and the five of the
# powers-of-two result (1.2), each in the order above.
FOUR_QUADRUPLES = tuple(SystemQuadruple(*q) for q in (
    (1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 3, 0), (2, 3, 4, 0)))
FIVE_QUADRUPLES = tuple(SystemQuadruple(*q) for q in (
    (1, 3, 3, 0), (1, 2, 4, 0), (1, 1, 2, 4), (1, 1, 2, 5), (1, 2, 3, 5)))

# The norm l of each supported quadruple, read once per solve.
_NORMS = {q: q.l for q in NINE_QUADRUPLES}

# Residue filters: for these quadruples l*m - n**2 must avoid certain
# classes mod 3 or mod 5, which prunes candidate values of n before any
# enumeration; (1, 2, 3, 5), the last of the five, has its own test.
_FILTER_MODULUS = {
    **dict.fromkeys(FOUR_QUADRUPLES, 3),
    **dict.fromkeys(FIVE_QUADRUPLES[:-1], 5),
}


def _as_quad(quad: Sequence[int]) -> SystemQuadruple:
    q = quad if isinstance(quad, SystemQuadruple) else SystemQuadruple(*quad)
    if q not in _NORMS and all(q != r.source for r in builtin_rules()):
        raise UnsupportedQuadrupleError(
            f"coefficient quadruple {tuple(q)} is not supported"
        )
    return q


def _require_primary(quad: Sequence[int]) -> SystemQuadruple:
    q = quad if isinstance(quad, SystemQuadruple) else SystemQuadruple(*quad)
    if q not in _NORMS:
        raise UnsupportedQuadrupleError(
            f"coefficient quadruple {tuple(q)} is not one of the nine "
            f"supported quadruples"
        )
    return q


def companion_source(quad: Sequence[int]) -> SystemQuadruple:
    """The source quadruple whose solutions transform into this one's."""
    q = _require_primary(quad)
    return next(r.source for r in builtin_rules() if r.target == q)


# --------------------------------------------------------------------------
# Transformation rules
# --------------------------------------------------------------------------

class RulePair(NamedTuple):
    """One branch of a transformation rule.

    The branch applies when congruence . (x,y,z,t) == 0 (mod rule.modulus),
    after permuting the first three solution coordinates by perm (which is a
    symmetry of the source coefficients, so the permuted tuple still solves
    the source system).  Then u**-1 * gamma * v is integral and encodes a
    solution of the system with coefficients new_coeffs.
    """

    u: Quaternion
    v: Quaternion
    new_coeffs: Quaternion
    congruence: tuple[int, int, int, int]
    perm: tuple[int, int, int] = (0, 1, 2)


@dataclass(frozen=True)
class TransformationRule:
    case: int
    source: SystemQuadruple
    target: SystemQuadruple
    modulus: int
    pairs: tuple[RulePair, ...]


_Q = Quaternion


def _make_rule(case: int, source: Sequence[int], target: Sequence[int],
               modulus: int, pairs: Sequence[RulePair]) -> TransformationRule:
    src = SystemQuadruple(*source)
    tgt = SystemQuadruple(*target)
    beta = src.beta()
    tgt_class = sorted(abs(c) for c in tgt)
    for pair in pairs:
        if norm(pair.u) != modulus or norm(pair.v) != modulus:
            raise AssertionError(f"conjugator norm != {modulus} in rule {src}->{tgt}")
        if mul(beta, pair.u) != mul(pair.v, pair.new_coeffs):
            raise AssertionError(f"identity fails for {src}->{tgt}, pair {pair}")
        if sorted(abs(c) for c in pair.new_coeffs) != tgt_class:
            raise AssertionError(f"wrong target class for {src}->{tgt}, pair {pair}")
        p = pair.perm
        if (src[p[0]], src[p[1]], src[p[2]]) != (src.a, src.b, src.c):
            raise AssertionError(f"perm {p} is not a symmetry of {src}")
    return TransformationRule(case, src, tgt, modulus, tuple(pairs))


_CASE1_PAIRS = (
    RulePair(_Q(1, 2, 0, 0), _Q(1, 0, -2, 0), _Q(-2, -1, -1, -4), (1, -2, -2, 1)),
    RulePair(_Q(1, -2, 0, 0), _Q(1, 0, 0, 2), _Q(4, 1, 1, -2), (1, 2, -1, 2)),
    RulePair(_Q(1, 0, 2, 0), _Q(1, -2, 0, 0), _Q(-2, -1, -1, 4), (1, -2, -2, -1)),
    RulePair(_Q(1, 0, -2, 0), _Q(1, 0, 0, -2), _Q(4, 1, 1, 2), (1, -1, 2, -2)),
    RulePair(_Q(1, 0, 0, 2), _Q(1, 2, 0, 0), _Q(4, 1, 1, 2), (1, 2, -1, -2)),
    RulePair(_Q(1, 0, 0, -2), _Q(1, 0, 2, 0), _Q(4, 1, 1, -2), (1, -1, 2, 2)),
)

_CASE23_US = (_Q(1, 1, 1, 0), _Q(1, 1, -1, 0), _Q(1, -1, 1, 0), _Q(1, -1, -1, 0))
_CASE2_CONGRUENCES = ((0, 1, -1, 1), (0, 1, 1, -1), (0, 1, 1, 1), (0, 1, -1, -1))
_CASE3_VS = (_Q(1, -1, -1, 0), _Q(1, -1, 1, 0), _Q(1, 1, 1, 0), _Q(1, 1, -1, 0))
_CASE3_CONGRUENCES = ((1, -1, -1, 0), (1, -1, 1, 0), (1, -1, 0, 1), (1, -1, 0, -1))


def _case23_pairs(vs: Sequence[Quaternion],
                  congruences: Sequence[tuple[int, int, int, int]],
                  coeffs: Sequence[Quaternion]) -> tuple[RulePair, ...]:
    return tuple(map(RulePair, _CASE23_US, vs, coeffs, congruences))


# Case 4: sources (a, a, a, b) with norm divisible by 5.  Each branch's new
# coefficients are a fixed arrangement of p=(a+4b)/5, q=(7a-2b)/5,
# r=(3a+2b)/5, s=(4a+b)/5.
_CASE4_SLOTS = (
    (_Q(1, 2, 0, 0), _Q(1, 0, 2, 0), (0, 1, 2), (1, -2, 2, -1)),
    (_Q(1, -2, 0, 0), _Q(1, 0, -2, 0), (0, 2, 1), (1, 2, -2, -1)),
    (_Q(1, 0, 2, 0), _Q(1, 0, 0, 2), (2, 1, 0), (1, -1, -2, 2)),
    (_Q(1, 0, -2, 0), _Q(1, 0, 0, -2), (1, 2, 0), (1, -1, 2, -2)),
    (_Q(1, 0, 0, 2), _Q(1, 2, 0, 0), (1, 0, 2), (1, 2, -1, -2)),
    (_Q(1, 0, 0, -2), _Q(1, -2, 0, 0), (2, 0, 1), (1, -2, -1, 2)),
)

_CASE4_TARGETS = {
    (1, -4): (1, 3, 3, 0),
    (1, 6): (1, 2, 3, 5),
    (2, -3): (1, 2, 4, 0),
    (3, -2): (1, 1, 2, 5),
}


def _case4_pairs(a: int, b: int) -> tuple[RulePair, ...]:
    nums = (a + 4 * b, 7 * a - 2 * b, 3 * a + 2 * b, 4 * a + b)
    if any(num % 5 for num in nums):
        raise AssertionError(f"source ({a},{a},{a},{b}) is not reducible mod 5")
    comps = [num // 5 for num in nums]
    return tuple(RulePair(u, v, _Q(comps[i], comps[j], comps[k], comps[3]), cong)
                 for u, v, (i, j, k), cong in _CASE4_SLOTS)


# Case 5: a single identity; the six branches differ only in which symmetry
# of the source coefficients (1,1,1,6) is applied to the solution first.
_CASE5_PAIRS = tuple(
    RulePair(_Q(1, 1, 1, 0), _Q(1, 1, 1, 0), _Q(1, -3, 5, -2), cong, perm)
    for perm, cong in (
        ((0, 1, 2), (0, 1, -1, 1)),
        ((1, 2, 0), (-1, 0, 1, 1)),
        ((2, 0, 1), (1, -1, 0, 1)),
        ((0, 2, 1), (0, -1, 1, 1)),
        ((2, 1, 0), (-1, 1, 0, 1)),
        ((1, 0, 2), (1, 0, -1, 1)),
    )
)


@lru_cache(maxsize=1)
def builtin_rules() -> tuple[TransformationRule, ...]:
    """The built-in transformation rules, identity-checked at construction."""
    rules = [
        _make_rule(1, (2, 3, 3, 0), (1, 1, 2, 4), 5, _CASE1_PAIRS),
        _make_rule(2, (1, 3, 0, 0), (1, 1, 2, 2), 3, _case23_pairs(
            _CASE23_US, _CASE2_CONGRUENCES,
            (_Q(1, 1, 2, 2), _Q(1, 1, -2, -2), _Q(1, 1, -2, 2), _Q(1, 1, 2, -2)))),
        _make_rule(2, (2, 3, 0, 0), (1, 2, 2, 2), 3, _case23_pairs(
            _CASE23_US, _CASE2_CONGRUENCES,
            (_Q(2, 1, 2, 2), _Q(2, 1, -2, -2), _Q(2, 1, -2, 2), _Q(2, 1, 2, -2)))),
        _make_rule(3, (1, 4, 0, 0), (2, 2, 3, 0), 3, _case23_pairs(
            _CASE3_VS, _CASE3_CONGRUENCES,
            (_Q(-3, 2, -2, 0), _Q(-3, 2, 2, 0), _Q(3, -2, 0, 2), _Q(3, -2, 0, -2)))),
        _make_rule(3, (2, 5, 0, 0), (2, 3, 4, 0), 3, _case23_pairs(
            _CASE3_VS, _CASE3_CONGRUENCES,
            (_Q(-4, 3, -2, 0), _Q(-4, 3, 2, 0), _Q(4, -3, 0, 2), _Q(4, -3, 0, -2)))),
    ]
    for (a, b), target in _CASE4_TARGETS.items():
        rules.append(_make_rule(4, (a, a, a, b), target, 5, _case4_pairs(a, b)))
    rules.append(_make_rule(5, (1, 1, 1, 6), (1, 2, 3, 5), 3, _CASE5_PAIRS))
    for rule in rules:
        if len(four_square_reps(rule.source.l)) != 2:
            raise AssertionError(
                f"norm {rule.source.l} does not have exactly two representations"
            )
    return tuple(rules)


def identity_suite() -> list[tuple[str, bool]]:
    """Re-verify every distinct quaternion identity behind the rules.

    Returns (label, ok) entries: one per displayed identity -- six for case
    1, four for each of the case 2 and case 3 rules, six generic ones for
    case 4 (each checked at all four source instantiations), and one for
    case 5.  29 in total.
    """
    out: list[tuple[str, bool]] = []
    rules = builtin_rules()
    for rule in rules:
        if rule.case == 4:
            continue
        beta = rule.source.beta()
        seen = set()
        for i, pair in enumerate(rule.pairs, 1):
            key = (pair.u, pair.v, pair.new_coeffs)
            if key in seen:
                continue
            seen.add(key)
            ok = mul(beta, pair.u) == mul(pair.v, pair.new_coeffs)
            out.append((f"case {rule.case}: {rule.source} pair {i}", ok))
    case4 = [r for r in rules if r.case == 4]
    for slot in range(6):
        ok = all(
            mul(r.source.beta(), r.pairs[slot].u)
            == mul(r.pairs[slot].v, r.pairs[slot].new_coeffs)
            for r in case4
        )
        out.append((f"case 4: generic pair {slot + 1} at all four sources", ok))
    return out


def apply_rule(rule: TransformationRule,
               sol: RestrictedSolution) -> Optional[RestrictedSolution]:
    """Transform a solution of rule.source into one of rule.target.

    Tries the rule's branches in order; the first branch whose congruence is
    satisfied produces the result.  Returns None when no branch applies.
    Raises ValueError if sol does not actually solve the source system.
    """
    x, y, z, t = sol.x, sol.y, sol.z, sol.t
    if rule.source.linear_form(x, y, z, t) != sol.n:
        raise ValueError("solution does not satisfy the rule's source system")
    for pair in rule.pairs:
        cx, cy, cz, ct = pair.congruence
        if (cx * x + cy * y + cz * z + ct * t) % rule.modulus:
            continue
        p = pair.perm
        xs = (x, y, z)
        g = Quaternion(xs[p[0]], -xs[p[1]], -xs[p[2]], -t)
        r = sandwich(pair.u, g, pair.v)
        if r is None:  # pragma: no cover - congruence guarantees integrality
            raise AssertionError("congruence held but sandwich was not integral")
        raw = (r.a1, -r.a2, -r.a3, -r.a4)
        return RestrictedSolution(
            *_normalize_to(raw, pair.new_coeffs, rule.target), sol.n
        )
    return None


def _normalize_to(raw: tuple[int, int, int, int], coeffs: Quaternion,
                  target: SystemQuadruple) -> tuple[int, int, int, int]:
    """Rearrange a solution of `coeffs` into one of the canonical target.

    Negating a coordinate absorbs a negative coefficient; coordinates are
    then matched to target positions by coefficient magnitude.  Stable
    sorts of the coordinates by |coefficient| and of the target positions
    by coefficient pair the k-th coordinate of each magnitude with its k-th
    target position: the first-unused match taken position by position,
    which keeps the result deterministic.  Every position is matched,
    because `_make_rule` has checked that both magnitude multisets are equal.
    """
    out = [0] * 4
    for i, pos in zip(sorted(range(4), key=lambda j: abs(coeffs[j])),
                      sorted(range(4), key=target.__getitem__)):
        out[pos] = raw[i] if coeffs[i] >= 0 else -raw[i]
    return tuple(out)


# --------------------------------------------------------------------------
# Direct descent
# --------------------------------------------------------------------------

# The product of the primes p = 3 (mod 4) below 1024.  The test below only
# sees remainders of at least _TABLE_MAX_REM, which the two-square table
# does not cover; it takes about 0.5 us per A on verify runs near 1e12, and
# primes up to 4096 cost 1.0 to 2.4 us per gcd and skip 15% more B-scans.
_TWO_SQUARE_PRODUCT = prod(p for p in range(3, 1024, 4)
                           if all(p % d for d in range(3, isqrt(p) + 1, 2)))


def _two_square_possible(rem: int) -> bool:
    """False only when rem is certainly not B**2 + C**2.

    By Fermat, rem > 0 is a sum of two squares iff no prime p = 3 (mod 4)
    divides it to an odd power.  The odd part is tested mod 4, then against
    the primes of _TWO_SQUARE_PRODUCT: g holds the shared primes not yet
    resolved, each still dividing odd.  Dividing by g once and then by the
    primes still shared removes two from each exponent; a prime of g that
    divided rem only once has an odd exponent.  The descent asks only for
    rem >= _TABLE_MAX_REM; smaller remainders read the two-square table.
    """
    if rem == 0:
        return True
    odd = rem >> ((rem & -rem).bit_length() - 1)
    if odd & 3 == 3:
        return False
    g = gcd(odd, _TWO_SQUARE_PRODUCT)
    while g > 1:
        odd //= g
        h = gcd(odd, g)
        if h != g:
            return False
        odd //= h
        g = gcd(odd, h)
    return True


# A remainder below this bound takes its splits from the two-square table;
# at or above it, the gate and then a B-scan.  Near m = 1e5 nearly every
# remainder is below it.
_TABLE_MAX_REM = 1 << 17
# A B-scan of a remainder past the table with at least this many probes
# runs in numpy; shorter scans stay scalar, where numpy's fixed cost per
# call dominates.  Timing both scans on every scan of verify blocks near
# 1e5, 1e9, 1e12 and the 1.4a/1.4b thresholds: at 16-31 probes scalar
# 3.0 us against 3.7 us for the short float64 pass, at 32-47 probes 5.0
# against 3.8 us, at 48-63 probes 6.9 against 4.1 us.
_VECTOR_MIN_PROBES = 32
# Below this remainder B*B, c2 and C*C fit in int64, and float64 square
# roots of c2 are close enough to round to the exact root.
_VECTOR_MAX_REM = 1 << 62
# A vector scan of fewer B than this, with rem below _SHORT_MAX_REM,
# probes every B in float64.  Per call at 1e15-1e18 that beats the int64
# pass at 8k-12k B (29 against 35 us) and loses at 16k-24k (54 against 51).
_SHORT_MAX_WIDTH = 1 << 14
_SHORT_MAX_REM = 1 << 52


def _two_square_table(bound: int) -> tuple[array, array, array]:
    """Every pair B >= C >= 0 with B*B + C*C < bound, as (start, Bs, Cs).

    The pairs of r = B*B + C*C are Bs[i], Cs[i] for i in
    range(start[r], start[r + 1]), B descending.  Unsigned 16-bit entries:
    below 2**17 there are 51,778 pairs, so about 0.47 MB in all.  The
    arrays are filled through numpy views, which keeps the build's own
    temporaries small.
    """
    top = isqrt(bound - 1)
    rows = [np.arange(min(b, isqrt(bound - 1 - b * b)) + 1, dtype=np.int32)
            for b in range(top, -1, -1)]  # the Cs of each B, B descending
    B = np.repeat(np.arange(top, -1, -1, dtype=np.int32), [len(c) for c in rows])
    C = np.concatenate(rows)
    r = B * B + C * C
    order = np.argsort(r, kind="stable")
    start, Bs, Cs = (array("H", bytes(2 * k)) for k in (bound + 1, len(r), len(r)))
    np.frombuffer(start, np.uint16)[1:] = np.cumsum(np.bincount(r, minlength=bound))
    np.frombuffer(Bs, np.uint16)[:] = B[order]
    np.frombuffer(Cs, np.uint16)[:] = C[order]
    return start, Bs, Cs


# Built at import, so that pool workers forked from the parent inherit it.
_TABLE_START, _TABLE_B, _TABLE_C = _two_square_table(_TABLE_MAX_REM)


def _scan_b_scalar(rem: int, bhi: int, blo: int, l: int,
                   bres: tuple[int, ...]) -> list[tuple[int, int]]:
    """Splits (B, C) of rem = B*B + C*C with B in [blo, bhi], B % l in bres."""
    splits = []
    for br in bres:
        B = bhi - ((bhi - br) % l)
        while B >= blo:
            c2 = rem - B * B
            C = isqrt(c2)
            if C * C == c2:
                splits.append((B, C))
            B -= l
    return splits


def _scan_b_vector(rem: int, bhi: int, blo: int, l: int,
                   bres: tuple[int, ...]) -> list[tuple[int, int]]:
    """The same splits as `_scan_b_scalar`, from one numpy pass.

    Needs rem < _VECTOR_MAX_REM.  A short window (bhi - blo below
    _SHORT_MAX_WIDTH, rem below _SHORT_MAX_REM = 2**52) probes every B in
    float64.  There B*B, c2 = rem - B*B and the root of a square c2 are
    exact, and a non-square c2 = C*C + k with 1 <= k <= 2C has its root
    more than half an ulp from every integer, as C < 2**26; so the integral
    roots are the squares.  Each hit is kept if B % l is in bres, and checked
    again in Python ints, so no float reasoning can admit a false split.
    Other windows take one int64 pass over the B of each residue in bres:
    for a square c2 = C*C < 2**62 the float64 square root is within 2**-22
    of C, so rounding it gives C exactly; the int64 test C*C == c2 then
    keeps exactly the squares.
    """
    if bhi - blo < _SHORT_MAX_WIDTH and rem < _SHORT_MAX_REM:
        c2 = np.arange(bhi, blo - 1, -1, dtype=np.float64)
        c2 *= c2
        np.subtract(rem, c2, out=c2)
        np.sqrt(c2, out=c2)
        splits = []
        for i in (c2 == np.floor(c2)).nonzero()[0].tolist():
            B = bhi - i
            C = isqrt(rem - B * B)
            if B % l in bres and C * C == rem - B * B:
                splits.append((B, C))
        return splits
    res = _residues.residue_array(bres)
    starts = bhi - (bhi - res) % l
    B = (starts[:, None] - np.arange(0, (bhi - blo) // l * l + 1, l)).ravel()
    B = B[B >= blo]
    c2 = rem - B * B
    C = np.rint(np.sqrt(c2)).astype(np.int64)
    sq = C * C == c2
    return list(zip(B[sq].tolist(), C[sq].tolist()))


def _descent_solutions(m: int, n: int, quad: SystemQuadruple,
                       l: int) -> Iterator[RestrictedSolution]:
    """Yield solutions at value n in the deterministic enumeration order.

    Canonical triples A >= B >= C >= 0 with A**2+B**2+C**2 = l*m - n**2 are
    visited in decreasing lexicographic order; within one triple the 48
    signed permutations are visited in variant order (permutations of
    (A,B,C) lexicographically, then signs with + before -).  Each A's
    remainder is split as B*B + C*C, B descending: below _TABLE_MAX_REM
    the splits are a row of the two-square table, which lists B >= C, so
    only its leading B > A are skipped; past it, an A whose remainder is
    not a sum of two squares has no split, so `_two_square_possible` skips
    its scan, and long B-scans run in numpy.  The class of (A, B, C) mod l,
    scaled by the unit ui of `masks_for`, then gives each split's valid
    variants.  l is quad.l, and callers pass only n with l*m - n**2 a sum
    of three squares (at any other n the walk finds no triple, only later).
    """
    a, b, c, d = quad
    big_r = l * m - n * n
    mask, ui, planes = _residues.masks_for(quad, l, n % l)
    mask_get = mask.get
    A = isqrt(big_r)
    while A >= 0 and 3 * A * A >= big_r:
        rem = big_r - A * A
        if rem < _TABLE_MAX_REM:
            i, end = _TABLE_START[rem], _TABLE_START[rem + 1]
            while i < end and _TABLE_B[i] > A:
                i += 1
            splits = zip(_TABLE_B[i:end], _TABLE_C[i:end]) if i < end else ()
        elif _two_square_possible(rem):
            bres = planes[A % l]
            bhi = min(A, isqrt(rem))
            blo = 0 if rem == 0 else isqrt((rem - 1) // 2) + 1
            vector = ((bhi - blo) // l * len(bres) >= _VECTOR_MIN_PROBES
                      and rem < _VECTOR_MAX_REM)
            splits = (_scan_b_vector if vector else _scan_b_scalar)(
                rem, bhi, blo, l, bres)
            splits.sort(reverse=True)  # B descending, as the table's rows
        else:
            splits = ()
        for B, C in splits:
            mk = mask_get(A * ui % l * l * l + B * ui % l * l + C * ui % l)
            while mk:  # each set bit v, lowest first
                low = mk & -mk
                mk ^= low
                A2, B2, C2 = _residues.signed_permutation(
                    (A, B, C), low.bit_length() - 1)
                g1 = (a * n + b * A2 + c * B2 + d * C2) // l
                g2 = (-b * n + a * A2 - d * B2 + c * C2) // l
                g3 = (-c * n + d * A2 + a * B2 - b * C2) // l
                g4 = (-d * n - c * A2 + b * B2 + a * C2) // l
                yield RestrictedSolution(g1, -g2, -g3, -g4, n)
        A -= 1


def _naturalize(sol: RestrictedSolution,
                quad: SystemQuadruple) -> Optional[RestrictedSolution]:
    """Flip free coordinates (zero coefficient, only ever c or d: no
    accepted quadruple has a = 0 or b = 0) and demand nonnegativity."""
    x, y, z, t, n = sol
    c, d = quad[2:]
    if not c:
        z = abs(z)
    if not d:
        t = abs(t)
    if x < 0 or y < 0 or z < 0 or t < 0:
        return None
    return RestrictedSolution(x, y, z, t, n)


# The coordinate positions of each supported quadruple by descending
# coefficient, ties in index order.  Only the last can have coefficient 0.
_BOX_ORDER = {q: tuple(sorted(range(4), key=lambda i: -q[i]))
              for q in NINE_QUADRUPLES}


def _natural_box(m: int, n: int,
                 quad: SystemQuadruple) -> Optional[RestrictedSolution]:
    """The natural solution at n that the descent meets first, or None.

    Found by walking the natural box instead of the descent: the two
    coordinates with the largest coefficients ci >= cj run over
    [0, n // ci] and [0, n // cj], and the other two are solved exactly
    from one square root of the discriminant (ck**2 + ch**2) * m' - n'**2;
    when ch = 0 its coordinate is free, and both signs are kept.  The
    descent meets a solution at the canonical triple of imag(gamma*beta),
    gamma = x - yi - zj - tk, and the least variant that gives it; the
    greatest triple, then the least variant, comes first.
    """
    i, j, k, h = _BOX_ORDER[quad]
    ci, cj, ck, ch = quad[i], quad[j], quad[k], quad[h]
    s2 = ck * ck + ch * ch
    found = []
    for xi in range(min(isqrt(m), n // ci) + 1):
        mi = m - xi * xi
        ni = n - ci * xi
        for xj in range(min(isqrt(mi), ni // cj) + 1):
            m2 = mi - xj * xj
            n2 = ni - cj * xj
            disc = s2 * m2 - n2 * n2
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            for p, q in ((ck * n2 + ch * s, ch * n2 - ck * s),
                         (ck * n2 - ch * s, ch * n2 + ck * s)):
                if p >= 0 and (q >= 0 or not ch) and not (p % s2 or q % s2):
                    coords = [0, 0, 0, 0]
                    coords[i], coords[j] = xi, xj
                    coords[k], coords[h] = p // s2, q // s2
                    found.append(coords)
    if not found:
        return None

    def position(coords: list[int]) -> tuple[tuple[int, ...], int]:
        x, y, z, t = coords
        signed = mul(Quaternion(x, -y, -z, -t), quad.beta())[1:]
        canon = tuple(sorted(map(abs, signed), reverse=True))
        return canon, -next(v for v in range(48) if
                            _residues.signed_permutation(canon, v) == signed)

    return _naturalize(RestrictedSolution(*max(found, key=position), n), quad)


def _check_m(m: int, name: str = "m") -> None:
    """The range contract of every solver entry point: 0 <= m <= INT64_MAX.
    Per-solve entry points test it inline and call this only to raise."""
    if m < 0:
        raise ValueError(f"{name} must be nonnegative")
    if m > INT64_MAX:
        raise ArithmeticRangeError(f"{name}={m} exceeds signed 64-bit range")


def _solve_at(m: int, n: int, q: SystemQuadruple, l: int,
              natural: bool) -> Optional[RestrictedSolution]:
    """The pick of both public solves at an n with l*m - n**2 a sum of
    three squares, or None.  One chain picks the solution: a plain solve
    takes the descent's first; a natural solve returns None below the
    min-coefficient bound, else walks the natural box when that is small,
    else takes the descent's first solution that naturalizes.  The norm and
    the linear form of the pick are then checked once."""
    if not natural:
        sol = next(_descent_solutions(m, n, q, l), None)
    elif min(q) > 0 and n * n < min(q) ** 2 * m:
        # With every coefficient positive a natural solution has
        # n >= min(q) * (x+y+z+t) >= min(q) * sqrt(m), so none exists below.
        return None
    elif (order := _BOX_ORDER.get(q)) and (
            (n // q[order[0]] + 1) * (n // q[order[1]] + 1)
            <= isqrt(l * m - n * n)):
        # The natural box has no more cells than the descent has A values
        # to visit, about sqrt(l*m - n**2).
        sol = _natural_box(m, n, q)
    else:
        sol = None
        for raw in _descent_solutions(m, n, q, l):
            sol = _naturalize(raw, q)
            if sol is not None:
                break
    if sol is not None:
        x, y, z, t, _ = sol
        if x * x + y * y + z * z + t * t != m:
            raise AssertionError(f"certificate norm mismatch: {sol} vs m={m}")
        if q.linear_form(x, y, z, t) != n:
            raise AssertionError(f"certificate linear form mismatch: {sol}")
    return sol


def solve_linear_system(m: int, n: int, quad: Sequence[int],
                        natural: bool = False) -> Optional[RestrictedSolution]:
    """First solution of x**2+..+t**2 = m, ax+..+dt = n in enumeration order.

    Returns None when no solution exists at this value n.  With
    natural=True, only solutions with all coordinates nonnegative are
    accepted (coordinates at zero coefficients may be freely flipped).
    The arguments are checked once, and an n with l*m - n**2 a sum of three
    squares goes to `_solve_at`, the pick `solve_restricted` shares.
    """
    q = _as_quad(quad)
    if not 0 <= m <= INT64_MAX:
        _check_m(m)
    if n < 0:
        raise ValueError("n must be nonnegative")
    l = _NORMS.get(q) or q.l
    if n * n > l * m:
        raise ValueError(f"n**2 = {n * n} exceeds l*m = {l * m}")
    if not is_three_square(l * m - n * n):
        return None
    return _solve_at(m, n, q, l, natural)


# --------------------------------------------------------------------------
# Admissible values and candidate sets
# --------------------------------------------------------------------------

def _passes_residue_filter(quad: SystemQuadruple, n: int, r: int) -> bool:
    """The mod-3 / mod-5 obstruction test on r = l*m - n**2."""
    modulus = _FILTER_MODULUS.get(quad)
    if modulus == 3:
        return r % 3 != 1
    if modulus == 5:
        return r % 5 in (0, 1, 4)
    return r % 5 in (0, 1, 4) or n % 3 != 0  # (1, 2, 3, 5)


def admissible_n(m: int, quad: Sequence[int],
                 target_set: Union[str, TargetSet]) -> list[int]:
    """Values n in the target set that pass all solvability filters.

    Keeps n with n**2 <= l*m, l*m - n**2 a sum of three squares, and, for
    quadruples with a residue obstruction, l*m - n**2 in the allowed classes
    (mod 3 or mod 5).  Ascending: the head of the candidate stream that
    `solve_restricted` walks.
    """
    q = _require_primary(quad)
    ts = TargetSet.parse(target_set)
    _check_m(m)
    lm = _NORMS[q] * m
    return [n for n in _candidate_values(m, q, ts, False)
            if _passes_residue_filter(q, n, lm - n * n)]


def candidate_set(M: int, kind: Union[str, TargetSet]) -> list[int]:
    """Indices k of the members v with v*v <= M and M - v*v three-square.

    cubes: n with n**6 <= M and M - n**6 a sum of three squares;
    squares: n with n**4 <= M and M - n**4 a sum of three squares;
    pow2: exponents k with 4**k <= M and M - 4**k a sum of three squares.
    """
    ts = TargetSet.parse(kind)
    if M < 0:
        return []
    _check_m(M, "M")
    return [k for k, v in enumerate(takewhile(isqrt(M).__ge__, ts.members()))
            if is_three_square(M - v * v)]


# --------------------------------------------------------------------------
# Restricted solving
# --------------------------------------------------------------------------

def _candidate_values(m: int, quad: SystemQuadruple, ts: TargetSet,
                      natural: bool) -> Iterator[int]:
    """Set members n with n**2 <= l*m and l*m - n**2 a sum of three squares.

    Values passing the residue filter come first, then those failing it;
    each group ascending, or descending when natural.  Lazy: the filtered
    head is yielded before the rest of the set is examined.  Both orders
    walk `TargetSet.members`; the natural one is bounded by one isqrt(l*m).
    """
    lm = _NORMS[quad] * m
    deferred = []
    for n in (list(takewhile(isqrt(lm).__ge__, ts.members()))[::-1]
              if natural else ts.members()):
        r = lm - n * n
        if r < 0:
            break
        if is_three_square(r):
            if _passes_residue_filter(quad, n, r):
                yield n
            else:
                deferred.append(n)
    yield from deferred


def solve_restricted(m: int, quad: Sequence[int],
                     target_set: Union[str, TargetSet],
                     natural: bool = False,
                     n: Optional[int] = None) -> RestrictedSolution:
    """Solve the system with the linear form restricted to the target set.

    The arguments are checked once; each candidate value n then goes to
    `_solve_at`, the pick `solve_linear_system` shares.  Values are tried
    in ascending order: first the admissible values (those passing the
    residue filter), then any remaining set members n with n**2 <= l*m and
    l*m - n**2 a sum of three squares.  Passing n pins the value instead.
    Raises NoSolutionError with the full trace when every candidate fails,
    and ArithmeticRangeError when m exceeds the signed 64-bit range.

    The descent is complete at each n, so the transformation rules are not
    a search step: they are certificates, re-checked by `identity_suite`
    and `apply_rule`.

    With natural=True the n values are walked in descending order instead:
    natural solutions need the linear form close to its maximum, where the
    per-n enumeration is small, whereas proving that a small n admits no
    natural solution means exhausting an enormous enumeration, unless
    `_natural_box` can walk it.
    """
    q = _require_primary(quad)
    ts = TargetSet.parse(target_set)
    if not 0 <= m <= INT64_MAX:
        _check_m(m)
    l = _NORMS[q]
    if n is None:
        values = _candidate_values(m, q, ts, natural)
    elif not ts.contains(n):
        raise ValueError(f"n={n} is not in {ts.value}")
    elif n * n > l * m:
        raise ValueError(f"n**2 = {n * n} exceeds l*m = {l * m}")
    elif is_three_square(l * m - n * n):
        values = (n,)
    else:
        raise NoSolutionError(m, q, ts, (n,))
    tried = []
    for nv in values:
        sol = _solve_at(m, nv, q, l, natural)
        if sol is not None:
            return sol
        tried.append(nv)
    raise NoSolutionError(m, q, ts, tried)


def check_solution(m: int, quad: Sequence[int],
                   target_set: Union[str, TargetSet],
                   sol: RestrictedSolution) -> bool:
    """True iff sol solves the system and its value lies in the target set."""
    q = _require_primary(quad)
    ts = TargetSet.parse(target_set)
    if not 0 <= m <= INT64_MAX:
        _check_m(m)
    return _solves(m, q, ts, sol)


def _solves(m: int, q: SystemQuadruple, ts: TargetSet,
            sol: RestrictedSolution) -> bool:
    """`check_solution` without its argument checks, for callers that
    have made them."""
    x, y, z, t, n = sol
    a, b, c, d = q
    return (
        x * x + y * y + z * z + t * t == m
        and a * x + b * y + c * z + d * t == n
        and ts.contains(n)
    )


# --------------------------------------------------------------------------
# Brute-force oracle
# --------------------------------------------------------------------------

ORACLE_DEFAULT_BOUND = 10 ** 6


def brute_force_oracle(m: int, quad: Sequence[int],
                       target_set: Union[str, TargetSet]
                       ) -> Optional[RestrictedSolution]:
    """Reference solver: exhaustive scan over all norm-m tuples.

    The scan lives in `foursq.oracle`, which shares no code with the
    descent; this entry point adds the validation and the bound.

    Returns the solution with the smallest achieved value, breaking ties by
    the lexicographically least tuple; None when no tuple lands in the set.
    Raises ResourceLimitError when m exceeds ORACLE_DEFAULT_BOUND.
    """
    q = _require_primary(quad)
    ts = TargetSet.parse(target_set)
    _check_m(m)
    if m > ORACLE_DEFAULT_BOUND:
        raise ResourceLimitError(f"oracle limited to m <= "
                                 f"{ORACLE_DEFAULT_BOUND}, got {m}")
    sol = oracle.least_solution(m, q, ts.value)
    return None if sol is None else RestrictedSolution(*sol)
