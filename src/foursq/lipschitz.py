"""Exact arithmetic on integer (Lipschitz) quaternions.

Everything here is a pure function on immutable values. Components live in
signed 64-bit range; operations compute exactly in Python integers and
range-check their results, raising :class:`ArithmeticRangeError` instead of
wrapping around.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class ArithmeticRangeError(OverflowError):
    """A result left the signed 64-bit range. The message names the operation."""


class Quaternion(NamedTuple):
    """a1 + a2*i + a3*j + a4*k with integer components.

    i**2 = j**2 = k**2 = ijk = -1.  Components are expected to stay within
    signed 64-bit range; operations validate their results and raise
    ArithmeticRangeError on violation.
    """

    a1: int
    a2: int
    a3: int
    a4: int

    def __str__(self) -> str:
        parts = [str(self.a1)]
        for coeff, unit in ((self.a2, "i"), (self.a3, "j"), (self.a4, "k")):
            sign = "+" if coeff >= 0 else "-"
            parts.append(f"{sign}{abs(coeff)}{unit}")
        return "".join(parts)


ONE = Quaternion(1, 0, 0, 0)


def _checked(op: str, a1: int, a2: int, a3: int, a4: int) -> Quaternion:
    for v in (a1, a2, a3, a4):
        if not INT64_MIN <= v <= INT64_MAX:
            raise ArithmeticRangeError(
                f"{op}: component {v} exceeds signed 64-bit range"
            )
    return Quaternion(a1, a2, a3, a4)


def _hamilton(p: Sequence[int], q: Sequence[int]) -> tuple[int, int, int, int]:
    """The four components of the Hamilton product p*q, unchecked."""
    p1, p2, p3, p4 = p
    q1, q2, q3, q4 = q
    return (
        p1 * q1 - p2 * q2 - p3 * q3 - p4 * q4,
        p1 * q2 + p2 * q1 + p3 * q4 - p4 * q3,
        p1 * q3 - p2 * q4 + p3 * q1 + p4 * q2,
        p1 * q4 + p2 * q3 - p3 * q2 + p4 * q1,
    )


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p*q (non-commutative)."""
    return _checked("mul", *_hamilton(p, q))


def conj(q: Quaternion) -> Quaternion:
    """Quaternion conjugate: negates the i, j, k components."""
    return _checked("conj", q.a1, -q.a2, -q.a3, -q.a4)


def norm(q: Quaternion) -> int:
    """N(q) = a1**2 + a2**2 + a3**2 + a4**2 (multiplicative)."""
    n = q.a1 * q.a1 + q.a2 * q.a2 + q.a3 * q.a3 + q.a4 * q.a4
    if n > INT64_MAX:
        raise ArithmeticRangeError(f"norm: {n} exceeds signed 64-bit range")
    return n


def re(q: Quaternion) -> int:
    """Real part a1."""
    return q.a1


def try_div_right_exact(p: Quaternion, q: Quaternion) -> Optional[Quaternion]:
    """Exact right division: the r with r*q = p, or None.

    Computes p*conj(q) and divides by norm(q); returns None unless all four
    components are divisible.  q must be nonzero.
    """
    n = norm(q)
    if n == 0:
        raise ValueError("try_div_right_exact: division by zero quaternion")
    r1, r2, r3, r4 = _hamilton(p, (q.a1, -q.a2, -q.a3, -q.a4))
    if r1 % n or r2 % n or r3 % n or r4 % n:
        return None
    return _checked("try_div_right_exact", r1 // n, r2 // n, r3 // n, r4 // n)


def sandwich(u: Quaternion, g: Quaternion, v: Quaternion) -> Optional[Quaternion]:
    """u**-1 * g * v when integral, else None.

    Requires norm(u) == norm(v) != 0 so the result keeps norm(g).  The
    division by norm(u) is the integrality condition the transfer rules
    test (denominator 3 or 5 for the built-in conjugator pairs).
    """
    nu = norm(u)
    if nu == 0:
        raise ValueError("sandwich: zero conjugator")
    if nu != norm(v):
        raise ValueError(
            f"sandwich: conjugator norms differ ({nu} != {norm(v)})"
        )
    # conj(u)*g, then *v, in exact arithmetic; only the result is range-checked
    w1, w2, w3, w4 = _hamilton(_hamilton((u.a1, -u.a2, -u.a3, -u.a4), g), v)
    if w1 % nu or w2 % nu or w3 % nu or w4 % nu:
        return None
    return _checked("sandwich", w1 // nu, w2 // nu, w3 // nu, w4 // nu)
