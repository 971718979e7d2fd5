"""Scalar number-theory utilities.

ord2, the Legendre three-square test (not of the form 4^r(8s+7)), integer
roots, and deterministic enumeration of three- and four-square
representations in canonical form.
"""

from __future__ import annotations

from math import isqrt


def ord2(n: int) -> int:
    """Exponent of the largest power of 2 dividing n.  Undefined for n=0."""
    if n <= 0:
        raise ValueError(f"ord2 undefined for {n}")
    return (n & -n).bit_length() - 1


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n.  Exact for arbitrarily large n."""
    if n < 0:
        raise ValueError("iroot of negative number")
    if k < 1:
        raise ValueError("iroot exponent must be >= 1")
    # Floor roots nest (floor(floor(n^(1/2))^(1/j)) = floor(n^(1/2j))), so
    # even exponents go through math.isqrt, which is much faster than Newton.
    while k % 2 == 0:
        n, k = isqrt(n), k // 2
    if n in (0, 1) or k == 1:
        return n
    # Seed above the root from the bit length (no float overflow), then run
    # Newton's method, which decreases monotonically onto the floor root.
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_three_square(n: int) -> bool:
    """True iff n = A**2 + B**2 + C**2 for integers A,B,C.

    Legendre: n is a sum of three squares iff it is not of the form
    4^r(8s+7).
    """
    if n < 0:
        return False
    while n and n % 4 == 0:
        n //= 4
    return n % 8 != 7


def _three_square_walk(n: int, top: int) -> list[tuple[int, int, int]]:
    """Canonical triples A >= B >= C >= 0 with A²+B²+C² = n and A <= top.

    Lexicographically decreasing order of (A, B, C).
    """
    out = []
    a = min(top, isqrt(n))
    while a >= 0 and 3 * a * a >= n:
        rem = n - a * a
        b = min(a, isqrt(rem))
        while b >= 0 and 2 * b * b >= rem:
            c2 = rem - b * b
            c = isqrt(c2)
            if c * c == c2:
                out.append((a, b, c))
            b -= 1
        a -= 1
    return out


def three_square_reps(n: int) -> list[tuple[int, int, int]]:
    """All canonical triples A >= B >= C >= 0 with A²+B²+C² = n.

    Lexicographically decreasing order of (A, B, C); empty iff
    is_three_square(n) is false.
    """
    return [] if n < 0 else _three_square_walk(n, n)


def four_square_reps(m: int) -> list[tuple[int, int, int, int]]:
    """All canonical quadruples x >= y >= z >= t >= 0 with x²+y²+z²+t² = m.

    Lexicographically decreasing order.
    """
    if m < 0:
        return []
    out = []
    x = isqrt(m)
    while x >= 0 and 4 * x * x >= m:
        out.extend((x, *r) for r in _three_square_walk(m - x * x, x))
        x -= 1
    return out
