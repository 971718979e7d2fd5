"""Scalar number theory: frozen examples plus exhaustive small-range oracles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foursq.arith import (
    four_square_reps,
    iroot,
    is_square,
    is_three_square,
    ord2,
    three_square_reps,
)

# The nine norms with exactly two canonical four-square representations,
# with both representations spelled out.
TWO_REP_TABLE = {
    10: {(3, 1, 0, 0), (2, 2, 1, 1)},
    13: {(3, 2, 0, 0), (2, 2, 2, 1)},
    17: {(4, 1, 0, 0), (3, 2, 2, 0)},
    19: {(4, 1, 1, 1), (3, 3, 1, 0)},
    21: {(4, 2, 1, 0), (3, 2, 2, 2)},
    22: {(3, 3, 2, 0), (4, 2, 1, 1)},
    29: {(5, 2, 0, 0), (4, 3, 2, 0)},
    31: {(5, 2, 1, 1), (3, 3, 3, 2)},
    39: {(6, 1, 1, 1), (5, 3, 2, 1)},
}


class TestOrd2:
    def test_examples(self):
        assert ord2(16) == 4
        assert ord2(22) == 1
        assert ord2(7) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ord2(0)

    @given(st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=10**6))
    def test_exact_exponent(self, k, j):
        odd = 2 * j + 1
        assert ord2(odd << k) == k


class TestIroot:
    @given(st.integers(min_value=0, max_value=10**18),
           st.integers(min_value=1, max_value=8))
    def test_bracketing(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_beyond_float_range(self):
        def bisect_root(n, k):
            lo, hi = 0, 1 << (n.bit_length() // k + 1)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
            return lo

        # 10**400 is a 2nd and 4th power, 10**402 a 3rd and 6th.
        for k in (2, 3, 4, 6):
            for n in (10**400, 10**402):
                for j in range(-2, 3):
                    assert iroot(n + j, k) == bisect_root(n + j, k), (k, j)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            iroot(8, 0)


class TestIsThreeSquare:
    def test_examples(self):
        assert not is_three_square(7)
        assert not is_three_square(28)
        assert is_three_square(0)

    def test_negatives_are_not_sums_of_squares(self):
        assert is_square(-4) is False
        assert is_three_square(-1) is False

    def test_against_exhaustive_search(self):
        limit = 10**4
        reachable = set()
        a = 0
        while a * a <= limit:
            b = 0
            while a * a + b * b <= limit:
                c = 0
                while a * a + b * b + c * c <= limit:
                    reachable.add(a * a + b * b + c * c)
                    c += 1
                b += 1
            a += 1
        for n in range(limit + 1):
            assert is_three_square(n) == (n in reachable), n


class TestThreeSquareReps:
    def test_examples(self):
        assert three_square_reps(0) == [(0, 0, 0)]
        assert three_square_reps(7) == []
        assert three_square_reps(9) == [(3, 0, 0), (2, 2, 1)]

    def test_nonempty_iff_three_square(self):
        for n in range(2001):
            assert bool(three_square_reps(n)) == is_three_square(n), n

    def test_agrees_with_exhaustive_search(self):
        for n in range(500):
            expected = [(a, b, c) for a in range(iroot(n, 2) + 1)
                        for b in range(a + 1)
                        for c in range(b + 1) if a * a + b * b + c * c == n]
            assert three_square_reps(n) == sorted(expected, reverse=True), n

    @given(st.integers(min_value=0, max_value=50000))
    def test_canonical_and_ordered(self, n):
        reps = three_square_reps(n)
        for a, b, c in reps:
            assert a >= b >= c >= 0
            assert a * a + b * b + c * c == n
        assert reps == sorted(reps, reverse=True)
        assert len(set(reps)) == len(reps)


class TestFourSquareReps:
    def test_examples(self):
        assert set(four_square_reps(22)) == {(3, 3, 2, 0), (4, 2, 1, 1)}
        assert set(four_square_reps(39)) == {(6, 1, 1, 1), (5, 3, 2, 1)}
        assert four_square_reps(0) == [(0, 0, 0, 0)]
        assert four_square_reps(-1) == []

    def test_two_representation_table(self):
        for l, expected in TWO_REP_TABLE.items():
            reps = four_square_reps(l)
            assert len(reps) == 2, l
            assert set(reps) == expected, l

    def test_every_small_m_is_representable(self):
        # Lagrange: the list is never empty
        for m in range(500):
            assert four_square_reps(m), m

    @given(st.integers(min_value=0, max_value=20000))
    def test_canonical_and_ordered(self, m):
        reps = four_square_reps(m)
        for x, y, z, t in reps:
            assert x >= y >= z >= t >= 0
            assert x * x + y * y + z * z + t * t == m
        assert reps == sorted(reps, reverse=True)
        assert len(set(reps)) == len(reps)

    def test_agrees_with_exhaustive_search(self):
        for m in range(200):
            expected = set()
            x = 0
            while x * x <= m:
                y = 0
                while y <= x and x * x + y * y <= m:
                    z = 0
                    while z <= y and x * x + y * y + z * z <= m:
                        rest = m - x * x - y * y - z * z
                        t = iroot(rest, 2)
                        if t * t == rest and t <= z:
                            expected.add((x, y, z, t))
                        z += 1
                    y += 1
                x += 1
            assert set(four_square_reps(m)) == expected, m
