"""Quaternion kernel: frozen examples plus algebraic properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursq.lipschitz import (
    INT64_MAX,
    ONE,
    ArithmeticRangeError,
    Quaternion,
    conj,
    mul,
    norm,
    re,
    sandwich,
    try_div_right_exact,
)

Q = Quaternion


# Small components keep every product and norm far inside 64-bit range,
# including the product-of-norms computed by the multiplicativity check.
components = st.integers(min_value=-(10**4), max_value=10**4)
quaternions = st.builds(Q, components, components, components, components)

# Conjugator pool: the norm-3 and norm-5 values the transfer rules use.
_NORM3 = [Q(1, a, b, 0) for a in (1, -1) for b in (1, -1)]
_NORM5 = [Q(1, s * 2, 0, 0) for s in (1, -1)] + \
         [Q(1, 0, s * 2, 0) for s in (1, -1)] + \
         [Q(1, 0, 0, s * 2) for s in (1, -1)]


class TestMul:
    def test_two_factorizations_of_same_product(self):
        # (2+3i+3j)(1+2i) and (1-2j)(-2-i-j-4k) expand to the same value
        assert mul(Q(2, 3, 3, 0), Q(1, 2, 0, 0)) == Q(-4, 7, 3, -6)
        assert mul(Q(1, 0, -2, 0), Q(-2, -1, -1, -4)) == Q(-4, 7, 3, -6)

    def test_norm_ten_product(self):
        assert mul(Q(1, 3, 0, 0), Q(1, 1, 1, 0)) == Q(-2, 4, 1, 3)

    def test_one_is_identity(self):
        q = Q(7, -3, 2, 11)
        assert mul(q, ONE) == q
        assert mul(ONE, q) == q

    def test_noncommutative(self):
        p, q = Q(0, 1, 0, 0), Q(0, 0, 1, 0)
        assert mul(p, q) == Q(0, 0, 0, 1)
        assert mul(q, p) == Q(0, 0, 0, -1)

    def test_overflow_detected(self):
        big = Q(1 << 40, 0, 0, 0)
        with pytest.raises(ArithmeticRangeError):
            mul(big, big)

    @given(quaternions, quaternions)
    def test_norm_multiplicative(self, p, q):
        assert norm(mul(p, q)) == norm(p) * norm(q)

    @given(quaternions, quaternions, quaternions)
    def test_associative(self, p, q, r):
        assert mul(mul(p, q), r) == mul(p, mul(q, r))


class TestConjNormRe:
    def test_conj_example(self):
        assert conj(Q(1, 2, -3, 4)) == Q(1, -2, 3, -4)

    def test_norm_example(self):
        assert norm(Q(1, 1, 2, 4)) == 22

    def test_str_signs_every_imaginary_part(self):
        assert str(Q(1, -2, 0, 3)) == "1-2i+0j+3k"

    def test_re_of_solution_times_coefficients(self):
        # gamma = x - yi - zj - tk against beta = 2+3i+3j recovers the
        # linear form 2x+3y+3z in the real part.
        for x, y, z, t in [(1, 2, 3, 4), (5, 0, 0, 0), (-2, 7, -1, 3)]:
            gamma = Q(x, -y, -z, -t)
            beta = Q(2, 3, 3, 0)
            assert re(mul(gamma, beta)) == 2 * x + 3 * y + 3 * z

    def test_norm_overflow_detected(self):
        with pytest.raises(ArithmeticRangeError):
            norm(Q(1 << 32, 0, 0, 0))

    @given(quaternions)
    def test_conj_involution(self, q):
        assert conj(conj(q)) == q

    @given(quaternions)
    def test_q_times_conj_is_norm(self, q):
        assert mul(q, conj(q)) == Q(norm(q), 0, 0, 0)

    @given(quaternions, quaternions)
    def test_conj_antihomomorphism(self, p, q):
        assert conj(mul(p, q)) == mul(conj(q), conj(p))

    @given(quaternions)
    def test_norm_zero_iff_zero(self, q):
        assert (norm(q) == 0) == (q == Q(0, 0, 0, 0))


class TestTryDivRightExact:
    def test_inverts_known_product(self):
        assert try_div_right_exact(Q(-4, 7, 3, -6), Q(1, 2, 0, 0)) == Q(2, 3, 3, 0)

    def test_identity_divisor(self):
        q = Q(3, -1, 4, 1)
        assert try_div_right_exact(q, ONE) == q

    def test_non_divisible_returns_none(self):
        # (1+i)(1-i-j) = 2-j-k and 3 does not divide 2
        assert try_div_right_exact(Q(1, 1, 0, 0), Q(1, 1, 1, 0)) is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            try_div_right_exact(Q(1, 0, 0, 0), Q(0, 0, 0, 0))

    @given(quaternions, quaternions)
    def test_roundtrip(self, r, q):
        # r*q is always exactly divisible by q on the right
        if norm(q) == 0:
            return
        assert try_div_right_exact(mul(r, q), q) == r


class TestSandwich:
    def test_case_one_formula_at_simple_point(self):
        got = sandwich(Q(1, 2, 0, 0), Q(5, 0, 0, 0), Q(1, 0, -2, 0))
        assert got == Q(1, -2, -2, 4)

    def test_reals_are_central(self):
        u = Q(1, 1, 1, 0)
        for x in (0, 1, -7, 42):
            assert sandwich(u, Q(x, 0, 0, 0), u) == Q(x, 0, 0, 0)

    def test_non_integral_returns_none(self):
        assert sandwich(Q(1, 2, 0, 0), Q(1, 1, 0, 0), Q(1, 0, -2, 0)) is None

    def test_zero_conjugator_rejected(self):
        with pytest.raises(ValueError):
            sandwich(Q(0, 0, 0, 0), ONE, Q(0, 0, 0, 0))

    @pytest.mark.parametrize("g", [Q(INT64_MAX, 0, 0, 0),
                                   Q(INT64_MAX, INT64_MAX, INT64_MAX, 0)],
                             ids=["3M-before-division", "conj-u-g-overflows"])
    def test_only_result_is_range_checked(self, g):
        # conj(u)*g*v reaches 3*INT64_MAX before the division by norm(u),
        # and for the second g conj(u)*g alone leaves int64; u commutes
        # with both, so the result is g itself.
        u = Q(1, 1, 1, 0)
        assert sandwich(u, g, u) == g

    def test_norm_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sandwich(Q(1, 1, 1, 0), ONE, Q(1, 2, 0, 0))

    @given(st.sampled_from(_NORM3 + _NORM5), st.sampled_from(_NORM3 + _NORM5),
           quaternions)
    def test_contract(self, u, v, g):
        if norm(u) != norm(v):
            return
        r = sandwich(u, g, v)
        if r is None:
            return
        # norm(u) * r == conj(u) * g * v, and the norm of g is preserved
        lhs = Q(*(norm(u) * c for c in r))
        assert lhs == mul(mul(conj(u), g), v)
        assert norm(r) == norm(g)

    @given(st.sampled_from(_NORM3 + _NORM5), st.sampled_from(_NORM3 + _NORM5),
           quaternions, quaternions)
    @settings(max_examples=300)
    def test_trace_transfer(self, u, v, g, beta):
        # Re((v^-1 beta u)(u^-1 g v)) = Re(beta g) whenever both factors
        # are integral.
        if norm(u) != norm(v):
            return
        r = sandwich(u, g, v)
        b2 = sandwich(v, beta, u)
        if r is None or b2 is None:
            return
        assert re(mul(b2, r)) == re(mul(beta, g))


def test_component_range_is_enforced_everywhere():
    edge = Q(INT64_MAX, 0, 0, 0)
    assert conj(edge) == edge
    with pytest.raises(ArithmeticRangeError):
        mul(edge, Q(2, 0, 0, 0))
