"""Transformation rules: identity suite, congruence conditions, transfer."""

from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursq.lipschitz import Quaternion, conj, mul, norm, re, sandwich
from foursq.solver import (
    NINE_QUADRUPLES,
    RestrictedSolution,
    apply_rule,
    builtin_rules,
    check_solution,
    companion_source,
    identity_suite,
    solve_linear_system,
)

RULES = builtin_rules()
BY_KEY = {(tuple(r.source), tuple(r.target), r.case): r for r in RULES}


def _branch_gamma(pair, x, y, z, t):
    """The quaternion a branch conjugates, matching apply_rule's layout."""
    p = pair.perm
    xs = (x, y, z)
    return Quaternion(xs[p[0]], -xs[p[1]], -xs[p[2]], -t)


class TestRuleTable:
    def test_rule_inventory(self):
        assert len(RULES) == 10
        by_case = {}
        for r in RULES:
            by_case.setdefault(r.case, []).append(r)
        assert len(by_case[1]) == 1 and len(by_case[2]) == 2
        assert len(by_case[3]) == 2 and len(by_case[4]) == 4
        assert len(by_case[5]) == 1

    def test_sources_targets_and_moduli(self):
        expected = {
            ((2, 3, 3, 0), (1, 1, 2, 4)): (1, 5, 6),
            ((1, 3, 0, 0), (1, 1, 2, 2)): (2, 3, 4),
            ((2, 3, 0, 0), (1, 2, 2, 2)): (2, 3, 4),
            ((1, 4, 0, 0), (2, 2, 3, 0)): (3, 3, 4),
            ((2, 5, 0, 0), (2, 3, 4, 0)): (3, 3, 4),
            ((1, 1, 1, -4), (1, 3, 3, 0)): (4, 5, 6),
            ((1, 1, 1, 6), (1, 2, 3, 5)): None,  # two routes, checked below
            ((2, 2, 2, -3), (1, 2, 4, 0)): (4, 5, 6),
            ((3, 3, 3, -2), (1, 1, 2, 5)): (4, 5, 6),
        }
        seen = {}
        for r in RULES:
            seen.setdefault((tuple(r.source), tuple(r.target)), []).append(
                (r.case, r.modulus, len(r.pairs)))
        assert set(seen) == set(expected)
        for key, want in expected.items():
            if want is not None:
                assert seen[key] == [want], key
        # (1,1,1,6) -> (1,2,3,5) exists both as the generic norm-5 rule and
        # as the dedicated norm-3 rule with six coordinate symmetries
        routes = sorted(seen[((1, 1, 1, 6), (1, 2, 3, 5))])
        assert routes == [(4, 5, 6), (5, 3, 6)]

    def test_first_pair_of_first_rule(self):
        r = BY_KEY[((2, 3, 3, 0), (1, 1, 2, 4), 1)]
        pair = r.pairs[0]
        assert (pair.u, pair.v) == (Quaternion(1, 2, 0, 0), Quaternion(1, 0, -2, 0))
        assert pair.congruence == (1, -2, -2, 1)

    def test_source_norm_has_exactly_two_representations(self):
        from foursq.arith import four_square_reps
        for r in RULES:
            assert len(four_square_reps(r.source.l)) == 2, tuple(r.source)

    def test_conjugator_norms_match_modulus(self):
        for r in RULES:
            for pair in r.pairs:
                assert norm(pair.u) == r.modulus, tuple(r.source)
                assert norm(pair.v) == r.modulus, tuple(r.source)

    def test_defining_identities_hold(self):
        # beta * u == v * beta' for every branch of every rule
        for r in RULES:
            beta = r.source.beta()
            for pair in r.pairs:
                assert mul(beta, pair.u) == mul(pair.v, pair.new_coeffs), \
                    (tuple(r.source), pair)

    def test_companion_sources(self):
        expected = {
            (1, 1, 2, 4): (2, 3, 3, 0),
            (1, 1, 2, 2): (1, 3, 0, 0),
            (1, 2, 2, 2): (2, 3, 0, 0),
            (2, 2, 3, 0): (1, 4, 0, 0),
            (2, 3, 4, 0): (2, 5, 0, 0),
            (1, 3, 3, 0): (1, 1, 1, -4),
            (1, 2, 4, 0): (2, 2, 2, -3),
            (1, 1, 2, 5): (3, 3, 3, -2),
            (1, 2, 3, 5): (1, 1, 1, 6),
        }
        for quad, src in expected.items():
            assert tuple(companion_source(quad)) == src


class TestIdentitySuite:
    def test_twenty_nine_identities_all_hold(self):
        results = identity_suite()
        assert len(results) == 29
        assert all(ok for _, ok in results)

    def test_case_breakdown(self):
        counts = {}
        for label, _ in identity_suite():
            counts[label.split(":")[0]] = counts.get(label.split(":")[0], 0) + 1
        assert counts == {"case 1": 6, "case 2": 8, "case 3": 8,
                          "case 4": 6, "case 5": 1}


class TestCongruenceIntegrality:
    def test_integrality_iff_congruence_exhaustive(self):
        # For every branch, over every residue class of (x,y,z,t) mod the
        # rule modulus: the sandwich is integral exactly when the stated
        # congruence vanishes.
        for r in RULES:
            p = r.modulus
            for pair in r.pairs:
                cx, cy, cz, ct = pair.congruence
                for x, y, z, t in product(range(p), repeat=4):
                    integral = sandwich(
                        pair.u, _branch_gamma(pair, x, y, z, t), pair.v,
                    ) is not None
                    congruent = (cx * x + cy * y + cz * z + ct * t) % p == 0
                    assert integral == congruent, \
                        (tuple(r.source), pair.congruence, (x, y, z, t))

    def test_branches_cover_every_admissible_class(self):
        # Whenever the solvability filter passes for the residues of an
        # actual source solution, at least one branch congruence holds --
        # so the first companion solution found always transfers.
        for r in RULES:
            p = r.modulus
            src = r.source
            for x, y, z, t in product(range(p), repeat=4):
                n = src.linear_form(x, y, z, t) % p
                if r.case == 5:
                    admissible = n % 3 != 0
                else:
                    rem = (src.l * (x * x + y * y + z * z + t * t) - n * n) % p
                    admissible = rem in ({0, 1, 4} if p == 5 else {0, 2})
                if not admissible:
                    continue
                assert any(
                    (c[0] * x + c[1] * y + c[2] * z + c[3] * t) % p == 0
                    for c in (pair.congruence for pair in r.pairs)
                ), (tuple(r.source), (x, y, z, t))


class TestApplyRule:
    def test_norm_twentyfive_transfer(self):
        r = BY_KEY[((2, 3, 3, 0), (1, 1, 2, 4), 1)]
        out = apply_rule(r, RestrictedSolution(5, 0, 0, 0, 10))
        assert out == RestrictedSolution(-2, -2, -1, 4, 10)
        assert out.x**2 + out.y**2 + out.z**2 + out.t**2 == 25
        assert out.x + out.y + 2 * out.z + 4 * out.t == 10

    def test_real_point_is_fixed(self):
        r = BY_KEY[((1, 3, 0, 0), (1, 1, 2, 2), 2)]
        assert apply_rule(r, RestrictedSolution(1, 0, 0, 0, 1)) == \
            RestrictedSolution(1, 0, 0, 0, 1)

    def test_six_coefficient_source_point(self):
        r = BY_KEY[((1, 1, 1, 6), (1, 2, 3, 5), 5)]
        out = apply_rule(r, RestrictedSolution(1, 1, 1, 6, 39))
        assert out == RestrictedSolution(1, 2, 3, 5, 39)

    def test_invalid_source_solution_rejected(self):
        r = BY_KEY[((2, 3, 3, 0), (1, 1, 2, 4), 1)]
        with pytest.raises(ValueError):
            apply_rule(r, RestrictedSolution(5, 0, 0, 0, 11))

    @given(st.integers(min_value=-40, max_value=40),
           st.integers(min_value=-40, max_value=40),
           st.integers(min_value=-40, max_value=40),
           st.integers(min_value=-40, max_value=40),
           st.sampled_from(RULES))
    @settings(max_examples=400)
    def test_transfer_soundness(self, x, y, z, t, rule):
        # Any tuple is a source solution for its own m and n; a transfer,
        # when one applies, must solve the target system exactly.
        m = x * x + y * y + z * z + t * t
        n = rule.source.linear_form(x, y, z, t)
        if n < 0:
            return
        out = apply_rule(rule, RestrictedSolution(x, y, z, t, n))
        if out is None:
            congruences = [
                (c[0] * x + c[1] * y + c[2] * z + c[3] * t) % rule.modulus
                for c in (p.congruence for p in rule.pairs)
            ]
            assert 0 not in congruences
            return
        assert out.n == n
        assert out.x**2 + out.y**2 + out.z**2 + out.t**2 == m
        assert rule.target.linear_form(out.x, out.y, out.z, out.t) == n

    @given(st.sampled_from(RULES), st.integers(-30, 30),
           st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
    @settings(max_examples=300)
    def test_trace_transfer_through_rule_identities(self, rule, x, y, z, t):
        # Re((v^-1 beta u)(u^-1 gamma v)) == Re(beta gamma) specialised to
        # the rule's own (u, v, beta, beta') tuples.
        beta = rule.source.beta()
        for pair in rule.pairs:
            gamma = _branch_gamma(pair, x, y, z, t)
            r = sandwich(pair.u, gamma, pair.v)
            if r is None:
                continue
            b2 = sandwich(pair.v, beta, pair.u)
            assert b2 is not None  # beta*u = v*beta' makes this exact
            assert b2 == pair.new_coeffs
            assert re(mul(b2, r)) == re(mul(beta, gamma))

    def test_descent_finds_every_transferred_solution(self):
        # The descent enumerates every solution at a given n, so whenever a
        # companion solution transfers into a quadruple, the direct solve at
        # the same n succeeds too; transfer never adds a solution.
        for quad in NINE_QUADRUPLES:
            comp = companion_source(quad)
            rules = [r for r in RULES if r.target == quad]
            for m in range(41):
                for n in range(isqrt(quad.l * m) + 1):
                    csol = solve_linear_system(m, n, comp)
                    if csol is None:
                        continue
                    outs = [o for o in (apply_rule(r, csol) for r in rules)
                            if o is not None]
                    if outs:
                        assert solve_linear_system(m, n, quad) is not None, \
                            (m, n, tuple(quad))
                    if any(all(v >= 0 or c == 0 for v, c in zip(o[:4], quad))
                           for o in outs):
                        assert solve_linear_system(m, n, quad, natural=True) \
                            is not None, (m, n, tuple(quad))
