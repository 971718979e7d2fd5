"""The transfer-rule tables pinned: every output, and every construction check.

`tests/test_rules.py` checks what the rules mean; these tests pin what the
tables are, so the code that builds them can be rewritten without moving a
single output.
"""

import hashlib
from itertools import product

import pytest

from foursq.lipschitz import Quaternion as Q
from foursq.solver import (
    _CASE1_PAIRS,
    RestrictedSolution,
    _case4_pairs,
    _make_rule,
    apply_rule,
    builtin_rules,
)


def test_apply_rule_outputs_pinned():
    # Every rule, in builtin_rules() order, on every (x, y, z, t) in
    # [-3, 3]^4: 24,010 inputs, 16,902 of them transferred.
    out = []
    for rule in builtin_rules():
        for x, y, z, t in product(range(-3, 4), repeat=4):
            sol = RestrictedSolution(x, y, z, t,
                                     rule.source.linear_form(x, y, z, t))
            got = apply_rule(rule, sol)
            out.append(None if got is None else tuple(got))
    assert len(out) == 24_010
    assert sum(o is not None for o in out) == 16_902
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "9b40ac00fef9528fde80d894a6b102a5ca1eecfedad63c83d59e8f6635de33c4"


_GOOD = _CASE1_PAIRS[0]


@pytest.mark.parametrize("target,pair,message", [
    # u = 1 + i has norm 2, not the modulus 5.
    ((1, 1, 2, 4), _GOOD._replace(u=Q(1, 1, 0, 0)), "conjugator norm"),
    # The right magnitudes in the wrong slots: beta*u != v*beta'.
    ((1, 1, 2, 4), _GOOD._replace(new_coeffs=Q(-2, -1, -4, -1)),
     "identity fails"),
    # A true identity, declared to land in another class.
    ((1, 2, 3, 5), _GOOD, "wrong target class"),
    # Swapping x and y does not fix (2, 3, 3, 0).
    ((1, 1, 2, 4), _GOOD._replace(perm=(1, 0, 2)), "not a symmetry"),
])
def test_make_rule_rejects(target, pair, message):
    with pytest.raises(AssertionError, match=message):
        _make_rule(1, (2, 3, 3, 0), target, 5, [pair])


def test_case4_rejects_a_source_not_reducible_mod_5():
    # (1, 1, 1, 0) has norm 3, and (a + 4b)/5 = 1/5 is not an integer.
    with pytest.raises(AssertionError, match="not reducible mod 5"):
        _case4_pairs(1, 0)
