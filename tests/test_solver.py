"""Solver: frozen examples, an independent enumeration reference, filters,
candidate sets, and the restricted top-level search."""

import ast
import hashlib
import itertools
import json
import random
import signal
import sys
import time
import tracemalloc
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursq import _residues, oracle, solver
from foursq.arith import iroot, is_three_square, ord2, three_square_reps
from foursq.lipschitz import INT64_MAX, ArithmeticRangeError
from foursq.solver import (
    NINE_QUADRUPLES,
    NoSolutionError,
    ResourceLimitError,
    RestrictedSolution,
    SystemQuadruple,
    TargetSet,
    UnsupportedQuadrupleError,
    admissible_n,
    brute_force_oracle,
    candidate_set,
    check_solution,
    companion_source,
    solve_linear_system,
    solve_restricted,
)
from foursq.verifier import reduce_m

ALL_QUADS = list(NINE_QUADRUPLES) + [
    companion_source(q) for q in NINE_QUADRUPLES
]

_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def reference_solutions(m, n, quad):
    """Re-derivation of the deterministic descent, written independently.

    Canonical triples of l*m - n**2 in their listed order; for each, the 48
    signed permutations with permutations in lexicographic index order and
    signs expanding (+ before -) per component; every variant where the
    derived coordinates are integral is a solution, in that order.
    """
    a, b, c, d = quad
    l = a * a + b * b + c * c + d * d
    rem = l * m - n * n
    for trip in three_square_reps(rem):
        for perm in _PERMS:
            base = (trip[perm[0]], trip[perm[1]], trip[perm[2]])
            for bits in range(8):
                A = -base[0] if bits & 4 else base[0]
                B = -base[1] if bits & 2 else base[1]
                C = -base[2] if bits & 1 else base[2]
                g1 = a * n + b * A + c * B + d * C
                g2 = -b * n + a * A - d * B + c * C
                g3 = -c * n + d * A + a * B - b * C
                g4 = -d * n - c * A + b * B + a * C
                if g1 % l or g2 % l or g3 % l or g4 % l:
                    continue
                yield (g1 // l, -(g2 // l), -(g3 // l), -(g4 // l), n)


def reference_first_solution(m, n, quad):
    """The first solution in the reference order, or None."""
    sol = next(reference_solutions(m, n, quad), None)
    return None if sol is None else sol[:4]


class TestSolveLinearSystem:
    def test_unit_norm(self):
        sol = solve_linear_system(1, 1, (1, 1, 2, 2))
        assert sol == RestrictedSolution(1, 0, 0, 0, 1)

    def test_zero(self):
        for quad in NINE_QUADRUPLES:
            assert solve_linear_system(0, 0, quad) == \
                RestrictedSolution(0, 0, 0, 0, 0)

    def test_fifteen_at_nine(self):
        sol = solve_linear_system(15, 9, (1, 1, 2, 2))
        assert sol is not None
        assert sorted(map(abs, (sol.x, sol.y, sol.z, sol.t))) == [1, 1, 2, 3]
        assert sol.x + sol.y + 2 * sol.z + 2 * sol.t == 9

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError):
            solve_linear_system(1, 4, (1, 1, 2, 2))

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            solve_linear_system(-1, 0, (1, 1, 2, 2))
        with pytest.raises(ValueError):
            solve_linear_system(1, -1, (1, 1, 2, 2))

    def test_unsupported_quadruple_rejected(self):
        with pytest.raises(UnsupportedQuadrupleError):
            solve_linear_system(1, 1, (1, 1, 1, 1))
        # A SystemQuadruple is taken as given, but still checked.
        with pytest.raises(UnsupportedQuadrupleError):
            solve_linear_system(1, 1, SystemQuadruple(1, 1, 1, 1))
        with pytest.raises(UnsupportedQuadrupleError):
            solve_restricted(3, SystemQuadruple(2, 3, 3, 0), "cubes")

    def test_matches_reference_enumeration(self):
        for quad in ALL_QUADS:
            l = SystemQuadruple(*quad).l
            for m in range(41):
                for n in range(isqrt(l * m) + 1):
                    sol = solve_linear_system(m, n, quad)
                    ref = reference_first_solution(m, n, quad)
                    got = None if sol is None else (sol.x, sol.y, sol.z, sol.t)
                    assert got == ref, (tuple(quad), m, n)

    def test_descent_yields_reference_enumeration(self):
        # Every solution, not only the first: pins the variant walk within
        # each hit as well as the order of the triples.
        for quad in ALL_QUADS:
            q = SystemQuadruple(*quad)
            for m in range(41):
                for n in range(isqrt(q.l * m) + 1):
                    got = list(solver._descent_solutions(m, n, q, q.l))
                    assert got == list(reference_solutions(m, n, quad)), \
                        (tuple(quad), m, n)

    @given(st.integers(0, 3000), st.sampled_from(ALL_QUADS),
           st.integers(0, 200))
    @settings(max_examples=300, deadline=None)
    def test_certificates_always_valid(self, m, quad, n):
        q = SystemQuadruple(*quad)
        if n * n > q.l * m:
            return
        sol = solve_linear_system(m, n, quad)
        if sol is None:
            return
        assert sol.n == n
        assert sol.x**2 + sol.y**2 + sol.z**2 + sol.t**2 == m
        assert q.linear_form(sol.x, sol.y, sol.z, sol.t) == n

    def test_natural_mode_filters_signs(self):
        sol = solve_linear_system(15, 9, (1, 1, 2, 2), natural=True)
        assert sol is not None
        assert all(v >= 0 for v in (sol.x, sol.y, sol.z, sol.t))

    def test_naturalize(self):
        q = SystemQuadruple(2, 2, 3, 0)
        # t has a zero coefficient, so its sign is free and it is flipped.
        assert solver._naturalize(RestrictedSolution(1, 2, 0, -3, 6), q) \
            == RestrictedSolution(1, 2, 0, 3, 6)
        assert solver._naturalize(RestrictedSolution(1, 2, 0, 3, 6), q) \
            == RestrictedSolution(1, 2, 0, 3, 6)
        # A negative coordinate with a nonzero coefficient cannot be.
        for i in range(3):
            coords = [1, 2, 1, 3]
            coords[i] = -coords[i]
            sol = RestrictedSolution(*coords, q.linear_form(*coords))
            assert solver._naturalize(sol, q) is None, coords

    def test_naturalize_flips_z_on_a_rule_source(self):
        # (1, 3, 0, 0) has c = d = 0, so its natural solves run the descent
        # through `_naturalize`'s flips of z and t.  Each pick is one of the
        # natural tuples of norm m at n, found by a scan, and is the first
        # reference solution with x, y >= 0, its z and t made nonnegative.
        # The flip of z first changes a pick at m = 65, n = 0.
        q = SystemQuadruple(1, 3, 0, 0)
        for m in range(81):
            for n in range(isqrt(q.l * m) + 1):
                scan = {(x, y, z, t)
                        for x, y in ((n - 3 * y, y) for y in range(n // 3 + 1))
                        for z in range(isqrt(m) + 1)
                        if (t2 := m - x * x - y * y - z * z) >= 0
                        and (t := isqrt(t2)) * t == t2}
                first = next(((x, y, abs(z), abs(t), n) for x, y, z, t, _ in
                              reference_solutions(m, n, q) if x >= 0 and y >= 0),
                             None)
                sol = solve_linear_system(m, n, q, natural=True)
                assert sol == first, (m, n)
                assert (sol is None) == (not scan), (m, n)
                assert sol is None or tuple(sol[:4]) in scan, (m, n)

    def test_three_square_gate_comes_first(self, monkeypatch):
        # l*m - n**2 = 135 = 8*16 + 7 is not a sum of three squares, and a
        # zero coefficient keeps the min-coefficient bound out of the way:
        # the gate answers before the descent or the natural box is asked.
        m, n, quad = 8, 1, (2, 2, 3, 0)
        assert not is_three_square(17 * m - n * n)

        def refuse(*args):
            raise AssertionError("asked past the three-square gate")

        monkeypatch.setattr(solver, "_descent_solutions", refuse)
        monkeypatch.setattr(solver, "_natural_box", refuse)
        for natural in (False, True):
            assert solve_linear_system(m, n, quad, natural=natural) is None
            with pytest.raises(NoSolutionError) as exc:
                solve_restricted(m, quad, "squares", natural=natural, n=n)
            assert exc.value.tried == (n,)

    # One case per branch of the chain that picks a solution: (m, n, quad,
    # natural, the seam it is picked from, the solution it picks).
    CHAIN_BRANCHES = {
        "plain": (1000, 8, (1, 2, 3, 5), False, "_descent_solutions",
                  (26, -16, 8, -2)),
        "natural-descent": (39, 36, (1, 2, 3, 5), True, "_descent_solutions",
                            (1, 1, 1, 6)),
        "natural-box": (52, 16, (1, 1, 2, 5), True, "_natural_box",
                        (0, 4, 6, 0)),
    }

    @pytest.mark.parametrize("fault", ["norm", "form"])
    @pytest.mark.parametrize("branch", CHAIN_BRANCHES)
    def test_wrong_certificate_raises(self, monkeypatch, branch, fault):
        m, n, quad, natural, seam, picked = self.CHAIN_BRANCHES[branch]
        assert solve_linear_system(m, n, quad, natural=natural) == \
            (*picked, n)
        x, y, z, t = picked
        a, b = quad[:2]
        # (b, -a, 0, 0) keeps the linear form and moves the norm; the
        # reversed tuple keeps the norm and moves the form.  Both stay
        # natural where the pick is.
        bad = RestrictedSolution(
            *((x + b, y - a, z, t) if fault == "norm" else (t, z, y, x)), n)
        calls = []
        monkeypatch.setattr(solver, seam, lambda *args: calls.append(args)
                            or (bad if seam == "_natural_box" else iter([bad])))
        message = {"norm": "norm", "form": "linear form"}[fault]
        with pytest.raises(AssertionError,
                           match=f"certificate {message} mismatch"):
            solve_linear_system(m, n, quad, natural=natural)
        assert len(calls) == 1


def descent_natural(m, n, quad):
    """The first naturalized solution of the descent at n, or None."""
    for sol in solver._descent_solutions(m, n, quad, quad.l):
        nat = solver._naturalize(sol, quad)
        if nat is not None:
            return nat
    return None


def natural_reference(m, n, quad):
    """Every natural solution at n, naturalized, in reference order."""
    sols = (solver._naturalize(RestrictedSolution(*s), quad)
            for s in reference_solutions(m, n, quad))
    return list(dict.fromkeys(s for s in sols if s is not None))


class TestNaturalBox:
    def test_matches_descent(self):
        # Every n with n**2 <= l*m, box or not: 28,046 cases.
        for m in range(100):
            for quad in NINE_QUADRUPLES:
                for n in range(isqrt(quad.l * m) + 1):
                    assert solver._natural_box(m, n, quad) == \
                        descent_natural(m, n, quad), (m, n, quad)

    def test_first_in_descent_order(self):
        # Six natural solutions; the descent meets (0, 1, 2, 0) first,
        # neither the least nor the greatest of them.
        q = SystemQuadruple(1, 2, 2, 2)
        nats = natural_reference(5, 6, q)
        assert len(nats) == 6 and nats[0] not in (min(nats), max(nats))
        assert solver._natural_box(5, 6, q) == nats[0] == (0, 1, 2, 0, 6)

    def test_free_coordinate_sign(self):
        # t has coefficient 0: (2, 1, 0, -2) and (2, 1, 0, 2) both solve,
        # and the descent meets the negative one first, which it flips.
        q = SystemQuadruple(2, 2, 3, 0)
        first = next(s for s in reference_solutions(9, 6, q)
                     if solver._naturalize(RestrictedSolution(*s), q))
        assert first == (2, 1, 0, -2, 6)
        assert (2, 1, 0, 2, 6) in reference_solutions(9, 6, q)
        assert len(natural_reference(9, 6, q)) == 4
        assert solver._natural_box(9, 6, q) == (2, 1, 0, 2, 6)


def three_square_below(lm, n):
    """The largest n' <= n with l*m - n'**2 a sum of three squares."""
    while not is_three_square(lm - n * n):
        n -= 1
    return n


def scan_args(m, n, quad, A):
    """The arguments `_descent_solutions` passes to `_scan_b_sieve` at this
    A: the window, the shared plane of A * ui % l, and ui."""
    l = quad.l
    rem = l * m - n * n - A * A
    _, ui, planes = _residues.masks_for(tuple(quad), l, n % l)
    bhi = min(A, isqrt(rem))
    blo = 0 if rem == 0 else isqrt((rem - 1) // 2) + 1
    return rem, bhi, blo, l, planes[A * ui % l], ui


def scan_b_scalar(rem, bhi, blo, l, bres):
    """Splits (B, C) of rem = B*B + C*C with B in [blo, bhi], B % l in
    bres: the reference the sieve scan is held to, one isqrt per B."""
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


def scalar_sieve(rem, bhi, blo, l, plane, ui=1):
    """`scan_b_scalar` in the sieve's place: the same window over the
    B-residues b with b * ui % l in the plane, B descending."""
    bres = tuple(b for b in range(l) if b * ui % l in plane)
    return sorted(scan_b_scalar(rem, bhi, blo, l, bres), reverse=True)


def walk(m, n, quad):
    """The A values of the descent at (m, n) whose B-plane is nonempty."""
    l = quad.l
    big_r = l * m - n * n
    _, ui, planes = _residues.masks_for(tuple(quad), l, n % l)
    return [A for A in range(isqrt(big_r), -1, -1)
            if 3 * A * A >= big_r and planes[A * ui % l]]


def endpoint_hit(quad, scale, at_blo):
    """(m, n, A) with m near scale whose B-scan at A hits B = blo or bhi.

    Picks a residue class (A, B, C) mod l with a valid variant, then B near
    1000*l with C in {B, B-1} (so B = blo) or C < l (so B = isqrt(rem) =
    bhi), and A = B + (A - B) mod l; n fills l*m up to about l*scale.
    """
    l = quad.l
    n = isqrt(l * scale - 3 * (1000 * l) ** 2)
    while True:
        mask = table_at_n(l, *_residues.masks_for(tuple(quad), l, n % l)[:2])
        for key in sorted(mask):
            a, b, c = key // (l * l), key // l % l, key % l
            if at_blo and c not in (b, (b - 1) % l):
                continue
            B = 1000 * l + b
            C = B - (b - c) % l if at_blo else c
            A = B + (a - b) % l
            norm = n * n + A * A + B * B + C * C
            assert norm % l == 0
            return norm // l, n, A
        n -= 1


def table_at_n(l, mask, ui):
    """The mask of one n, keyed by its own classes: each class k of the
    shared table `masks_for` returns is this n's class k * u, u = ui**-1."""
    u = pow(ui, -1, l)
    return {(k // (l * l) * u % l * l + k // l % l * u % l) * l + k % l * u % l:
            bits for k, bits in mask.items()}


def planes_at_n(l, planes, ui):
    """The B-planes of one n in its own frame: planes[a] holds the b with
    b * ui % l in the shared plane of a * ui % l."""
    u = pow(ui, -1, l)
    return tuple(tuple(sorted(b * u % l for b in planes[a * ui % l]))
                 for a in range(l))


def mask_bits(quad, l, n, cls):
    """Bit v set iff variant v of the class (A, B, C) makes every component
    of M @ (n, A', B', C') vanish mod l: the definition of `masks_for`."""
    a, b, c, d = quad
    bits = 0
    for v in range(48):
        A, B, C = _residues.signed_permutation(cls, v)
        if ((a * n + b * A + c * B + d * C) % l == 0
                and (-b * n + a * A - d * B + c * C) % l == 0
                and (-c * n + d * A + a * B - b * C) % l == 0
                and (-d * n - c * A + b * B + a * C) % l == 0):
            bits |= 1 << v
    return bits


class TestMasks:
    """`masks_for` against its definition, for every quadruple the descent
    uses: n = 0, the units 1 and l - 1, and a zero divisor when l is
    composite."""

    @staticmethod
    def residues_of(l):
        zero_divisors = [p for p in range(2, l) if l % p == 0]
        return [0, 1, l - 1] + zero_divisors[:1]

    @pytest.mark.parametrize("quad", ALL_QUADS, ids=str)
    def test_against_definition(self, quad):
        l = quad.l
        rng = random.Random(l)
        for n in self.residues_of(l):
            shared, ui, planes = _residues.masks_for(tuple(quad), l, n)
            mask = table_at_n(l, shared, ui)
            assert all(mask.values())
            if l <= 13:
                classes = range(l ** 3)
            else:
                classes = set(mask) | set(rng.sample(range(l ** 3), 100))
            for idx in classes:
                cls = (idx // (l * l), idx // l % l, idx % l)
                A, B, C = (x * ui % l for x in cls)
                assert (shared.get((A * l + B) * l + C, 0)
                        == mask_bits(quad, l, n, cls)), (n, cls)
            assert planes == tuple(
                tuple(sorted({idx // l % l for idx in shared
                              if idx // (l * l) == a}))
                for a in range(l))
            assert planes_at_n(l, planes, ui) == tuple(
                tuple(sorted({idx // l % l for idx in mask
                              if idx // (l * l) == a}))
                for a in range(l))

    def test_search_invariants_of_accepted_quadruples(self):
        # The descent takes a remainder's splits without asking whether
        # its A-plane is empty, and `_naturalize` flips only c and d: both
        # rest on these facts about every quadruple `_as_quad` accepts
        # (the nine and the rule sources, 18 distinct, 10,334 planes).
        accepted = dict.fromkeys(list(NINE_QUADRUPLES) + [
            r.source for r in solver.builtin_rules()])
        planes_seen = 0
        for quad in accepted:
            assert quad.a and quad.b, quad
            for n in range(quad.l):
                _, _, planes = _residues.masks_for(tuple(quad), quad.l, n)
                assert all(planes), (quad, n)
                planes_seen += len(planes)
        assert (len(accepted), planes_seen) == (18, 10_334)

    @staticmethod
    def every_table():
        for quad in NINE_QUADRUPLES:
            for q in (quad, companion_source(quad)):
                for r in range(q.l):
                    yield q, r, _residues.masks_for(tuple(q), q.l, r)

    def test_pinned_digest(self):
        """Every table the descent can ask for, byte for byte: 402 tables
        with 209,214 entries, digest taken from the pure-Python build.
        Each n's table and planes are its shared ones read back through ui."""
        h = hashlib.sha256()
        tables = entries = 0
        for q, r, (shared, ui, planes) in self.every_table():
            mask = table_at_n(q.l, shared, ui)
            line = json.dumps([list(q), q.l, r, sorted(mask.items()),
                               planes_at_n(q.l, planes, ui)],
                              separators=(",", ":"))
            h.update((line + "\n").encode())
            tables += 1
            entries += len(mask)
        assert (tables, entries) == (402, 209_214)
        assert h.hexdigest() == ("d266faed4734340fe55cb39543dfd6a9"
                                 "cae82833ae5ad140d570745abe9ed499")

    @pytest.mark.parametrize("quad", [(1, 1, 2, 2), (1, 1, 1, -4), (1, 2, 3, 5)],
                             ids=str)
    def test_valid_classes_match_masks_for(self, quad):
        """A fresh build of a quadruple's valid classes, grouped by n,
        against every n's table: the variants set in the mask send its
        classes onto exactly the l valid ones.  (1, 1, 1, -4) has a
        negative coefficient, and (1, 2, 3, 5) has the largest l, 39."""
        l = sum(x * x for x in quad)
        groups = _residues._valid_classes.__wrapped__(quad, l)
        assert len(groups) == l
        for n, t in enumerate(groups):
            mask = table_at_n(l, *_residues.masks_for(quad, l, n)[:2])
            hit = set()
            for idx, bits in mask.items():
                cls = (idx // (l * l), idx // l % l, idx % l)
                for v in range(48):
                    if bits >> v & 1:
                        A, B, C = _residues.signed_permutation(cls, v)
                        hit.add((A % l * l + B % l) * l + C % l)
            packed = [(A * l + B) * l + C for A, B, C in t]
            assert len(packed) == l and sorted(packed) == sorted(hit), n

    def test_one_build_per_quadruple(self):
        """One class pass per quadruple, one shared table per divisor of l
        (0 and 1 for the prime 31), one masks_for entry per n."""
        quad, l = (1, 1, 2, 5), 31
        _residues.masks_for.cache_clear()
        _residues._base_table.cache_clear()
        _residues._valid_classes.cache_clear()
        _residues.masks_for(quad, l, 7)
        assert _residues._valid_classes.cache_info().misses == 1
        for n in range(l):
            _residues.masks_for(quad, l, n)
        assert _residues._valid_classes.cache_info().misses == 1
        assert _residues._base_table.cache_info().misses == 2
        assert _residues.masks_for.cache_info().misses == l

    def test_tables_memory_bound(self):
        """Every table of the 18 quadruples, built from cold caches, holds
        under 8 MB; a full table per (quadruple, n) would hold about 22 MB."""
        _residues.masks_for.cache_clear()
        _residues._base_table.cache_clear()
        _residues._valid_classes.cache_clear()
        tracemalloc.start()
        try:
            tables = sum(1 for _ in self.every_table())
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tables == 402
        assert held < 8 * 2**20, held

    def test_n_mod_out_of_range(self):
        # A negative n_mod would otherwise index another n's classes.
        for n_mod in (-1, -10, 10, 11):
            with pytest.raises(ValueError):
                _residues.masks_for((1, 1, 2, 2), 10, n_mod)

    def test_entries_are_python_ints(self):
        """The descent does its key and plane arithmetic on these entries,
        so each must be a Python int and each plane a tuple."""
        for _, _, (mask, ui, planes) in self.every_table():
            assert type(ui) is int
            assert {type(k) for k in mask} == {int}
            assert {type(v) for v in mask.values()} == {int}
            assert all(type(b) is int for plane in planes for b in plane)
            assert all(type(plane) is tuple for plane in planes)


@pytest.mark.filterwarnings("error")  # a warning from a scan fails
class TestVectorScan:
    """`_scan_b_sieve`, the bit-vector scan, must return exactly
    `scan_b_scalar`'s splits, B descending.

    The reference enumeration above stops at m <= 40, where every window
    fits one short run, so the long patterns and the runs are checked here.
    """

    SCALES = (10**5 + 3, 10**9 + 977, 10**12 + 977)
    # B per window: both sides of the short span and of one run, and a
    # window past 2**14 B that takes five runs.
    WIDTHS = (1, 511, 512, 513, 4095, 4096, 4097, (1 << 14) + 4097)

    @staticmethod
    def assert_same_splits(args):
        splits = solver._scan_b_sieve(*args)
        assert splits == scalar_sieve(*args)
        return splits

    @classmethod
    def cutoff_windows(cls):
        """(rem, bhi, blo, split): each width with the split (B, C) on bhi
        and on blo, and two runs that meet under the split, for rem about
        1.3e11, just below and just above 2**52, just below 2**62 (where a
        float64 root of C*C reads 1300908148.0000002), above 2**62 and
        above 2**64; then windows from B = 0: rem = 0, and a square C*C
        just below 2**52 with C*C itself."""
        below = 5 * 10**7, isqrt((1 << 52) - 1 - 25 * 10**14)
        cases = [(3 * 10**5, 2 * 10**5), below, (below[0], below[1] + 1),
                 (1440447733, 1300908148), ((1 << 31) + 12345, (1 << 31) - 999),
                 ((3 << 32) + 7, 5 << 30)]
        assert below[0] ** 2 + below[1] ** 2 < 1 << 52 <= below[0] ** 2 + (
            below[1] + 1) ** 2
        run = solver._SIEVE_RUN
        out = [(0, 0, 0, (0, 0))]
        for B, C in cases:
            rem = B * B + C * C
            for width in cls.WIDTHS:
                assert B + width - 1 <= isqrt(rem)
                out += [(rem, B, B - width + 1, (B, C)),
                        (rem, B + width - 1, B, (B, C))]
            # The split opens the first run, and the second ends below it.
            out.append((rem, B + run - 1, B - run, (B, C)))
        top = (1 << 26) - 1
        return out + [(top * top + 9, 100, 0, (3, top)),
                      (top * top, 10, 0, (0, top))]

    def test_windows_at_the_cutoffs(self):
        """Every window at all nine norms, with three B-planes (every
        residue, the split's residue alone, every residue but the split's)
        in the frame of ui = 1 and of ui = l - 1, against a brute-force
        walk over the window, and against `scan_b_scalar` where it is
        quick: the one-residue plane, and every plane below 4096 B."""
        windows = self.cutoff_windows()
        rems = [rem for rem, *_ in windows]
        assert 0 in rems and max(rems) > 1 << 64
        assert any((1 << 62) - (1 << 60) < rem < 1 << 62 for rem in rems)
        for rem, bhi, blo, split in windows:
            want = sorted(TestScanAgainstBruteForce.brute_splits(rem, bhi, blo),
                          reverse=True)
            assert split in want
            for l in sorted({q.l for q in NINE_QUADRUPLES}):
                r = split[0] % l
                for bres in (tuple(range(l)), (r,),
                             tuple(b for b in range(l) if b != r)):
                    for ui in (1, l - 1):
                        args = (rem, bhi, blo, l,
                                tuple(sorted(b * ui % l for b in bres)), ui)
                        splits = solver._scan_b_sieve(*args)
                        assert splits == [s for s in want if s[0] % l in bres]
                        if len(bres) == 1 or bhi - blo < 4095:
                            assert splits == scalar_sieve(*args)
                        assert (split in splits) == (r in bres), args

    def test_patterns_match_definition(self):
        """Every bit the sieve can read: bit j of patterns[t] is set iff
        t - j*j is a square mod q, for j < span + q - 1 (a run of up to
        span B, shifted by up to q - 1)."""
        for span, table in ((solver._SIEVE_SHORT, solver._SHORT_PATTERNS),
                            (solver._SIEVE_RUN, solver._RUN_PATTERNS)):
            assert [q for q, _ in table] == [64, 63, 65, 11, 17, 19, 23, 29, 31]
            for q, patterns in table:
                squares = {x * x % q for x in range(q)}
                n = span + q - 1
                assert len(patterns) == q
                for t, pattern in enumerate(patterns):
                    want = "".join("1" if (t - j * j) % q in squares else "0"
                                   for j in range(n))
                    got = format(pattern % (1 << n), "b").zfill(n)[::-1]
                    assert got == want, (span, q, t)

    def test_windows_reach_every_path(self, monkeypatch):
        """Descents from 1e9 to near 2**63 scan windows of one short run,
        one long run and several runs, and give the same solutions with
        `scan_b_scalar` in the sieve's place."""
        widths = []
        sieve = solver._scan_b_sieve
        monkeypatch.setattr(solver, "_scan_b_sieve", lambda *args: widths.append(
            args[1] - args[2] + 1) or sieve(*args))

        def first_solutions():
            out = []
            for quad in NINE_QUADRUPLES:
                for m in (10**9 + 977, 10**12 + 977, 10**15 + 977,
                          10**18 + 977, INT64_MAX - 200):
                    n = three_square_below(quad.l * m, 1000)
                    out.append(list(itertools.islice(
                        solver._descent_solutions(m, n, quad, quad.l), 3)))
            return out

        default = first_solutions()
        assert any(w <= solver._SIEVE_SHORT for w in widths)
        assert any(solver._SIEVE_SHORT < w <= solver._SIEVE_RUN for w in widths)
        assert any(w > 4 * solver._SIEVE_RUN for w in widths)
        monkeypatch.setattr(solver, "_scan_b_sieve", scalar_sieve)
        assert first_solutions() == default

    def test_descent_walk(self):
        for quad in NINE_QUADRUPLES:
            for m in self.SCALES:
                lm = quad.l * m
                n = three_square_below(lm, isqrt(lm) - 100)
                steps = walk(m, n, quad)
                if m > 10**6:
                    # Smallest rem first, then the middle, then the longest.
                    mid = len(steps) // 6
                    steps = steps[:3] + steps[mid:-mid:mid] + steps[-3:]
                for A in steps:
                    self.assert_same_splits(scan_args(m, n, quad, A))

    def test_hits_at_both_ends(self):
        for quad in NINE_QUADRUPLES:
            for scale in self.SCALES[1:]:
                for at_blo in (False, True):
                    m, n, A = endpoint_hit(quad, scale, at_blo)
                    big_r = quad.l * m - n * n
                    assert 3 * A * A >= big_r >= A * A  # A is on the walk
                    args = scan_args(m, n, quad, A)
                    bhi, blo = args[1:3]
                    end = blo if at_blo else bhi
                    splits = self.assert_same_splits(args)
                    assert end in [B for B, _ in splits], (quad, m, n, A)

    def test_zero_remainder(self):
        # l*m = 10 * 10**5 = 1000**2, so rem = 0 at n = 0, A = 1000.
        args = scan_args(10**5, 0, NINE_QUADRUPLES[0], 1000)
        assert args[0] == 0
        assert self.assert_same_splits(args) == [(0, 0)]

    def test_enumeration_matches_scalar_only(self, monkeypatch):
        m = 10**12 + 977
        calls = []
        sieve = solver._scan_b_sieve
        monkeypatch.setattr(solver, "_scan_b_sieve",
                            lambda *args: calls.append(1) or sieve(*args))

        def first_solutions():
            out = []
            for quad in NINE_QUADRUPLES:
                lm = quad.l * m
                n = three_square_below(lm, isqrt(lm) - 1000)
                out.append(list(itertools.islice(
                    solver._descent_solutions(m, n, quad, quad.l), 200)))
            return out

        default = first_solutions()
        assert calls
        monkeypatch.setattr(solver, "_scan_b_sieve", scalar_sieve)
        assert first_solutions() == default


class TestTwoSquarePrefilter:
    """`_two_square_possible` may reject a remainder only when it is not
    B**2 + C**2, so skipping those A leaves the enumeration unchanged."""

    SCALES = (10**5 + 3, 10**9 + 977, 10**12 + 977)

    def test_sums_of_two_squares_pass(self):
        assert solver._two_square_possible(0)
        for b in range(300):
            for c in range(b + 1):
                assert solver._two_square_possible(b * b + c * c), (b, c)
        rng = random.Random(2)
        for _ in range(10_000):
            b, c = rng.randrange(2**31), rng.randrange(2**31)
            assert solver._two_square_possible(b * b + c * c), (b, c)

    def test_rejections(self):
        for b in range(300):
            for c in range(b + 1):
                s = b * b + c * c
                if s % 3:
                    assert not solver._two_square_possible(3 * s), (b, c)
        for r in range(1, 20_000):
            if (r >> ord2(r)) % 4 == 3:
                assert not solver._two_square_possible(r), r
                assert not solver._two_square_possible(r << 40), r

    def test_gate_passes_sums_of_two_squares(self):
        gate = solver._two_square_possible
        for b in range(isqrt(2 * 10**5) + 1):
            for c in range(min(b, isqrt(2 * 10**5 - 1 - b * b)) + 1):
                assert gate(b * b + c * c), (b, c)

    def test_gate_rejects_odd_powers(self):
        gate = solver._two_square_possible
        for p, q in ((59, 67), (991, 1019)):
            assert not gate(p * q)
            assert gate((p * q) ** 2)
            assert not gate(p ** 3 * q ** 2)
            assert gate(p ** 4 * q ** 2 * 5)
        # 3 and 7 to odd powers; 1031 and 1039 are past 1024, and their
        # product is 1 mod 4.
        assert not gate(21)
        assert gate(1031 * 1039)

    def test_gate_matches_trial_division(self):
        primes = [p for p in range(3, 1024, 4)
                  if all(p % d for d in range(3, isqrt(p) + 1, 2))]
        rng = random.Random(15)
        for _ in range(2000):
            r = 1
            for _ in range(rng.randrange(4)):
                r *= rng.choice(primes) ** rng.randrange(1, 4)
            r *= rng.randrange(1, 10**6)
            odd = (r >> ord2(r)) % 4 == 3
            for p in primes:
                e = 0
                while r % p ** (e + 1) == 0:
                    e += 1
                odd = odd or e % 2 == 1
            assert solver._two_square_possible(r) == (not odd), r

    def test_enumeration_unchanged(self, monkeypatch):
        rejected = []
        prefilter = solver._two_square_possible

        def counting(rem):
            ok = prefilter(rem)
            if not ok:
                rejected.append(rem)
            return ok

        def first_solutions():
            out = []
            for quad in NINE_QUADRUPLES:
                for m in self.SCALES:
                    lm = quad.l * m
                    ns = [three_square_below(lm, isqrt(lm) - 1000)]
                    if is_three_square(lm - isqrt(lm) ** 2):
                        ns.append(isqrt(lm))
                    for n in ns:
                        out.append(list(itertools.islice(
                            solver._descent_solutions(m, n, quad, quad.l),
                            300)))
            return out

        monkeypatch.setattr(solver, "_two_square_possible", counting)
        filtered = first_solutions()
        assert rejected
        monkeypatch.setattr(solver, "_two_square_possible", lambda rem: True)
        assert first_solutions() == filtered


class TestTwoSquareTable:
    """The two-square table lists every B >= C >= 0 below its bound, and
    the descent reads from it exactly the splits a scalar B-scan finds."""

    BOUND = solver._TABLE_MAX_REM
    SCALES = (40, 1000, 2000, 10**5 + 3)

    def test_every_pair_listed(self):
        want = {}
        for B in range(isqrt(self.BOUND - 1), -1, -1):
            for C in range(B + 1):
                if B * B + C * C < self.BOUND:
                    want.setdefault(B * B + C * C, []).append((B, C))
        start = solver._TABLE_START
        assert len(start) == self.BOUND + 1
        got = {}
        for r in range(self.BOUND):
            for i in range(start[r], start[r + 1]):
                got.setdefault(r, []).append(
                    (solver._TABLE_B[i], solver._TABLE_C[i]))
        assert got == want
        assert start[self.BOUND] == len(solver._TABLE_B) == len(solver._TABLE_C)
        assert got[0] == [(0, 0)]
        # 2**17 - 1 is 3 mod 4, and 2**17 - 3 is the last r listed.
        assert self.BOUND - 1 not in got
        assert got[self.BOUND - 3] == [(362, 5), (310, 187)]

    @staticmethod
    def cases(m, quad):
        """n values at scale m whose l*m - n**2 is a sum of three squares."""
        lm = quad.l * m
        ns = {three_square_below(lm, k)
              for k in (isqrt(lm), isqrt(lm) - 100, isqrt(lm) - 1000,
                        isqrt(lm) // 2, 3) if k >= 0}
        return sorted(n for n in ns if n >= 0)

    def test_hits_match_scalar(self):
        # A row, after its leading B > A, is every split the descent reads:
        # the scalar scan's over every B-residue.
        start = solver._TABLE_START
        scanned = hit = 0
        for quad in NINE_QUADRUPLES:
            for m in self.SCALES:
                for n in self.cases(m, quad):
                    for A in walk(m, n, quad):
                        rem, bhi, blo, l, _, _ = scan_args(m, n, quad, A)
                        if rem >= self.BOUND:
                            continue
                        row = [(solver._TABLE_B[i], solver._TABLE_C[i])
                               for i in range(start[rem], start[rem + 1])]
                        row = list(itertools.dropwhile(lambda s: s[0] > A, row))
                        scalar = scan_b_scalar(rem, bhi, blo, l, tuple(range(l)))
                        assert row == sorted(scalar, reverse=True)
                        scanned += 1
                        hit += bool(row)
        assert scanned > 6000 and hit > 1000

    def test_enumeration_matches_scans(self, monkeypatch):
        rems = []
        sieve = solver._scan_b_sieve
        monkeypatch.setattr(solver, "_scan_b_sieve",
                            lambda *args: rems.append(args[0]) or sieve(*args))

        def first_solutions():
            return [list(itertools.islice(
                        solver._descent_solutions(m, n, quad, quad.l), 300))
                    for quad in NINE_QUADRUPLES for m in self.SCALES
                    for n in self.cases(m, quad)]

        default = first_solutions()
        assert all(r >= self.BOUND for r in rems)
        rems.clear()
        monkeypatch.setattr(solver, "_TABLE_MAX_REM", 0)
        assert first_solutions() == default
        assert any(r < self.BOUND for r in rems)
        monkeypatch.setattr(solver, "_scan_b_sieve", scalar_sieve)
        assert first_solutions() == default
        # Some rows the descent reads open with a B > A, which it skips.
        start = solver._TABLE_START
        assert any(start[r] < start[r + 1] and solver._TABLE_B[start[r]] > A
                   for quad in NINE_QUADRUPLES for m in self.SCALES
                   for n in self.cases(m, quad) for A in walk(m, n, quad)
                   for r in [quad.l * m - n * n - A * A] if r < self.BOUND)


class TestScanAgainstBruteForce:
    """`scan_b_scalar` and `_scan_b_sieve` over every B-residue list
    exactly the splits that a walk over each B of the window finds; the
    equality tests above carry this to the table."""

    @staticmethod
    def brute_splits(rem, bhi, blo):
        if rem >= 10 ** 8:  # too many roots for a dict: one isqrt per B
            return {(B, isqrt(rem - B * B)) for B in range(blo, bhi + 1)
                    if isqrt(rem - B * B) ** 2 == rem - B * B}
        roots = {C * C: C for C in range(isqrt(rem) + 1)}
        return {(B, roots[rem - B * B]) for B in range(blo, bhi + 1)
                if rem - B * B in roots}

    @staticmethod
    def windows():
        """(rem, bhi, blo), rem >= 2**17, blo as the descent sets it: splits
        on blo (C = B or B - 1), on bhi (bhi = isqrt(rem), or the B of a
        split when A cuts the window, as at 650000 = 700**2 + 400**2 =
        800**2 + 100**2), many splits, and random remainders.  Near 2**52
        and 2**62, on both sides, A cuts the window to under 10**4 B."""
        rng = random.Random(17)
        rems = [2 * 400 ** 2, 2 * 4999 ** 2, 700 ** 2 + 699 ** 2,
                3001 ** 2 + 3000 ** 2, 900 ** 2 + 7 ** 2, 6000 ** 2 + 77 ** 2,
                5 * 13 * 17 * 29 * 37 * 41]
        rems += [rng.randrange(1 << 17, 10 ** 8) for _ in range(40)]
        out = [(rem, isqrt(rem), isqrt((rem - 1) // 2) + 1) for rem in rems]
        out.append((650000, 700, isqrt(649999 // 2) + 1))
        for top in (1 << 52, 1 << 62):
            x = isqrt(top // 2)  # 2*x*x < top < 2*(x+1)**2
            splits = [(x, x), (x + 1, x + 1), (x, x - 1), (x + 1, x),
                      (x + 3000, x - 3000), (x + 9000, x - 8000)]
            cut = []
            for B, C in splits:
                rem = B * B + C * C
                cut.append((rem, B, isqrt((rem - 1) // 2) + 1))
            for _ in range(4):
                rem = rng.randrange(top - (1 << 44), top + (1 << 44))
                blo = isqrt((rem - 1) // 2) + 1
                cut.append((rem, blo + rng.randrange(10 ** 4), blo))
            out += [(rem, max(bhi, blo + 500), blo) for rem, bhi, blo in cut]
        return out

    def test_scalar_matches_brute_force(self):
        on_blo = on_bhi = 0
        for rem, bhi, blo in self.windows():
            assert rem >= solver._TABLE_MAX_REM and bhi - blo < 10 ** 4
            want = self.brute_splits(rem, bhi, blo)
            Bs = {B for B, _ in want}
            on_blo += blo in Bs
            on_bhi += bhi in Bs
            for l in sorted({q.l for q in NINE_QUADRUPLES}):
                splits = scan_b_scalar(rem, bhi, blo, l, tuple(range(l)))
                assert len(splits) == len(want)
                assert set(splits) == want, (rem, bhi, blo, l)
        assert on_blo >= 12 and on_bhi >= 8

    @pytest.mark.filterwarnings("error")
    def test_vector_matches_brute_force(self):
        near_top = above = 0
        for rem, bhi, blo in self.windows():
            near_top += rem > 1 << 50
            above += rem > 1 << 62
            want = sorted(self.brute_splits(rem, bhi, blo), reverse=True)
            for l in sorted({q.l for q in NINE_QUADRUPLES}):
                splits = solver._scan_b_sieve(rem, bhi, blo, l, tuple(range(l)))
                assert splits == want, (rem, bhi, blo, l)
        assert near_top >= 20 and above >= 3


class TestAdmissibleN:
    def test_examples(self):
        assert admissible_n(3, (1, 1, 2, 2), "cubes") == [0, 1]
        assert admissible_n(0, (1, 1, 2, 2), "squares") == [0]
        assert admissible_n(2, (1, 1, 2, 4), "squares") == [0]

    def test_companion_quadruples_rejected(self):
        with pytest.raises(UnsupportedQuadrupleError):
            admissible_n(3, (2, 3, 3, 0), "cubes")

    @staticmethod
    def passes_filter(quad, n, r):
        """The residue filter on r = l*m - n**2, written out per quadruple."""
        if tuple(quad) in ((1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 3, 0),
                           (2, 3, 4, 0)):
            return r % 3 != 1
        if tuple(quad) == (1, 2, 3, 5):
            return r % 5 in (0, 1, 4) or n % 3 != 0
        return r % 5 in (0, 1, 4)

    @given(st.integers(0, 5000), st.sampled_from(list(NINE_QUADRUPLES)),
           st.sampled_from(list(TargetSet)))
    @settings(max_examples=200, deadline=None)
    def test_filter_definition(self, m, quad, ts):
        q = SystemQuadruple(*quad)
        lm = q.l * m
        out = admissible_n(m, quad, ts)
        assert out == sorted(set(out))
        for n in self.members_to(ts, isqrt(lm)):
            r = lm - n * n
            expected = is_three_square(r) and self.passes_filter(q, n, r)
            assert (n in out) == expected, (m, tuple(q), ts, n)

    # The k-th member of each value set, k = 0, 1, ...
    power = {TargetSet.SQUARES: lambda k: k * k,
             TargetSet.CUBES: lambda k: k ** 3,
             TargetSet.POW2: lambda k: 1 << k}

    def members_to(self, ts, hi):
        """The members <= hi, ascending, from the power map."""
        power, out = self.power[ts], []
        while power(len(out)) <= hi:
            out.append(power(len(out)))
        return out

    def bounded_stream(self, m, quad, ts, natural):
        """The candidate stream over the members <= isqrt(l*m): filtered
        values first, then the rest, each ascending (descending if natural)."""
        lm = quad.l * m
        head, tail = [], []
        members = self.members_to(ts, isqrt(lm))
        for n in members[::-1] if natural else members:
            r = lm - n * n
            if is_three_square(r):
                (head if self.passes_filter(quad, n, r) else tail).append(n)
        return head + tail

    def test_candidate_stream_at_root_boundaries(self):
        # The ascending stream takes no root: it stops at the first member
        # n with n**2 > l*m.  Put l*m just below, at and just above each
        # sampled member's square, up to the last one below
        # isqrt(l*INT64_MAX).  A squares list near the top has about 1e5
        # members, so there only the last member and INT64_MAX are taken,
        # for every third quadruple.
        checked = 0
        for i, quad in enumerate(NINE_QUADRUPLES):
            l = quad.l
            for ts, power in self.power.items():
                top = 0
                while power(top + 1) ** 2 <= l * INT64_MAX:
                    top += 1
                ks = set(range(12)) | {round(top ** (j / 8)) for j in range(7)}
                ms = {0}
                if ts is not TargetSet.SQUARES:
                    ks |= {top - 1, top}
                    ms.add(INT64_MAX)
                elif i % 3 == 0:
                    v2 = power(top) ** 2
                    ms |= {(v2 - 1) // l, (v2 + l - 1) // l, INT64_MAX}
                for k in ks:
                    v2 = power(k) ** 2
                    ms |= {(v2 - 1) // l, v2 // l, (v2 + l - 1) // l}
                for m in sorted(x for x in ms if 0 <= x <= INT64_MAX):
                    assert list(solver._candidate_values(m, quad, ts, False)) \
                        == self.bounded_stream(m, quad, ts, False), (quad, ts, m)
                    checked += 1
                    if m < 10**12:
                        assert list(solver._candidate_values(m, quad, ts, True)) \
                            == self.bounded_stream(m, quad, ts, True)
        assert checked > 800

    def test_members(self):
        for ts in TargetSet:
            for hi in itertools.chain(range(-2, 300), (10**9 + 7, 10**10)):
                asc = list(itertools.takewhile(hi.__ge__, ts.members()))
                if hi < 300:
                    assert asc == [n for n in range(hi + 1) if ts.contains(n)]
                else:
                    # Consecutive members, ending at the last one <= hi.
                    k = len(asc) - 1
                    step = self.power[ts]
                    assert asc[:3] + asc[-3:] == \
                        [step(j) for j in (0, 1, 2, k - 2, k - 1, k)]
                    assert asc[-1] <= hi < step(k + 1)


class TestCandidateSet:
    def test_examples(self):
        assert candidate_set(17, "squares") == [0, 1, 2]
        assert candidate_set(7, "pow2") == [0, 1]
        assert candidate_set(7, "cubes") == [1]
        assert candidate_set(-1, "squares") == []

    def test_unknown_set_is_named(self):
        with pytest.raises(ValueError,
                           match=r"'primes' \(expected squares, cubes or pow2\)"):
            TargetSet.parse("primes")

    def test_definitions(self):
        for M in range(0, 2000, 7):
            assert candidate_set(M, "cubes") == [
                n for n in range(M + 1) if n**6 <= M
                and is_three_square(M - n**6)]
            assert candidate_set(M, "squares") == [
                n for n in range(M + 1) if n**4 <= M
                and is_three_square(M - n**4)]
            assert candidate_set(M, "pow2") == [
                k for k in range(M.bit_length() + 1) if 4**k <= M
                and is_three_square(M - 4**k)]

    def test_definitions_at_root_boundaries(self):
        # M at k**6, k**4 and 4**k and one either side, up to INT64_MAX:
        # the walk over members up to isqrt(M) must stop exactly at the
        # last index whose power fits under M.
        powers = {"cubes": lambda k: k ** 6, "squares": lambda k: k ** 4,
                  "pow2": lambda k: 4 ** k}
        for kind, power in powers.items():
            top = 1
            while power(top + 1) - 1 <= INT64_MAX:
                top += 1
            # every small k, a geometric sample, and the last few below 2**63
            ks = set(range(1, 16)) | {top - 2, top - 1, top}
            ks |= {round(top ** (i / 16)) for i in range(17)}
            Ms = {1 << 62, INT64_MAX}
            for k in ks:
                Ms.update(M for M in (power(k) - 1, power(k), power(k) + 1)
                          if M <= INT64_MAX)
            for M in sorted(Ms):
                expected = []
                j = 0
                while power(j) <= M:
                    if is_three_square(M - power(j)):
                        expected.append(j)
                    j += 1
                assert candidate_set(M, kind) == expected, (kind, M)

    def test_cube_candidate_congruence_claims(self):
        # Guaranteed members of C_m, split by the residue of m.
        for m in range(1, 10001):
            cm = set(candidate_set(m, "cubes"))
            top = min(m, iroot(m, 6) + 1)
            evens = [n for n in range(0, top, 2) if n**6 < m]
            odds = [n for n in range(1, top, 2) if n**6 < m]
            if m % 8 in (1, 2, 3, 5, 6):
                assert set(evens) <= cm, m
            if m % 8 in (2, 3, 4, 6, 7):
                assert set(odds) <= cm, m
            if m % 2 == 0 and ord2(m) in (3, 5):
                assert set(evens) <= cm, m
            if m % 2 == 0 and ord2(m) == 4:
                if (m // 16) % 8 in (1, 3, 5):
                    assert {n for n in range(0, top, 4) if n**6 <= m} <= cm, m
                if (m // 16) % 8 in (1, 5, 7):
                    assert {n for n in range(2, top, 4) if n**6 <= m} <= cm, m
            if m % 2 == 0 and ord2(m) == 6:
                if (m // 64) % 8 in (1, 3, 5):
                    assert {n for n in range(0, top, 4) if n**6 <= m} <= cm, m
                # class 5 admits exceptions (m=1856: 1856-64 = 4**4 * 7)
                if (m // 64) % 8 in (3, 7):
                    assert {n for n in range(2, top, 4) if n**6 <= m} <= cm, m

    def test_power_candidate_congruence_claims(self):
        for m in range(1, 10001):
            pm = set(candidate_set(m, "pow2"))
            kmax = 0
            while 4 ** (kmax + 1) <= m:
                kmax += 1
            if m % 4 == 1:
                assert set(range(1, kmax + 1)) <= pm, m
            if m % 4 == 2:
                assert set(range(0, kmax + 1)) <= pm, m
            if m % 8 == 3:
                assert {k for k in range(0, kmax + 1) if k != 1} <= pm, m
            if m % 8 == 7:
                assert {0, 1} <= pm, m
            if m % 4 == 0 and ord2(m) == 2:
                assert 0 in pm, m
                # k=1 needs m/4 = 3 mod 4: classes 1 and 5 mod 8 both admit
                # exceptions (m=452: 452-4 = 4**3 * 7; m=116: 116-4 = 4**2 * 7)
                if (m // 4) % 4 == 3 and kmax >= 1:
                    assert 1 in pm, m
                if (m // 4) % 8 != 7:
                    assert set(range(3, kmax + 1)) <= pm, m

    def test_square_candidate_congruence_claims(self):
        for m in range(1, 10001):
            sm = set(candidate_set(m, "squares"))
            top = min(m, iroot(m, 4) + 1)
            evens = [n for n in range(0, top, 2) if n**4 < m]
            odds = [n for n in range(1, top, 2) if n**4 < m]
            if m % 8 in (1, 2, 3, 5, 6):
                assert set(evens) <= sm, m
            if m % 8 in (2, 3, 4, 6, 7):
                assert set(odds) <= sm, m
            if m % 2 == 0 and ord2(m) == 3:
                assert set(evens) <= sm, m
            if m % 2 == 0 and ord2(m) == 4:
                if (m // 16) % 8 in (1, 3, 5):
                    assert {n for n in range(0, top, 4) if n**4 <= m} <= sm, m
                # unlike the sixth-power case the odd part loses a factor of
                # 4, so only classes 3 and 7 survive (m=464: 464-16 = 4**3 * 7)
                if (m // 16) % 8 in (3, 7):
                    assert {n for n in range(2, top, 4) if n**4 <= m} <= sm, m


class TestSolveRestricted:
    def test_cube_example(self):
        sol = solve_restricted(3, (1, 1, 2, 2), "cubes")
        assert check_solution(3, (1, 1, 2, 2), "cubes", sol)
        assert sol.n == 0

    def test_power_example(self):
        sol = solve_restricted(5, (1, 3, 3, 0), "pow2")
        assert check_solution(5, (1, 3, 3, 0), "pow2", sol)
        assert sol.n == 1

    def test_square_example(self):
        # 0 is admissible and solvable for m=15, so the ascending search
        # stops there; the value 9 is reachable by pinning n.
        sol = solve_restricted(15, (1, 1, 2, 2), "squares")
        assert check_solution(15, (1, 1, 2, 2), "squares", sol)
        assert sol.n == 0
        pinned = solve_restricted(15, (1, 1, 2, 2), "squares", n=9)
        assert check_solution(15, (1, 1, 2, 2), "squares", pinned)
        assert sorted(map(abs, pinned[:4])) == [1, 1, 2, 3]

    def test_zero_with_powers_has_no_solution(self):
        for quad in ((1, 2, 3, 5), (1, 1, 2, 2)):
            with pytest.raises(NoSolutionError):
                solve_restricted(0, quad, "pow2")

    def test_pinned_value_must_be_in_set(self):
        with pytest.raises(ValueError):
            solve_restricted(15, (1, 1, 2, 2), "squares", n=3)
        with pytest.raises(ValueError, match=r"^n\*\*2 = 256 exceeds l\*m = 10$"):
            solve_restricted(1, (1, 1, 2, 2), "squares", n=16)

    def test_filters_are_sufficient_not_necessary(self):
        # No power of two survives the mod-3 filter for m=1 on (2,2,3,0),
        # yet n=2 is reachable; the unfiltered second phase finds it.
        assert admissible_n(1, (2, 2, 3, 0), "pow2") == []
        sol = solve_restricted(1, (2, 2, 3, 0), "pow2")
        assert sol.n == 2
        assert check_solution(1, (2, 2, 3, 0), "pow2", sol)
        # In natural mode the admissible 0 has no natural solution, so the
        # search moves on to the filtered-out value 4.
        assert admissible_n(2, (1, 1, 2, 2), "squares") == [0]
        assert solve_restricted(2, (1, 1, 2, 2), "squares", natural=True) == \
            RestrictedSolution(0, 0, 1, 1, 4)
        # The trace lists admissible values first, then the filtered-out ones.
        assert admissible_n(2, (1, 1, 2, 2), "cubes") == [0]
        with pytest.raises(NoSolutionError) as exc:
            solve_restricted(2, (1, 1, 2, 2), "cubes", natural=True)
        assert exc.value.tried == (0, 1)

    def test_first_admissible_value_always_succeeds(self):
        # The congruence filters are exactly strong enough: whenever the
        # admissible list is non-empty, the search succeeds at its head.
        for m in range(401):
            for quad in NINE_QUADRUPLES:
                for ts in TargetSet:
                    adm = admissible_n(m, quad, ts)
                    if not adm:
                        continue
                    sol = solve_restricted(m, quad, ts)
                    assert sol.n == adm[0], (m, tuple(quad), ts)
                    assert check_solution(m, quad, ts, sol)

    def test_natural_mode_yields_nonnegative_coordinates(self):
        for m in (5, 15, 39, 123, 1000):
            sol = solve_restricted(m, (1, 2, 3, 5), "squares", natural=True)
            assert all(v >= 0 for v in (sol.x, sol.y, sol.z, sol.t))
            assert check_solution(m, (1, 2, 3, 5), "squares", sol)

    def test_same_picks_as_solve_linear_system(self):
        # The search and the public per-n solve share one pick: the search
        # returns the first solution the public solve finds along the
        # candidate stream, and fails with that whole stream as its trace.
        for m in range(301):
            for quad in NINE_QUADRUPLES:
                for ts in TargetSet:
                    for natural in (False, True):
                        stream = list(solver._candidate_values(m, quad, ts,
                                                               natural))
                        first = next(filter(None, (
                            solve_linear_system(m, nv, quad, natural=natural)
                            for nv in stream)), None)
                        try:
                            got = solve_restricted(m, quad, ts, natural=natural)
                        except NoSolutionError as exc:
                            assert first is None and exc.tried == tuple(stream)
                        else:
                            assert got == first, (m, tuple(quad), ts, natural)

    def test_natural_bound_decides_at_once(self):
        # All coefficients positive: a natural solution needs
        # n >= min(quad) * sqrt(m), so n = 64, 32, 16 at m = 1e9 fail
        # without a descent (which took about 20 s in all).
        start = time.monotonic()
        with pytest.raises(NoSolutionError) as exc:
            solve_restricted(10**9, (1, 1, 2, 4), "pow2", natural=True)
        assert time.monotonic() - start < 2.0
        assert exc.value.tried == (64, 32, 16)
        # The bound is tight: n = sqrt(m) is reached by (sqrt(m), 0, 0, 0).
        assert solve_linear_system(9, 2, (1, 1, 2, 4), natural=True) is None
        sol = solve_linear_system(9, 3, (1, 1, 2, 4), natural=True)
        assert sol is not None and sol.n == 3

    def test_natural_box_decides_at_once(self):
        # t has coefficient 0, so the bound above cannot apply; the natural
        # box decides n = 2 and n = 1, where the descent took minutes for
        # the three m together.  The alarm fails the test at 2 s.
        def overrun(signum, frame):
            raise AssertionError("natural solve ran past 2 s")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            for m in (10**9 - 1, 10**9 + 7, 10**12 + 7):
                with pytest.raises(NoSolutionError) as exc:
                    solve_restricted(m, (2, 2, 3, 0), "pow2", natural=True)
                assert exc.value.tried == (2, 1)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    # sha256 of repr(outcomes) for m = scale + i, i < 20, over the 27
    # systems, computed while the descent still scanned every A.
    PINNED_DIGESTS = {
        10**5: "2921c961ca25796dd8962af278cc602c07e2eff4168405b0d1dfdccca783d308",
        10**9: "22aff61acf02bf04a3aea05c9fc545e4afb74b2c3d0dc5e1985c7942c576325f",
        10**12: "e371f341d67d4388a307cc0e3347c4a7849b7137939893ed57cad2b69a87ec75",
    }

    @staticmethod
    def outcome(m, quad, ts, natural=False):
        try:
            return tuple(solve_restricted(m, quad, ts, natural=natural))
        except NoSolutionError as exc:
            return (str(exc), exc.tried)

    def test_outcomes_pinned_at_scale(self):
        # test_matches_reference_enumeration stops at m <= 40; this pins
        # the solutions found at three larger scales.
        outcomes = {
            scale: [self.outcome(scale + i, quad, ts) for i in range(20)
                    for quad in NINE_QUADRUPLES for ts in TargetSet]
            for scale in self.PINNED_DIGESTS
        }
        assert outcomes[10**5][0] == (120, -60, -216, 188, 4)
        assert outcomes[10**9][270] == (10002, -9998, -20001, 19999, 0)
        assert outcomes[10**12][-1] == (320997, -160032, -800519, 480125, 1)
        for scale, digest in self.PINNED_DIGESTS.items():
            got = hashlib.sha256(repr(outcomes[scale]).encode()).hexdigest()
            assert got == digest, scale

    def test_natural_outcomes_pinned(self):
        # Natural solves run the same descent; this pins their solutions
        # and their failures (660 of the 5,400) on m in [1000, 1200).
        outcomes = [self.outcome(m, quad, ts, natural=True)
                    for m in range(1000, 1200)
                    for quad in NINE_QUADRUPLES for ts in TargetSet]
        assert sum(isinstance(o[0], str) for o in outcomes) == 660
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
            "27f608cdd51ac1df1ad4ee6645b3fad1e2d1790a3c96ef4f18139ea48ab4cc1d")

    def test_range_contract(self):
        big = INT64_MAX + 1
        for call in (lambda: solve_linear_system(big, 0, (1, 1, 2, 2)),
                     lambda: solve_restricted(big, (1, 1, 2, 2), "squares"),
                     lambda: admissible_n(big, (1, 1, 2, 2), "cubes"),
                     lambda: candidate_set(big, "cubes"),
                     lambda: check_solution(big, (1, 1, 2, 2), "squares",
                                            RestrictedSolution(0, 0, 0, 0, 0)),
                     lambda: brute_force_oracle(big, (1, 1, 2, 2), "squares"),
                     lambda: reduce_m(2**69, "1.1"),
                     lambda: reduce_m(big, "1.4a")):
            with pytest.raises(ArithmeticRangeError):
                call()
        assert candidate_set(INT64_MAX, "pow2")

    def test_deterministic(self):
        for m in (7, 50, 123):
            a = solve_restricted(m, (1, 1, 2, 4), "squares")
            b = solve_restricted(m, (1, 1, 2, 4), "squares")
            assert a == b


class TestBruteForceOracle:
    def test_unit_norm(self):
        sol = brute_force_oracle(1, (1, 1, 2, 2), "squares")
        assert sol.n == 1
        assert sorted(map(abs, sol[:4])) == [0, 0, 0, 1]

    def test_two_reaches_zero(self):
        sol = brute_force_oracle(2, (1, 1, 2, 2), "squares")
        assert sol == RestrictedSolution(-1, 1, 0, 0, 0)

    def test_zero_with_powers_absent(self):
        assert brute_force_oracle(0, (1, 2, 3, 5), "pow2") is None

    def test_bound_enforced(self):
        with pytest.raises(ResourceLimitError):
            brute_force_oracle(10**6 + 1, (1, 1, 2, 2), "squares")

    def test_imports_only_numpy_and_stdlib(self):
        # The oracle checks the descent, so it must not reach code under test.
        with open(oracle.__file__) as fh:
            tree = ast.parse(fh.read())
        allowed = set(sys.stdlib_module_names) | {"numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in oracle.py"
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, name

    @staticmethod
    def member(n, ts):
        if ts is TargetSet.POW2:
            return n > 0 and n & (n - 1) == 0
        k = 2 if ts is TargetSet.SQUARES else 3
        return n >= 0 and any(r**k == n for r in range(n + 1))

    def test_matches_definition(self):
        # Smallest value in the set, then the lexicographically least tuple,
        # over a plain loop on [-s, s]**4 (product order is lexicographic).
        member = self.member
        for m in range(41):
            s = isqrt(m)
            tuples = [v for v in itertools.product(range(-s, s + 1), repeat=4)
                      if sum(c * c for c in v) == m]
            assert [tuple(r) for r in oracle.norm_tuples(m).tolist()] == tuples
            for quad in NINE_QUADRUPLES:
                for ts in TargetSet:
                    hits = [(n, v) for v in tuples
                            if member(n := sum(a * c for a, c in zip(quad, v)), ts)]
                    want = None
                    if hits:
                        n, v = min(hits)
                        want = RestrictedSolution(*v, n)
                    assert brute_force_oracle(m, quad, ts) == want, \
                        (m, tuple(quad), ts)

    def test_matches_plain_minimum(self):
        # The same rule over the oracle's own rows, at m the benchmark uses.
        for m in (1000, 1387, 1536, 2000):
            rows = [tuple(r) for r in oracle.norm_tuples(m).tolist()]
            for quad in NINE_QUADRUPLES:
                values = [sum(a * c for a, c in zip(quad, v)) for v in rows]
                for ts in TargetSet:
                    in_set = {n for n in set(values) if self.member(n, ts)}
                    hits = [(n, v) for n, v in zip(values, rows) if n in in_set]
                    want = None
                    if hits:
                        n, v = min(hits)
                        want = RestrictedSolution(*v, n)
                    assert brute_force_oracle(m, quad, ts) == want, \
                        (m, tuple(quad), ts)

    def test_row_count_is_jacobi(self):
        # r4(m) = 8 * (sum of the divisors d of m with 4 not dividing d).
        for m in itertools.chain(range(1, 200), range(200, 3001, 37), (2048, 2999)):
            r4 = 8 * sum(d for d in range(1, m + 1) if m % d == 0 and d % 4)
            assert len(oracle.norm_tuples(m)) == r4, m

    def test_agrees_with_solver_on_sample(self):
        for m in range(151):
            for quad in NINE_QUADRUPLES:
                for ts in TargetSet:
                    ref = brute_force_oracle(m, quad, ts)
                    try:
                        sol = solve_restricted(m, quad, ts)
                    except NoSolutionError:
                        sol = None
                    assert (ref is None) == (sol is None), (m, tuple(quad), ts)
                    if sol is not None:
                        assert check_solution(m, quad, ts, sol)
                        assert check_solution(m, quad, ts, ref)

    def test_holds_one_norm_table(self):
        # Callers walk m outermost; near the oracle's bound one table is
        # about 261 MB, so a table for an earlier m must not stay held.
        for m in (1000, 1001):
            brute_force_oracle(m, NINE_QUADRUPLES[0], TargetSet.SQUARES)
        assert oracle.norm_tuples.cache_info().currsize == 1


class TestCheckSolution:
    def test_set_membership_is_required(self):
        sol = RestrictedSolution(1, 1, 2, 4, 22)
        assert not check_solution(22, (1, 1, 2, 4), "squares", sol)
        assert check_solution(22, (1, 1, 2, 4), "cubes",
                              RestrictedSolution(4, -2, 1, 1, 8))

    def test_known_good(self):
        assert check_solution(15, (1, 1, 2, 2), "squares",
                              RestrictedSolution(3, 2, 1, 1, 9))

    def test_wrong_norm(self):
        assert not check_solution(15, (1, 1, 2, 2), "squares",
                                  RestrictedSolution(3, 2, 1, 2, 11))
