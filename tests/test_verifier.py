"""Verification harness: reduction, windowed checks, checkpointing, reports."""

import hashlib
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from math import isqrt

import mpmath
import pytest

import foursq
from foursq import verifier
from foursq.arith import iroot
from foursq.lipschitz import INT64_MAX, ArithmeticRangeError
from foursq.solver import RestrictedSolution, TargetSet
from foursq.verifier import (
    THEOREM_IDS,
    VerificationJob,
    WINDOW_BOUNDS,
    _SimulatedInterrupt,
    canonical_report_bytes,
    check_bounds,
    reduce_m,
    verify_theorem,
    window_constants,
    window_length_ok,
)


class TestReduceM:
    def test_examples(self):
        assert reduce_m(128, "1.1") == 2
        assert reduce_m(48, "1.2") == 3
        assert reduce_m(22, "1.3") == 22

    def test_windowed_statements_do_not_reduce(self):
        assert reduce_m(64, "1.4a") == 64
        assert reduce_m(160, "1.4b") == 160

    def test_repeated_division(self):
        assert reduce_m(64 * 64 * 3, "1.1") == 3
        assert reduce_m(16 * 16 * 5, "1.3") == 5
        assert reduce_m(0, "1.1") == 0

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            reduce_m(1, "2.1")


class TestJobValidation:
    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            VerificationJob("1.1", 10, 5)
        with pytest.raises(ValueError):
            VerificationJob("1.1", -1, 5)
        with pytest.raises(ValueError):
            VerificationJob("1.1", 0, 5, chunk=0)
        # The last m of a range must be within the range contract.
        assert VerificationJob("1.1", INT64_MAX, INT64_MAX + 1).hi == 2**63
        with pytest.raises(ArithmeticRangeError):
            VerificationJob("1.1", INT64_MAX, INT64_MAX + 2)
        with pytest.raises(ArithmeticRangeError):
            VerificationJob("1.4a", 0, 10**30)

    def test_empty_checkpoint_path_rejected(self):
        # An unset shell variable in --checkpoint "$CKPT" gives "", which
        # would otherwise run with no journal at all.
        with pytest.raises(ValueError, match="checkpoint path must not be"):
            VerificationJob("1.1", 0, 5, checkpoint="")


class TestSmallRanges:
    @pytest.mark.parametrize("theorem,lo", [("1.1", 0), ("1.2", 1), ("1.3", 0)])
    def test_no_failures_on_small_range(self, theorem, lo):
        report = verify_theorem(VerificationJob(theorem, lo, 400), workers=1)
        assert report["failed"] == 0
        assert report["failures"] == []
        assert report["verified"] + report["reduced"] + report["failed"] == \
            400 - lo

    def test_report_schema(self):
        report = verify_theorem(VerificationJob("1.3", 0, 64, chunk=16),
                                workers=1)
        assert report["theorem"] == "1.3"
        assert report["range"] == [0, 64]
        assert set(report) == {"theorem", "range", "verified", "reduced",
                               "failed", "failures", "wall_ms", "per_sec"}

    def test_reduced_outcomes_counted(self):
        # multiples of 16 in [0, 64) under the squares statement: 16, 32, 48
        # (0 reduces to itself and verifies directly)
        report = verify_theorem(VerificationJob("1.3", 1, 64), workers=1)
        assert report["reduced"] == 3

    def test_codes_align_with_counts(self):
        report = verify_theorem(VerificationJob("1.1", 0, 100, chunk=7),
                                workers=1, include_codes=True)
        codes = report["codes"]
        assert len(codes) == 100
        assert set(codes) <= {"V", "R", "F"}
        assert codes.count("V") == report["verified"]
        assert codes.count("R") == report["reduced"]
        assert codes.count("F") == report["failed"]

    def test_powers_statement_fails_at_zero(self):
        # m=0 cannot reach a power of two; the harness must say so
        report = verify_theorem(VerificationJob("1.2", 0, 1), workers=1)
        assert report["failed"] == 1
        assert report["failures"][0]["m"] == 0


class TestWindowedStatements:
    def test_sixteen_multiples_are_skipped(self):
        lo = WINDOW_BOUNDS["1.4a"]
        # align on a multiple of 16
        lo -= lo % 16
        report = verify_theorem(VerificationJob("1.4a", lo, lo + 16),
                                workers=1, include_codes=True)
        assert report["codes"][0] == "R"
        assert report["failed"] == 0

    def test_above_bound_verifies(self):
        for theorem in ("1.4a", "1.4b"):
            lo = WINDOW_BOUNDS[theorem]
            report = verify_theorem(VerificationJob(theorem, lo, lo + 24),
                                    workers=1)
            assert report["failed"] == 0, report["failures"]

    def test_certificates_use_windowed_square(self):
        # reproduce the window arithmetic independently for a handful of m
        from foursq.solver import solve_linear_system, check_solution
        quad, lo_mult, hi_mult = (1, 2, 3, 5), 38, 39
        m = WINDOW_BOUNDS["1.4a"] + 1
        found = None
        n = 1
        while n**4 <= hi_mult * m:
            n += 1
        for nn in range(n - 1, 0, -1):
            if nn**4 < lo_mult * m:
                break
            if nn % 3 == 0:
                continue
            sol = solve_linear_system(m, nn * nn, quad, natural=True)
            if sol is not None:
                found = (nn, sol)
                break
        assert found is not None
        nn, sol = found
        assert lo_mult * m <= nn**4 <= hi_mult * m
        assert check_solution(m, quad, "squares", sol)
        assert all(v >= 0 for v in (sol.x, sol.y, sol.z, sol.t))


def _faulty(sol, quad, ts, fault):
    """sol with one fault, the other two properties of a certificate kept:
    a wrong norm, a wrong linear form, or a value outside the set."""
    x, y, z, t, n = sol
    a, b = quad[0], quad[1]
    if fault == "norm":
        # (b, -a, 0, 0) leaves the linear form alone; the norm changes for
        # every k but at most one.
        k = next(k for k in (1, 2) if (x + k * b) ** 2 + (y - k * a) ** 2
                 != x * x + y * y)
        return RestrictedSolution(x + k * b, y - k * a, z, t, n)
    if fault == "form":
        # The next member of the set above n.
        above = {"squares": (isqrt(n) + 1) ** 2, "cubes": (iroot(n, 3) + 1) ** 3,
                 "pow2": 1 << n.bit_length()}[TargetSet.parse(ts).value]
        return RestrictedSolution(x, y, z, t, above)
    # Negating each coordinate that adds to the linear form leaves a
    # negative value, outside every set.
    coords = [-v if c * v > 0 else v for c, v in zip(quad, (x, y, z, t))]
    value = sum(c * v for c, v in zip(quad, coords))
    assert value < 0
    return RestrictedSolution(*coords, value)


class TestRevalidation:
    """A certificate that fails its independent recheck fails its m."""

    @pytest.mark.parametrize("fault", ["norm", "form", "set"])
    @pytest.mark.parametrize("theorem,m", [
        ("1.1", 100_003), ("1.1", 64 * 1_601),
        ("1.2", 100_003), ("1.2", 4 * 25_001),
        ("1.3", 100_003), ("1.3", 16 * 6_257)])
    def test_wrong_certificate_fails_its_m(self, monkeypatch, theorem, m,
                                           fault):
        solve = verifier.solve_restricted
        planted = {}

        def planting(m, quad, target_set, natural=False, n=None):
            sol = _faulty(solve(m, quad, target_set), quad, target_set, fault)
            planted[tuple(quad)] = sol
            return sol

        monkeypatch.setattr(verifier, "solve_restricted", planting)
        report = verify_theorem(VerificationJob(theorem, m, m + 1), workers=1,
                                include_codes=True)
        # Certificates of the reduced m are scaled back up before the check.
        scale = isqrt(m // reduce_m(m, theorem))
        assert report["codes"] == "F"
        assert [(f["m"], tuple(f["quad"]), f["trace"])
                for f in report["failures"]] == [
            (m, quad, "certificate failed revalidation: "
                      f"{tuple(v * scale for v in sol)}")
            for quad, sol in planted.items()]

    @pytest.mark.parametrize("fault", ["norm", "form", "set"])
    def test_wrong_window_certificate_fails_its_m(self, monkeypatch, fault):
        solve = verifier.solve_linear_system
        planted = []

        def planting(m, n, quad, natural=False):
            sol = solve(m, n, quad, natural=natural)
            if sol is not None:
                sol = _faulty(sol, quad, "squares", fault)
                planted.append(sol)
            return sol

        monkeypatch.setattr(verifier, "solve_linear_system", planting)
        m = WINDOW_BOUNDS["1.4a"] + 1
        report = verify_theorem(VerificationJob("1.4a", m, m + 1), workers=1,
                                include_codes=True)
        assert report["codes"] == "F" and len(planted) == 1
        assert report["failures"] == [
            {"m": m, "quad": [1, 2, 3, 5],
             "trace": f"certificate failed revalidation: {tuple(planted[0])}"}]


class TestBounds:
    def test_check_bounds(self):
        assert check_bounds() is True

    def test_window_constants_facts(self):
        facts = window_constants()
        assert set(facts) == {"1.4a", "1.4b"}
        for fact in facts.values():
            assert fact["constant_below_threshold"]
            assert fact["window_ok_at_threshold"]
        assert facts["1.4a"]["threshold"] == 3_740_000_000
        assert facts["1.4b"]["threshold"] == 7_680_000_000
        # rigorous upper bounds sit just under the thresholds
        assert 3.739e9 < facts["1.4a"]["constant_upper"] < 3.74e9
        assert 7.678e9 < facts["1.4b"]["constant_upper"] < 7.68e9

    def test_theorem_without_window_rejected(self):
        with pytest.raises(ValueError, match="no window"):
            window_length_ok(10**10, "1.1")

    def test_window_too_short_below_bound(self):
        assert window_length_ok(10**3, "1.4a") is False
        assert window_length_ok(10**3, "1.4b") is False

    def test_window_long_enough_at_bound(self):
        assert window_length_ok(WINDOW_BOUNDS["1.4a"], "1.4a") is True
        assert window_length_ok(WINDOW_BOUNDS["1.4b"], "1.4b") is True

    @pytest.mark.parametrize("theorem,hi,lo,need", [("1.4a", 39, 38, 4),
                                                    ("1.4b", 29, 28, 6)])
    def test_window_agrees_with_interval_arithmetic(self, theorem, hi, lo,
                                                    need):
        # The certificate used to be 200-bit interval arithmetic; recompute
        # that formula here and demand the same verdict near the governing
        # constant (where the length is within ~5e-7 of need), at the edges
        # and on random m.
        saved = mpmath.iv.prec
        mpmath.iv.prec = 200
        try:
            def root4(x):
                return mpmath.iv.sqrt(mpmath.iv.sqrt(mpmath.iv.mpf(x)))

            def interval_ok(m):
                return bool((root4(hi * m) - root4(lo * m)).a >= need)

            with mpmath.workdps(50):
                c = int(mpmath.ceil(
                    (need / (mpmath.root(hi, 4) - mpmath.root(lo, 4))) ** 4))
            rng = random.Random(2020)
            ms = (list(range(c - 2000, c + 2001))
                  + [0, 1, 10**3, *WINDOW_BOUNDS.values(), 10**40]
                  + [rng.randrange(10**15) for _ in range(500)])
            got = [window_length_ok(m, theorem) for m in ms]
            want = [interval_ok(m) for m in ms]
        finally:
            mpmath.iv.prec = saved
        assert got == want
        assert got[1999:2001] == [False, True]   # at c - 1 and c

    def test_runtime_does_not_import_mpmath(self):
        src = os.path.dirname(os.path.dirname(foursq.__file__))
        code = ("import sys; sys.modules['mpmath'] = None; "
                "from foursq.cli import main; "
                "raise SystemExit(main(['bounds']) or main(["
                "'verify', '--theorem', '1.4b', '--lo', '7680000000', "
                "'--hi', '7680000020', '--workers', '1']))")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "bounds hold" in proc.stdout


class TestDeterminism:
    def test_reports_identical_across_workers_and_chunks(self):
        blobs = set()
        for workers in (1, 4):
            for chunk in (1, 64):
                report = verify_theorem(
                    VerificationJob("1.3", 0, 150, chunk=chunk),
                    workers=workers)
                blobs.add(canonical_report_bytes(report))
        assert len(blobs) == 1

    def test_canonical_bytes_drop_timing(self):
        r1 = verify_theorem(VerificationJob("1.1", 0, 40), workers=1)
        r2 = verify_theorem(VerificationJob("1.1", 0, 40), workers=1)
        assert canonical_report_bytes(r1) == canonical_report_bytes(r2)
        parsed = json.loads(canonical_report_bytes(r1))
        assert "wall_ms" not in parsed and "per_sec" not in parsed

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("FOURSQ_THREADS", "1")
        report = verify_theorem(VerificationJob("1.3", 0, 40))
        assert report["failed"] == 0


def _chunk_reporting_sigint(theorem, start, end):
    """Stands in for `_run_chunk`: V where SIGINT is ignored, else F."""
    ignored = signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    return {"codes": ("V" if ignored else "F") * (end - start),
            "failures": []}


class TestPoolSize:
    def test_pool_workers_leave_ctrl_c_to_the_parent(self, monkeypatch,
                                                      fork_pool):
        # Ctrl-C reaches every process of the group; an idle worker that
        # took it would print a KeyboardInterrupt traceback.
        monkeypatch.setattr(verifier, "_run_chunk", _chunk_reporting_sigint)
        job = VerificationJob("1.3", 0, 32, chunk=16)
        assert verify_theorem(job, workers=2)["verified"] == 32

    @staticmethod
    def pool_sizes(monkeypatch, job, cpus, bound):
        """Run job with 500 workers on `cpus` CPUs; the sizes of its pools.

        The pool forks all of its workers at the first submit, so its
        size is checked before the real pool exists: a size above bound
        starts no process.  The report must equal the serial one.
        """
        sizes = []

        class CheckedPool(verifier.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                assert max_workers <= bound
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(verifier, "ProcessPoolExecutor", CheckedPool)
        report = verify_theorem(job, workers=500, include_codes=True)
        serial = verify_theorem(job, workers=1, include_codes=True)
        assert report["codes"] == serial["codes"]
        assert canonical_report_bytes(report) == canonical_report_bytes(serial)
        return sizes

    def test_pool_never_larger_than_pending_chunks(self, monkeypatch):
        job = VerificationJob("1.1", 0, 32, chunk=16)
        assert self.pool_sizes(monkeypatch, job, cpus=4, bound=2) == [2]

    def test_pool_never_larger_than_the_cpu_count(self, monkeypatch):
        # 64 one-m chunks would otherwise fork 64 processes.
        job = VerificationJob("1.1", 0, 64, chunk=1)
        assert self.pool_sizes(monkeypatch, job, cpus=3, bound=3) == [3]

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_reports_equal_under_every_start_method(self, monkeypatch,
                                                     method):
        # Workers that do not fork import the package afresh and build
        # their own tables; the report must not change.
        contexts = []

        class ContextPool(verifier.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                contexts.append(multiprocessing.get_context(method))
                super().__init__(*args, mp_context=contexts[-1], **kwargs)

        monkeypatch.setattr(verifier, "ProcessPoolExecutor", ContextPool)
        job = VerificationJob("1.1", 10**12, 10**12 + 64, chunk=8)
        report = verify_theorem(job, workers=2, include_codes=True)
        assert len(contexts) == 1
        serial = verify_theorem(job, workers=1, include_codes=True)
        assert report["codes"] == serial["codes"]
        assert canonical_report_bytes(report) == canonical_report_bytes(serial)

    def test_at_most_two_tasks_per_worker_in_flight(self, monkeypatch):
        # Each future costs the parent memory, so tasks are submitted as
        # earlier ones finish rather than all at once.
        in_flight = []

        class CountingPool(verifier.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                self.futures = []
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                fut = super().submit(*args, **kwargs)
                self.futures.append(fut)
                in_flight.append(sum(not f.done() for f in self.futures))
                return fut

        monkeypatch.setattr(verifier, "ProcessPoolExecutor", CountingPool)
        job = VerificationJob("1.3", 0, 4096, chunk=256)
        report = verify_theorem(job, workers=2, include_codes=True)
        assert len(in_flight) == 16 and max(in_flight) <= 4
        serial = verify_theorem(job, workers=1, include_codes=True)
        assert report["codes"] == serial["codes"]
        assert canonical_report_bytes(report) == canonical_report_bytes(serial)


def _all_verified(theorem, start, end):
    """Stands in for `_run_chunk`: every m verified, at no solving cost."""
    return {"codes": "V" * (end - start), "failures": []}


def _all_failed(theorem, start, end):
    """Stands in for `_run_chunk`: every m fails, each with one failure,
    and like `_run_chunk` a chunk lists at most _FAILURE_CAP of them."""
    return {"codes": "F" * (end - start),
            "failures": [{"m": m, "quad": [1, 1, 2, 2], "trace": "stub"}
                         for m in range(start, end)][:verifier._FAILURE_CAP]}


def _three_failures_per_m(theorem, start, end):
    """Stands in for `_run_chunk`: every m fails on three quadruples."""
    return {"codes": "F" * (end - start),
            "failures": [{"m": m, "quad": q, "trace": "stub"}
                         for m in range(start, end)
                         for q in ([1, 1, 2, 2], [1, 2, 2, 2], [2, 2, 3, 0])
                         ][:verifier._FAILURE_CAP]}


class TestParentMemory:
    """The parent holds running counts and the first _FAILURE_CAP
    failures, not the per-m codes, unless CSV output asks for them."""

    @staticmethod
    def peak(job, workers=1, **kwargs):
        tracemalloc.start()
        try:
            report = verify_theorem(job, workers=workers, **kwargs)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_stays_flat_as_the_range_grows(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verifier, "_run_chunk", _all_verified)
        peaks = {}
        for hi in (10**5, 10**6):
            job = VerificationJob("1.3", 0, hi, chunk=2**14,
                                  checkpoint=str(tmp_path / f"{hi}.jsonl"))
            fresh, fresh_peak = self.peak(job)
            # The second run resumes from the complete journal.
            resumed, resumed_peak = self.peak(job)
            assert fresh["verified"] == resumed["verified"] == hi
            peaks[hi] = fresh_peak, resumed_peak
        # Holding the codes costs 1 byte per m, 900 kB more at 10**6 m.
        for small, big in zip(peaks[10**5], peaks[10**6]):
            assert big - small < 64_000, peaks
        report, csv_peak = self.peak(VerificationJob("1.3", 0, 10**6,
                                                     chunk=2**14),
                                     include_codes=True)
        assert report["codes"] == "V" * 10**6 and csv_peak > 10**6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pending_chunks_are_not_listed(self, monkeypatch, workers,
                                          fork_pool):
        # At chunk 1, a list of every pending chunk (or of every pool task)
        # costs about 40 bytes per m: 2 MB more at 6*10**4 m than at 10**4.
        monkeypatch.setattr(verifier, "_run_chunk", _all_verified)
        peaks = []
        for hi in (10**4, 6 * 10**4):
            report, peak = self.peak(VerificationJob("1.3", 0, hi, chunk=1),
                                     workers=workers)
            assert report["verified"] == hi
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 500_000, peaks

    def test_failures_held_only_while_reportable(self, monkeypatch, tmp_path):
        # Every m fails; only the first _FAILURE_CAP failures by m can be
        # reported, so the failures of later chunks must not be kept,
        # whether they are computed or read back from a journal.
        monkeypatch.setattr(verifier, "_run_chunk", _all_failed)
        peaks = []
        for hi in (2 * 10**4, 8 * 10**4):
            job = VerificationJob("1.1", 0, hi, chunk=1024,
                                  checkpoint=str(tmp_path / f"{hi}.jsonl"))
            fresh, fresh_peak = self.peak(job)
            resumed, resumed_peak = self.peak(job)
            assert canonical_report_bytes(fresh) == \
                canonical_report_bytes(resumed)
            assert fresh["failed"] == hi
            assert [f["m"] for f in fresh["failures"]] == list(range(100))
            peaks.append((fresh_peak, resumed_peak))
        for small, big in zip(*peaks):
            assert big - small < 500_000, peaks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failures_in_m_order(self, monkeypatch, workers,
                                      fork_pool):
        # Pool tasks finish out of order; the failures reported must still
        # be the first _FAILURE_CAP by m.
        monkeypatch.setattr(verifier, "_run_chunk", _all_failed)
        job = VerificationJob("1.1", 0, 1000, chunk=8)
        report = verify_theorem(job, workers=workers)
        assert report["failed"] == 1000
        assert [f["m"] for f in report["failures"]] == list(range(100))

    def test_cap_falls_inside_one_m(self, monkeypatch, fork_pool):
        # Three failures per m: the 100th is the first of m = 33, so the
        # report must cut inside that m and keep (m, quad) order.
        monkeypatch.setattr(verifier, "_run_chunk", _three_failures_per_m)
        report = verify_theorem(VerificationJob("1.1", 0, 200, chunk=8),
                                workers=2)
        want = _three_failures_per_m("1.1", 0, 200)["failures"][:100]
        assert report["failures"] == want
        assert (report["failures"][-1]["m"],
                report["failures"][-1]["quad"]) == (33, [1, 1, 2, 2])

    def test_real_failures_past_the_cap(self, tmp_path):
        # 1.4b below its threshold: 187 of 200 m fail, 100 are reported,
        # the same for every worker count, chunk size and resume.
        blobs = set()
        for workers in (1, 2):
            for chunk in (1, 16):
                report = verify_theorem(
                    VerificationJob("1.4b", 10**4, 10**4 + 200, chunk=chunk),
                    workers=workers)
                blobs.add(canonical_report_bytes(report))
        job = VerificationJob("1.4b", 10**4, 10**4 + 200, chunk=16,
                              checkpoint=str(tmp_path / "ck.jsonl"))
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=2, _stop_after_chunks=3)
        report = verify_theorem(job, workers=2)
        blobs.add(canonical_report_bytes(report))
        assert len(blobs) == 1
        assert report["failed"] == 187 and len(report["failures"]) == 100
        ms = [f["m"] for f in report["failures"]]
        assert ms == sorted(ms) and len(set(ms)) == 100


class TestCheckpointing:
    def test_interrupt_leaves_resumable_state(self, tmp_path):
        cp = str(tmp_path / "ckpt.json")
        job = VerificationJob("1.1", 0, 120, chunk=16, checkpoint=cp)
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=3)
        header, *recs = _journal(cp)
        assert set(json.loads(header)) == {"job", "sha256"}
        assert sorted(json.loads(line)["chunk"] for line in recs) == [0, 1, 2]
        resumed = verify_theorem(job, workers=1)
        fresh = verify_theorem(VerificationJob("1.1", 0, 120, chunk=16),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)

    def test_parallel_interrupt_and_resume(self, tmp_path):
        cp = str(tmp_path / "ckpt.json")
        job = VerificationJob("1.3", 0, 300, chunk=32, checkpoint=cp)
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=4, _stop_after_chunks=2)
        resumed = verify_theorem(job, workers=4)
        fresh = verify_theorem(VerificationJob("1.3", 0, 300, chunk=32),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        cp = str(tmp_path / "ckpt.json")
        job = VerificationJob("1.1", 0, 60, chunk=16, checkpoint=cp)
        first = verify_theorem(job, workers=1)
        # a second run must not recompute anything: even a stop-after-zero
        # hook never fires because no chunk is pending
        second = verify_theorem(job, workers=1, _stop_after_chunks=1)
        assert canonical_report_bytes(first) == canonical_report_bytes(second)

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        cp = tmp_path / "ckpt.json"
        job = VerificationJob("1.1", 0, 60, chunk=16, checkpoint=str(cp))
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=1)
        header, line = _journal(cp)
        data = json.loads(line)
        codes = data["rec"]["codes"]
        data["rec"]["codes"] = ("R" if codes[0] == "V" else "V") + codes[1:]
        cp.write_text(header + "\n" + json.dumps(data) + "\n")
        with pytest.raises(ValueError, match="integrity"):
            verify_theorem(job, workers=1)

    def test_journal_with_count_fields_resumes(self, tmp_path):
        # Journals written before records dropped their verified, reduced
        # and failed counts still resume: the counts are covered by the
        # digests and then ignored in favour of the codes.
        cp = tmp_path / "ckpt.json"
        job = VerificationJob("1.1", 0, 120, chunk=16, checkpoint=str(cp))
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=3)
        header, *recs = _journal(cp)
        key = verifier._job_key(job)
        lines = [header]
        for line in map(json.loads, recs):
            rec = line["rec"]
            rec.update(verified=rec["codes"].count("V"),
                       reduced=rec["codes"].count("R"),
                       failed=rec["codes"].count("F"))
            line["sha256"] = verifier._digest(
                {"job": key, "chunk": line["chunk"], "rec": rec})
            lines.append(json.dumps(line))
        cp.write_text("".join(line + "\n" for line in lines))
        assert len(verifier._load_checkpoint(str(cp), job)) == 3
        resumed = verify_theorem(job, workers=1)
        fresh = verify_theorem(VerificationJob("1.1", 0, 120, chunk=16),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)

    def test_pinned_journal_format_resumes(self, tmp_path):
        # Lines written by an earlier build, byte for byte: the job key
        # (with its "quads" field) and each digest must not change, or
        # existing journals would no longer resume.
        cp = tmp_path / "ckpt.json"
        cp.write_text(
            '{"job":{"theorem":"1.1","lo":0,"hi":48,"chunk":16,"quads":null},'
            '"sha256":"52be31d9af6c83ae535c50de50832b88'
            '90baa0f2176aafc6f53a55209021372d"}\n'
            '{"chunk":0,"rec":{"codes":"VVVVVVVVVVVVVVVV","failures":[]},'
            '"sha256":"63fae1f422884537ad93f82728a5f6f4'
            '573659c7521d88456db44569c2355fb3"}\n')
        pinned = _journal(cp)
        job = VerificationJob("1.1", 0, 48, chunk=16, checkpoint=str(cp))
        assert list(verifier._load_checkpoint(str(cp), job)) == [0]
        resumed = verify_theorem(job, workers=1)
        fresh = verify_theorem(VerificationJob("1.1", 0, 48, chunk=16),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)
        assert _journal(cp)[:2] == pinned and len(_journal(cp)) == 1 + 3

    @pytest.mark.parametrize("content", ["[]", '"x"', "3"])
    def test_non_object_checkpoint_rejected(self, tmp_path, content):
        cp = tmp_path / "ckpt.json"
        cp.write_text(content)
        job = VerificationJob("1.1", 0, 40, chunk=16, checkpoint=str(cp))
        with pytest.raises(ValueError, match="integrity"):
            verify_theorem(job, workers=1)

    def test_checkpoint_for_different_job_rejected(self, tmp_path):
        cp = str(tmp_path / "ckpt.json")
        job = VerificationJob("1.1", 0, 60, chunk=16, checkpoint=cp)
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=1)
        other = VerificationJob("1.1", 0, 80, chunk=16, checkpoint=cp)
        with pytest.raises(ValueError, match="does not match"):
            verify_theorem(other, workers=1)

    def test_torn_last_line_is_redone(self, tmp_path):
        # 3 finished chunks, then a crash halfway through the 4th record
        cp = tmp_path / "ckpt.json"
        job = VerificationJob("1.1", 0, 120, chunk=16, checkpoint=str(cp))
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=4)
        *lines, last = _journal(cp)
        cp.write_text("".join(line + "\n" for line in lines)
                      + last[: len(last) // 2])
        assert len(verifier._load_checkpoint(str(cp), job)) == 3
        resumed = verify_theorem(job, workers=1)
        fresh = verify_theorem(VerificationJob("1.1", 0, 120, chunk=16),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)
        assert len(_journal(cp)) == 1 + 8
        assert sorted(verifier._load_checkpoint(str(cp), job)) == list(range(8))

    @pytest.mark.parametrize("cut", ["first-byte", "middle", "before-newline"])
    def test_torn_header_starts_fresh(self, tmp_path, cut):
        # the first save (header plus the first record) cut inside the header
        cp = tmp_path / "ckpt.json"
        job = VerificationJob("1.1", 0, 120, chunk=16, checkpoint=str(cp))
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=1)
        header = _journal(cp)[0]
        keep = {"first-byte": 1, "middle": len(header) // 2,
                "before-newline": len(header)}[cut]
        cp.write_text(header[:keep])
        resumed = verify_theorem(job, workers=1)
        fresh = verify_theorem(VerificationJob("1.1", 0, 120, chunk=16),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)
        assert _journal(cp)[0] == header and len(_journal(cp)) == 1 + 8

    @pytest.mark.parametrize("text", [
        '{"job":{"theorem":"1.2","lo":0,"hi":120,"chunk":16,"quads":null}',
        '{"job"x',
        "not a journal",
        "single-json",
    ], ids=["other-job", "garbled", "text", "single-json"])
    def test_torn_foreign_header_is_kept(self, tmp_path, text):
        cp = tmp_path / "ckpt.json"
        job = VerificationJob("1.1", 0, 120, chunk=16, checkpoint=str(cp))
        if text == "single-json":
            # the pre-journal format: one object holding the job key and
            # "chunks", under one digest, with no newline
            data = dict(verifier._job_key(job))
            data["chunks"] = {"0": verifier._run_chunk("1.1", 0, 16)}
            blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
            data["sha256"] = hashlib.sha256(blob.encode()).hexdigest()
            text = json.dumps(data)
        cp.write_text(text)
        with pytest.raises(ValueError, match="integrity"):
            verify_theorem(job, workers=1)
        assert cp.read_text() == text

    @pytest.mark.parametrize("where", [0, 2, 3], ids=["header", "middle",
                                                      "last"])
    @pytest.mark.parametrize("damage", [
        lambda line: line[:-3] + ("1" if line[-3] == "0" else "0") + '"}',
        lambda line: line[: len(line) // 2],
        lambda line: "",
    ], ids=["digest", "truncated", "blank"])
    def test_corrupt_complete_line_rejected(self, tmp_path, where, damage):
        cp = tmp_path / "ckpt.json"
        job = VerificationJob("1.1", 0, 120, chunk=16, checkpoint=str(cp))
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=3)
        lines = _journal(cp)
        lines[where] = damage(lines[where])
        cp.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match="integrity"):
            verify_theorem(job, workers=1)

    def test_complete_header_only_journal_resumes(self, tmp_path):
        # A crash after the first save's header line reached the disk and
        # before its record did: the run goes on below the header, and
        # the journal ends as a fresh run's does.
        cp, fresh_cp = tmp_path / "ckpt.jsonl", tmp_path / "fresh.jsonl"
        verify_theorem(VerificationJob("1.3", 0, 64, chunk=16,
                                       checkpoint=str(fresh_cp)), workers=1)
        cp.write_text(_journal(fresh_cp)[0] + "\n")
        job = VerificationJob("1.3", 0, 64, chunk=16, checkpoint=str(cp))
        report = verify_theorem(job, workers=1)
        assert (report["verified"], report["reduced"], report["failed"]) == \
            (61, 3, 0)
        assert cp.read_bytes() == fresh_cp.read_bytes()

    @pytest.mark.parametrize("shape", ["header-only", "null-job"])
    def test_complete_foreign_header_rejected(self, tmp_path, shape):
        # The first line is the header by its position, whatever job it
        # names: another job's, alone, or JSON null over a record whose
        # digest is valid under it.
        cp = tmp_path / "ckpt.jsonl"
        job = VerificationJob("1.1", 0, 60, chunk=16, checkpoint=str(cp))
        if shape == "header-only":
            key = verifier._job_key(VerificationJob("1.1", 0, 80, chunk=16))
            lines = [{"job": key, "sha256": verifier._digest(key)}]
        else:
            rec = verifier._run_chunk("1.1", 0, 16)
            lines = [{"job": None, "sha256": verifier._digest(None)},
                     {"chunk": 0, "rec": rec, "sha256": verifier._digest(
                         {"job": None, "chunk": 0, "rec": rec})}]
        text = "".join(json.dumps(line) + "\n" for line in lines)
        cp.write_text(text)
        with pytest.raises(ValueError, match="does not match this job"):
            verify_theorem(job, workers=1)
        assert cp.read_text() == text

    def test_repeated_chunk_line_absorbed_once(self, tmp_path):
        cp = tmp_path / "ckpt.jsonl"
        job = VerificationJob("1.1", 0, 120, chunk=16, checkpoint=str(cp))
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=3)
        lines = _journal(cp)
        cp.write_text("".join(line + "\n" for line in lines + [lines[2]]))
        absorbed = []
        done = verifier._load_checkpoint(
            str(cp), job, lambda i, rec: absorbed.append(i))
        assert sorted(done) == sorted(absorbed) == [0, 1, 2]
        resumed = verify_theorem(job, workers=1)
        fresh = verify_theorem(VerificationJob("1.1", 0, 120, chunk=16),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)

    def test_record_spliced_from_another_job_rejected(self, tmp_path):
        cp = tmp_path / "ckpt.json"
        job = VerificationJob("1.1", 0, 120, chunk=16, checkpoint=str(cp))
        with pytest.raises(_SimulatedInterrupt):
            verify_theorem(job, workers=1, _stop_after_chunks=3)
        # chunk 3 covers m in [48, 64) in both jobs, so only the job key
        # in its digest tells the spliced record apart
        donor = tmp_path / "donor.json"
        verify_theorem(VerificationJob("1.1", 0, 80, chunk=16,
                                       checkpoint=str(donor)), workers=1)
        spliced = [line for line in _journal(donor)[1:]
                   if json.loads(line)["chunk"] == 3]
        with open(cp, "a") as fh:
            fh.write(spliced[0] + "\n")
        with pytest.raises(ValueError, match="integrity"):
            verify_theorem(job, workers=1)

    def test_each_save_appends_one_line(self, tmp_path, monkeypatch):
        cp = tmp_path / "ckpt.json"
        job = VerificationJob("1.3", 0, 160, chunk=16, checkpoint=str(cp))
        save = verifier._save_checkpoint
        growth = []

        def checked_save(path, job, done):
            before = cp.read_bytes() if cp.exists() else b""
            save(path, job, done)
            after = cp.read_bytes()
            assert after.startswith(before)
            growth.append(after[len(before):].count(b"\n"))
            assert len(_journal(cp)) == len(growth) + 1

        monkeypatch.setattr(verifier, "_save_checkpoint", checked_save)
        verify_theorem(job, workers=1)
        assert growth == [2] + [1] * 9

    @pytest.mark.parametrize("hi, chunk, saves", [(1024, 16, 4),
                                                   (2048, 256, 8)])
    def test_pool_task_is_one_save(self, tmp_path, monkeypatch, hi, chunk,
                                   saves):
        # With 2 workers, 16-m chunks run 16 to a task and 256-m chunks one
        # to a task; each task's records are appended by one save.
        save = verifier._save_checkpoint
        sizes = []

        def counted_save(path, job, done):
            sizes.append(len(done))
            save(path, job, done)

        monkeypatch.setattr(verifier, "_save_checkpoint", counted_save)
        pooled, serial = tmp_path / "w2.jsonl", tmp_path / "w1.jsonl"
        verify_theorem(VerificationJob("1.3", 0, hi, chunk=chunk,
                                       checkpoint=str(pooled)), workers=2)
        assert len(sizes) == saves and sum(sizes) == hi // chunk
        assert len(_journal(pooled)) == 1 + hi // chunk
        verify_theorem(VerificationJob("1.3", 0, hi, chunk=chunk,
                                       checkpoint=str(serial)), workers=1)
        assert _journal(pooled)[0] == _journal(serial)[0]
        assert set(_journal(pooled)) == set(_journal(serial))
        fresh = verify_theorem(VerificationJob("1.3", 0, hi, chunk=chunk),
                               workers=1)
        for path in (pooled, serial):
            job = VerificationJob("1.3", 0, hi, chunk=chunk,
                                  checkpoint=str(path))
            resumed = verify_theorem(job, workers=2)
            assert (canonical_report_bytes(resumed)
                    == canonical_report_bytes(fresh))

    def test_pool_resume_with_gaps(self, tmp_path):
        # Finished chunks scattered through the range: each pool task runs
        # only pending chunks, and every chunk is journalled exactly once.
        cp = tmp_path / "ckpt.jsonl"
        job = VerificationJob("1.3", 0, 400, chunk=16, checkpoint=str(cp))
        verifier._save_checkpoint(str(cp), job, {
            i: verifier._run_chunk("1.3", 16 * i, 16 * i + 16)
            for i in (0, 3, 4, 9)})
        resumed = verify_theorem(job, workers=2, include_codes=True)
        fresh = verify_theorem(VerificationJob("1.3", 0, 400, chunk=16),
                               workers=1, include_codes=True)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)
        assert resumed["codes"] == fresh["codes"]
        chunks = [json.loads(line)["chunk"] for line in _journal(cp)[1:]]
        assert sorted(chunks) == list(range(25))

    def test_resume_after_sigkill(self, tmp_path):
        # A real crash: the CLI process is killed (no cleanup runs) once
        # its journal holds 3 records, then the run is resumed.
        cp = tmp_path / "ckpt.json"
        src = os.path.dirname(os.path.dirname(foursq.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "foursq.cli", "verify", "--theorem", "1.3",
             "--lo", "0", "--hi", "3000", "--chunk", "16", "--workers", "1",
             "--checkpoint", str(cp)],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not (cp.exists() and cp.read_bytes().count(b"\n") >= 4):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL
        assert len(cp.read_bytes().splitlines()) < 1 + 188
        job = VerificationJob("1.3", 0, 3000, chunk=16, checkpoint=str(cp))
        resumed = verify_theorem(job, workers=1)
        fresh = verify_theorem(VerificationJob("1.3", 0, 3000, chunk=16),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)
        assert len(_journal(cp)) == 1 + 188


    @pytest.mark.parametrize("workers", [1, 2])
    def test_ctrl_c_names_the_checkpoint(self, tmp_path, workers):
        # SIGINT to the whole process group, as Ctrl-C in a terminal sends
        # it: one line on stderr, exit 130, and a journal that resumes.
        cp = tmp_path / "ckpt.jsonl"
        src = os.path.dirname(os.path.dirname(foursq.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "foursq.cli", "verify", "--theorem", "1.3",
             "--lo", "0", "--hi", "3000", "--chunk", "16",
             "--workers", str(workers), "--checkpoint", str(cp)],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
            # a shell starts background jobs with SIGINT ignored
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 60
            while not (cp.exists() and cp.read_bytes().count(b"\n") >= 4):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=60)
        assert proc.returncode == 130
        assert err.decode() == (f"interrupted; run the same command with "
                                f"--checkpoint {cp} to resume\n")
        job = VerificationJob("1.3", 0, 3000, chunk=16, checkpoint=str(cp))
        resumed = verify_theorem(job, workers=1)
        fresh = verify_theorem(VerificationJob("1.3", 0, 3000, chunk=16),
                               workers=1)
        assert canonical_report_bytes(resumed) == canonical_report_bytes(fresh)
        assert len(_journal(cp)) == 1 + 188


def _journal(path) -> list[str]:
    """The lines of a checkpoint journal, which must all be complete."""
    with open(path) as fh:
        text = fh.read()
    assert text.endswith("\n")
    return text.splitlines()


def test_theorem_id_inventory():
    assert THEOREM_IDS == ("1.1", "1.2", "1.3", "1.4a", "1.4b")
