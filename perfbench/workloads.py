"""The benchmark's workloads: streams of timed calls into ``foursq``.

A workload is a list of streams.  Each stream makes one kind of public call
(verify one m for one statement, checkpoint-and-resume one block, or
cross-check one m over all 27 systems), times each call and checks its
answer.  ``measure`` runs the stream with the least weighted busy time
next, so every stream gets its share of the time whatever its speed.

Inputs come only from the seed: it picks where each stream's block of m
starts (or, for ``crosscheck``, the order of m).  Library calls go through
module attributes so that tracing and the self-test can replace them.

Timings are adjusted for the machine's speed while they were taken.  On a
shared machine, other tenants slow the same work by 10-100% for seconds to
minutes at a time.  ``Calibrator`` runs a fixed loop, which never changes,
after every CALIBRATE_EVERY seconds of work, so its samples are spread
evenly in time.  Mean work time over mean loop time is steady, and
timings are reported scaled by REFERENCE_LOOP_S over the run's mean loop
time: as on the machine when it was quiet.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import time
from math import isqrt

from foursq import solver, verifier

# resume-2w: one job verifies this many m in chunks of RESUME_CHUNK with
# RESUME_WORKERS processes, then resumes from its finished checkpoint.
RESUME_BLOCK = 1024
RESUME_CHUNK = 16
RESUME_WORKERS = 2

# crosscheck draws m from this window.  Oracle cost grows with m, so the m
# are taken in a seeded random order rather than as one consecutive block:
# every run then averages over the same spread of sizes.
CROSSCHECK_M = range(1000, 2001)

CALIBRATE_EVERY = 0.01
# Mean time of reference_loop() on the baseline machine when quiet.
REFERENCE_LOOP_S = 0.0004


def reference_loop() -> int:
    """Fixed integer work in the style of the descent: roots, residues and
    a dict update per step.  It is deliberately not the package's code, so
    its time tracks the machine and never the program."""
    acc = 0
    seen: dict[int, int] = {}
    big = 10**12 + 39
    for a in range(1200):
        rem = big - a * a * 4099
        r = isqrt(rem)
        c2 = rem - r * r
        acc += c2 % 63 + (c2 & 63)
        seen[a & 127] = seen.get(a & 127, 0) + r % 65
    return acc


class Calibrator:
    """Samples reference_loop() evenly in time during a measurement."""

    def __init__(self):
        self.samples: list[float] = []
        self._work = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def add_work(self, seconds: float) -> None:
        self._work += seconds
        while self._work >= CALIBRATE_EVERY:
            self._work -= CALIBRATE_EVERY
            self.sample()

    def factor(self) -> float:
        """Multiply a time by this to get it at the quiet machine's speed."""
        if not self.samples:
            self.sample()
        return REFERENCE_LOOP_S / statistics.fmean(self.samples)


class Stream:
    """One kind of timed call; counts operations, failures and busy time.

    ``series`` maps a latency series name to its samples in ms.
    """

    def __init__(self, name: str, weight: float = 1.0):
        self.name = name
        self.weight = weight
        self.busy = 0.0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.series: dict[str, list[float]] = {}

    def step(self) -> None:
        raise NotImplementedError

    def rate(self) -> float:
        """Operations per second of busy time."""
        return self.ops / self.busy


class VerifyStream(Stream):
    """``verify_theorem`` over one m at a time, consecutive m, one worker."""

    def __init__(self, theorem: str, start: int, weight: float = 1.0):
        super().__init__(theorem, weight)
        self.ms = itertools.count(start)
        self.series[theorem] = []

    def step(self) -> None:
        m = next(self.ms)
        t0 = time.perf_counter()
        report = verifier.verify_theorem(
            verifier.VerificationJob(self.name, m, m + 1), workers=1)
        self.series[self.name].append((time.perf_counter() - t0) * 1000.0)
        self.ops += 1
        self.attempted += 1
        ok = report["failed"] == 0 and report["verified"] + report["reduced"] == 1
        self.failed += not ok


class ResumeStream(Stream):
    """A checkpointed multi-worker run over one block, then its resume.

    The resume must give the same canonical report bytes as the first run.
    Latency is the job's wall time per m.
    """

    def __init__(self, theorem: str, start: int, checkpoint: str):
        super().__init__(theorem)
        self.starts = itertools.count(start, RESUME_BLOCK)
        self.checkpoint = checkpoint
        self.series[theorem] = []

    def step(self) -> None:
        lo = next(self.starts)
        if os.path.exists(self.checkpoint):
            os.unlink(self.checkpoint)
        job = verifier.VerificationJob(self.name, lo, lo + RESUME_BLOCK,
                                       chunk=RESUME_CHUNK,
                                       checkpoint=self.checkpoint)
        t0 = time.perf_counter()
        first = verifier.verify_theorem(job, workers=RESUME_WORKERS)
        resumed = verifier.verify_theorem(job, workers=RESUME_WORKERS)
        dt = time.perf_counter() - t0
        self.series[self.name].append(dt * 1000.0 / RESUME_BLOCK)
        self.ops += RESUME_BLOCK
        # every m, plus the resume comparison, is one attempted operation
        self.attempted += RESUME_BLOCK + 1
        self.failed += first["failed"] + (
            RESUME_BLOCK - first["verified"] - first["reduced"] - first["failed"])
        same = (verifier.canonical_report_bytes(resumed)
                == verifier.canonical_report_bytes(first))
        self.failed += not same


class CrosscheckStream(Stream):
    """One m against all 27 (quad, set) systems: plain and natural solves,
    each timed on its own, plus the brute-force oracle.

    A triple fails when plain solvability disagrees with the oracle, either
    certificate or a natural certificate is rejected, a natural solution
    exists where the oracle finds none, or a call raises.
    """

    def __init__(self, order: list[int]):
        super().__init__("crosscheck")
        self.ms = itertools.cycle(order)
        self.series["solve"] = []
        self.series["natural"] = []

    def _solve(self, m, quad, ts, natural: bool):
        t0 = time.perf_counter()
        try:
            sol = solver.solve_restricted(m, quad, ts, natural=natural)
        except solver.NoSolutionError:
            sol = None
        ms = (time.perf_counter() - t0) * 1000.0
        self.series["natural" if natural else "solve"].append(ms)
        return sol

    def _check(self, m, quad, ts) -> bool:
        plain = self._solve(m, quad, ts, False)
        natural = self._solve(m, quad, ts, True)
        reference = solver.brute_force_oracle(m, quad, ts)
        if (plain is None) != (reference is None):
            return False
        if plain is not None and not (
                solver.check_solution(m, quad, ts, plain)
                and solver.check_solution(m, quad, ts, reference)):
            return False
        if natural is not None:
            return (reference is not None and min(natural[:4]) >= 0
                    and solver.check_solution(m, quad, ts, natural))
        return True

    def step(self) -> None:
        m = next(self.ms)
        for quad in solver.NINE_QUADRUPLES:
            for ts in solver.TargetSet:
                try:
                    ok = self._check(m, quad, ts)
                except Exception:  # a raise is a failed operation, not a crash
                    ok = False
                self.ops += 1
                self.attempted += 1
                self.failed += not ok


def build(workload: str, seed: int, workdir: str) -> list[Stream]:
    """The streams of one workload, with inputs drawn from the seed."""

    def rng(kind: str) -> random.Random:
        return random.Random(f"{seed}/{workload}/{kind}")

    if workload == "small-m":
        return [VerifyStream(th, 100_000 + rng(th).randrange(50_000))
                for th in ("1.1", "1.2", "1.3")]
    if workload == "large-m":
        streams = [VerifyStream(th, 10**12 + rng(th).randrange(10**9))
                   for th in ("1.1", "1.2", "1.3")]
        # Cost per m varies far more at 1e12 than on the window path, so
        # 1.4a and 1.4b get a quarter of the others' time.
        for th in ("1.4a", "1.4b"):
            start = verifier.WINDOW_BOUNDS[th] + 1 + rng(th).randrange(10**7)
            streams.append(VerifyStream(th, start, weight=0.25))
        return streams
    if workload == "resume-2w":
        return [ResumeStream("1.3", 100_000 + rng("1.3").randrange(50_000),
                             os.path.join(workdir, "resume.ckpt"))]
    if workload == "crosscheck":
        return [CrosscheckStream(rng("m").sample(CROSSCHECK_M, len(CROSSCHECK_M)))]
    raise ValueError(f"unknown workload {workload!r}")


def measure(streams: list[Stream], seconds: float, cal: Calibrator) -> None:
    """Run the streams for `seconds`, least weighted busy time first,
    calibrating as it goes; every stream runs at least once."""
    t0 = time.perf_counter()
    while True:
        stream = min(streams, key=lambda s: s.busy / s.weight)
        s0 = time.perf_counter()
        stream.step()
        dt = time.perf_counter() - s0
        stream.busy += dt
        cal.add_work(dt)
        if (time.perf_counter() - t0 >= seconds
                and all(s.ops for s in streams)):
            return
