"""Range verification of the solvability statements, with reduction rules.

For each m in a range, the appropriate reduction is applied (dividing out
64, 4 or 16 while possible), the restricted system is solved for every
coefficient quadruple the statement covers, and every certificate is
re-validated independently.  Work is chunked, optionally parallel, and
checkpointable; reports are deterministic and byte-identical across worker
counts and chunk sizes.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .arith import iroot, is_three_square
from .lipschitz import INT64_MAX
from .solver import (
    FIVE_QUADRUPLES,
    FOUR_QUADRUPLES,
    NINE_QUADRUPLES,
    NoSolutionError,
    RestrictedSolution,
    SystemQuadruple,
    TargetSet,
    _check_m,
    _solve_at,
    _solves,
    check_solution,
    solve_linear_system,
    solve_restricted,
)

# No code here calls solve_linear_system or check_solution; the names stay
# because perfbench/tracing.py patches them on this module with getattr.


class _TheoremSpec(NamedTuple):
    target_set: TargetSet
    quads: tuple[SystemQuadruple, ...]
    divisor: int   # reduce by this factor while divisible
    scale: int     # coordinate scale undoing one reduction step


_THEOREMS = {
    "1.1": _TheoremSpec(TargetSet.CUBES, NINE_QUADRUPLES, 64, 8),
    "1.2": _TheoremSpec(TargetSet.POW2, FIVE_QUADRUPLES, 4, 2),
    "1.3": _TheoremSpec(TargetSet.SQUARES, FOUR_QUADRUPLES, 16, 4),
}


class _WindowSpec(NamedTuple):
    quad: SystemQuadruple  # its norm l is the window's hi multiplier
    lo: int                # the value n**2 needs n**4 in [lo*m, l*m]
    need: int              # window length that certifies the statement
    threshold: int         # certified: the window is long enough above it


# For m at least (need / (l^(1/4) - lo^(1/4)))**4 the window
# [(lo*m)^(1/4), (l*m)^(1/4)] has length >= need, so it contains an
# integer of every residue class mod need.  The exact constants are
# 3,739,366,402.9... for the 38/39 window (need 4) and 7,678,255,699.8...
# for the 28/29 window (need 6); the thresholds are those constants
# rounded up to three significant digits.
_WINDOWS = {
    "1.4a": _WindowSpec(SystemQuadruple(1, 2, 3, 5), 38, 4, 3_740_000_000),
    "1.4b": _WindowSpec(SystemQuadruple(2, 3, 4, 0), 28, 6, 7_680_000_000),
}

WINDOW_BOUNDS = {th: w.threshold for th, w in _WINDOWS.items()}

# The window kernel's constants per statement: the quadruple, lo, the norm
# l, and whether the skip rule tests n (1.4a) or l*m - n**4 (1.4b).
_WINDOW_KERNEL = {th: (w.quad, w.lo, w.quad.l, th == "1.4a")
                  for th, w in _WINDOWS.items()}

THEOREM_IDS = (*_THEOREMS, *_WINDOWS)

# A report lists at most this many failures (its counts cover them all).
_FAILURE_CAP = 100


def _check_theorem(theorem: str) -> None:
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unsupported theorem id {theorem!r} (expected one of "
                         f"{', '.join(THEOREM_IDS)})")


def reduce_m(m: int, theorem: str) -> int:
    """Divide out the theorem's scaling factor (64, 4 or 16) while possible.

    The windowed statements (1.4a/1.4b) have no reduction and return m
    unchanged.
    """
    _check_theorem(theorem)
    _check_m(m)
    if theorem in _WINDOWS:
        return m
    return _reduce_full(m, theorem)[0]


def _reduce_full(m: int, theorem: str) -> tuple[int, int]:
    """(reduced m, coordinate scale restoring the original m)."""
    if m == 0:
        return 0, 1
    spec = _THEOREMS[theorem]
    f = 1
    while m % spec.divisor == 0:
        m //= spec.divisor
        f *= spec.scale
    return m, f


def _verify_one(m: int, theorem: str) -> tuple[str, list[dict]]:
    """Outcome code for one m: V (verified), R (reduced/skipped), F (failed).

    1.1-1.3 solve the reduced m for each quadruple through
    `solve_restricted`.  1.4a/1.4b walk the fourth-root window: each n
    with n**4 in [lo*m, l*m], not skipped and with l*m - n**4 a sum of
    three squares, goes straight to the solver's pick `_solve_at` for a
    natural solution with value n**2.  Every certificate is rechecked by
    `_solves`.
    """
    if theorem in _WINDOW_KERNEL:
        if m % 16 == 0:
            return "R", []
        quad, lo, l, by_n = _WINDOW_KERNEL[theorem]
        lo4 = lo * m
        hi4 = l * m
        r = isqrt(isqrt(lo4))   # floor fourth roots
        nlo = r if r ** 4 == lo4 else r + 1
        nhi = isqrt(isqrt(hi4))
        tried = []
        for nn in range(nlo, nhi + 1):
            rem = hi4 - nn ** 4
            skip = nn % 3 == 0 if by_n else rem % 3 == 1
            if skip or not is_three_square(rem):
                continue
            tried.append(nn)
            sol = _solve_at(m, nn * nn, quad, l, True)
            if sol is not None:
                if _solves(m, quad, TargetSet.SQUARES, sol):
                    return "V", []
                trace = f"certificate failed revalidation: {tuple(sol)}"
                break
        else:
            trace = (f"no natural solution with square value in window "
                     f"n in [{nlo},{nhi}], tried n={tried}")
        return "F", [{"m": m, "quad": list(quad), "trace": trace}]
    spec = _THEOREMS[theorem]
    m2, f = _reduce_full(m, theorem)
    fails = []
    for quad in spec.quads:
        try:
            sol = solve_restricted(m2, quad, spec.target_set)
        except NoSolutionError as exc:
            fails.append({"m": m, "quad": list(quad), "trace": str(exc)})
            continue
        scaled = sol if f == 1 else RestrictedSolution(
            sol.x * f, sol.y * f, sol.z * f, sol.t * f, sol.n * f)
        if not _solves(m, quad, spec.target_set, scaled):
            fails.append({"m": m, "quad": list(quad),
                          "trace": f"certificate failed revalidation: "
                                   f"{tuple(scaled)}"})
    if fails:
        return "F", fails
    return ("R" if m2 != m else "V"), []


def _run_chunk(theorem: str, start: int, end: int) -> dict:
    codes = []
    failures: list[dict] = []
    for m in range(start, end):
        code, fails = _verify_one(m, theorem)
        codes.append(code)
        if fails and len(failures) < _FAILURE_CAP:
            failures.extend(fails[: _FAILURE_CAP - len(failures)])
    return {"codes": "".join(codes), "failures": failures}


# With more than one worker, chunks shorter than this many m run several to
# a pool task, so one round trip and one journal save cover about _TASK_M m.
_TASK_M = 256


@dataclass(frozen=True)
class VerificationJob:
    """A verification range: theorem id, m in [lo, hi), chunking, checkpoint."""

    theorem: str
    lo: int
    hi: int
    chunk: int = 1024
    checkpoint: Optional[str] = None

    def __post_init__(self) -> None:
        _check_theorem(self.theorem)
        if self.lo > self.hi:
            raise ValueError("lo must not exceed hi")
        if self.lo < 0:
            raise ValueError("range must be nonnegative")
        if self.chunk < 1:
            raise ValueError("chunk size must be >= 1")
        if self.checkpoint == "":
            raise ValueError("checkpoint path must not be empty")
        if self.hi - 1 > INT64_MAX:
            _check_m(self.hi - 1)


class _SimulatedInterrupt(RuntimeError):
    """Internal: raised by the test-only stop hook after N chunk completions."""


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _job_key(job: VerificationJob) -> dict:
    # Kept as null: journals from builds with a quadruple filter must resume.
    return {"theorem": job.theorem, "lo": job.lo, "hi": job.hi,
            "chunk": job.chunk, "quads": None}


def _line(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def _save_checkpoint(path: str, job: VerificationJob,
                     done: dict[int, dict]) -> None:
    """Append one fsynced journal line per chunk in ``done``.

    An empty file first gets the header (the job key); each record's
    digest also covers the job key, so a foreign line fails its check.
    """
    key = _job_key(job)
    lines = [{"chunk": i, "rec": rec,
              "sha256": _digest({"job": key, "chunk": i, "rec": rec})}
             for i, rec in done.items()]
    with open(path, "ab") as fh:
        if fh.tell() == 0:
            lines.insert(0, {"job": key, "sha256": _digest(key)})
        fh.write(b"".join(map(_line, lines)))
        fh.flush()
        os.fsync(fh.fileno())


def _load_checkpoint(path: str, job: VerificationJob,
                     absorb: Callable[[int, dict], None] = lambda i, rec: None
                     ) -> set[int]:
    """Numbers of the chunks finished in the journal at ``path``; none if
    the file is missing.  Each chunk's record goes to ``absorb`` as its
    line is read, so no record outlives its line.

    A torn (last) line is truncated away and redone, the header's
    included; a torn first line that does not start this job's header, or
    a complete line that fails its parse or digest, is an error.
    """
    if not os.path.exists(path):
        return set()
    key = _job_key(job)
    done: set[int] = set()
    intact = 0  # bytes of the complete lines read so far
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            # Each failed check raises ValueError, reported below.
            for line in fh:
                if not line.endswith(b"\n"):
                    own = _line({"job": key, "sha256": _digest(key)})
                    if not (intact or own.startswith(line)):
                        raise ValueError
                    break
                obj = json.loads(line)
                if intact:
                    i, rec = obj["chunk"], obj["rec"]
                    signed = {"job": header, "chunk": i, "rec": rec}
                else:  # the first line is the header, whatever it names
                    header = signed = obj["job"]
                if obj["sha256"] != _digest(signed):
                    raise ValueError
                if intact and header == key and i not in done:
                    done.add(i)
                    absorb(i, rec)
                intact += len(line)
        except (ValueError, KeyError, TypeError, AttributeError):
            raise ValueError(
                f"checkpoint {path} failed its integrity check") from None
    if intact and header != key:
        raise ValueError(f"checkpoint {path} does not match this job")
    if intact < size:
        os.truncate(path, intact)
    return done


def _run_chunks(job: VerificationJob, task: list[int]) -> dict[int, dict]:
    """The records {chunk: rec} of the chunks in ``task``."""
    # _run_chunk is looked up as a module global at call time, so a
    # replacement installed before the pool starts reaches the workers
    # only under fork; spawned workers import the module afresh.
    return {i: _run_chunk(job.theorem, job.lo + i * job.chunk,
                          min(job.hi, job.lo + (i + 1) * job.chunk))
            for i in task}


def _complete(job: VerificationJob, recs: dict[int, dict],
              absorb: Callable[[int, dict], None], completed: int,
              stop_after: Optional[int]) -> int:
    """Save, absorb and count a finished batch {chunk: rec}; the stop hook
    fires once this run's count of finished chunks reaches ``stop_after``."""
    if job.checkpoint:
        _save_checkpoint(job.checkpoint, job, recs)
    for i, rec in recs.items():
        absorb(i, rec)
    completed += len(recs)
    if stop_after is not None and completed >= stop_after:
        raise _SimulatedInterrupt(f"stopped after {completed} chunks")
    return completed


def verify_theorem(job: VerificationJob, workers: Optional[int] = None,
                   include_codes: bool = False,
                   _stop_after_chunks: Optional[int] = None) -> dict:
    """Run the job and return the report dict.

    Report: {theorem, range: [lo, hi], verified, reduced, failed,
    failures: [{m, quad, trace}], wall_ms, per_sec}: failures are the first
    _FAILURE_CAP in m order, and all but the two timing fields are
    deterministic.  workers, a positive integer, defaults to FOURSQ_THREADS
    or the CPU count; include_codes adds a per-m outcome string (V/R/F)
    used for CSV output.
    """
    t0 = time.monotonic()
    if workers is None:
        env = os.environ.get("FOURSQ_THREADS")
        try:
            workers = int(env) if env else os.cpu_count() or 1
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"FOURSQ_THREADS must be a positive integer, "
                             f"got {env!r}")
    elif workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    nchunks = (job.hi - job.lo + job.chunk - 1) // job.chunk
    # Finished chunks are held only as running V/R/F counts, the first
    # _FAILURE_CAP failures in m order so far and, for CSV output, the
    # per-m codes.
    counts = [0, 0, 0]
    failures: list[dict] = []
    codes: dict[int, str] = {}
    completed = 0

    def absorb(i: int, rec: dict) -> None:
        chunk_codes, fails = rec["codes"], rec["failures"]
        counts[0] += chunk_codes.count("V")
        counts[1] += chunk_codes.count("R")
        counts[2] += chunk_codes.count("F")
        if fails:
            # Chunks cover disjoint m ranges, each listing its failures by m.
            merged = heapq.merge(failures, fails, key=itemgetter("m"))
            failures[:] = list(itertools.islice(merged, _FAILURE_CAP))
        if include_codes:
            codes[i] = chunk_codes

    loaded = (_load_checkpoint(job.checkpoint, job, absorb)
              if job.checkpoint else ())
    # Lazy, so the parent holds no list of every chunk number.
    pending = ((i for i in range(nchunks) if i not in loaded) if loaded
               else iter(range(nchunks)))
    npending = nchunks - len(loaded)
    # Each finished batch, serially one chunk and in the pool one task's
    # chunks, goes through the one completion step, _complete.
    if workers <= 1 or npending <= 1:
        for i in pending:
            start = job.lo + i * job.chunk
            rec = _run_chunk(job.theorem, start, min(job.hi, start + job.chunk))
            completed = _complete(job, {i: rec}, absorb, completed,
                                  _stop_after_chunks)
    else:
        # The pool starts all its processes at the first submit, so it is
        # sized by the work and the CPUs.  Never fewer tasks than processes;
        # at most two tasks per process in flight, so the parent holds few
        # futures however long the range.
        size = min(workers, npending, os.cpu_count() or 1)
        per = max(1, min(_TASK_M // job.chunk, npending // size))
        # Tasks of `per` consecutive pending chunks, cut as they are sent.
        queued = iter(lambda: list(itertools.islice(pending, per)), [])
        # Workers leave Ctrl-C to the parent, which stops the run.
        executor = ProcessPoolExecutor(
            max_workers=size, initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            running: set = set()
            while True:
                for task in itertools.islice(queued, 2 * size - len(running)):
                    running.add(executor.submit(_run_chunks, job, task))
                if not running:
                    break
                finished, running = wait(running, return_when=FIRST_COMPLETED)
                for fut in finished:
                    completed = _complete(job, fut.result(), absorb,
                                          completed, _stop_after_chunks)
        finally:
            executor.shutdown(wait=True, cancel_futures=True)

    wall = max(time.monotonic() - t0, 1e-9)
    report = {
        "theorem": job.theorem,
        "range": [job.lo, job.hi],
        "verified": counts[0],
        "reduced": counts[1],
        "failed": counts[2],
        "failures": failures,
        # Three decimals by integer rounding, which costs less than
        # round(x, 3) on a float.
        "wall_ms": round(wall * 1e6) / 1000,
        "per_sec": round((job.hi - job.lo) * 1000 / wall) / 1000,
    }
    if include_codes:
        report["codes"] = "".join(codes[i] for i in range(nchunks))
    return report


def canonical_report_bytes(report: dict) -> bytes:
    """Deterministic byte encoding of a report, timing fields excluded."""
    data = {k: v for k, v in report.items()
            if k not in ("wall_ms", "per_sec", "codes")}
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


# --------------------------------------------------------------------------
# Window-bound constants
# --------------------------------------------------------------------------

def window_length_ok(m: int, theorem: str) -> bool:
    """Exact check that the fourth-root window at m is long enough.

    For 1.4a the window [(38m)^(1/4), (39m)^(1/4)] must have length >= 4;
    for 1.4b the 28/29 window must have length >= 6.  Decided in integers:
    the length is >= need iff (need + x)**4 <= l*m with x = (lo*m)^(1/4),
    and x is bracketed by floor roots of lo*m scaled by 2**(4k).  The
    window grows monotonically with m, so True at m implies True for
    everything above m.
    """
    if theorem not in _WINDOWS:
        raise ValueError(f"theorem {theorem!r} has no window")
    quad, lo, need, _ = _WINDOWS[theorem]
    # Equality, (l*m)^(1/4) - (lo*m)^(1/4) = need, would make both roots
    # rational (an irrational root has a conjugate i**j times it that
    # solves the same equation), so lo*m and l*m would be fourth powers of
    # integers and l/lo a rational fourth power; 39/38 and 29/28 are not,
    # so every m is decided at some finite k.
    k = 0
    while True:
        a = iroot((lo * m) << 4 * k, 4)   # a <= x * 2**k < a + 1
        top = (quad.l * m) << 4 * k
        if ((need << k) + a + 1) ** 4 <= top:
            return True
        if ((need << k) + a) ** 4 > top:
            return False
        k += 32


def window_constants() -> dict:
    """Exact facts about the two window thresholds.

    For each windowed statement: an upper bound on the governing constant
    (need/(l^(1/4)-lo^(1/4)))**4, the threshold the package certifies, and
    whether constant < threshold and the window is long enough at the
    threshold.  The bound is an exact Fraction built from floor fourth roots
    scaled by 2**64; it is compared exactly and reported as a float.
    """
    k = 64
    out = {}
    for th, (quad, lo, need, bound) in _WINDOWS.items():
        # gap < (l^(1/4) - lo^(1/4)) * 2**k, so const is an upper bound
        gap = iroot(quad.l << 4 * k, 4) - iroot(lo << 4 * k, 4) - 1
        const = Fraction(need << k, gap) ** 4
        out[th] = {
            "constant_upper": float(const),
            "threshold": bound,
            "constant_below_threshold": const < bound,
            "window_ok_at_threshold": window_length_ok(bound, th),
        }
    return out


def check_bounds() -> bool:
    """Certify both window thresholds in exact integer arithmetic.

    Confirms (4/(39^(1/4)-38^(1/4)))**4 < 3.74e9 and
    (6/(29^(1/4)-28^(1/4)))**4 < 7.68e9, and that at each threshold the
    corresponding fourth-root window already has the required length (4,
    resp. 6), which guarantees it contains an integer of the needed parity
    and residue class for every m above the threshold.
    """
    facts = window_constants()
    return all(
        f["constant_below_threshold"] and f["window_ok_at_threshold"]
        for f in facts.values()
    )
