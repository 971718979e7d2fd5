"""Per-layer tracing for the benchmark, done entirely from outside ``src/``.

``Tracer.install()`` replaces the public functions at each module boundary
of ``foursq`` (and the few verifier internals that own checkpoint I/O, the
process pool and chunk work) with wrappers that count calls and time them.
``Tracer.uninstall()`` puts the originals back, so one process can measure
the same workload with tracing off and then on.

Chunk timings come back from pool workers through a file, because a worker
cannot write to this process's memory.  The pool forks, so workers inherit
the wrapper; it is pickled by the name of the function it replaces.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

from foursq import _residues, arith, solver, verifier

# Per-layer metric names, in BENCHMARK.json order, with units.
PER_LAYER_UNITS = {
    "solver.admissible_n.calls": "count",
    "solver.admissible_n.ms": "ms",
    "solver.admissible_n.len_mean": "count",
    "solver.n_tried_per_solve": "count",
    "solver.descent.calls": "count",
    "solver.descent.ms": "ms",
    "solver.descent.hit_ratio": "ratio",
    "solver.fallback.calls": "count",
    "solver.fallback.ms": "ms",
    "solver.fallback.hits": "count",
    "residues.masks_for.builds": "count",
    "residues.masks_for.build_ms": "ms",
    "residues.masks_for.hits": "count",
    "solver.check_solution.calls": "count",
    "solver.check_solution.ms": "ms",
    "solver.oracle.calls": "count",
    "solver.oracle.ms": "ms",
    "arith.four_square_reps.ms": "ms",
    "verifier.checkpoint.saves": "count",
    "verifier.checkpoint.save_ms": "ms",
    "verifier.checkpoint.bytes_written": "B",
    "verifier.checkpoint.load_ms": "ms",
    "verifier.pool_start_ms": "ms",
    "verifier.chunk_ms_p50": "ms",
    "verifier.chunk_ms_p99": "ms",
    "cli.import_ms": "ms",
    "trace.ops": "count",
    "trace.overhead_pct": "%",
}

_PRIMARY = frozenset(tuple(q) for q in solver.NINE_QUADRUPLES)


def percentile(samples: list[float], pct: int) -> float:
    """The pct-th percentile (1..99) by statistics.quantiles' default method."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100)[pct - 1]


class Tracer:
    """Counters and timers for every traced boundary, plus the patch list."""

    def __init__(self, chunk_log: str):
        self.count: dict[str, int] = defaultdict(int)
        self.ms: dict[str, float] = defaultdict(float)
        self.chunk_log = chunk_log
        self.chunk_ms: list[float] = []
        self._pid = os.getpid()
        self._solve_depth = 0
        self._natural = False
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, key: str, fn):
        count, ms = self.count, self.ms

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms[key] += (time.perf_counter() - t0) * 1000.0
                count[key] += 1

        return wrapper

    def _wrap_solve_restricted(self, fn):
        def wrapper(m, quad, target_set, natural=False, n=None):
            outer = self._natural
            self._natural = natural
            self._solve_depth += 1
            self.count["solve_restricted"] += 1
            try:
                return fn(m, quad, target_set, natural=natural, n=n)
            finally:
                self._solve_depth -= 1
                self._natural = outer

        return wrapper

    def _wrap_admissible_n(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.ms["admissible_n"] += (time.perf_counter() - t0) * 1000.0
            self.count["admissible_n"] += 1
            self.count["admissible_n.len"] += len(out)
            return out

        return wrapper

    def _wrap_solve_linear_system(self, fn):
        def wrapper(m, n, quad, natural=False):
            t0 = time.perf_counter()
            out = fn(m, n, quad, natural=natural)
            dt = (time.perf_counter() - t0) * 1000.0
            if tuple(quad) in _PRIMARY:
                self.ms["descent"] += dt
                self.count["descent"] += 1
                self.count["descent.hits"] += out is not None
                if self._solve_depth:
                    self.count["n_tried"] += 1
            else:
                self.ms["fallback"] += dt
                self.count["fallback"] += 1
            return out

        return wrapper

    def _wrap_apply_rule(self, fn):
        def wrapper(rule, sol):
            t0 = time.perf_counter()
            out = fn(rule, sol)
            self.ms["fallback"] += (time.perf_counter() - t0) * 1000.0
            if out is not None and (
                    not self._natural
                    or solver._naturalize(out, rule.target) is not None):
                self.count["fallback.hits"] += 1
            return out

        return wrapper

    def _wrap_masks_for(self, fn):
        def wrapper(*args):
            misses = fn.cache_info().misses
            t0 = time.perf_counter()
            out = fn(*args)
            dt = (time.perf_counter() - t0) * 1000.0
            if fn.cache_info().misses != misses:
                self.count["masks.builds"] += 1
                self.ms["masks.build"] += dt
            else:
                self.count["masks.hits"] += 1
            return out

        return wrapper

    def _wrap_save_checkpoint(self, fn):
        def wrapper(path, job, done):
            t0 = time.perf_counter()
            fn(path, job, done)
            self.ms["ckpt.save"] += (time.perf_counter() - t0) * 1000.0
            self.count["ckpt.saves"] += 1
            self.count["ckpt.bytes"] += os.path.getsize(path)

        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TimedPool(base):
            def __init__(self, *args, **kwargs):
                self._t0 = time.perf_counter()
                self._started = False
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                fut = super().submit(*args, **kwargs)
                if not self._started:
                    self._started = True
                    tracer.count["pool_starts"] += 1
                    tracer.ms["pool_start"] += (
                        time.perf_counter() - self._t0) * 1000.0
                return fut

        return TimedPool

    def _wrap_run_chunk(self, fn):
        log, pid, local = self.chunk_log, self._pid, self.chunk_ms

        def wrapper(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            dt = (time.perf_counter() - t0) * 1000.0
            if os.getpid() == pid:
                local.append(dt)
            else:
                with open(log, "a") as fh:
                    fh.write(f"{dt!r}\n")
            return out

        # Pool workers receive the function by name; under this name the
        # forked worker finds the same wrapper.
        wrapper.__module__ = fn.__module__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        sr = self._wrap_solve_restricted(solver.solve_restricted)
        self._patch(solver, "solve_restricted", sr)
        self._patch(verifier, "solve_restricted", sr)
        self._patch(solver, "admissible_n",
                    self._wrap_admissible_n(solver.admissible_n))
        sls = self._wrap_solve_linear_system(solver.solve_linear_system)
        self._patch(solver, "solve_linear_system", sls)
        self._patch(verifier, "solve_linear_system", sls)
        self._patch(solver, "apply_rule", self._wrap_apply_rule(solver.apply_rule))
        self._patch(_residues, "masks_for", self._wrap_masks_for(_residues.masks_for))
        cs = self._timed("check_solution", solver.check_solution)
        self._patch(solver, "check_solution", cs)
        self._patch(verifier, "check_solution", cs)
        self._patch(solver, "brute_force_oracle",
                    self._timed("oracle", solver.brute_force_oracle))
        fsr = self._timed("four_square_reps", arith.four_square_reps)
        self._patch(arith, "four_square_reps", fsr)
        self._patch(solver, "four_square_reps", fsr)
        self._patch(verifier, "_save_checkpoint",
                    self._wrap_save_checkpoint(verifier._save_checkpoint))
        self._patch(verifier, "_load_checkpoint",
                    self._timed("ckpt.load", verifier._load_checkpoint))
        self._patch(verifier, "ProcessPoolExecutor",
                    self._pool_class(verifier.ProcessPoolExecutor))
        self._patch(verifier, "_run_chunk", self._wrap_run_chunk(verifier._run_chunk))

    def uninstall(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)

    # -- report -----------------------------------------------------------

    def chunk_samples(self) -> list[float]:
        out = list(self.chunk_ms)
        if os.path.exists(self.chunk_log):
            with open(self.chunk_log) as fh:
                out.extend(float(line) for line in fh if line.strip())
        return out

    def metrics(self, import_ms: float, ops: int, overhead_pct: float,
                factor: float) -> dict:
        """Per-layer metrics; times are scaled by the calibration factor."""
        c, ms = self.count, self.ms
        chunks = self.chunk_samples()
        values = {
            "solver.admissible_n.calls": c["admissible_n"],
            "solver.admissible_n.ms": ms["admissible_n"],
            "solver.admissible_n.len_mean":
                c["admissible_n.len"] / max(c["admissible_n"], 1),
            "solver.n_tried_per_solve":
                c["n_tried"] / max(c["solve_restricted"], 1),
            "solver.descent.calls": c["descent"],
            "solver.descent.ms": ms["descent"],
            "solver.descent.hit_ratio": c["descent.hits"] / max(c["descent"], 1),
            "solver.fallback.calls": c["fallback"],
            "solver.fallback.ms": ms["fallback"],
            "solver.fallback.hits": c["fallback.hits"],
            "residues.masks_for.builds": c["masks.builds"],
            "residues.masks_for.build_ms": ms["masks.build"],
            "residues.masks_for.hits": c["masks.hits"],
            "solver.check_solution.calls": c["check_solution"],
            "solver.check_solution.ms": ms["check_solution"],
            "solver.oracle.calls": c["oracle"],
            "solver.oracle.ms": ms["oracle"],
            "arith.four_square_reps.ms": ms["four_square_reps"],
            "verifier.checkpoint.saves": c["ckpt.saves"],
            "verifier.checkpoint.save_ms": ms["ckpt.save"],
            "verifier.checkpoint.bytes_written": c["ckpt.bytes"],
            "verifier.checkpoint.load_ms": ms["ckpt.load"],
            "verifier.pool_start_ms":
                ms["pool_start"] / max(c["pool_starts"], 1),
            "verifier.chunk_ms_p50": percentile(chunks, 50),
            "verifier.chunk_ms_p99": percentile(chunks, 99),
            "cli.import_ms": import_ms,
            "trace.ops": ops,
            "trace.overhead_pct": overhead_pct,
        }
        return {k: {"value": values[k] * factor if u == "ms" else values[k],
                    "unit": u}
                for k, u in PER_LAYER_UNITS.items()}
