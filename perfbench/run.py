"""Benchmark for foursq: one workload per run, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload small-m --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics instead, measured by wrapping the package's functions,
and the tracing overhead.  ``--workload all`` runs every workload, each in
a fresh process, and prints every metric of each.  ``--out FILE`` also
writes the full result, with the machine facts, to FILE.

The exit code is 0 when every operation passed its check, 1 when any
failed, and 2 when the program under test cannot be found or an argument
is wrong.  See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh processes timed for setup_s, this one included; the run reports
# their median.
SETUP_RUNS = 3

WORKLOAD_NAMES = ("small-m", "large-m", "resume-2w", "crosscheck")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_foursq() -> float:
    """Import the package from this checkout's src/; return milliseconds."""
    if not os.path.isfile(os.path.join(SRC, "foursq", "__init__.py")):
        raise ImportError(f"no foursq package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import foursq.cli  # noqa: F401  (imports every module of the package)
    import_ms = (time.perf_counter() - t0) * 1000.0
    if not os.path.abspath(foursq.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"foursq was imported from {foursq.cli.__file__}")
    return import_ms


def set_up(import_ms: float) -> float:
    """Fill the package's lazy caches after an import that took `import_ms`:
    the rule table and every residue-mask table the descent can ask for
    (the nine quadruples and their companions, every n mod l).  Returns the
    set-up time in seconds at the quiet machine's speed, calibrating
    between the steps."""
    from foursq import _residues, solver
    from workloads import Calibrator

    steps = [solver.builtin_rules]
    for quad in solver.NINE_QUADRUPLES:
        for q in (quad, solver.companion_source(quad)):
            steps.extend(functools.partial(_residues.masks_for, tuple(q), q.l, r)
                         for r in range(q.l))
    cal = Calibrator()
    busy = import_ms / 1000.0
    for step in steps:
        t0 = time.perf_counter()
        step()
        dt = time.perf_counter() - t0
        busy += dt
        cal.add_work(dt)
    return busy * cal.factor()


def setup_probe() -> None:
    """Time set-up in this (fresh) process; print seconds."""
    print(json.dumps({"setup_s": set_up(import_foursq())}))


def measure_setup(runs: int) -> list[float]:
    out = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def machine_facts(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "src_lines": src_lines,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def summarize(streams, factor: float) -> tuple[dict, dict]:
    """(figures the end-to-end metrics use, per-statement and per-call report).

    Times are scaled by the calibration `factor`.  Every stream weighs the
    same in ops_per_s, and every latency series in the op_ms percentiles,
    whatever its speed: each is a geometric mean.
    """
    from tracing import percentile

    rate = {s.name: s.rate() / factor for s in streams}
    series = {k: [x * factor for x in v] for s in streams for k, v in s.series.items()}
    figures = {
        "ops_per_s": statistics.geometric_mean(rate.values()),
        "op_ms_p50": statistics.geometric_mean(
            [percentile(v, 50) for v in series.values()]),
        "op_ms_p90": statistics.geometric_mean(
            [percentile(v, 90) for v in series.values()]),
    }
    report = {"calibration_factor": factor}
    for name, r in rate.items():
        if name == "crosscheck":
            report["pairs_per_s"] = r
            for key in ("solve", "natural"):
                v = series[key]
                report[f"{key}_ms_p50"] = percentile(v, 50)
                report[f"{key}_ms_p99"] = percentile(v, 99)
                report[f"{key}_ms_samples"] = len(v)
        else:
            report[f"m_per_s.{name}"] = r
            report[f"samples.{name}"] = len(series[name])
    return figures, report


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_runs: int = SETUP_RUNS) -> dict:
    """Set up, measure and check one workload in this process."""
    import_ms = import_foursq()
    import tracing
    import workloads

    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        tracer = tracing.Tracer(os.path.join(workdir, "chunks.log"))
        if trace:
            tracer.install()
        own_setup = set_up(import_ms)
        tracer.uninstall()
        if not trace:
            setup = [own_setup] + measure_setup(setup_runs - 1)

        half = seconds / 2 if trace else seconds
        cal = workloads.Calibrator()
        streams = workloads.build(workload, seed, workdir)
        workloads.measure(streams, half, cal)
        figures, report = summarize(streams, cal.factor())
        if trace:
            traced_cal = workloads.Calibrator()
            traced = workloads.build(workload, seed, workdir)
            tracer.install()
            try:
                workloads.measure(traced, half, traced_cal)
            finally:
                tracer.uninstall()
            traced_figures, _ = summarize(traced, traced_cal.factor())
            streams = streams + traced
            overhead = (figures["ops_per_s"] / traced_figures["ops_per_s"] - 1) * 100
            metrics = tracer.metrics(import_ms, sum(s.ops for s in traced),
                                     overhead, traced_cal.factor())
        else:
            figures["setup_s"] = statistics.median(setup)
            figures["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            metrics = {k: {"value": figures[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.attempted for s in streams)
    failed = sum(s.failed for s in streams)
    report["fail_ratio"] = failed / attempted
    if not trace:
        report["setup_s"] = figures["setup_s"]
        report["setup_samples_s"] = setup
        report["peak_rss_mb"] = figures["peak_rss_mb"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "machine": machine_facts(workload, seed, seconds, trace),
    }


def _report_unit(name: str) -> str:
    if name.startswith("m_per_s."):
        return "m/s"
    if name == "pairs_per_s":
        return "1/s"
    if name.startswith("samples.") or name.endswith("_samples"):
        return "count"
    if "_ms_" in name:
        return "ms"
    return {"setup_s": "s", "peak_rss_mb": "MB"}.get(name, "ratio")


def _print_human(result: dict, workload: str) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<11} {name:<38} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["report"].items():
        if isinstance(value, (int, float)):
            print(f"{workload:<11} report {name:<31} {value:>14.6g} "
                  f"{_report_unit(name)}")


def run_all(args) -> dict:
    """Every workload, each in a fresh process of this script."""
    results = {}
    workdir = tempfile.mkdtemp(prefix="work-all-", dir=HERE)
    try:
        for w in WORKLOAD_NAMES:
            out = os.path.join(workdir, f"{w}.json")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", out],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if not os.path.exists(out):
                sys.stderr.write(proc.stdout + proc.stderr)
                raise RuntimeError(f"workload {w} produced no result")
            with open(out) as fh:
                results[w] = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    try:
        if args.workload == "all":
            results = run_all(args)
        else:
            results = {args.workload: run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace))}
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for w, result in results.items():
        _print_human(result, w)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results if args.workload == "all" else results[args.workload],
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
