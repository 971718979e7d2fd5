"""Throughput of one-m verify jobs, in process, per statement, and of
natural solves.

Each cell runs `verify_theorem` on consecutive one-m jobs with one worker,
as the benchmark's small-m and large-m workloads call it, and prints the
cell's m/s, best of REPEAT runs.  The natural cell runs a natural
`solve_restricted` on each of the 27 systems for consecutive m from 1000,
as the benchmark's crosscheck workload does, and prints solves/s.  The runs
go round the cells in turn, so a slow spell of the machine lands on every
cell alike.  Run from anywhere:

    python tests/verify_rates.py                    # 1500 m a cell, best of 5
    python tests/verify_rates.py --count 20 --repeat 1

Cells: 1.1, 1.2 and 1.3 from m = 1.2e5 and from 1e12, 1.4a and 1.4b from
just above their thresholds, and natural solves from m = 1000.  The package is imported from this
checkout's src/.  Exits 1 if a job does not verify or reduce its m, or if
a natural solution fails `check_solution`.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from foursq import solver, verifier  # noqa: E402

CELLS = (
    *((th, 120_000) for th in ("1.1", "1.2", "1.3")),
    *((th, 10**12) for th in ("1.1", "1.2", "1.3")),
    *((th, bound + 1) for th, bound in verifier.WINDOW_BOUNDS.items()),
)
NATURAL_START = 1000
SYSTEMS = [(q, ts) for q in solver.NINE_QUADRUPLES for ts in solver.TargetSet]


def run_cell(theorem: str, start: int, count: int) -> float:
    """m/s of `count` one-m jobs from `start`; raises on a failed m."""
    t0 = time.perf_counter()
    for m in range(start, start + count):
        report = verifier.verify_theorem(
            verifier.VerificationJob(theorem, m, m + 1), workers=1)
        if report["verified"] + report["reduced"] != 1:
            raise AssertionError(f"{theorem} failed at m={m}")
    return count / (time.perf_counter() - t0)


def run_natural(count: int) -> float:
    """Natural solves/s over the 27 systems at `count` m from
    NATURAL_START; raises on a negative coordinate or a solution that
    fails `check_solution`."""
    t0 = time.perf_counter()
    for m in range(NATURAL_START, NATURAL_START + count):
        for q, ts in SYSTEMS:
            try:
                sol = solver.solve_restricted(m, q, ts, natural=True)
            except solver.NoSolutionError:
                continue
            if min(sol[:4]) < 0 or not solver.check_solution(m, q, ts, sol):
                raise AssertionError(f"natural {q}/{ts.value} failed at m={m}")
    return count * len(SYSTEMS) / (time.perf_counter() - t0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=1500,
                        help="m per cell and run (default 1500)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per cell; the best is printed (default 5)")
    args = parser.parse_args(argv)
    best = dict.fromkeys(CELLS, 0.0)
    natural = 0.0
    try:
        for _ in range(args.repeat):
            for cell in CELLS:
                best[cell] = max(best[cell], run_cell(*cell, args.count))
            natural = max(natural, run_natural(args.count))
    except AssertionError as exc:
        print(exc, file=sys.stderr)
        return 1
    for (theorem, start), rate in best.items():
        print(f"{theorem:5s} from {start:>14,d}  {rate:10.1f} m/s")
    print(f"natural from {NATURAL_START:>12,d}  {natural:10.1f} solves/s"
          f" ({len(SYSTEMS)} systems)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
