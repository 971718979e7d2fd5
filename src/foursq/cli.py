"""Command-line front end.

Subcommands: solve, verify, reps, candidates, oracle, check, identities,
bounds.  Exit codes: 0 success, 1 verification/solve failure found, 2 usage
error or a run that could not finish (an unreadable checkpoint, a pool
worker that died), 3 arithmetic-range error, 130 interrupted (Ctrl-C), 141
the reader of stdout closed it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import BrokenExecutor
from typing import Optional, Sequence

from .arith import four_square_reps, three_square_reps
from .lipschitz import ArithmeticRangeError, Quaternion, norm
from .solver import (
    NoSolutionError,
    ResourceLimitError,
    RestrictedSolution,
    SystemQuadruple,
    TargetSet,
    _check_m,
    brute_force_oracle,
    candidate_set,
    check_solution,
    identity_suite,
    solve_restricted,
)
from .verifier import (
    THEOREM_IDS,
    VerificationJob,
    check_bounds,
    verify_theorem,
    window_constants,
)


def _quad_arg(text: str) -> tuple[int, int, int, int]:
    try:
        a, b, c, d = (int(p) for p in text.split(","))
    except ValueError:  # a part is not an integer, or there are not four
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated integers, got {text!r}")
    return a, b, c, d


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foursq",
        description="Four-square representations with the linear form "
                    "ax+by+cz+dt restricted to squares, cubes or powers "
                    "of two.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --m, --quad and --set of the commands that take one restricted system
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--m", type=_nonneg, required=True)
    system.add_argument("--quad", type=_quad_arg, required=True,
                        metavar="a,b,c,d")
    system.add_argument("--set", dest="target_set", required=True,
                        choices=[t.value for t in TargetSet])

    p = sub.add_parser("solve", parents=[system],
                       help="solve one restricted system")
    p.add_argument("--natural", action="store_true",
                   help="require all coordinates nonnegative")
    p.add_argument("--n", type=_nonneg, default=None,
                   help="pin the linear-form value instead of searching")
    p.add_argument("--format", choices=["human", "json"], default="human")

    p = sub.add_parser("verify", help="verify a statement over a range of m")
    p.add_argument("--theorem", required=True, choices=list(THEOREM_IDS))
    p.add_argument("--lo", type=_nonneg, required=True)
    p.add_argument("--hi", type=_nonneg, required=True)
    p.add_argument("--chunk", type=int, default=1024)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("reps", help="canonical four- or three-square "
                                    "representations")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--three", action="store_true",
                   help="three-square representations instead of four")

    p = sub.add_parser("candidates", help="candidate value indices for one m")
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--kind", required=True,
                   choices=[t.value for t in TargetSet])

    sub.add_parser("oracle", parents=[system],
                   help="brute-force cross-check of the solver")

    p = sub.add_parser("check", parents=[system],
                       help="validate a proposed solution")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("identities", help="re-verify the rule identities")
    p.add_argument("--verbose", action="store_true")

    sub.add_parser("bounds", help="certify the window-bound constants")

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    sol = solve_restricted(args.m, args.quad, args.target_set,
                           natural=args.natural, n=args.n)
    if args.format == "json":
        print(json.dumps({"m": args.m, "quad": list(args.quad),
                          "set": args.target_set, "x": sol.x, "y": sol.y,
                          "z": sol.z, "t": sol.t, "n": sol.n}))
    else:
        print(f"x={sol.x} y={sol.y} z={sol.z} t={sol.t} n={sol.n}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    job = VerificationJob(theorem=args.theorem, lo=args.lo, hi=args.hi,
                          chunk=args.chunk, checkpoint=args.checkpoint)
    report = verify_theorem(job, workers=args.workers,
                            include_codes=(args.format == "csv"))
    if args.format == "csv":
        codes = report["codes"]
        print("m,outcome")
        for i, code in enumerate(codes):
            print(f"{args.lo + i},{code}")
    else:
        print(json.dumps(report))
    return 0 if report["failed"] == 0 else 1


# Work bound of `reps`, for both walks: on a 2-core Xeon with Python 3.11
# the four-square walk took 1.2-1.7 s at 10**6 and 11.6 s at 4 * 10**6.
_REPS_BOUND = 10 ** 6


def _cmd_reps(args: argparse.Namespace) -> int:
    _check_m(args.m)
    if args.m > _REPS_BOUND:
        raise ResourceLimitError(f"reps limited to m <= {_REPS_BOUND}, "
                                 f"got {args.m}")
    reps = three_square_reps(args.m) if args.three else four_square_reps(args.m)
    for rep in reps:
        print(" ".join(str(v) for v in rep))
    return 0


def _cmd_candidates(args: argparse.Namespace) -> int:
    print(" ".join(str(v) for v in candidate_set(args.m, args.kind)))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    reference = brute_force_oracle(args.m, args.quad, args.target_set)
    try:
        found = solve_restricted(args.m, args.quad, args.target_set)
    except NoSolutionError:
        found = None
    for label, sol in (("oracle", reference), ("solver", found)):
        if sol is None:
            print(f"{label}: none")
        else:
            print(f"{label}: x={sol.x} y={sol.y} z={sol.z} t={sol.t} n={sol.n}")
    agree = (reference is None) == (found is None)
    for sol in (reference, found):
        if sol is not None:
            agree = agree and check_solution(args.m, args.quad,
                                             args.target_set, sol)
    print("agree" if agree else "DISAGREE")
    return 0 if agree else 1


def _cmd_check(args: argparse.Namespace) -> int:
    quad = SystemQuadruple(*args.quad)
    # norm() enforces the 64-bit range contract on the coordinates.
    value = norm(Quaternion(args.x, args.y, args.z, args.t))
    n = quad.linear_form(args.x, args.y, args.z, args.t)
    sol = RestrictedSolution(args.x, args.y, args.z, args.t, n)
    if check_solution(args.m, args.quad, args.target_set, sol):
        print(f"valid n={n}")
        return 0
    print(f"invalid (norm={value}, n={n})")
    return 1


def _cmd_identities(args: argparse.Namespace) -> int:
    results = identity_suite()
    per_case: dict[str, list[bool]] = {}
    for label, ok in results:
        case = label.split(":")[0]
        per_case.setdefault(case, []).append(ok)
        if args.verbose:
            print(f"{'ok  ' if ok else 'FAIL'} {label}")
    for case in sorted(per_case):
        oks = per_case[case]
        status = "ok" if all(oks) else "FAIL"
        print(f"{case}: {len(oks)} {status}")
    bad = sum(1 for _, ok in results if not ok)
    if bad:
        print(f"{bad} of {len(results)} identities failed")
        return 1
    print(f"{len(results)} identities verified")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    facts = window_constants()
    for th, f in sorted(facts.items()):
        print(f"{th}: constant <= {f['constant_upper']:.6e}, threshold "
              f"{f['threshold']:.2e}, constant below threshold: "
              f"{f['constant_below_threshold']}, window long enough at "
              f"threshold: {f['window_ok_at_threshold']}")
    if check_bounds():
        print("bounds hold")
        return 0
    print("bounds check FAILED")
    return 1


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "reps": _cmd_reps,
    "candidates": _cmd_candidates,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "identities": _cmd_identities,
    "bounds": _cmd_bounds,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed reader shows up here, not at exit
        return code
    except ArithmeticRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (`| head`): stop quietly with the code a
        # shell gives a process killed by SIGPIPE, and send what is still
        # buffered to /dev/null so the exit flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenExecutor as exc:
        print(f"error: a pool worker died ({type(exc).__name__})"
              f"{_resume_hint(args)}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"interrupted{_resume_hint(args)}", file=sys.stderr)
        return 130


def _resume_hint(args: argparse.Namespace) -> str:
    resume = getattr(args, "checkpoint", None)
    return (f"; run the same command with --checkpoint {resume} to resume"
            if resume else "")


if __name__ == "__main__":
    sys.exit(main())
