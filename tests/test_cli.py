"""Command-line interface: exit codes, output formats, round-trips."""

import contextlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import foursq
from foursq import cli, verifier
from foursq.cli import main
from foursq.solver import NINE_QUADRUPLES
from foursq.verifier import THEOREM_IDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_output_round_trips_through_check(self, capsys):
        code, out, _ = run(capsys, "solve", "--m", "15", "--quad", "1,1,2,2",
                           "--set", "squares", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"m", "quad", "set", "x", "y", "z", "t", "n"}
        code2, out2, _ = run(capsys, "check", "--m", str(payload["m"]),
                             "--quad", "1,1,2,2", "--set", "squares",
                             "--x", str(payload["x"]), "--y", str(payload["y"]),
                             "--z", str(payload["z"]), "--t", str(payload["t"]))
        assert code2 == 0
        assert out2.startswith("valid")

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--m", "15", "--quad", "1,1,2,2",
                           "--set", "squares")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert list(fields) == ["x", "y", "z", "t", "n"]
        x, y, z, t, n = (int(fields[k]) for k in "xyztn")
        assert x * x + y * y + z * z + t * t == 15
        assert x + y + 2 * z + 2 * t == n == 0

    def test_human_and_json_carry_same_numbers(self, capsys):
        _, human, _ = run(capsys, "solve", "--m", "39", "--quad", "1,2,3,5",
                          "--set", "squares")
        _, raw, _ = run(capsys, "solve", "--m", "39", "--quad", "1,2,3,5",
                        "--set", "squares", "--format", "json")
        payload = json.loads(raw)
        fields = dict(part.split("=") for part in human.split())
        assert {k: int(v) for k, v in fields.items()} == \
            {k: payload[k] for k in "xyztn"}

    def test_pinned_value(self, capsys):
        code, out, _ = run(capsys, "solve", "--m", "15", "--quad", "1,1,2,2",
                           "--set", "squares", "--n", "9", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 9

    def test_natural_flag(self, capsys):
        code, out, _ = run(capsys, "solve", "--m", "1000", "--quad", "1,2,3,5",
                           "--set", "squares", "--natural", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(payload[k] >= 0 for k in "xyzt")

    def test_no_solution_exits_one(self, capsys):
        code, _, err = run(capsys, "solve", "--m", "0", "--quad", "1,2,3,5",
                           "--set", "pow2")
        assert code == 1
        assert "no solution" in err

    def test_unsupported_quad_exits_two(self, capsys):
        code, _, err = run(capsys, "solve", "--m", "5", "--quad", "1,1,1,1",
                           "--set", "squares")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("quad", ["1,1,2", "1,x,2,2"])
    @pytest.mark.parametrize("command", ["solve", "oracle", "check"])
    def test_malformed_quad_is_usage_error(self, capsys, command, quad):
        coords = ["--x", "1", "--y", "1", "--z", "1", "--t", "1"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--m", "5", "--quad", quad, "--set", "squares",
                  *(coords if command == "check" else [])])
        assert exc.value.code == 2
        assert "expected four comma-separated integers" in (
            capsys.readouterr().err)


class TestVerify:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "1.3",
                           "--lo", "0", "--hi", "200")
        assert code == 0
        report = json.loads(out)
        assert report["failed"] == 0
        assert report["range"] == [0, 200]

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "1.1",
                           "--lo", "5", "--hi", "25", "--format", "csv",
                           "--workers", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,outcome"
        assert len(lines) == 21
        assert lines[1].startswith("5,")
        assert all(line.split(",")[1] in "VRF" for line in lines[1:])

    def test_failures_exit_one(self, capsys):
        # m=0 under the powers statement is the known unsolvable instance
        code, out, _ = run(capsys, "verify", "--theorem", "1.2",
                           "--lo", "0", "--hi", "3")
        assert code == 1
        assert json.loads(out)["failed"] == 1

    def test_checkpoint_flag(self, capsys, tmp_path):
        cp = str(tmp_path / "v.ckpt")
        code, out, _ = run(capsys, "verify", "--theorem", "1.3",
                           "--lo", "0", "--hi", "80", "--chunk", "16",
                           "--checkpoint", cp)
        assert code == 0
        code2, out2, _ = run(capsys, "verify", "--theorem", "1.3",
                             "--lo", "0", "--hi", "80", "--chunk", "16",
                             "--checkpoint", cp)
        assert code2 == 0
        strip = lambda rep: {k: v for k, v in json.loads(rep).items()
                             if k not in ("wall_ms", "per_sec")}
        assert strip(out) == strip(out2)

    def test_unreadable_checkpoint_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--theorem", "1.3",
                             "--lo", "0", "--hi", "80", "--checkpoint",
                             str(tmp_path))
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_empty_checkpoint_is_usage_error(self, capsys, tmp_path,
                                             monkeypatch):
        # --checkpoint "$CKPT" with CKPT unset: exit 2 before any work,
        # rather than a run that a Ctrl-C would lose.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "verify", "--theorem", "1.3",
                             "--lo", "0", "--hi", "80", "--checkpoint", "")
        assert (code, out) == (2, "")
        assert err == "error: checkpoint path must not be empty\n"
        assert os.listdir(tmp_path) == []

    def test_dead_pool_worker_is_an_error_not_a_traceback(self, capsys,
                                                          monkeypatch,
                                                          tmp_path,
                                                          fork_pool):
        # Forked workers inherit the stub and die at their first chunk;
        # the parent runs none of it.
        parent = os.getpid()

        def die_in_worker(theorem, start, end):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("a chunk ran in the parent")

        monkeypatch.setattr(verifier, "_run_chunk", die_in_worker)
        cp = str(tmp_path / "v.ckpt")
        code, out, err = run(capsys, "verify", "--theorem", "1.1",
                             "--lo", "0", "--hi", "64", "--chunk", "16",
                             "--workers", "2", "--checkpoint", cp)
        assert code == 2
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"--checkpoint {cp} to resume" in err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_threads_variable_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FOURSQ_THREADS", value)
        code, out, err = run(capsys, "verify", "--theorem", "1.3",
                             "--lo", "0", "--hi", "10")
        assert code == 2
        assert out == ""
        assert err == (f"error: FOURSQ_THREADS must be a positive integer, "
                       f"got {value!r}\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_workers_argument_is_named(self, capsys, value):
        code, out, err = run(capsys, "verify", "--theorem", "1.1",
                             "--lo", "0", "--hi", "20", "--workers", value)
        assert code == 2
        assert out == ""
        assert err == (f"error: workers must be a positive integer, "
                       f"got {value}\n")

    def test_closed_reader_exits_quietly(self):
        # The read end of stdout is closed before the command prints, so
        # its first write fails with EPIPE.
        src = os.path.dirname(os.path.dirname(foursq.__file__))
        read_end, write_end = os.pipe()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "foursq.cli", "verify", "--theorem",
                 "1.3", "--lo", "0", "--hi", "3000", "--chunk", "16",
                 "--workers", "1", "--format", "csv"],
                env=dict(os.environ, PYTHONPATH=src),
                stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
            os.close(read_end)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b"")


class TestEnumeration:
    def test_four_square_reps(self, capsys):
        code, out, _ = run(capsys, "reps", "--m", "22")
        assert code == 0
        rows = {tuple(map(int, line.split())) for line in out.splitlines()}
        assert rows == {(4, 2, 1, 1), (3, 3, 2, 0)}

    def test_three_square_reps(self, capsys):
        code, out, _ = run(capsys, "reps", "--m", "9", "--three")
        assert code == 0
        rows = [tuple(map(int, line.split())) for line in out.splitlines()]
        assert rows == [(3, 0, 0), (2, 2, 1)]

    def test_candidates(self, capsys):
        code, out, _ = run(capsys, "candidates", "--m", "17",
                           "--kind", "squares")
        assert code == 0
        assert out.split() == ["0", "1", "2"]


class TestOracleCommand:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle", "--m", "15", "--quad", "1,1,2,2",
                           "--set", "squares")
        assert code == 0
        assert "agree" in out
        assert "oracle:" in out and "solver:" in out

    def test_agreed_unsolvable(self, capsys):
        code, out, _ = run(capsys, "oracle", "--m", "0", "--quad", "1,2,3,5",
                           "--set", "pow2")
        assert code == 0
        assert out.count("none") == 2


class TestCheckCommand:
    def test_invalid_solution(self, capsys):
        code, out, _ = run(capsys, "check", "--m", "15", "--quad", "1,1,2,2",
                           "--set", "squares", "--x", "3", "--y", "2",
                           "--z", "1", "--t", "2")
        assert code == 1
        assert out.startswith("invalid")

    def test_out_of_range_coordinate_exits_three(self, capsys):
        code, _, err = run(capsys, "check", "--m", "15", "--quad", "1,1,2,2",
                           "--set", "squares", "--x", str(2**63), "--y", "0",
                           "--z", "0", "--t", "0")
        assert code == 3
        assert "error" in err


class TestRangeContract:
    def test_solve_beyond_int64_exits_three(self, capsys):
        code, out, err = run(capsys, "solve", "--m", "10000000000000000001",
                             "--quad", "1,1,2,2", "--set", "squares")
        assert code == 3
        assert out == ""
        assert "exceeds signed 64-bit range" in err

    def test_verify_range_past_int64_exits_three(self, capsys):
        # 2**63 reduces into range (it is 8 * 64**10), so the job itself
        # must reject the range before any m is verified.
        code, out, err = run(capsys, "verify", "--theorem", "1.1",
                             "--lo", str(2**63 - 1), "--hi", str(2**63 + 1))
        assert code == 3
        assert out == ""
        assert "exceeds signed 64-bit range" in err

    def test_candidates_beyond_int64_exits_three(self, capsys):
        code, out, err = run(capsys, "candidates", "--m", str(10**400),
                             "--kind", "cubes")
        assert code == 3
        assert out == ""
        assert "exceeds signed 64-bit range" in err

    def test_check_beyond_int64_exits_three(self, capsys):
        code, out, err = run(capsys, "check", "--m", str(10**20),
                             "--quad", "1,1,2,2", "--set", "squares",
                             "--x", "1", "--y", "0", "--z", "0", "--t", "0")
        assert code == 3
        assert out == ""
        assert "exceeds signed 64-bit range" in err

    def test_oracle_beyond_int64_exits_three(self, capsys):
        code, out, err = run(capsys, "oracle", "--m", str(10**30),
                             "--quad", "1,1,2,2", "--set", "squares")
        assert code == 3
        assert out == ""
        assert "exceeds signed 64-bit range" in err

    @pytest.mark.parametrize("three", [[], ["--three"]])
    def test_reps_beyond_int64_exits_three(self, capsys, three):
        code, out, err = run(capsys, "reps", "--m", str(10**23), *three)
        assert code == 3
        assert out == ""
        assert "exceeds signed 64-bit range" in err

    @pytest.mark.parametrize("three", [[], ["--three"]])
    def test_reps_beyond_work_bound_exits_two(self, capsys, three):
        code, out, err = run(capsys, "reps", "--m", str(10**6 + 1), *three)
        assert code == 2
        assert out == ""
        assert err == "error: reps limited to m <= 1000000, got 1000001\n"


class TestSelfChecks:
    def test_identities(self, capsys):
        code, out, _ = run(capsys, "identities")
        assert code == 0
        assert "29 identities verified" in out

    def test_identities_verbose(self, capsys):
        code, out, _ = run(capsys, "identities", "--verbose")
        assert code == 0
        assert out.count("ok") >= 29

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds")
        assert code == 0
        assert "bounds hold" in out
        assert "1.4a" in out and "1.4b" in out

    def test_identities_failure_exits_one(self, capsys, monkeypatch):
        suite = cli.identity_suite()
        monkeypatch.setattr(cli, "identity_suite",
                            lambda: [*suite, ("case 5: planted pair", False)])
        code, out, err = run(capsys, "identities", "--verbose")
        assert code == 1
        assert "FAIL case 5: planted pair" in out
        assert "case 5: 2 FAIL" in out
        assert f"1 of {len(suite) + 1} identities failed" in out
        assert "identities verified" not in out
        assert "Traceback" not in out + err

    def test_bounds_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_bounds", lambda: False)
        code, out, err = run(capsys, "bounds")
        assert code == 1
        assert out.splitlines()[-1] == "bounds check FAILED"
        assert "bounds hold" not in out
        assert "Traceback" not in out + err


def test_runtime_smoke_script(tmp_path):
    # CI runs the script after uninstalling mpmath; here a sitecustomize
    # refuses mpmath in every Python the script starts, and `foursq` runs
    # the CLI module of this checkout.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(foursq.__file__))
    bin_dir, hook_dir, work = (tmp_path / d for d in ("bin", "hook", "work"))
    for d in (bin_dir, hook_dir, work):
        d.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        "import sys\nsys.modules['mpmath'] = None\n")
    for name, args in (("foursq", "-m foursq.cli "), ("python", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {args}"$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=f"{hook_dir}{os.pathsep}{src}")
    proc = subprocess.run(
        ["bash", "-e", os.path.join(root, "tests", "runtime_smoke.sh")],
        cwd=work, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "bounds hold" in proc.stdout


def test_cli_import_loads_no_numpy():
    # Only the brute-force oracle imports numpy, on its first call.
    src = os.path.dirname(os.path.dirname(foursq.__file__))
    code = ("import os, sys, foursq.cli; "
            "task = '/proc/self/task'; "
            "print('numpy' in sys.modules, "
            "len(os.listdir(task)) if os.path.isdir(task) else 1)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]


# Every command but `oracle`, as the smoke script runs them: plain solves,
# both natural branches (the box at m = 52, the descent at m = 39, and the
# box deciding no solution, exit 1), a pinned n, 1.1 at 10**12 with 1 and
# 2 workers building their own tables, and 1.4a above its threshold.
_WITHOUT_NUMPY = [
    ["solve", "--m", "22", "--quad", "1,1,2,4", "--set", "cubes"],
    ["solve", "--m", "52", "--quad", "1,1,2,5", "--set", "squares",
     "--natural"],
    ["solve", "--m", "39", "--quad", "1,2,3,5", "--set", "squares",
     "--natural"],
    ["solve", "--m", "1000000007", "--quad", "2,2,3,0", "--set", "pow2",
     "--natural"],
    ["solve", "--m", "1000", "--quad", "1,2,3,5", "--set", "pow2", "--n", "8"],
    *(["verify", "--theorem", "1.1", "--lo", str(10**12),
       "--hi", str(10**12 + 64), "--chunk", "8", "--workers", w,
       "--format", "csv"] for w in ("1", "2")),
    ["verify", "--theorem", "1.4a", "--lo", "3740000000",
     "--hi", "3740000050", "--workers", "1"],
    ["check", "--m", "22", "--quad", "1,1,2,4", "--set", "cubes",
     "--x", "4", "--y", "-2", "--z", "1", "--t", "1"],
    ["candidates", "--m", "1000", "--kind", "cubes"],
    ["identities"],
    ["bounds"],
]


def test_commands_run_with_numpy_refused(capsys, tmp_path):
    # A sitecustomize refuses numpy in every Python the commands start,
    # pool workers included; each command then exits with the code and
    # prints the output it gives in this process.
    src = os.path.dirname(os.path.dirname(foursq.__file__))
    (tmp_path / "sitecustomize.py").write_text(
        "import sys\nsys.modules['numpy'] = None\n")
    env = dict(os.environ, PYTHONPATH=f"{tmp_path}{os.pathsep}{src}")

    def untimed(out):
        if not out.startswith("{"):
            return out
        return {k: v for k, v in json.loads(out).items()
                if k not in ("wall_ms", "per_sec")}

    outputs = []
    for argv in _WITHOUT_NUMPY:
        proc = subprocess.run([sys.executable, "-m", "foursq.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, untimed(proc.stdout)) == (code, untimed(out)), argv
        outputs.append((code, out))
    assert [code for code, _ in outputs] == [0, 0, 0, 1] + [0] * 8
    assert [out for _, out in outputs[1:3]] == ["x=0 y=4 z=6 t=0 n=16\n",
                                               "x=1 y=1 z=1 t=6 n=36\n"]
    assert outputs[5] == outputs[6]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# The argv grammar of every command that the range contract and the work
# bounds keep fast.  `solve --natural` and `solve --n` are left out: the
# natural box decides (2,2,3,0)/pow2 at once, but (1,1,2,5)/pow2 at
# m = 2**63 - 1 runs past a minute, and (1,2,2,2)/pow2 near 10**12 needs
# seconds until the descent is pruned to the natural cone.
_INTS = [str(v) for v in (-1, 0, 1, 2**63 - 1, 2**63, 10**30)]
_MALFORMED = ["x", "1.5", ""]
_INT = st.sampled_from(_INTS + _MALFORMED)
_QUAD = st.one_of(
    st.sampled_from([",".join(map(str, q)) for q in NINE_QUADRUPLES]),
    st.lists(st.sampled_from(_INTS), min_size=4, max_size=4).map(",".join),
    st.sampled_from(_MALFORMED))
_SET = st.sampled_from(["squares", "cubes", "pow2", "x"])
_SYSTEM = st.tuples(_INT, _QUAD, _SET).map(
    lambda s: ["--m", s[0], "--quad", s[1], "--set", s[2]])


@st.composite
def _verify_argv(draw):
    lo = draw(_INT)
    try:
        hi = str(int(lo) + draw(st.integers(0, 8)))  # at most 8 m
    except ValueError:
        hi = draw(_INT)
    # --workers is always given, so that no call starts more than 2
    # processes whatever the CPU count or FOURSQ_THREADS.
    return ["verify", "--theorem", draw(st.sampled_from(THEOREM_IDS)),
            "--lo", lo, "--hi", hi, "--chunk", draw(_INT),
            "--workers", draw(st.sampled_from(["-1", "0", "1", "2"])),
            "--format", draw(st.sampled_from(["json", "csv"]))]


_ARGV = st.one_of(
    st.tuples(_INT, st.booleans()).map(
        lambda a: ["reps", "--m", a[0]] + ["--three"] * a[1]),
    st.tuples(_INT, _SET).map(
        lambda a: ["candidates", "--m", a[0], "--kind", a[1]]),
    _SYSTEM.map(lambda s: ["oracle", *s]),
    st.tuples(_SYSTEM, st.lists(_INT, min_size=4, max_size=4)).map(
        lambda a: ["check", *a[0], "--x", a[1][0], "--y", a[1][1],
                   "--z", a[1][2], "--t", a[1][3]]),
    st.tuples(_SYSTEM, st.sampled_from(["human", "json"])).map(
        lambda a: ["solve", *a[0], "--format", a[1]]),
    _verify_argv())

# Seconds one call may take; the slowest drawn call takes about 0.1 s.
_CALL_CAP = 5.0


class _Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise _Overrun(f"call ran past {_CALL_CAP} s")


@settings(max_examples=400, deadline=None)
@given(argv=_ARGV)
@example(argv=["reps", "--m", str(2**63 - 1)])
def test_every_drawn_argv_keeps_the_exit_code_contract(argv):
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, _CALL_CAP)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 1, 2, 3), argv
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
