"""Command-line interface: exit codes, output formats, round-trips."""

import json
import os
import subprocess
import sys

import pytest

import foursq
from foursq.cli import main


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

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_threads_variable_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FOURSQ_THREADS", value)
        code, out, err = run(capsys, "verify", "--theorem", "1.3",
                             "--lo", "0", "--hi", "10")
        assert code == 2
        assert out == ""
        assert err == (f"error: FOURSQ_THREADS must be a positive integer, "
                       f"got {value!r}\n")

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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
