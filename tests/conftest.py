"""Shared pytest configuration.

Prints a one-line PASS/FAIL summary per acceptance criterion at the end of
the run, so the acceptance gate is readable without digging through the
full log, and ends the run when one test runs past a ceiling.
"""

import faulthandler
import os
import re
import sys

import pytest

# A test call running longer than this dumps every thread's traceback and
# exits, so a loop that never ends fails the suite instead of hanging it.
# Above every acceptance budget; criterion 5's 600 s is the largest.  The
# timer runs on faulthandler's own thread, so it leaves SIGALRM to tests.
CEILING_S = 900
_stderr_fd = None


def pytest_configure(config):
    # A copy of stderr taken outside capture, so the dump reaches the terminal.
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(CEILING_S, exit=True, file=_stderr_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", "call") != "call":
                continue
            nodeid = str(rep.nodeid)
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            match = re.match(r"test_(\d+)_(\w+)", name)
            if not match:
                continue
            num = int(match.group(1))
            label = match.group(2).replace("_", " ")
            rows[num] = (label, "PASS" if outcome == "passed" else "FAIL")
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(rows):
        label, verdict = rows[num]
        terminalreporter.write_line(f"criterion {num:2d} ({label}): {verdict}")
