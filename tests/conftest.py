import os
import pathlib
import subprocess
import sys
import time

import pytest

from gjg.sweep import SweepConfig, run_sweep

# One line per acceptance criterion, echoed in the terminal summary so the
# verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def full_sweep():
    """One complete verification sweep shared by all acceptance criteria:
    every (v,k,i) with 2 <= v <= 16, v > k > i >= 0, C(v,k) <= 20000."""
    cfg = SweepConfig(v_max=16, max_vertices=20_000, jobs=1)
    start = time.monotonic()
    outcome = run_sweep(cfg)
    outcome.elapsed_seconds = time.monotonic() - start
    return outcome


@pytest.fixture
def src_env() -> dict[str, str]:
    """The environment of a child interpreter that imports gjg from this
    checkout's src/."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def fresh(src_env):
    """Run code in a fresh interpreter that imports gjg from this
    checkout's src/; the fixture returns the words it prints."""
    def run(code: str) -> list[str]:
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env, check=True, timeout=60)
        return done.stdout.split()

    return run


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
