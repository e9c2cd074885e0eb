"""Shared acceptance-line reporting: one PASS/FAIL line per criterion check."""
import time

import pytest

ACCEPTANCE_LINES: list[str] = []

# perf_counter() when the running test began, set by the fixture below.
_TEST_START = [0.0]


@pytest.fixture(autouse=True)
def _start_clock():
    _TEST_START[0] = time.perf_counter()


def record_criterion(name: str, passed: bool, detail: str) -> None:
    """Log one acceptance check with the seconds since its test began, then enforce it.

    The line lands both in the test's captured output and in a summary
    section at the end of the run, so failing checks stay visible next to
    the passing ones.
    """
    elapsed = time.perf_counter() - _TEST_START[0]
    line = (f"criterion {name}: {'PASS' if passed else 'FAIL'} -- {detail} "
            f"[{elapsed:.2f}s into the test]")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
