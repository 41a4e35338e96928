from __future__ import annotations

import pytest

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    # CI runs with --hypothesis-profile=ci, so a failing property test prints
    # the blob that reproduces it (@reproduce_failure).
    settings.register_profile("ci", print_blob=True)

# Each acceptance test records (criterion, passed, detail) before asserting, so
# the terminal summary always prints one line per criterion even on failure.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture
def acceptance():
    def record(criterion: str, passed: bool, detail: str = "") -> None:
        ACCEPTANCE_RESULTS.append((criterion, passed, detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {criterion}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
