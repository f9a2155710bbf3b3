"""Shared test plumbing: the acceptance-criteria scoreboard and a span probe.

Tests in test_acceptance.py wrap their body in ``with criterion(n, "...")``.
The hook below prints one PASS/FAIL line per criterion at the end of the
run, whether or not stdout capture is on. ``ratio_outside(basis, op)`` is
the ratio HSBasis.extend_block would give ``op``, so ``op`` lies in the
span at tolerance tol exactly when the ratio is at most tol.
"""

from contextlib import contextmanager

import pytest

from lindblad_certify.opalg import HSBasis

ACCEPTANCE = {}


@pytest.fixture
def criterion():
    @contextmanager
    def _criterion(num, summary):
        ACCEPTANCE[num] = (False, summary)
        yield
        ACCEPTANCE[num] = (True, summary)

    return _criterion


@pytest.fixture
def ratio_outside():
    """extend_block's ratio for an operator against a copy of a basis."""
    return lambda basis, op: HSBasis.from_orthonormal(basis.vectors).extend_block(
        op.mat.reshape(1, -1), 1.0)[1][0]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        passed, summary = ACCEPTANCE[num]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {word} - {summary}")
