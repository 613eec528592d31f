"""Acceptance gate: every criterion runs at its stated tolerance.

One test per criterion; each prints its pass/fail line (visible with -s or
via `fpvanish acceptance`).  Criterion 5 is a known mathematical impossibility
at p = 7: the smallest arithmetic subset of F_7 has 5 elements (exhaustively
verifiable), while the required bound 2*floor(log2 7) is 4.  The test asserts
the criterion as stated and therefore fails, deliberately: the search reports
the nonexistence definitively instead of being weakened to pass.
"""

from __future__ import annotations

import pytest

from fpvanish import acceptance as ac


@pytest.mark.parametrize(
    "criterion",
    ac.ALL_CRITERIA,
    ids=[f"criterion_{i:02d}" for i in range(1, len(ac.ALL_CRITERIA) + 1)],
)
def test_criterion(criterion):
    result = criterion(ac.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.detail


@pytest.mark.parametrize("criterion", [ac.criterion_6_descent, ac.criterion_7_additive_basis])
def test_caught_exception_types_reported(criterion, monkeypatch):
    from fpvanish import decomposition as dc

    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(dc, "represent_in_set", broken)
    result = criterion(ac.DEFAULT_SEED)
    assert not result.passed
    assert result.detail.endswith("; raised ZeroDivisionError")
