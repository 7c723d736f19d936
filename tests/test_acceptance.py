"""Acceptance gate: the ten self-verification checks, one test line each.

Each check is an independent randomized verification of one advertised
guarantee (exact arithmetic throughout; no tolerances anywhere). Run with
`pytest -v tests/test_acceptance.py` to get one pass/fail line per criterion;
the same checks back `veronese-kit verify`.
"""

from types import SimpleNamespace

import pytest

from veronese_kit import verify
from veronese_kit.errors import RETRY_BUDGET, BudgetExceededError

from oracles import ZeroAfterRng

ALL_CHECKS = [check for suite in ("conic", "gale", "higher", "transversal", "dimension") for check in verify.SUITES[suite]]

SEED = 0


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_acceptance(check):
    result = check(SEED)
    line = f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_all_ten_criteria_are_covered():
    assert len(ALL_CHECKS) == 10
    assert len({check.__name__ for check in ALL_CHECKS}) == 10


@pytest.mark.xfail(
    strict=True,
    reason="a circulated tabulation expects 24 at (4, 8), but 24 contradicts "
    "the dimension formula d^2 + 2d + n - 3 = 29 that the tabulation itself "
    "cites (24 = dim PGL_5, a plausible transcription slip); the exact "
    "Jacobian rank is 29, asserted by the criterion-10 check above",
)
def test_dimension_tabulation_value_at_4_8():
    from veronese_kit.configurations import dimension_estimate

    assert dimension_estimate(4, 8, seed=SEED) == 24


def test_minor_duality_redraw_is_bounded(monkeypatch):
    # every draw is 0, so no (d+1) x n draw has full rank; the first pair is (2, 6)
    rngs = []

    def zero_rng(seed):
        rngs.append(ZeroAfterRng(seed))
        return rngs[-1]

    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=zero_rng))
    with pytest.raises(BudgetExceededError, match=f"no full-rank 3x6 draw in {RETRY_BUDGET} tries"):
        verify.check_minor_duality(SEED)
    assert [rng.calls for rng in rngs] == [RETRY_BUDGET * 3 * 6]


def test_minor_duality_check_lets_internal_errors_through(monkeypatch):
    # only a refused standard pair is skipped; any other error is a bug and propagates
    def broken(A):
        raise ZeroDivisionError("internal bug")

    monkeypatch.setattr(verify, "standard_gale_pair", broken)
    with pytest.raises(ZeroDivisionError, match="internal bug"):
        verify.check_minor_duality(SEED)
