"""Log-domain arithmetic: sentinel handling, stability, Probability ordering."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spnmap import LOG_ZERO, Probability
from spnmap.logspace import logsumexp, logsumexp_rows


def test_log_zero_is_minus_infinity():
    assert LOG_ZERO == float("-inf")


def test_logsumexp_matches_direct_sum():
    vals = [math.log(0.1), math.log(0.2), math.log(0.3)]
    assert logsumexp(vals) == pytest.approx(math.log(0.6), rel=1e-12)


def test_logsumexp_all_zero_probability():
    assert logsumexp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO


def test_logsumexp_ignores_zero_terms():
    assert logsumexp([LOG_ZERO, math.log(0.25)]) == pytest.approx(math.log(0.25))


def test_logsumexp_survives_large_magnitudes():
    # exp(-1000) underflows linear doubles; the shifted form must not.
    out = logsumexp([-1000.0, -1000.0])
    assert out == pytest.approx(-1000.0 + math.log(2.0), rel=1e-12)


@given(st.lists(st.floats(min_value=-50, max_value=0), min_size=1, max_size=8))
def test_logsumexp_agrees_with_linear_domain(vals):
    expected = math.log(math.fsum(math.exp(v) for v in vals))
    assert logsumexp(vals) == pytest.approx(expected, rel=1e-12)


def test_logsumexp_rows_matches_scalar_per_column():
    rows = np.array([[math.log(0.1), LOG_ZERO, -900.0],
                     [math.log(0.4), LOG_ZERO, -901.0]])
    out = logsumexp_rows(rows)
    assert out[0] == pytest.approx(logsumexp([math.log(0.1), math.log(0.4)]))
    assert out[1] == LOG_ZERO
    assert out[2] == pytest.approx(logsumexp([-900.0, -901.0]))


def test_logsumexp_rows_all_zero_column_is_quiet():
    rows = np.full((3, 4), LOG_ZERO)
    with np.errstate(all="raise"):
        out = logsumexp_rows(rows)
    assert all(v == LOG_ZERO for v in out)


def test_probability_round_trip():
    p = Probability(math.log(0.3))
    assert p.linear == pytest.approx(0.3, rel=1e-15)
    assert not p.is_zero


def test_probability_zero_sentinel():
    zero = Probability(LOG_ZERO)
    assert zero.is_zero
    assert zero.linear == 0.0


def test_probability_orders_by_log():
    assert Probability(math.log(0.1)) < Probability(math.log(0.2))
    assert Probability(LOG_ZERO) < Probability(math.log(1e-300))
