"""Log-domain arithmetic: sentinel handling, stability, Probability ordering."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spnmap import LOG_ZERO, Probability
from spnmap.logspace import logsumexp, logsumexp_stacked
from oracles import logsumexp_rows


def test_log_zero_is_minus_infinity():
    assert LOG_ZERO == float("-inf")


def test_logsumexp_matches_direct_sum():
    vals = [math.log(0.1), math.log(0.2), math.log(0.3)]
    assert logsumexp(vals) == pytest.approx(math.log(0.6), rel=1e-12)


def test_logsumexp_all_zero_probability():
    assert logsumexp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO


def test_logsumexp_ignores_zero_terms():
    assert logsumexp([LOG_ZERO, math.log(0.25)]) == pytest.approx(math.log(0.25))


def test_logsumexp_adds_in_order():
    # exp(log(2**-53)) is a little above 2**-53, so each in-order addition
    # rounds up: 1 + 2**-52, then 1 + 2**-51.  A compensated sum, as the
    # builtin ``sum`` takes from Python 3.12 on, gives 1 + 2**-52.
    tiny = math.log(2**-53)
    assert logsumexp([0.0, tiny, tiny]) == math.log(1.0000000000000004)


def test_logsumexp_survives_large_magnitudes():
    # exp(-1000) underflows linear doubles; the shifted form must not.
    out = logsumexp([-1000.0, -1000.0])
    assert out == pytest.approx(-1000.0 + math.log(2.0), rel=1e-12)


@given(st.lists(st.floats(min_value=-50, max_value=0), min_size=1, max_size=8))
def test_logsumexp_agrees_with_linear_domain(vals):
    expected = math.log(math.fsum(math.exp(v) for v in vals))
    assert logsumexp(vals) == pytest.approx(expected, rel=1e-12)


def test_logsumexp_stacked_matches_scalar_per_column():
    rows = np.array([[math.log(0.1), LOG_ZERO, -900.0],
                     [math.log(0.4), LOG_ZERO, -901.0]])
    (out,) = logsumexp_stacked(rows[None])
    assert out[0] == pytest.approx(logsumexp([math.log(0.1), math.log(0.4)]))
    assert out[1] == LOG_ZERO
    assert out[2] == pytest.approx(logsumexp([-900.0, -901.0]))


def test_logsumexp_stacked_all_zero_column_is_quiet():
    rows = np.full((3, 4), LOG_ZERO)
    with np.errstate(all="raise"):
        (out,) = logsumexp_stacked(rows[None])
    assert all(v == LOG_ZERO for v in out)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("fan", [*range(1, 41), 127, 128, 129, 300])
def test_logsumexp_stacked_is_logsumexp_rows_of_each_slice(fan, sparse):
    # Terms of one magnitude, whose sums round differently in another order;
    # one in ten more than 745 below its column's peak, where exp underflows;
    # columns partly LOG_ZERO and every seventh wholly.  Fewer than 256
    # columns take numpy's own sum of a transposed copy from 8 terms on, and
    # more take the adds in place.
    rng = np.random.default_rng(fan)
    for columns in (5, 300):
        terms = rng.normal(0.0, 1.0, size=(3, fan, columns))
        terms[rng.random(terms.shape) < 0.1] -= 800.0
        terms[rng.random(terms.shape) < 0.4] = LOG_ZERO
        terms[:, :, ::7] = LOG_ZERO
        expected = np.stack([logsumexp_rows(rows) for rows in terms])
        with np.errstate(all="raise"):
            out = logsumexp_stacked(terms.copy(), sparse)
        assert out.tobytes() == expected.tobytes()


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
