"""Log-domain probability arithmetic with an exact-zero sentinel.

All network propagation works on natural-log values so that deeply nested
products (for example amplified networks with many copies) cannot underflow.
A probability of exactly zero is represented by ``-inf``, never by a tiny
linear float.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

LOG_ZERO = float("-inf")


def logsumexp(values: Iterable[float]) -> float:
    """Stable log(sum(exp(v))) over scalars; all ``-inf`` yields ``-inf``.

    The exponentials are added strictly in order, on every Python version:
    the builtin ``sum`` compensates its rounding from Python 3.12 on.
    """
    vals = list(values)
    m = max(vals)
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(functools.reduce(operator.add, (math.exp(v - m) for v in vals)))


def logsumexp_rows(rows: np.ndarray) -> np.ndarray:
    """Column-wise log-sum-exp of a ``(t, k)`` array, ``-inf`` safe."""
    m = rows.max(axis=0)
    out = np.full(rows.shape[1], LOG_ZERO)
    finite = m > LOG_ZERO
    if np.any(finite):
        shifted = rows[:, finite] - m[finite]
        out[finite] = m[finite] + np.log(np.exp(shifted).sum(axis=0))
    return out


def logsumexp_stacked(terms: np.ndarray) -> np.ndarray:
    """``logsumexp_rows`` of each ``terms[i]``, bit for bit, as one ``(m, k)`` array.

    ``terms`` is ``(m, t, k)`` and is overwritten.  ``logsumexp_rows`` adds
    each column's exponentials as one contiguous run, which numpy sums in
    order below 8 terms and pairwise from 8; this adds them the same way.
    """
    peak = terms.max(axis=1)
    finite = peak > LOG_ZERO
    terms -= np.where(finite, peak, 0.0)[:, None, :]
    np.exp(terms, out=terms)
    if terms.shape[1] < 8:
        total = terms[:, 0].copy()
        for j in range(1, terms.shape[1]):
            total += terms[:, j]
    else:
        total = np.ascontiguousarray(terms.transpose(0, 2, 1)).sum(axis=2)
    np.log(total, out=total, where=finite)  # a column of LOG_ZERO keeps its total, 0
    total += peak
    return total


@dataclass(frozen=True, order=True)
class Probability:
    """A probability held in log space with a linear accessor."""

    log: float

    @property
    def linear(self) -> float:
        return math.exp(self.log)

    @property
    def is_zero(self) -> bool:
        return self.log == LOG_ZERO
