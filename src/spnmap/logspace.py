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


#: From 8 terms on, ``logsumexp_stacked`` adds terms of fewer columns than
#: this as numpy's sum of a transposed copy, in two calls, and wider ones in
#: place, in a call or more per eight terms.  The copy costs more from about
#: 256 columns on (numpy 2.4.6 on one core of a Xeon host).
_NARROW = 256


@np.errstate(under="ignore")  # exp underflows where a term lies 708 or more below its peak
def logsumexp_stacked(terms: np.ndarray, sparse: bool = False) -> np.ndarray:
    """Column-wise log-sum-exp of each ``terms[i]``, as one ``(m, k)`` array; ``-inf`` safe.

    ``terms`` is ``(m, t, k)`` and is overwritten.  Each column's
    exponentials are added as numpy sums one contiguous run of them, in
    order below 8 terms and pairwise from 8, through a transposed copy or in
    place along axis 1 (``_pairwise_sum``): every column has the bits of the
    test oracles' column-wise reference, whatever ``m`` and ``k``.
    ``sparse`` exponentiates only the terms above ``LOG_ZERO`` and sets the
    rest to 0, the same bits: faster where most terms are ``LOG_ZERO``,
    whose exponential numpy takes slowly, and slower where few are.
    """
    peak = terms.max(axis=1)
    finite = peak > LOG_ZERO
    terms -= np.where(finite, peak, 0.0)[:, None, :]
    if sparse:
        np.exp(terms, out=terms, where=terms > LOG_ZERO)
        np.maximum(terms, 0.0, out=terms)
    else:
        np.exp(terms, out=terms)
    if terms.shape[1] >= 8 and terms.shape[2] < _NARROW:
        total = np.ascontiguousarray(terms.transpose(0, 2, 1)).sum(axis=2)
    else:
        total = _pairwise_sum(terms)
    np.log(total, out=total, where=finite)  # a column of LOG_ZERO keeps its total, 0
    total += peak
    return total


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum`` along axis 1 in the order numpy adds a contiguous run.

    Below 8 terms in order, into a copy of the first; up to 128, in place:
    eight running sums of every eighth term, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest in order; above
    128, the two halves split at a multiple of 8.
    """
    t = terms.shape[1]
    if t > 128:
        half = t // 2 - t // 2 % 8
        total = _pairwise_sum(terms[:, :half])
        total += _pairwise_sum(terms[:, half:])
        return total
    if t < 8:
        total = terms[:, 0].copy()
        for j in range(1, t):
            total += terms[:, j]
        return total
    done = t - t % 8
    lanes = terms[:, :8]
    for j in range(8, done, 8):
        lanes += terms[:, j : j + 8]
    lanes[:, ::2] += lanes[:, 1::2]
    lanes[:, ::4] += lanes[:, 2::4]
    total = lanes[:, 0]
    total += lanes[:, 4]
    for j in range(done, t):
        total += terms[:, j]
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
