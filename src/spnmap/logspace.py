"""Log-domain probability arithmetic with an exact-zero sentinel.

All network propagation works on natural-log values so that deeply nested
products (for example amplified networks with many copies) cannot underflow.
A probability of exactly zero is represented by ``-inf``, never by a tiny
linear float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

LOG_ZERO = float("-inf")


def logsumexp(values: Iterable[float]) -> float:
    """Stable log(sum(exp(v))) over scalars; all ``-inf`` yields ``-inf``."""
    vals = list(values)
    m = max(vals)
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(sum(math.exp(v - m) for v in vals))


def logsumexp_rows(rows: np.ndarray) -> np.ndarray:
    """Column-wise log-sum-exp of a ``(t, k)`` array, ``-inf`` safe."""
    m = rows.max(axis=0)
    out = np.full(rows.shape[1], LOG_ZERO)
    finite = m > LOG_ZERO
    if np.any(finite):
        shifted = rows[:, finite] - m[finite]
        out[finite] = m[finite] + np.log(np.exp(shifted).sum(axis=0))
    return out


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
