"""Correlation measures.

Section V quantifies the usage-failure relationship with the Pearson
correlation coefficient (0.465 and 0.12 for systems 8 and 20) and notes
that removing node 0 drops it to insignificance.  This module implements
Pearson's r with its t-test from scratch, plus Spearman rank correlation
(robust to the heavy-tailed usage distributions) and the autocorrelation
function of an event-count series that prior failure-modeling work uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats
from scipy.special import stdtr


class CorrelationError(ValueError):
    """Raised on invalid correlation inputs."""


@dataclass(frozen=True, slots=True)
class CorrelationResult:
    """A correlation coefficient with its significance test.

    Attributes:
        coefficient: the correlation estimate, in [-1, 1].
        n: number of paired observations.
        statistic: the t statistic of the null "true correlation is 0".
        p_value: two-sided p-value.
        significant: True when the null is rejected at ``alpha``.
        alpha: significance level used.
    """

    coefficient: float
    n: int
    statistic: float
    p_value: float
    significant: bool
    alpha: float


def _validate_pairs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise CorrelationError("inputs must be 1-D arrays")
    if x.shape != y.shape:
        raise CorrelationError(
            f"length mismatch: {x.shape[0]} vs {y.shape[0]}"
        )
    if x.size < 3:
        raise CorrelationError("need at least 3 paired observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise CorrelationError("inputs must be finite")
    return x, y


def _t_test_for_r(r: float, n: int, alpha: float) -> CorrelationResult:
    if not (0.0 < alpha < 1.0):
        raise CorrelationError(f"alpha must be in (0, 1), got {alpha}")
    r = max(-1.0, min(1.0, r))
    dof = n - 2
    if abs(r) >= 1.0:
        return CorrelationResult(r, n, float("inf"), 0.0, True, alpha)
    t = r * math.sqrt(dof / (1.0 - r * r))
    p = 2.0 * float(stdtr(dof, -abs(t)))
    return CorrelationResult(r, n, t, p, p < alpha, alpha)


def pearson(x: np.ndarray, y: np.ndarray, alpha: float = 0.05) -> CorrelationResult:
    """Pearson product-moment correlation with a two-sided t-test.

    Raises :class:`CorrelationError` when either input is constant (the
    coefficient is undefined there, and silently returning 0 would hide a
    degenerate analysis).
    """
    x, y = _validate_pairs(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        raise CorrelationError("correlation undefined for a constant input")
    r = float((xc * yc).sum() / (sx * sy))
    return _t_test_for_r(r, x.size, alpha)


def spearman(x: np.ndarray, y: np.ndarray, alpha: float = 0.05) -> CorrelationResult:
    """Spearman rank correlation (Pearson on midranks) with a t-test.

    More robust than Pearson for the heavy-tailed job-count and failure
    distributions of Section V; exposed so analyses can report both.
    """
    x, y = _validate_pairs(x, y)
    rx = _scipy_stats.rankdata(x)
    ry = _scipy_stats.rankdata(y)
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        raise CorrelationError("correlation undefined for a constant input")
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    r = float(
        (rxc * ryc).sum()
        / math.sqrt((rxc * rxc).sum() * (ryc * ryc).sum())
    )
    return _t_test_for_r(r, x.size, alpha)


def autocorrelation(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelation function of a series up to ``max_lag``.

    Returns an array ``acf`` with ``acf[0] == 1`` and ``acf[k]`` the lag-k
    autocorrelation.  Used to characterise temporal clustering in daily
    failure-count series (the statistical-modeling lens the paper
    contrasts itself with, kept for completeness).
    """
    s = np.asarray(series, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise CorrelationError("need a 1-D series of length >= 2")
    if max_lag < 0 or max_lag >= s.size:
        raise CorrelationError(
            f"max_lag must be in [0, {s.size - 1}], got {max_lag}"
        )
    c = s - s.mean()
    denom = float((c * c).sum())
    if denom == 0.0:
        raise CorrelationError("autocorrelation undefined for constant series")
    acf = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        acf[k] = float((c[: s.size - k] * c[k:]).sum()) / denom
    return acf
