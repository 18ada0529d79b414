"""Likelihood-ratio ANOVA for nested count models.

Section VI formalizes "do users differ in their failure rates?" by
fitting a *saturated* Poisson model (one rate per user, each user's
actual failure count and usage period) against a *common-rate* model
(one shared rate), then applying an ANOVA test; the saturated model wins
at 99% confidence.  For Poisson models compared by deviance this is a
likelihood-ratio chi-square test, implemented here both for raw per-unit
rate data (:func:`saturated_vs_common_rate`) and for two fitted
:class:`~repro.stats.glm.GLMResult` objects (:func:`likelihood_ratio_test`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, gammaln

from .glm import GLMResult


class AnovaError(ValueError):
    """Raised on invalid model comparisons."""


@dataclass(frozen=True, slots=True)
class AnovaResult:
    """Outcome of a likelihood-ratio model comparison.

    Attributes:
        statistic: the LR chi-square statistic (twice the log-likelihood
            gap between the richer and the poorer model).
        dof: difference in parameter counts.
        p_value: right-tail chi-square p-value.
        significant: True when the richer model is significantly better
            at level ``alpha``.
        alpha: significance level used (paper: 0.01).
        loglik_full: log-likelihood of the richer model.
        loglik_reduced: log-likelihood of the poorer model.
    """

    statistic: float
    dof: int
    p_value: float
    significant: bool
    alpha: float
    loglik_full: float
    loglik_reduced: float


def _finalize(
    ll_full: float, ll_reduced: float, dof: int, alpha: float
) -> AnovaResult:
    if not (0.0 < alpha < 1.0):
        raise AnovaError(f"alpha must be in (0, 1), got {alpha}")
    if dof < 1:
        raise AnovaError("the models do not differ in parameter count")
    statistic = max(0.0, 2.0 * (ll_full - ll_reduced))
    p_value = float(chdtrc(dof, statistic))
    return AnovaResult(
        statistic, dof, p_value, p_value < alpha, alpha, ll_full, ll_reduced
    )


def likelihood_ratio_test(
    full: GLMResult, reduced: GLMResult, alpha: float = 0.01
) -> AnovaResult:
    """LR test between two nested fitted GLMs of the same family.

    The caller is responsible for actual nesting (same data, the reduced
    model's predictors a subset of the full model's); the function checks
    what it can: same family, same observation count, fewer parameters in
    the reduced model, and a log-likelihood that does not decrease with
    added parameters.
    """
    if full.family != reduced.family:
        raise AnovaError(
            f"cannot compare {full.family} against {reduced.family}"
        )
    if full.n_obs != reduced.n_obs:
        raise AnovaError(
            "models were fitted on different numbers of observations"
        )
    dof = len(full.coefficients) - len(reduced.coefficients)
    if dof < 1:
        raise AnovaError(
            "the full model must have more parameters than the reduced model"
        )
    if full.log_likelihood < reduced.log_likelihood - 1e-6:
        raise AnovaError(
            "full model fits worse than reduced model; the models are "
            "probably not nested"
        )
    return _finalize(full.log_likelihood, reduced.log_likelihood, dof, alpha)


def saturated_vs_common_rate(
    counts: np.ndarray,
    exposures: np.ndarray,
    alpha: float = 0.01,
) -> AnovaResult:
    """Section VI's test: per-unit Poisson rates vs one common rate.

    The saturated model gives unit ``i`` its own rate
    ``counts[i] / exposures[i]``; the common-rate model shares
    ``sum(counts) / sum(exposures)``.  Both likelihoods have closed
    forms, so no IRLS fit is needed.

    Args:
        counts: events per unit (e.g. node-caused job failures per user).
        exposures: positive exposure per unit (e.g. processor-days used).
        alpha: significance level (paper: 0.01 / 99% confidence).
    """
    c = np.asarray(counts, dtype=float)
    e = np.asarray(exposures, dtype=float)
    if c.ndim != 1 or c.shape != e.shape or c.size < 2:
        raise AnovaError("need matching 1-D counts/exposures for >= 2 units")
    if (c < 0).any() or np.any(np.abs(c - np.round(c)) > 1e-8):
        raise AnovaError("counts must be non-negative integers")
    if (e <= 0).any():
        raise AnovaError("exposures must be positive")
    total_c, total_e = float(c.sum()), float(e.sum())
    if total_c == 0:
        raise AnovaError("all counts are zero; the comparison is undefined")

    def loglik(mu: np.ndarray) -> float:
        mu = np.maximum(mu, 1e-300)
        return float((c * np.log(mu) - mu - gammaln(c + 1)).sum())

    ll_full = loglik(np.maximum(c, 0.0))  # saturated: mu_i = c_i
    ll_reduced = loglik(total_c / total_e * e)  # common rate * exposure
    return _finalize(ll_full, ll_reduced, c.size - 1, alpha)
