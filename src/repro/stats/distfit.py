"""Distribution fitting for inter-arrival times.

The paper positions itself against prior work that statistically models
the failure process -- e.g. fitting Weibull/lognormal/gamma/exponential
distributions to the time between failures [12] and analysing
autocorrelation.  This module supplies that classical toolkit so the
library covers both lenses: maximum-likelihood fits for the four
standard reliability distributions, Kolmogorov-Smirnov goodness of fit,
and AIC-based model selection.

Every fit is the exact MLE with the location fixed at zero.  The
exponential and lognormal estimates are closed forms; the gamma and
Weibull shapes are the roots of their scalar profile-likelihood
equations, solved by a bracketed Newton iteration (:func:`_newton_root`).
Likelihoods, CDFs and means are closed forms on numpy and
:mod:`scipy.special`; the tests check every number against
``scipy.stats``.

A Weibull shape parameter below 1 means a *decreasing hazard rate* --
failures cluster, the signature finding of large-scale failure studies
and consistent with this paper's correlation results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sc
from scipy.stats import kstwo as _kstwo


class DistFitError(ValueError):
    """Raised on invalid samples, unknown families or failed solves."""


#: The distribution families fitted, in the order results are reported.
FAMILIES: tuple[str, ...] = ("exponential", "weibull", "lognormal", "gamma")

#: Newton iterations allowed before a shape solve counts as failed.
_MAX_NEWTON_STEPS = 100

#: Relative step size at which a shape solve has converged.
_NEWTON_RTOL = 1e-14

#: A few ulps: the rounding error of a sum of logs, relative to its size.
_ROUNDING = 8.0 * np.finfo(float).eps

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True, slots=True)
class DistributionFit:
    """One fitted distribution family.

    Attributes:
        family: distribution name (see :data:`FAMILIES`).
        params: scipy-ordered shape/loc/scale parameter tuple (loc is 0).
        log_likelihood: maximized log-likelihood.
        aic: Akaike information criterion (lower is better).
        ks_statistic: Kolmogorov-Smirnov distance to the sample.
        n: sample size.
    """

    family: str
    params: tuple[float, ...]
    log_likelihood: float
    aic: float
    ks_statistic: float
    n: int

    @property
    def ks_p_value(self) -> float:
        """Exact one-sample KS test p-value (small = poor fit).

        Computed on access, as ``scipy.stats.kstest`` does by default.
        """
        return float(np.clip(_kstwo.sf(self.ks_statistic, self.n), 0.0, 1.0))

    @property
    def mean(self) -> float:
        """Mean of the fitted distribution."""
        scale = self.params[-1]
        if self.family == "exponential":
            return scale
        shape = self.params[0]
        if self.family == "weibull":
            return float(_sc.gamma(1.0 + 1.0 / shape)) * scale
        if self.family == "lognormal":
            return math.exp(0.5 * shape * shape) * scale
        return shape * scale

    @property
    def shape(self) -> float | None:
        """Shape parameter, when the family has one.

        Weibull: k (< 1 means decreasing hazard).  Lognormal: sigma.
        Gamma: k.  Exponential: None.
        """
        if self.family == "exponential":
            return None
        return float(self.params[0])

    @property
    def decreasing_hazard(self) -> bool | None:
        """Whether the fitted law implies a decreasing hazard rate.

        Defined for Weibull (shape < 1) and gamma (shape < 1); None for
        the others (exponential is constant by definition; lognormal is
        non-monotone).
        """
        if self.family in ("weibull", "gamma"):
            return self.shape is not None and self.shape < 1.0
        if self.family == "exponential":
            return False
        return None


def _validate_sample(samples: np.ndarray) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 8:
        raise DistFitError("need a 1-D sample of at least 8 inter-arrivals")
    if not np.isfinite(x).all():
        raise DistFitError("sample must be finite")
    if (x <= 0).any():
        raise DistFitError(
            "inter-arrival times must be positive; drop simultaneous events"
        )
    return x


def _newton_root(
    fn: Callable[[float], tuple[float, float]], x0: float, what: str
) -> float:
    """Root on (0, inf) of a strictly increasing ``fn`` (value, slope).

    Newton steps from ``x0``; every evaluation narrows a bracket around
    the root, and a step that leaves it is replaced by doubling, halving
    or bisection.  Raises :class:`DistFitError` when no root is found.
    """
    lo, hi, x = 0.0, math.inf, x0
    for _ in range(_MAX_NEWTON_STEPS):
        value, slope = fn(x)
        if not (math.isfinite(value) and math.isfinite(slope)):
            break
        if value == 0.0:
            return x
        if value < 0.0:
            lo = x
        else:
            hi = x
        step = x - value / slope if slope > 0.0 else math.nan
        if not lo < step < hi:
            if hi == math.inf:
                step = 2.0 * x
            elif lo == 0.0:
                step = 0.5 * x
            else:
                step = 0.5 * (lo + hi)
        if abs(step - x) <= _NEWTON_RTOL * step:
            return step
        x = step
    raise DistFitError(f"{what} solve did not converge on this sample")


def _require_spread(logx: np.ndarray, family: str) -> None:
    if logx[-1] == logx[0]:
        raise DistFitError(
            f"{family} fit needs distinct values; the sample has no spread"
        )


# Each fitter takes the sorted sample and its logs and returns the
# scipy-ordered parameters, the log-likelihood and the fitted CDF at x.
_Fitted = tuple[tuple[float, ...], float, np.ndarray]


def _fit_exponential(x: np.ndarray, logx: np.ndarray) -> _Fitted:
    scale = float(x.mean())
    y = x / scale
    ll = -float(y.sum()) - x.size * math.log(scale)
    return (0.0, scale), ll, -np.expm1(-y)


def _fit_lognormal(x: np.ndarray, logx: np.ndarray) -> _Fitted:
    _require_spread(logx, "lognormal")
    mu = float(logx.mean())
    sigma = math.sqrt(float(np.mean((logx - mu) ** 2)))
    z = (logx - mu) / sigma
    n = x.size
    ll = (
        -0.5 * float(z @ z)
        - n * (math.log(sigma) + _HALF_LOG_2PI)
        - float(logx.sum())
    )
    return (sigma, 0.0, math.exp(mu)), ll, _sc.ndtr(z)


def _fit_weibull(x: np.ndarray, logx: np.ndarray) -> _Fitted:
    """Weibull MLE from the profile equation in the shape k.

    sum(x^k ln x) / sum(x^k) - 1/k - mean(ln x) = 0 is strictly
    increasing in k; the x^k weights are taken relative to the largest
    so they cannot overflow.
    """
    _require_spread(logx, "weibull")
    centre = float(logx.mean())
    dev = logx - centre
    top = float(dev[-1])
    below_top = dev - top

    def profile(k: float) -> tuple[float, float]:
        w = np.exp(k * below_top)
        total = float(w.sum())
        m1 = float(w @ dev) / total
        spread = dev - m1
        return m1 - 1.0 / k, float(w @ (spread * spread)) / total + 1.0 / (k * k)

    k0 = math.pi / (math.sqrt(6.0) * float(dev.std()))
    k = _newton_root(profile, k0, "weibull shape")
    log_scale = centre + top + math.log(float(np.exp(k * below_top).mean())) / k
    z = k * (logx - log_scale)  # ln (x / scale)^k
    yk = np.exp(z)
    ll = (
        x.size * (math.log(k) - log_scale)
        + (k - 1.0) / k * float(z.sum())
        - float(yk.sum())
    )
    return (k, 0.0, math.exp(log_scale)), ll, -np.expm1(-yk)


def _fit_gamma(x: np.ndarray, logx: np.ndarray) -> _Fitted:
    """Gamma MLE: ln a - digamma(a) = ln mean(x) - mean(ln x).

    Starts from Minka's closed-form approximation.
    """
    _require_spread(logx, "gamma")
    xbar = float(x.mean())
    log_xbar = math.log(xbar)
    s = log_xbar - float(logx.mean())
    # s >= 0 by Jensen; below its own rounding error it carries no shape.
    if not s > _ROUNDING * (1.0 + abs(log_xbar)):
        raise DistFitError(
            "gamma fit needs distinct values; the sample is too concentrated"
        )

    def profile(a: float) -> tuple[float, float]:
        return (
            s - math.log(a) + float(_sc.digamma(a)),
            float(_sc.zeta(2.0, a)) - 1.0 / a,
        )

    a0 = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    a = _newton_root(profile, a0, "gamma shape")
    scale = xbar / a
    n = x.size
    ll = (
        (a - 1.0) * float(logx.sum())
        - float(x.sum()) / scale
        - n * (float(_sc.gammaln(a)) + a * math.log(scale))
    )
    return (a, 0.0, scale), ll, _sc.gammainc(a, x / scale)


_FITTERS: dict[str, Callable[[np.ndarray, np.ndarray], _Fitted]] = {
    "exponential": _fit_exponential,
    "weibull": _fit_weibull,
    "lognormal": _fit_lognormal,
    "gamma": _fit_gamma,
}


def _prepare(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The validated sample sorted ascending, and its logarithms."""
    x = np.sort(_validate_sample(samples))
    return x, np.log(x)


def _fit(x: np.ndarray, logx: np.ndarray, family: str) -> DistributionFit:
    try:
        fitter = _FITTERS[family]
    except KeyError as exc:
        raise DistFitError(
            f"unknown family {family!r}; choose from {FAMILIES}"
        ) from exc
    params, ll, cdf = fitter(x, logx)
    if not math.isfinite(ll):
        raise DistFitError(f"{family} likelihood degenerate on this sample")
    free = len(params) - 1  # every parameter but the fixed loc
    # KS distance over the sorted sample, by scipy's D+/D- rule.
    n = x.size
    d_plus = float((np.arange(1.0, n + 1) / n - cdf).max())
    d_minus = float((cdf - np.arange(0.0, n) / n).max())
    return DistributionFit(
        family=family,
        params=tuple(float(p) for p in params),
        log_likelihood=ll,
        aic=2.0 * free - 2.0 * ll,
        ks_statistic=max(d_plus, d_minus),
        n=int(n),
    )


def fit_family(samples: np.ndarray, family: str) -> DistributionFit:
    """Maximum-likelihood fit of one family (location fixed at zero)."""
    return _fit(*_prepare(samples), family)


def fit_all(samples: np.ndarray) -> list[DistributionFit]:
    """Fit every family in :data:`FAMILIES`, ordered by ascending AIC."""
    x, logx = _prepare(samples)
    fits = [_fit(x, logx, family) for family in FAMILIES]
    fits.sort(key=lambda f: f.aic)
    return fits


def best_fit(samples: np.ndarray) -> DistributionFit:
    """The AIC-best family for a sample."""
    return fit_all(samples)[0]
