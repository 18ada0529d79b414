"""Count-data generalized linear models, fitted by IRLS.

The paper fits two regression models of per-node outage counts (Tables II
and III): **Poisson regression** and **negative binomial regression**,
each with a log link, reporting per-coefficient estimates, standard
errors, z values and p-values.  Section VI additionally fits Poisson
models with an exposure offset (failures per processor-day per user).

Both models are implemented here from scratch on numpy + scipy.special:

* Poisson: iteratively reweighted least squares (IRLS), the textbook
  Fisher-scoring algorithm for GLMs.
* Negative binomial (NB2, variance ``mu + alpha * mu**2``): IRLS for the
  coefficients at fixed dispersion, alternated with a profile-likelihood
  update of the dispersion ``alpha`` (golden-section search on the NB
  log-likelihood).

Standard errors come from the inverse Fisher information at the optimum;
p-values are two-sided normal tails on ``z = estimate / stderr``, exactly
the columns of Tables II/III.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize as _opt
from scipy.special import gammaln, ndtr


class GLMError(ValueError):
    """Raised on invalid design matrices or failed fits."""


@dataclass(frozen=True, slots=True)
class Coefficient:
    """One fitted coefficient row, as printed in Tables II/III.

    Attributes:
        name: predictor name (``(Intercept)`` for the constant).
        estimate: fitted value on the log scale.
        std_error: asymptotic standard error.
        z_value: ``estimate / std_error``.
        p_value: two-sided p-value of the null "coefficient is zero".
    """

    name: str
    estimate: float
    std_error: float
    z_value: float
    p_value: float

    def significant(self, alpha: float = 0.01) -> bool:
        """True when the null is rejected at level ``alpha`` (paper: 99%)."""
        return self.p_value < alpha


@dataclass(frozen=True, slots=True)
class GLMResult:
    """A fitted count GLM.

    Attributes:
        family: ``"poisson"`` or ``"negative-binomial"``.
        coefficients: per-predictor rows, intercept first.
        log_likelihood: maximized log-likelihood.
        deviance: residual deviance.
        null_deviance: deviance of the intercept-only model.
        alpha: NB2 dispersion (None for Poisson).
        n_obs: number of observations.
        iterations: IRLS iterations used.
        converged: whether IRLS met its tolerance.
    """

    family: str
    coefficients: tuple[Coefficient, ...]
    log_likelihood: float
    deviance: float
    null_deviance: float
    alpha: float | None
    n_obs: int
    iterations: int
    converged: bool

    @property
    def coef_vector(self) -> np.ndarray:
        """Fitted coefficients as an array, intercept first."""
        return np.array([c.estimate for c in self.coefficients])

    def coefficient(self, name: str) -> Coefficient:
        """Look up a coefficient row by predictor name."""
        for c in self.coefficients:
            if c.name == name:
                return c
        raise GLMError(f"no coefficient named {name!r}")

    def predict(self, X: np.ndarray, offset: np.ndarray | None = None) -> np.ndarray:
        """Predicted means for a design matrix (with intercept column added)."""
        Xd = _with_intercept(np.asarray(X, dtype=float))
        if Xd.shape[1] != len(self.coefficients):
            raise GLMError(
                f"design has {Xd.shape[1]} columns (incl. intercept) but the "
                f"model has {len(self.coefficients)} coefficients"
            )
        eta = Xd @ self.coef_vector
        if offset is not None:
            eta = eta + np.asarray(offset, dtype=float)
        return np.exp(eta)


_MAX_ITER = 100
_TOL = 1e-9
#: Floor on fitted means, preventing log(0)/division blowups on sparse data.
_MU_FLOOR = 1e-10


def _with_intercept(X: np.ndarray) -> np.ndarray:
    if X.ndim != 2:
        raise GLMError("design matrix must be 2-D")
    return np.hstack([np.ones((X.shape[0], 1)), X])


def _validate_inputs(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str] | None,
    offset: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise GLMError("design matrix must be 2-D (observations x predictors)")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise GLMError(
            f"response length {y.shape} does not match design rows {X.shape[0]}"
        )
    if not np.isfinite(X).all():
        raise GLMError("design matrix contains non-finite values")
    if not np.isfinite(y).all() or (y < 0).any():
        raise GLMError("response must be finite and non-negative")
    if np.any(np.abs(y - np.round(y)) > 1e-8):
        raise GLMError("count responses must be integers")
    if names is None:
        names = [f"x{i + 1}" for i in range(X.shape[1])]
    else:
        names = list(names)
        if len(names) != X.shape[1]:
            raise GLMError(
                f"{len(names)} names for {X.shape[1]} predictors"
            )
    if offset is None:
        off = np.zeros(X.shape[0])
    else:
        off = np.asarray(offset, dtype=float)
        if off.shape != y.shape or not np.isfinite(off).all():
            raise GLMError("offset must be finite and match the response length")
    if X.shape[0] <= X.shape[1] + 1:
        raise GLMError(
            f"need more observations ({X.shape[0]}) than parameters "
            f"({X.shape[1] + 1})"
        )
    return X, y, names, off


def _solve_weighted(Xd: np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve the weighted least-squares normal equations, guarding rank."""
    sw = np.sqrt(w)
    A = Xd * sw[:, None]
    b = z * sw
    beta, _residuals, rank, _sv = np.linalg.lstsq(A, b, rcond=None)
    if rank < Xd.shape[1]:
        raise GLMError(
            "design matrix is rank-deficient (collinear predictors); "
            "drop or combine columns"
        )
    return beta


def _poisson_loglik(y: np.ndarray, mu: np.ndarray) -> float:
    return float((y * np.log(mu) - mu - gammaln(y + 1)).sum())


def _poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * (term - (y - mu)).sum())


def _irls(
    Xd: np.ndarray,
    y: np.ndarray,
    off: np.ndarray,
    weight_fn,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Generic log-link IRLS; ``weight_fn(mu)`` gives the working weights."""
    # Start from the intercept-only fit (plus zeros), a safe initial point.
    mean_rate = max(float(np.mean(y * np.exp(-off))), _MU_FLOOR)
    beta = np.zeros(Xd.shape[1])
    beta[0] = math.log(mean_rate)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        eta = Xd @ beta + off
        mu = np.maximum(np.exp(np.clip(eta, -700, 700)), _MU_FLOOR)
        w = weight_fn(mu)
        z = (eta - off) + (y - mu) / mu
        new_beta = _solve_weighted(Xd, w, z)
        if not np.isfinite(new_beta).all():
            raise GLMError("IRLS diverged to non-finite coefficients")
        if np.max(np.abs(new_beta - beta)) < _TOL * (1 + np.max(np.abs(beta))):
            beta = new_beta
            converged = True
            break
        beta = new_beta
    eta = Xd @ beta + off
    mu = np.maximum(np.exp(np.clip(eta, -700, 700)), _MU_FLOOR)
    return beta, mu, iterations, converged


def _coefficients(
    names: list[str], beta: np.ndarray, cov: np.ndarray
) -> tuple[Coefficient, ...]:
    rows = []
    ses = np.sqrt(np.maximum(np.diag(cov), 0.0))
    for name, b, se in zip(["(Intercept)", *names], beta, ses):
        if se > 0:
            z = b / se
            p = 2.0 * float(ndtr(-abs(z)))
        else:
            z, p = float("nan"), 1.0
        rows.append(Coefficient(name, float(b), float(se), z, p))
    return tuple(rows)


def fit_poisson(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str] | None = None,
    offset: np.ndarray | None = None,
) -> GLMResult:
    """Fit a Poisson log-link regression (Table II's model).

    Args:
        X: design matrix, one row per observation, *without* intercept
            column (it is added automatically).
        y: non-negative integer response (per-node outage counts).
        names: predictor names for the coefficient table.
        offset: optional log-exposure offset (Section VI uses
            ``log(processor_days)``).

    Returns:
        A :class:`GLMResult` with family ``"poisson"``.
    """
    X, y, names, off = _validate_inputs(X, y, names, offset)
    Xd = _with_intercept(X)
    beta, mu, iterations, converged = _irls(Xd, y, off, weight_fn=lambda m: m)
    # Fisher information for Poisson log link: X' diag(mu) X.
    info = Xd.T @ (Xd * mu[:, None])
    cov = np.linalg.pinv(info)
    # Null model (intercept-only, same offset) for the null deviance.
    null_mu = np.exp(
        math.log(max(float(np.mean(y * np.exp(-off))), _MU_FLOOR)) + off
    )
    return GLMResult(
        family="poisson",
        coefficients=_coefficients(names, beta, cov),
        log_likelihood=_poisson_loglik(y, mu),
        deviance=_poisson_deviance(y, mu),
        null_deviance=_poisson_deviance(y, null_mu),
        alpha=None,
        n_obs=y.size,
        iterations=iterations,
        converged=converged,
    )


def _nb_loglik(y: np.ndarray, mu: np.ndarray, alpha: float) -> float:
    """NB2 log-likelihood with dispersion ``alpha`` (var = mu + alpha mu^2)."""
    r = 1.0 / alpha
    return float(
        (
            gammaln(y + r)
            - gammaln(r)
            - gammaln(y + 1)
            + r * np.log(r / (r + mu))
            + y * np.log(mu / (r + mu))
        ).sum()
    )


def _nb_deviance(y: np.ndarray, mu: np.ndarray, alpha: float) -> float:
    r = 1.0 / alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(y > 0, y * np.log(y / mu), 0.0)
    t2 = (y + r) * np.log((y + r) / (mu + r))
    return float(2.0 * (t1 - t2).sum())


#: Search range for the NB2 dispersion parameter.  alpha -> 0 recovers
#: Poisson; 10 is far above any dispersion count data plausibly shows.
_ALPHA_BOUNDS = (1e-6, 10.0)


def fit_negative_binomial(
    X: np.ndarray,
    y: np.ndarray,
    names: Sequence[str] | None = None,
    offset: np.ndarray | None = None,
    alpha: float | None = None,
) -> GLMResult:
    """Fit an NB2 negative-binomial log-link regression (Table III's model).

    The dispersion ``alpha`` is estimated by alternating IRLS updates of
    the coefficients with bounded profile-likelihood maximization over
    ``alpha``, unless a fixed ``alpha`` is supplied.

    Args: see :func:`fit_poisson`; ``alpha`` optionally pins dispersion.

    Returns:
        A :class:`GLMResult` with family ``"negative-binomial"`` and the
        fitted ``alpha``.
    """
    X, y, names, off = _validate_inputs(X, y, names, offset)
    Xd = _with_intercept(X)
    fixed_alpha = alpha is not None
    if fixed_alpha and alpha <= 0:
        raise GLMError(f"alpha must be positive, got {alpha}")
    cur_alpha = alpha if fixed_alpha else 0.5
    beta = mu = None
    iterations_total = 0
    converged = False
    for _outer in range(25):
        a = cur_alpha
        beta, mu, iters, conv = _irls(
            Xd, y, off, weight_fn=lambda m: m / (1.0 + a * m)
        )
        iterations_total += iters
        if fixed_alpha:
            converged = conv
            break
        res = _opt.minimize_scalar(
            lambda la: -_nb_loglik(y, mu, math.exp(la)),
            bounds=(math.log(_ALPHA_BOUNDS[0]), math.log(_ALPHA_BOUNDS[1])),
            method="bounded",
        )
        new_alpha = math.exp(float(res.x))
        if abs(new_alpha - cur_alpha) < 1e-6 * (1 + cur_alpha) and conv:
            cur_alpha = new_alpha
            converged = True
            break
        cur_alpha = new_alpha
    assert beta is not None and mu is not None
    # Fisher information for NB2 log link: X' diag(mu / (1 + alpha mu)) X.
    w = mu / (1.0 + cur_alpha * mu)
    info = Xd.T @ (Xd * w[:, None])
    cov = np.linalg.pinv(info)
    null_mu = np.exp(
        math.log(max(float(np.mean(y * np.exp(-off))), _MU_FLOOR)) + off
    )
    return GLMResult(
        family="negative-binomial",
        coefficients=_coefficients(names, beta, cov),
        log_likelihood=_nb_loglik(y, mu, cur_alpha),
        deviance=_nb_deviance(y, mu, cur_alpha),
        null_deviance=_nb_deviance(y, null_mu, cur_alpha),
        alpha=float(cur_alpha),
        n_obs=y.size,
        iterations=iterations_total,
        converged=converged,
    )
