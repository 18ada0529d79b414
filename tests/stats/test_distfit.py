"""Tests for distribution fitting (parameter recovery, model selection).

``scipy.stats`` is the oracle: the closed-form and Newton fits must
agree with its ``fit(x, floc=0)``, ``kstest`` and frozen ``mean``.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.stats.distfit import (
    DistFitError,
    FAMILIES,
    _newton_root,
    best_fit,
    fit_all,
    fit_family,
)

SCIPY = {
    "exponential": stats.expon,
    "weibull": stats.weibull_min,
    "lognormal": stats.lognorm,
    "gamma": stats.gamma,
}


def _sample(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([2013, n, len(kind)])
    if kind == "weibull0.6":
        return rng.weibull(0.6, n) * 3.0
    if kind == "gamma2.5":
        return rng.gamma(2.5, 0.4, n)
    # Log-uniform over twelve decades.
    return np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n))


SAMPLES = [
    pytest.param(kind, n, id=f"{kind}-n{n}")
    for kind in ("weibull0.6", "gamma2.5", "span1e-6..1e6")
    for n in (8, 100, 3000)
]

#: Closed-form families and the gamma root agree with scipy's own
#: closed forms and brentq root to this relative tolerance.
REL = 1e-9


class TestFitFamily:
    def test_exponential_recovery(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(scale=3.0, size=3000)
        fit = fit_family(x, "exponential")
        assert fit.mean == pytest.approx(3.0, rel=0.1)
        assert fit.ks_p_value > 0.01
        assert fit.shape is None
        assert fit.decreasing_hazard is False

    def test_weibull_shape_recovery(self):
        rng = np.random.default_rng(2)
        x = rng.weibull(0.7, size=3000) * 2.0
        fit = fit_family(x, "weibull")
        assert fit.shape == pytest.approx(0.7, rel=0.15)
        assert fit.decreasing_hazard is True

    def test_weibull_increasing_hazard(self):
        rng = np.random.default_rng(3)
        x = rng.weibull(2.0, size=2000)
        fit = fit_family(x, "weibull")
        assert fit.decreasing_hazard is False

    def test_lognormal_recovery(self):
        rng = np.random.default_rng(4)
        x = rng.lognormal(1.0, 0.8, size=3000)
        fit = fit_family(x, "lognormal")
        assert fit.shape == pytest.approx(0.8, rel=0.1)
        assert fit.decreasing_hazard is None

    def test_gamma_recovery(self):
        rng = np.random.default_rng(5)
        x = rng.gamma(0.6, 2.0, size=3000)
        fit = fit_family(x, "gamma")
        assert fit.shape == pytest.approx(0.6, rel=0.15)
        assert fit.decreasing_hazard is True

    def test_rejects_unknown_family(self):
        with pytest.raises(DistFitError):
            fit_family(np.ones(20) + np.arange(20), "cauchy")

    def test_rejects_nonpositive(self):
        with pytest.raises(DistFitError):
            fit_family(np.array([1.0, 0.0] + [1.0] * 10), "weibull")

    def test_rejects_tiny_sample(self):
        with pytest.raises(DistFitError):
            fit_family(np.array([1.0, 2.0]), "weibull")


class TestModelSelection:
    def test_fit_all_sorted_by_aic(self):
        rng = np.random.default_rng(6)
        x = rng.exponential(size=500)
        fits = fit_all(x)
        assert len(fits) == len(FAMILIES)
        aics = [f.aic for f in fits]
        assert aics == sorted(aics)

    def test_best_fit_picks_generating_family(self):
        rng = np.random.default_rng(7)
        x = rng.lognormal(0.0, 1.5, size=4000)
        assert best_fit(x).family == "lognormal"

    def test_exponential_data_prefers_simplicity(self):
        # AIC penalises the extra shape parameter: exponential should be
        # at or near the top on its own data.
        rng = np.random.default_rng(8)
        x = rng.exponential(size=4000)
        fits = fit_all(x)
        assert fits[0].family in ("exponential", "weibull", "gamma")
        expo = next(f for f in fits if f.family == "exponential")
        assert expo.aic <= fits[0].aic + 4.0


class TestScipyOracle:
    @pytest.mark.parametrize("family", ["exponential", "lognormal", "gamma"])
    @pytest.mark.parametrize("kind,n", SAMPLES)
    def test_params_and_likelihood_match_scipy(self, family, kind, n):
        x = _sample(kind, n)
        fit = fit_family(x, family)
        ref = SCIPY[family].fit(x, floc=0)
        assert fit.params == pytest.approx(ref, rel=REL, abs=0.0)
        ref_ll = float(np.sum(SCIPY[family](*ref).logpdf(x)))
        assert fit.log_likelihood == pytest.approx(ref_ll, rel=REL)

    @pytest.mark.parametrize("kind,n", SAMPLES)
    def test_weibull_at_least_as_likely_as_scipy(self, kind, n):
        x = _sample(kind, n)
        fit = fit_family(x, "weibull")
        ref = stats.weibull_min.fit(x, floc=0)
        ref_ll = float(np.sum(stats.weibull_min(*ref).logpdf(x)))
        assert fit.log_likelihood >= ref_ll - 1e-9 * abs(ref_ll)
        assert fit.shape == pytest.approx(ref[0], rel=1e-3)
        own_ll = float(np.sum(stats.weibull_min(*fit.params).logpdf(x)))
        assert fit.log_likelihood == pytest.approx(own_ll, rel=REL)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind,n", SAMPLES)
    def test_ks_and_mean_match_scipy(self, family, kind, n):
        x = _sample(kind, n)
        fit = fit_family(x, family)
        frozen = SCIPY[family](*fit.params)
        ks = stats.kstest(x, frozen.cdf)
        assert fit.ks_statistic == pytest.approx(ks.statistic, rel=1e-12, abs=1e-15)
        assert fit.ks_p_value == pytest.approx(ks.pvalue, rel=1e-9, abs=1e-14)
        assert fit.mean == pytest.approx(float(frozen.mean()), rel=1e-12)


class TestDegenerateSamples:
    @pytest.mark.parametrize("family", ["weibull", "lognormal", "gamma"])
    def test_constant_sample_raises_typed_error(self, family):
        with pytest.raises(DistFitError, match="no spread"):
            fit_family(np.full(10, 2.0), family)

    def test_constant_sample_exponential_is_defined(self):
        fit = fit_family(np.full(10, 2.0), "exponential")
        assert fit.params == (0.0, 2.0)

    def test_near_constant_gamma_raises_typed_error(self):
        with pytest.raises(DistFitError):
            fit_family(np.array([1.0] * 9 + [1.0 + 1e-12]), "gamma")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_near_constant_never_raises_raw(self, family):
        x = np.array([1.0] * 9 + [1.0 + 1e-12])
        try:
            fit = fit_family(x, family)
        except DistFitError:
            return
        assert math.isfinite(fit.log_likelihood)

    def test_fit_all_on_constant_sample_raises_typed_error(self):
        with pytest.raises(DistFitError):
            fit_all(np.full(10, 2.0))

    def test_newton_without_root_raises(self):
        with pytest.raises(DistFitError, match="did not converge"):
            _newton_root(lambda x: (-1.0 / (1.0 + x), 1.0 / (1.0 + x) ** 2), 1.0, "test")
