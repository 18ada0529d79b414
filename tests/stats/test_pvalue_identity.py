"""The special-function p-values equal the ``scipy.stats`` calls, bit for bit.

The stats modules call ``scipy.special`` directly (``ndtr``, ``ndtri``,
``stdtr``, ``chdtrc``) -- the functions behind ``norm.sf``/``norm.ppf``/
``t.sf``/``chi2.sf`` -- to skip the per-call distribution machinery.
Each test runs a public function on a grid of inputs and recomputes its
p-value (or quantile) from the returned statistic with the frozen
``scipy.stats`` expression it replaced.  The two must be ``==`` (NaN
matching NaN), including zero statistics, infinite ones and p-values at
the edges of [0, 1].
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.stats import anova, contingency, correlation, glm, proportion


def _norm_two_sided(z: float) -> float:
    return 2.0 * float(stats.norm().sf(abs(z)))


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))


def _fields(result) -> tuple:
    return tuple(getattr(result, name) for name in result.__slots__)


COUNTS = [
    (0, 1), (1, 1), (0, 50), (50, 50), (1, 2), (3, 10), (30, 100),
    (1, 10**6), (10**6 - 1, 10**6), (123456, 10**6),
]
CONFIDENCES = [1e-9, 0.5, 0.9, 0.95, 0.99, 0.999999, 1.0 - 1e-15]


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_interval_quantile(monkeypatch, confidence):
    z = float(stats.norm().ppf(0.5 + confidence / 2.0))
    assert proportion._z_for(confidence) == z
    for successes, trials in [*COUNTS, (0, 0)]:
        for interval in (proportion.wilson_interval, proportion.wald_interval):
            shipped = interval(successes, trials, confidence)
            with monkeypatch.context() as patch:
                patch.setattr(proportion, "_z_for", lambda _: z)
                reference = interval(successes, trials, confidence)
            assert _same(_fields(shipped), _fields(reference))


@pytest.mark.parametrize("first", COUNTS)
def test_two_sample_z_test(first):
    # Covers z == 0 (equal proportions) and |z| in the hundreds (p == 0);
    # pooled 0 / 1 and empty samples return before any tail call.
    seen = set()
    for second in [*COUNTS, (0, 0)]:
        result = proportion.two_sample_z_test(*first, *second)
        if math.isnan(result.statistic):
            assert result.p_value == 1.0
            continue
        assert result.p_value == _norm_two_sided(result.statistic)
        seen.add(result.p_value)
    if first == (1, 2):
        assert {0.0, 1.0} <= seen


def test_glm_coefficient_p_values():
    inf = math.inf
    beta = np.array([0.0, -0.0, 1e-300, 0.3, -2.0, 9.0, -40.0, inf, -inf, np.nan])
    variances = np.array([1.0, 0.0, 1.0, 0.01, 4.0, 1e-4, 1.0, 1.0, 1.0, 1.0])
    names = [f"x{i}" for i in range(beta.size - 1)]
    p_values = set()
    for cov in (np.diag(variances), np.diag(variances * 1e12)):
        rows = glm._coefficients(names, beta, cov)
        assert len(rows) == beta.size
        for row in rows:
            if row.std_error > 0:
                assert _same(row.p_value, _norm_two_sided(row.z_value))
            else:
                assert row.p_value == 1.0
            p_values.add(row.p_value)
    # The p-value column spans both ends of [0, 1].
    assert {0.0, 1.0} <= p_values


@pytest.mark.parametrize("n", [3, 4, 10, 30, 1000, 10**7])
def test_correlation_t_test(n):
    for r in [0.0, -0.0, 1e-12, 0.2, -0.5, 0.9, -0.999999, 1.0 - 1e-16, 1.0, -1.0]:
        result = correlation._t_test_for_r(r, n, 0.05)
        if math.isinf(result.statistic):
            assert result.p_value == 0.0
            continue
        expected = 2.0 * float(stats.t(n - 2).sf(abs(result.statistic)))
        assert result.p_value == expected


def test_correlation_public_tests():
    rng = np.random.default_rng(11)
    x = rng.normal(size=40)
    for y in (x + rng.normal(size=40), rng.normal(size=40), x ** 3):
        for test in (correlation.pearson, correlation.spearman):
            result = test(x, y)
            expected = 2.0 * float(stats.t(38).sf(abs(result.statistic)))
            assert result.p_value == expected


def _chi2_matches(result) -> bool:
    return result.p_value == float(stats.chi2(result.dof).sf(result.statistic))


@pytest.mark.parametrize(
    "counts",
    [
        [5, 5, 5, 5],            # statistic 0: the support edge, p == 1
        [0, 0, 1],
        [3, 7],
        [10, 12, 9, 30, 2],
        [0, 10**6],              # p == 0
        list(range(1, 60)),
    ],
)
def test_equal_rates_test(counts):
    for exposures in (None, np.linspace(1.0, 2.0, len(counts))):
        assert _chi2_matches(contingency.equal_rates_test(counts, exposures))


@pytest.mark.parametrize(
    "table",
    [
        [[5, 5], [5, 5]],
        [[1, 0], [0, 1]],
        [[10**6, 1], [1, 10**6]],
        [[3, 9, 4], [8, 2, 7], [1, 1, 30]],
    ],
)
def test_homogeneity_test(table):
    assert _chi2_matches(contingency.homogeneity_test(np.array(table)))


@pytest.mark.parametrize("dof", [1, 2, 5, 40])
def test_anova_chi_square(dof):
    inf = math.inf
    pairs = [
        (-10.0, -10.0),          # statistic 0
        (-10.0, -9.0),           # negative difference clipped to 0
        (-10.0, -10.5), (-10.0, -40.0), (0.0, -1e6),
        (inf, -1.0),             # statistic inf, p == 0
        (inf, inf),              # NaN difference clipped to 0
    ]
    p_values = set()
    for full, reduced in pairs:
        result = anova._finalize(full, reduced, dof, 0.01)
        assert _chi2_matches(result)
        p_values.add(result.p_value)
    assert {0.0, 1.0} <= p_values
