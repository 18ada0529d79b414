"""Chi-square tests for count data.

Section IV of the paper uses "chi-square tests for differences between
proportions" to show (at 99% confidence, p < 2.2e-16) that nodes in a
system do *not* fail at equal rates -- even after removing the extreme
node 0.  This module implements that test as a chi-square goodness-of-fit
of observed per-node failure counts against the equal-rates null, plus a
general r x c homogeneity test used for root-cause-breakdown comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .seeding import resolve_rng


class ContingencyError(ValueError):
    """Raised on invalid contingency inputs."""


@dataclass(frozen=True, slots=True)
class ChiSquareResult:
    """Outcome of a chi-square test.

    Attributes:
        statistic: the chi-square statistic.
        dof: degrees of freedom.
        p_value: right-tail p-value.
        significant: whether the null is rejected at ``alpha``.
        alpha: significance level used.
    """

    statistic: float
    dof: int
    p_value: float
    significant: bool
    alpha: float


def equal_rates_test(
    counts: np.ndarray,
    exposures: np.ndarray | None = None,
    alpha: float = 0.01,
) -> ChiSquareResult:
    """Chi-square test of the null "all units share one event rate".

    This is the paper's per-node test: ``counts[i]`` is the number of
    failures of node ``i``; under the null every node fails at the same
    rate (proportional to its ``exposure``, uniform when omitted).

    Args:
        counts: observed event counts per unit; must be non-negative.
        exposures: optional positive exposure per unit (e.g. observed
            time); expected counts are proportional to it.
        alpha: significance level, default 0.01 (the paper's 99%).

    Raises:
        ContingencyError: on negative counts, non-positive exposures,
            mismatched lengths, fewer than 2 units, or all-zero counts.
    """
    c = np.asarray(counts, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise ContingencyError("need a 1-D array of counts for >= 2 units")
    if (c < 0).any():
        raise ContingencyError("counts must be non-negative")
    total = c.sum()
    if total == 0:
        raise ContingencyError("all counts are zero; the test is undefined")
    if exposures is None:
        weights = np.full(c.size, 1.0 / c.size)
    else:
        e = np.asarray(exposures, dtype=float)
        if e.shape != c.shape:
            raise ContingencyError("exposures must match counts in length")
        if (e <= 0).any():
            raise ContingencyError("exposures must be positive")
        weights = e / e.sum()
    expected = total * weights
    statistic = float(((c - expected) ** 2 / expected).sum())
    dof = c.size - 1
    p_value = float(chdtrc(dof, statistic))
    if not (0.0 < alpha < 1.0):
        raise ContingencyError(f"alpha must be in (0, 1), got {alpha}")
    return ChiSquareResult(statistic, dof, p_value, p_value < alpha, alpha)


def homogeneity_test(table: np.ndarray, alpha: float = 0.01) -> ChiSquareResult:
    """Chi-square test of homogeneity for an r x c contingency table.

    Used to compare root-cause breakdowns between node populations
    (e.g. failure-prone nodes vs the rest of the system, Figure 5): the
    null hypothesis is that every row draws from the same category
    distribution.

    Cells with zero expected count (empty rows/columns) are rejected.
    """
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or t.shape[0] < 2 or t.shape[1] < 2:
        raise ContingencyError("need a table with >= 2 rows and >= 2 columns")
    if (t < 0).any():
        raise ContingencyError("table entries must be non-negative")
    row = t.sum(axis=1, keepdims=True)
    col = t.sum(axis=0, keepdims=True)
    total = t.sum()
    if total == 0 or (row == 0).any() or (col == 0).any():
        raise ContingencyError(
            "table has empty rows or columns; drop them before testing"
        )
    expected = row @ col / total
    statistic = float(((t - expected) ** 2 / expected).sum())
    dof = (t.shape[0] - 1) * (t.shape[1] - 1)
    p_value = float(chdtrc(dof, statistic))
    if not (0.0 < alpha < 1.0):
        raise ContingencyError(f"alpha must be in (0, 1), got {alpha}")
    return ChiSquareResult(statistic, dof, p_value, p_value < alpha, alpha)


@dataclass(frozen=True, slots=True)
class PermutationTestResult:
    """Outcome of a permutation test.

    Attributes:
        statistic: observed test statistic.
        p_value: fraction of permutations with a statistic at least as
            extreme (add-one smoothed).
        significant: True when the null is rejected at ``alpha``.
        alpha: significance level used.
        permutations: number of permutations drawn.
    """

    statistic: float
    p_value: float
    significant: bool
    alpha: float
    permutations: int


def grouping_permutation_test(
    counts: np.ndarray,
    groups: np.ndarray,
    permutations: int = 2000,
    alpha: float = 0.01,
    rng: np.random.Generator | None = None,
) -> PermutationTestResult:
    """Does a grouping explain event-count variance beyond unit noise?

    The Section IV-C machine-room question: per-node failure counts are
    heterogeneous no matter what (prone nodes exist), so a chi-square of
    *area totals* rejects trivially.  The meaningful null is "the spatial
    arrangement is random": holding the per-unit counts fixed, shuffle
    which unit sits where and compare the observed between-group
    chi-square to the shuffled distribution.

    Args:
        counts: events per unit (e.g. failures per node).
        groups: group label per unit (e.g. the node's floor area).
        permutations: number of shuffles.
        alpha: significance level.
        rng: numpy Generator; when omitted, a deterministic default
            seeded with :data:`repro.stats.seeding.DEFAULT_SEED` is
            used, so repeat calls are bit-identical.

    Returns:
        A :class:`PermutationTestResult`; a small p-value means the
        arrangement of counts over groups is unlikely under random
        placement, i.e. a real spatial pattern.
    """
    c = np.asarray(counts, dtype=float)
    g = np.asarray(groups)
    if c.ndim != 1 or c.shape != g.shape or c.size < 2:
        raise ContingencyError("need matching 1-D counts and groups")
    if (c < 0).any():
        raise ContingencyError("counts must be non-negative")
    if c.sum() == 0:
        raise ContingencyError("all counts are zero; the test is undefined")
    if permutations < 100:
        raise ContingencyError("need at least 100 permutations")
    if not (0.0 < alpha < 1.0):
        raise ContingencyError(f"alpha must be in (0, 1), got {alpha}")
    _, group_idx = np.unique(g, return_inverse=True)
    n_groups = int(group_idx.max()) + 1
    if n_groups < 2:
        raise ContingencyError("need at least two groups")
    group_sizes = np.bincount(group_idx).astype(float)
    total = c.sum()

    def statistic(values: np.ndarray) -> float:
        sums = np.bincount(group_idx, weights=values, minlength=n_groups)
        expected = total * group_sizes / group_sizes.sum()
        return float(((sums - expected) ** 2 / expected).sum())

    observed = statistic(c)
    rng = resolve_rng(rng)
    hits = 0
    shuffled = c.copy()
    for _ in range(permutations):
        rng.shuffle(shuffled)
        if statistic(shuffled) >= observed:
            hits += 1
    p_value = (hits + 1) / (permutations + 1)
    return PermutationTestResult(
        observed, p_value, p_value < alpha, alpha, permutations
    )


def two_proportion_chi_square(
    successes1: int,
    trials1: int,
    successes2: int,
    trials2: int,
    alpha: float = 0.01,
) -> ChiSquareResult:
    """Chi-square test for equality of two proportions (2 x 2 table).

    Equivalent to the square of the pooled two-sample z-test; offered
    because Section IV phrases its per-failure-type node comparisons as
    chi-square tests.
    """
    for s, t in ((successes1, trials1), (successes2, trials2)):
        if s < 0 or t < 0 or s > t:
            raise ContingencyError(
                f"invalid proportion counts: {s}/{t}"
            )
    if trials1 == 0 or trials2 == 0:
        raise ContingencyError("both samples must be non-empty")
    table = np.array(
        [
            [successes1, trials1 - successes1],
            [successes2, trials2 - successes2],
        ],
        dtype=float,
    )
    return homogeneity_test(table, alpha=alpha)
