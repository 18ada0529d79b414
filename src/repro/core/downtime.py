"""Repair times, downtime and availability.

The LANL records carry a repair time for every outage; the paper uses
them implicitly (a node outage is an interruption) but does not analyse
them.  This module adds the standard repair-time view from the companion
literature [12]: mean time to repair by root cause, downtime share per
category, fitted repair-time distributions, and per-system availability
-- the operational quantities a checkpoint or scheduling model consumes
alongside the failure rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..records.dataset import FailureTable, SystemDataset
from ..records.taxonomy import Category, all_categories
from ..stats.descriptive import SampleSummary, summarize
from ..stats.distfit import DistFitError, DistributionFit, best_fit


class DowntimeAnalysisError(ValueError):
    """Raised when downtime data is absent or degenerate."""


@dataclass(frozen=True, slots=True)
class RepairTimeResult:
    """Repair-time statistics for one population of failures.

    Attributes:
        category: root cause analysed (None = all failures).
        summary: five-number summary of repair hours.
        fitted: AIC-best distribution fit of the repair times (None when
            fitting is impossible, e.g. all-equal samples).
    """

    category: Category | None
    summary: SampleSummary
    fitted: DistributionFit | None

    @property
    def mttr_hours(self) -> float:
        """Mean time to repair, hours."""
        return self.summary.mean


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + v[0] + v[1] + ...`` rounded left to right, like a loop."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


@dataclass(frozen=True, slots=True)
class _DowntimeGroups:
    """The failure logs' repair hours, split by root cause in one pass.

    Attributes:
        hours: positive repair hours per category, in record order
            (systems in the given order); ``None`` maps to all of them.
        totals: summed repair hours per category, in record order.
    """

    hours: dict[Category | None, np.ndarray]
    totals: dict[Category, float]


def _group_downtime(systems: Sequence[SystemDataset]) -> _DowntimeGroups:
    tables = [ds.failure_table for ds in systems]
    codes = np.concatenate([np.empty(0, np.int64), *(t.category_codes for t in tables)])
    hours = np.concatenate([np.empty(0), *(t.downtime_hours for t in tables)])
    positive = hours > 0
    by_cat: dict[Category | None, np.ndarray] = {None: hours[positive]}
    totals = {}
    for cat in all_categories():
        of_cat = codes == FailureTable.category_code(cat)
        by_cat[cat] = hours[of_cat & positive]
        totals[cat] = _sequential_sum(hours[of_cat])
    return _DowntimeGroups(hours=by_cat, totals=totals)


def _repair_result(
    groups: _DowntimeGroups, category: Category | None
) -> RepairTimeResult:
    hours = groups.hours[category]
    if hours.size == 0:
        raise DowntimeAnalysisError(
            f"no repair times recorded for {category or 'any category'}"
        )
    fitted = None
    if hours.size >= 8 and np.ptp(hours) > 0:
        try:
            fitted = best_fit(hours)
        except DistFitError:
            fitted = None
    return RepairTimeResult(
        category=category, summary=summarize(hours), fitted=fitted
    )


def repair_times(
    systems: Sequence[SystemDataset],
    category: Category | None = None,
) -> RepairTimeResult:
    """Repair-time statistics for one category (or all failures)."""
    if not systems:
        raise DowntimeAnalysisError("need at least one system")
    return _repair_result(_group_downtime(systems), category)


def _by_category(groups: _DowntimeGroups) -> dict[Category, RepairTimeResult]:
    out = {}
    for cat in all_categories():
        try:
            out[cat] = _repair_result(groups, cat)
        except DowntimeAnalysisError:
            continue
    if not out:
        raise DowntimeAnalysisError("no repair times recorded at all")
    return out


def repair_times_by_category(
    systems: Sequence[SystemDataset],
) -> dict[Category, RepairTimeResult]:
    """Per-category repair-time statistics (categories with data only)."""
    return _by_category(_group_downtime(systems))


def _shares(groups: _DowntimeGroups) -> Mapping[Category, float]:
    totals = groups.totals
    grand = sum(totals.values())
    if grand <= 0:
        raise DowntimeAnalysisError("no downtime recorded")
    return {cat: totals[cat] / grand for cat in totals}


def downtime_share_by_category(
    systems: Sequence[SystemDataset],
) -> Mapping[Category, float]:
    """Fraction of total downtime attributable to each root cause.

    A category can dominate downtime without dominating counts (few but
    long outages) -- the distinction operators budget by.
    """
    return _shares(_group_downtime(systems))


@dataclass(frozen=True, slots=True)
class AvailabilityResult:
    """Availability accounting for one system.

    Attributes:
        system_id: the system.
        node_hours: total node-hours in the observation period.
        downtime_hours: summed outage repair time.
        maintenance_hours: summed unscheduled-maintenance duration.
        availability: fraction of node-hours the system was up.
    """

    system_id: int
    node_hours: float
    downtime_hours: float
    maintenance_hours: float

    @property
    def availability(self) -> float:
        lost = self.downtime_hours + self.maintenance_hours
        return max(0.0, 1.0 - lost / self.node_hours)

    @property
    def nines(self) -> float:
        """Availability expressed as 'number of nines'."""
        unavail = 1.0 - self.availability
        if unavail <= 0:
            return float("inf")
        return float(-np.log10(unavail))


def availability(ds: SystemDataset) -> AvailabilityResult:
    """Availability accounting for one system."""
    node_hours = ds.num_nodes * ds.period.length * 24.0
    downtime = _sequential_sum(ds.failure_table.downtime_hours)
    maintenance = float(sum(m.duration_hours for m in ds.maintenance))
    if node_hours <= 0:
        raise DowntimeAnalysisError("empty observation period")
    return AvailabilityResult(
        system_id=ds.system_id,
        node_hours=node_hours,
        downtime_hours=downtime,
        maintenance_hours=maintenance,
    )


def render_downtime_report(systems: Sequence[SystemDataset]) -> str:
    """Text table: MTTR and downtime share per category, availability."""
    lines = ["== Companion: repair times and availability =="]
    try:
        groups = _group_downtime(systems)
        by_cat = _by_category(groups)
        shares = _shares(groups)
    except DowntimeAnalysisError as exc:
        return "\n".join([*lines, str(exc)])
    lines.append(
        f"{'category':<14s} {'MTTR h':>8s} {'median':>8s} {'max':>9s} "
        f"{'share':>7s} {'best fit':>12s}"
    )
    for cat, r in by_cat.items():
        fit_name = r.fitted.family if r.fitted else "-"
        lines.append(
            f"{cat.value:<14s} {r.mttr_hours:>8.2f} {r.summary.median:>8.2f} "
            f"{r.summary.maximum:>9.1f} {shares.get(cat, 0.0):>7.1%} "
            f"{fit_name:>12s}"
        )
    for ds in systems:
        try:
            a = availability(ds)
        except DowntimeAnalysisError:
            continue
        lines.append(
            f"system {ds.system_id}: availability {a.availability:.5f} "
            f"({a.nines:.1f} nines; {a.downtime_hours:.0f} h outage + "
            f"{a.maintenance_hours:.0f} h maintenance)"
        )
    return "\n".join(lines)
