"""Environmental measurement record types.

Two kinds of environmental time series feed the paper's analyses:

* **Temperature readings** (Section VIII, X): periodic motherboard-sensor
  samples, available for LANL system 20.  Per-node aggregates (average,
  maximum, variance, number of severe high-temperature warnings) become
  regression inputs in Table I.
* **Neutron counts** (Section IX): 1-minute-resolution counts from the
  Climax, Colorado neutron-monitor station, aggregated to monthly average
  counts-per-minute for Figure 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .timeutil import ObservationPeriod, Span, window_index


class EnvironmentRecordError(ValueError):
    """Raised when an environmental record is invalid."""


#: The severe-temperature threshold used for the ``num_hightemp`` regression
#: variable in Table I: a reading above 40 degrees Celsius counts as a severe
#: temperature warning.
HIGH_TEMP_THRESHOLD_C = 40.0


@dataclass(frozen=True, slots=True, order=True)
class TemperatureReading:
    """One motherboard-sensor temperature sample.

    Attributes:
        time: sample time in days since observation start.
        system_id: system the node belongs to.
        node_id: the sampled node.
        celsius: ambient temperature reported by the sensor.
    """

    time: float
    system_id: int
    node_id: int
    celsius: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise EnvironmentRecordError(
                f"time must be finite and >= 0, got {self.time}"
            )
        if self.node_id < 0:
            raise EnvironmentRecordError(f"node_id must be >= 0, got {self.node_id}")
        if not math.isfinite(self.celsius):
            raise EnvironmentRecordError(f"non-finite temperature {self.celsius!r}")
        if not (-50.0 <= self.celsius <= 150.0):
            raise EnvironmentRecordError(
                f"temperature {self.celsius} C outside plausible sensor range"
            )

    @property
    def is_severe(self) -> bool:
        """True if the reading exceeds the severe-temperature threshold."""
        return self.celsius > HIGH_TEMP_THRESHOLD_C


@dataclass(frozen=True, slots=True)
class TemperatureColumns:
    """A temperature log as parallel numpy columns (one row per sample).

    The columnar twin of a ``list[TemperatureReading]`` and the form
    :func:`summarize_temperatures` computes on; row order matches the
    record list's iteration order.
    """

    times: np.ndarray
    node_ids: np.ndarray
    celsius: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_records(
        cls, readings: Sequence[TemperatureReading]
    ) -> "TemperatureColumns":
        """Build columns from record objects, preserving sample order."""
        return cls(
            times=np.array([r.time for r in readings], dtype=float),
            node_ids=np.array([r.node_id for r in readings], dtype=np.int64),
            celsius=np.array([r.celsius for r in readings], dtype=float),
        )

    def to_records(self, system_id: int) -> tuple[TemperatureReading, ...]:
        """The :class:`TemperatureReading` of every row, in row order."""
        return tuple(
            map(
                TemperatureReading,
                self.times.tolist(),
                repeat(system_id),
                self.node_ids.tolist(),
                self.celsius.tolist(),
            )
        )

    def take(self, rows: np.ndarray) -> "TemperatureColumns":
        """The given rows, in the given order."""
        return TemperatureColumns(
            times=self.times[rows],
            node_ids=self.node_ids[rows],
            celsius=self.celsius[rows],
        )

    def invalid_rows(self) -> np.ndarray:
        """Mask of the rows :class:`TemperatureReading` would reject (its
        ``__post_init__`` rules, vectorized; keep the two in step)."""
        times, celsius = self.times, self.celsius
        bad = ~(np.isfinite(times) & np.isfinite(celsius)) | (times < 0)
        bad |= (self.node_ids < 0) | (celsius < -50.0) | (celsius > 150.0)
        return bad


@dataclass(frozen=True, slots=True)
class NodeTemperatureSummary:
    """Per-node aggregate of temperature readings (Table I variables).

    Attributes:
        node_id: the node.
        avg_temp: mean of all readings (``avg_temp`` in Table I).
        max_temp: maximum reading (``max_temp``).
        temp_var: population variance of readings (``temp_var``).
        num_hightemp: number of severe warnings, i.e. readings above
            40 C (``num_hightemp``).
        num_readings: total number of samples the aggregate is based on.
    """

    node_id: int
    avg_temp: float
    max_temp: float
    temp_var: float
    num_hightemp: int
    num_readings: int


def summarize_temperatures(
    readings: Iterable[TemperatureReading] | TemperatureColumns,
    num_nodes: int,
) -> list[NodeTemperatureSummary]:
    """Aggregate raw readings into per-node Table-I temperature variables.

    Accepts a :class:`TemperatureColumns` or record objects (converted
    to columns once); each node's readings are aggregated in log order.
    Nodes with no readings get NaN aggregates and zero counts;
    regression code drops or imputes them explicitly rather than
    silently.
    """
    if num_nodes < 1:
        raise EnvironmentRecordError(f"num_nodes must be >= 1, got {num_nodes}")
    cols = (
        readings
        if isinstance(readings, TemperatureColumns)
        else TemperatureColumns.from_records(list(readings))
    )
    nodes = cols.node_ids
    if nodes.size and int(nodes.max()) >= num_nodes:
        bad = int(nodes[np.argmax(nodes >= num_nodes)])
        raise EnvironmentRecordError(
            f"reading references node {bad} but the system has "
            f"only {num_nodes} nodes"
        )
    order = np.argsort(nodes, kind="stable")
    values = cols.celsius[order]
    bounds = np.searchsorted(nodes[order], np.arange(num_nodes + 1))
    out = []
    for node in range(num_nodes):
        vals = values[bounds[node] : bounds[node + 1]]
        if vals.size == 0:
            out.append(
                NodeTemperatureSummary(
                    node_id=node,
                    avg_temp=float("nan"),
                    max_temp=float("nan"),
                    temp_var=float("nan"),
                    num_hightemp=0,
                    num_readings=0,
                )
            )
            continue
        out.append(
            NodeTemperatureSummary(
                node_id=node,
                avg_temp=float(vals.mean()),
                max_temp=float(vals.max()),
                temp_var=float(vals.var()),
                num_hightemp=int((vals > HIGH_TEMP_THRESHOLD_C).sum()),
                num_readings=int(vals.size),
            )
        )
    return out


@dataclass(frozen=True, slots=True, order=True)
class NeutronReading:
    """One neutron-monitor sample (counts per minute).

    Attributes:
        time: sample time in days since observation start.
        counts_per_minute: high-energy neutron counts per minute at the
            monitor station.
    """

    time: float
    counts_per_minute: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise EnvironmentRecordError(f"time must be >= 0, got {self.time}")
        if not math.isfinite(self.counts_per_minute) or self.counts_per_minute < 0:
            raise EnvironmentRecordError(
                f"counts_per_minute must be finite and >= 0, got "
                f"{self.counts_per_minute!r}"
            )


def monthly_neutron_averages(
    readings: Sequence[NeutronReading],
    period: ObservationPeriod,
) -> np.ndarray:
    """Average counts-per-minute per tiled month of the observation period.

    Months with no samples get NaN.  This is the x-axis of Figure 14.

    Returns:
        Array of length ``count_windows(period, MONTH)``.
    """
    from .timeutil import count_windows  # local import avoids cycle confusion

    n_months = count_windows(period, Span.MONTH)
    if not readings:
        return np.full(n_months, np.nan)
    times = np.array([r.time for r in readings], dtype=float)
    counts = np.array([r.counts_per_minute for r in readings], dtype=float)
    idx = window_index(times, period, Span.MONTH)
    sums = np.zeros(n_months)
    nums = np.zeros(n_months)
    valid = idx >= 0
    np.add.at(sums, idx[valid], counts[valid])
    np.add.at(nums, idx[valid], 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / nums
    means[nums == 0] = np.nan
    return means
