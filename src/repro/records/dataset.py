"""Dataset containers: one system's records, and a multi-system archive.

:class:`SystemDataset` bundles everything recorded about one LANL-style
system -- failures, maintenance events, job logs, temperature readings,
machine layout -- with its observation period and hardware group.  It
also exposes a columnar numpy view of the failure log
(:class:`FailureTable`) that the analysis layer uses for vectorised
window computations.

:class:`ColumnarSystemDataset` is the same dataset with its job and
temperature logs held as numpy columns, as both archive loaders build it.

:class:`Archive` bundles all systems plus site-wide series (the neutron
monitor feed) and mirrors the shape of the public LANL release: ten
systems in two hardware groups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .environment import NeutronReading, TemperatureColumns, TemperatureReading
from .failure import FailureRecord, MaintenanceRecord
from .layout import MachineLayout
from .taxonomy import (
    Category,
    Subtype,
    all_categories,
    all_subtypes,
    category_of,
)
from .timeutil import ObservationPeriod
from .usage import JobColumns, JobRecord


class DatasetError(ValueError):
    """Raised on inconsistent dataset construction or queries."""


class HardwareGroup(enum.Enum):
    """The two hardware families the paper splits LANL systems into.

    GROUP1: 4-way SMP nodes (systems 3, 4, 5, 6, 18, 19, 20), 2848 nodes
    and 11392 processors in total.
    GROUP2: NUMA nodes with ~128 processors each (systems 2, 16, 23),
    70 nodes and 8744 processors in total.
    """

    GROUP1 = "group-1"
    GROUP2 = "group-2"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_CATEGORY_CODES: dict[Category, int] = {c: i for i, c in enumerate(all_categories())}
_SUBTYPE_CODES: dict[Subtype, int] = {s: i for i, s in enumerate(all_subtypes())}
_NO_SUBTYPE = -1


class EventIndex:
    """Columnar index of one event stream for windowed lookups.

    Holds the stream twice: in time order (``times`` / ``nodes``) and
    regrouped by node (``node_times``), with ``node_starts`` offsets so
    ``node_times[node_starts[v]:node_starts[v + 1]]`` is node ``v``'s
    sorted event times.  Window queries then reduce to two
    ``np.searchsorted`` calls per node block instead of re-filtering and
    re-sorting the raw arrays on every analysis call.
    """

    __slots__ = ("times", "nodes", "num_nodes", "node_times", "node_starts")

    def __init__(
        self, times: np.ndarray, nodes: np.ndarray, num_nodes: int | None = None
    ) -> None:
        times = np.asarray(times, dtype=float)
        nodes = np.asarray(nodes, dtype=np.int64)
        if times.shape != nodes.shape or times.ndim != 1:
            raise DatasetError("times and nodes must be matching 1-D arrays")
        if times.size and np.any(np.diff(times) < 0):
            order = np.argsort(times, kind="stable")
            times, nodes = times[order], nodes[order]
        self.times = times
        self.nodes = nodes
        inferred = int(nodes.max()) + 1 if nodes.size else 0
        self.num_nodes = inferred if num_nodes is None else int(num_nodes)
        if self.num_nodes < inferred:
            raise DatasetError(
                f"events reference node {inferred - 1} but num_nodes is "
                f"{self.num_nodes}"
            )
        # Stable sort by node keeps each node block time-sorted.
        grouping = np.argsort(nodes, kind="stable")
        self.node_times = times[grouping]
        counts = np.bincount(nodes, minlength=self.num_nodes)
        self.node_starts = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.node_starts[1:])

    def __len__(self) -> int:
        return int(self.times.size)

    def node_block(self, node: int) -> np.ndarray:
        """Sorted event times of one node (empty for unknown nodes)."""
        if not (0 <= node < self.num_nodes):
            return self.node_times[:0]
        return self.node_times[self.node_starts[node] : self.node_starts[node + 1]]

    def event_nodes(self) -> np.ndarray:
        """Nodes with at least one event, ascending."""
        return np.flatnonzero(np.diff(self.node_starts) > 0)


class FailureTable:
    """Columnar (numpy) view of a failure log, for vectorised analyses.

    Rows are sorted by time.  Columns:

    * ``times`` -- float64, days;
    * ``node_ids`` -- int64;
    * ``category_codes`` -- int64 codes (see :meth:`category_code`);
    * ``subtype_codes`` -- int64 codes, ``-1`` when no subtype is recorded;
    * ``downtime_hours`` -- float64 repair hours.

    A :class:`SystemDataset` keeps its failures sorted, so its table rows
    are its failure records in order.
    """

    def __init__(
        self, failures: Sequence[FailureRecord], num_nodes: int | None = None
    ) -> None:
        ordered = sorted(failures)
        self._records: tuple[FailureRecord, ...] = tuple(ordered)
        self._num_nodes = num_nodes
        self._event_indices: dict[
            tuple[Category | None, Subtype | None], EventIndex
        ] = {}
        n = len(ordered)
        self.times = np.fromiter((f.time for f in ordered), dtype=float, count=n)
        self.node_ids = np.fromiter(
            (f.node_id for f in ordered), dtype=np.int64, count=n
        )
        self.category_codes = np.fromiter(
            (_CATEGORY_CODES[f.category] for f in ordered), dtype=np.int64, count=n
        )
        self.subtype_codes = np.fromiter(
            (
                _SUBTYPE_CODES[f.subtype] if f.subtype is not None else _NO_SUBTYPE
                for f in ordered
            ),
            dtype=np.int64,
            count=n,
        )
        self.downtime_hours = np.fromiter(
            (f.downtime_hours for f in ordered), dtype=float, count=n
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FailureRecord]:
        return iter(self._records)

    def record(self, row: int) -> FailureRecord:
        """The :class:`FailureRecord` behind table row ``row``."""
        return self._records[row]

    @staticmethod
    def category_code(category: Category) -> int:
        """Integer code of a high-level category in ``category_codes``."""
        return _CATEGORY_CODES[category]

    @staticmethod
    def subtype_code(subtype: Subtype) -> int:
        """Integer code of a subtype in ``subtype_codes``."""
        return _SUBTYPE_CODES[subtype]

    def mask(
        self,
        category: Category | None = None,
        subtype: Subtype | None = None,
        node_id: int | None = None,
    ) -> np.ndarray:
        """Boolean row mask selecting failures matching all given filters.

        A ``subtype`` filter implies its category; supplying both a subtype
        and a conflicting category raises :class:`DatasetError`.
        """
        m = np.ones(len(self), dtype=bool)
        if subtype is not None:
            if category is not None and category_of(subtype) is not category:
                raise DatasetError(
                    f"subtype {subtype!r} conflicts with category {category!r}"
                )
            m &= self.subtype_codes == _SUBTYPE_CODES[subtype]
        elif category is not None:
            m &= self.category_codes == _CATEGORY_CODES[category]
        if node_id is not None:
            m &= self.node_ids == node_id
        return m

    def select(
        self,
        category: Category | None = None,
        subtype: Subtype | None = None,
        node_id: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(times, node_ids)`` of failures matching the filters, sorted."""
        if node_id is not None:
            idx = self.events(category=category, subtype=subtype)
            block = idx.node_block(node_id)
            return block, np.full(block.size, node_id, dtype=np.int64)
        m = self.mask(category=category, subtype=subtype)
        return self.times[m], self.node_ids[m]

    def events(
        self,
        category: Category | None = None,
        subtype: Subtype | None = None,
    ) -> EventIndex:
        """Memoized :class:`EventIndex` of the matching failure subset.

        Window analyses query the same few streams (all failures, one
        category, one subtype) against many triggers; caching the sorted
        per-node grouping turns each repeat lookup into pure
        ``searchsorted`` work.
        """
        key = (category, subtype)
        cached = self._event_indices.get(key)
        if cached is None:
            m = self.mask(category=category, subtype=subtype)
            cached = EventIndex(self.times[m], self.node_ids[m], self._num_nodes)
            self._event_indices[key] = cached
        return cached


@dataclass(frozen=True)
class SystemDataset:
    """Everything recorded about one system.

    Attributes:
        system_id: LANL-style numeric identifier.
        group: hardware group (SMP group-1 or NUMA group-2).
        num_nodes: node count of the system.
        processors_per_node: processor count per node (4 for group-1 SMPs,
            typically 128 for group-2 NUMA nodes).
        period: observation period of the system.
        failures: node-outage log.
        maintenance: unscheduled-maintenance log (may be empty).
        jobs: usage log (empty unless the system has one, like 8 and 20).
        temperatures: sensor readings (empty unless available, like 20).
        layout: machine layout (None unless available; group-1 only).
    """

    system_id: int
    group: HardwareGroup
    num_nodes: int
    processors_per_node: int
    period: ObservationPeriod
    failures: tuple[FailureRecord, ...] = ()
    maintenance: tuple[MaintenanceRecord, ...] = ()
    jobs: tuple[JobRecord, ...] = ()
    temperatures: tuple[TemperatureReading, ...] = ()
    layout: MachineLayout | None = None

    def __post_init__(self) -> None:
        self.validate()
        # Normalise record ordering once, at construction.
        object.__setattr__(self, "failures", tuple(sorted(self.failures)))
        object.__setattr__(self, "maintenance", tuple(sorted(self.maintenance)))
        object.__setattr__(self, "jobs", tuple(sorted(self.jobs)))
        object.__setattr__(self, "temperatures", tuple(sorted(self.temperatures)))

    def validate(self) -> None:
        """Check the system's shape and its failure, maintenance and layout
        logs against each other; raises :class:`DatasetError`.

        Job and temperature records validate themselves at construction.
        """
        if self.num_nodes < 1:
            raise DatasetError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.processors_per_node < 1:
            raise DatasetError(
                f"processors_per_node must be >= 1, got {self.processors_per_node}"
            )
        for f in self.failures:
            if f.system_id != self.system_id:
                raise DatasetError(
                    f"failure for system {f.system_id} in dataset of system "
                    f"{self.system_id}"
                )
            if f.node_id >= self.num_nodes:
                raise DatasetError(
                    f"failure references node {f.node_id} but system "
                    f"{self.system_id} has only {self.num_nodes} nodes"
                )
            if not self.period.contains(f.time):
                raise DatasetError(
                    f"failure at t={f.time} outside observation period "
                    f"[{self.period.start}, {self.period.end})"
                )
        for m in self.maintenance:
            if m.system_id != self.system_id or m.node_id >= self.num_nodes:
                raise DatasetError(
                    f"maintenance record {m!r} inconsistent with system "
                    f"{self.system_id} ({self.num_nodes} nodes)"
                )
        if self.layout is not None:
            placed = set(self.layout.node_ids)
            expected = set(range(self.num_nodes))
            if placed != expected:
                raise DatasetError(
                    f"layout of system {self.system_id} places nodes "
                    f"{sorted(placed ^ expected)[:5]}... inconsistently with "
                    f"num_nodes={self.num_nodes}"
                )

    @cached_property
    def failure_table(self) -> FailureTable:
        """Columnar numpy view of the failure log (cached)."""
        return FailureTable(self.failures, num_nodes=self.num_nodes)

    @cached_property
    def rack_of(self) -> np.ndarray | None:
        """Node -> rack id mapping from the layout (None without layout)."""
        if self.layout is None:
            return None
        return np.array(
            [self.layout.rack_of(n) for n in range(self.num_nodes)],
            dtype=np.int64,
        )

    @property
    def total_processors(self) -> int:
        """Total processor count of the system."""
        return self.num_nodes * self.processors_per_node

    def failures_of_node(self, node_id: int) -> tuple[FailureRecord, ...]:
        """All failures of one node, chronological."""
        if not (0 <= node_id < self.num_nodes):
            raise DatasetError(
                f"node {node_id} out of range for system {self.system_id}"
            )
        return tuple(f for f in self.failures if f.node_id == node_id)

    def failure_counts_per_node(self) -> np.ndarray:
        """Number of failures of each node (index = node id); Figure 4."""
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(counts, self.failure_table.node_ids, 1)
        return counts

    def job_columns(self) -> JobColumns:
        """The job log as :class:`JobColumns` (built once, then memoized).

        The memo lives in the instance dict under ``_job_columns``, where
        :class:`ColumnarSystemDataset` keeps the columns it was built
        from.
        """
        cols = self.__dict__.get("_job_columns")
        if cols is None:
            cols = JobColumns.from_records(self.jobs)
            self.__dict__["_job_columns"] = cols
        return cols

    def temperature_columns(self) -> TemperatureColumns:
        """The temperature log as :class:`TemperatureColumns` (memoized
        under ``_temperature_columns``, like :meth:`job_columns`)."""
        cols = self.__dict__.get("_temperature_columns")
        if cols is None:
            cols = TemperatureColumns.from_records(self.temperatures)
            self.__dict__["_temperature_columns"] = cols
        return cols

    @property
    def has_usage(self) -> bool:
        """True if a job log is available (systems 8 and 20 at LANL)."""
        return len(self.jobs) > 0

    @property
    def has_temperature(self) -> bool:
        """True if temperature readings are available (system 20 at LANL)."""
        return len(self.temperatures) > 0

    @property
    def has_layout(self) -> bool:
        """True if a machine layout is available (group-1 systems)."""
        return self.layout is not None


class ColumnarSystemDataset(SystemDataset):
    """A :class:`SystemDataset` that holds its job and temperature logs as
    columns and builds the record tuples on first access.

    Both archive loaders build it: the CSV reader
    (:func:`~repro.records.io.load_archive`) and the archive cache
    (:func:`~repro.simulate.cache.load_cached`).  The columns sit in the
    memos of :meth:`~SystemDataset.job_columns` and
    :meth:`~SystemDataset.temperature_columns`, so the analyses read them
    without ever creating a record; ``.jobs`` / ``.temperatures``
    materialize the records (in the same order) once, on first access.

    The ``jobs`` / ``temperatures`` properties shadow the dataclass
    fields.  Their setters store a record tuple and drop the stale
    columns, so ``dataclasses.replace`` and the generated frozen
    ``__init__`` (which assign fields via ``object.__setattr__``) keep
    working; plain attribute assignment still raises
    ``FrozenInstanceError``.
    """

    @classmethod
    def from_columns(
        cls,
        jobs: JobColumns,
        temperatures: TemperatureColumns,
        **fields,
    ) -> "ColumnarSystemDataset":
        """Build from columns in record order plus the other dataclass
        fields (record tuples already sorted).

        Skips ``__post_init__``: callers pass checked logs, or call
        :meth:`~SystemDataset.validate` themselves.
        """
        ds = object.__new__(cls)
        ds.__dict__.update(
            fields, _job_columns=jobs, _temperature_columns=temperatures
        )
        return ds

    @property
    def jobs(self) -> tuple[JobRecord, ...]:
        records = self.__dict__.get("_jobs")
        if records is None:
            records = self.__dict__["_job_columns"].to_records(self.system_id)
            self.__dict__["_jobs"] = records
        return records

    @jobs.setter
    def jobs(self, value) -> None:
        self.__dict__["_jobs"] = tuple(value)
        self.__dict__.pop("_job_columns", None)

    @property
    def temperatures(self) -> tuple[TemperatureReading, ...]:
        records = self.__dict__.get("_temperatures")
        if records is None:
            records = self.__dict__["_temperature_columns"].to_records(
                self.system_id
            )
            self.__dict__["_temperatures"] = records
        return records

    @temperatures.setter
    def temperatures(self, value) -> None:
        self.__dict__["_temperatures"] = tuple(value)
        self.__dict__.pop("_temperature_columns", None)

    @property
    def has_usage(self) -> bool:
        """Job-log presence without materializing the record tuple."""
        return len(self.job_columns()) > 0

    @property
    def has_temperature(self) -> bool:
        """Temperature presence without materializing the record tuple."""
        return len(self.temperature_columns()) > 0


class Archive:
    """A complete multi-system archive, mirroring the LANL release shape.

    Attributes:
        systems: mapping system_id -> :class:`SystemDataset`.
        neutron_series: site-wide neutron monitor readings (may be empty).
    """

    def __init__(
        self,
        systems: Iterable[SystemDataset],
        neutron_series: Sequence[NeutronReading] = (),
    ) -> None:
        self.systems: dict[int, SystemDataset] = {}
        for ds in systems:
            if ds.system_id in self.systems:
                raise DatasetError(f"duplicate system id {ds.system_id}")
            self.systems[ds.system_id] = ds
        if not self.systems:
            raise DatasetError("an archive must contain at least one system")
        self.neutron_series: tuple[NeutronReading, ...] = tuple(
            sorted(neutron_series)
        )

    def __len__(self) -> int:
        return len(self.systems)

    def __iter__(self) -> Iterator[SystemDataset]:
        return iter(self.systems[k] for k in sorted(self.systems))

    def __getitem__(self, system_id: int) -> SystemDataset:
        try:
            return self.systems[system_id]
        except KeyError as exc:
            raise DatasetError(f"no system {system_id} in archive") from exc

    def group(self, group: HardwareGroup) -> list[SystemDataset]:
        """All systems belonging to one hardware group, by ascending id."""
        return [ds for ds in self if ds.group is group]

    @property
    def system_ids(self) -> tuple[int, ...]:
        """All system ids, ascending."""
        return tuple(sorted(self.systems))

    def total_nodes(self, group: HardwareGroup | None = None) -> int:
        """Total node count, optionally restricted to one group."""
        return sum(
            ds.num_nodes for ds in self if group is None or ds.group is group
        )

    def total_failures(self, group: HardwareGroup | None = None) -> int:
        """Total failure count, optionally restricted to one group."""
        return sum(
            len(ds.failures) for ds in self if group is None or ds.group is group
        )
