"""On-disk archive format: LANL-style CSV files.

The public LANL release ships per-system CSV tables.  We mirror that
layout so the toolkit can be pointed at a directory tree and load a full
:class:`~repro.records.dataset.Archive`::

    archive-root/
      systems.csv                   one row per system (id, group, nodes, ...)
      neutrons.csv                  site-wide neutron monitor series
      system-<id>/
        failures.csv                node outages
        maintenance.csv             unscheduled maintenance events
        jobs.csv                    usage log (only if available)
        temperatures.csv            sensor readings (only if available)
        layout.csv                  machine layout (only if available)

All files carry a header row; fields are comma-separated; times are
fractional days since the system's observation start.  Writers emit
deterministic, sorted output so archives diff cleanly.

The two bulky logs, ``jobs.csv`` and ``temperatures.csv``, are read by
column readers: one vectorized ``np.loadtxt`` pass per file into
:class:`~repro.records.usage.JobColumns` /
:class:`~repro.records.environment.TemperatureColumns`, checked against
every rule of the matching record type and sorted into record order.
:func:`load_archive` holds them in a
:class:`~repro.records.dataset.ColumnarSystemDataset`, which builds the
record tuples only on first ``.jobs`` / ``.temperatures`` access.  The
smaller files are read row by row into records.  Every malformed row --
a bad or missing field, an extra field, a value its record rejects --
raises :class:`ArchiveIOError` naming ``path:line``.

Floats are written with Python's shortest round-trip ``repr`` so that a
save/load cycle reproduces every value *exactly*.  Fixed-precision
formatting used to quantise times, which could reorder records tied on
the rounded key and silently re-attach per-record flags (e.g.
``hardware_related``) to the wrong rows after a round trip.
"""

from __future__ import annotations

import csv
import io
import itertools
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .dataset import Archive, ColumnarSystemDataset, DatasetError, HardwareGroup
from .environment import NeutronReading, TemperatureColumns, TemperatureReading
from .failure import FailureRecord, MaintenanceRecord
from .layout import LayoutError, MachineLayout, NodePlacement
from .taxonomy import parse_category, parse_subtype
from .timeutil import ObservationPeriod
from .usage import JobColumns, JobRecord
from ..telemetry import span

_T = TypeVar("_T")
_C = TypeVar("_C", JobColumns, TemperatureColumns)


class ArchiveIOError(ValueError):
    """Raised on malformed archive files."""


_SYSTEMS_HEADER = [
    "system_id",
    "group",
    "num_nodes",
    "processors_per_node",
    "period_start",
    "period_end",
]
_FAILURES_HEADER = [
    "time",
    "node_id",
    "category",
    "subtype",
    "downtime_hours",
]
_MAINTENANCE_HEADER = ["time", "node_id", "hardware_related", "duration_hours"]
_JOBS_HEADER = [
    "job_id",
    "submit_time",
    "dispatch_time",
    "end_time",
    "user_id",
    "num_processors",
    "node_ids",
    "failed_due_to_node",
]
_TEMPERATURES_HEADER = ["time", "node_id", "celsius"]
#: Field types the column readers parse with.  ``node_ids`` and the
#: 0/1 flag stay strings: a node list is split after parsing, and the
#: flag is matched exactly as the record readers match it.
_JOB_DTYPE = np.dtype(
    [
        ("job_id", np.int64),
        ("submit_time", float),
        ("dispatch_time", float),
        ("end_time", float),
        ("user_id", np.int64),
        ("num_processors", np.int64),
        ("node_ids", object),
        ("failed_due_to_node", object),
    ]
)
_TEMPERATURE_DTYPE = np.dtype(
    [("time", float), ("node_id", np.int64), ("celsius", float)]
)
_LAYOUT_HEADER = ["node_id", "rack_id", "position_in_rack", "room_x", "room_y"]
_NEUTRONS_HEADER = ["time", "counts_per_minute"]


def _fmt(value: float) -> str:
    """Shortest decimal string that parses back to exactly ``value``."""
    return repr(float(value))


def _rows(path: Path, header: list[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield ``(line number, row dict)`` per data row of a CSV file.

    Validates the header and every row's field count; blank lines are
    skipped (as ``csv.DictReader`` does).
    """
    if not path.exists():
        raise ArchiveIOError(f"missing archive file {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                raise ArchiveIOError(
                    f"{path}: expected header {header}, got {got}"
                )
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    kind = "short" if len(row) < len(header) else "long"
                    raise ArchiveIOError(f"{path}:{reader.line_num}: {kind} row")
                yield reader.line_num, dict(zip(header, row))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ArchiveIOError(f"{path}:{reader.line_num}: {exc}") from exc


def _read_records(
    path: Path, header: list[str], build: Callable[[dict[str, str]], _T]
) -> list[_T]:
    """``build`` applied to every data row.  A ``ValueError`` from a row --
    a bad field or a record rejecting its values (``TaxonomyError``,
    ``RecordError``, ``UsageError``, ...) -- is re-raised as
    :class:`ArchiveIOError` naming ``path:line``."""
    out = []
    for line, row in _rows(path, header):
        try:
            out.append(build(row))
        except ValueError as exc:
            raise ArchiveIOError(f"{path}:{line}: {exc}") from exc
    return out


def _parse(kind: Callable[[str], _T], what: str, field: str, value: str) -> _T:
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"field {field!r} is not {what}: {value!r}") from None


def _float(row: dict[str, str], field: str) -> float:
    return _parse(float, "a number", field, row[field])


def _int(row: dict[str, str], field: str) -> int:
    return _parse(int, "an integer", field, row[field])


def _flag(row: dict[str, str], field: str) -> bool:
    if row[field] in ("0", "1"):
        return row[field] == "1"
    raise ValueError(f"field {field!r} must be 0 or 1, got {row[field]!r}")


def _node_list(row: dict[str, str]) -> list[int]:
    if not row["node_ids"]:
        raise ValueError("empty node_ids")
    return [
        _parse(int, "an integer", "node_ids", token)
        for token in row["node_ids"].split(";")
    ]


def _read_table(
    path: Path,
    header: list[str],
    dtype: np.dtype,
    check_row: Callable[[dict[str, str]], object],
    convert: Callable[[np.ndarray], _T],
) -> _T:
    """Parse a CSV file in one vectorized pass and ``convert`` the table.

    ``np.loadtxt`` turns a numeric field into exactly the value
    ``float()`` / ``int()`` gives for it, and a structured ``dtype``
    makes it reject rows with too few or too many fields.  It spells
    some errors differently and accepts a subset of Python's number
    syntax, so when the file does not parse, it is read once more row
    by row through ``check_row`` only to name the failing ``path:line``
    in the :class:`ArchiveIOError`.
    """
    try:
        with path.open(newline="") as fh:
            if next(csv.reader([fh.readline()]), None) != header:
                raise ValueError("unexpected header")
            body = fh.read()
        # A file with no data rows gives an empty table; loadtxt would
        # warn about it instead.
        if body.strip("\r\n"):
            table = np.loadtxt(
                io.StringIO(body),
                delimiter=",",
                dtype=dtype,
                comments=None,
                quotechar='"',
                ndmin=1,
            )
        else:
            table = np.empty(0, dtype=dtype)
        return convert(table)
    except (OSError, ValueError, OverflowError, csv.Error) as exc:
        _read_records(path, header, check_row)
        raise ArchiveIOError(f"{path}: {exc}") from exc


def _in_record_order(path: Path, cols: _C, system_id: int, keys: tuple) -> _C:
    """``cols`` stably sorted by ``keys`` (last key primary), once every
    row passes the rules of its record type.

    The first row ``cols.invalid_rows()`` flags raises
    :class:`ArchiveIOError` naming its ``path:line``, chained to the
    typed error its record raises.
    """
    bad = cols.invalid_rows()
    if bad.any():
        row = int(np.argmax(bad))
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            lines = (reader.line_num for fields in reader if fields)
            line = next(itertools.islice(lines, row + 1, None))
        try:
            cols.take([row]).to_records(system_id)
        except ValueError as exc:
            raise ArchiveIOError(f"{path}:{line}: {exc}") from exc
        raise ArchiveIOError(f"{path}:{line}: invalid row")
    return cols.take(np.lexsort(keys))


def write_failures(path: Path, failures: Sequence[FailureRecord]) -> None:
    """Write a failure log to ``failures.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_FAILURES_HEADER)
        for f in sorted(failures):
            w.writerow(
                [
                    _fmt(f.time),
                    f.node_id,
                    f.category.value,
                    f.subtype.value if f.subtype is not None else "",
                    _fmt(f.downtime_hours),
                ]
            )


def read_failures(path: Path, system_id: int) -> list[FailureRecord]:
    """Read a ``failures.csv`` file for one system."""

    def build(row: dict[str, str]) -> FailureRecord:
        return FailureRecord(
            time=_float(row, "time"),
            system_id=system_id,
            node_id=_int(row, "node_id"),
            category=parse_category(row["category"]),
            subtype=parse_subtype(row["subtype"]) if row["subtype"] else None,
            downtime_hours=_float(row, "downtime_hours"),
        )

    return _read_records(path, _FAILURES_HEADER, build)


def write_maintenance(path: Path, events: Sequence[MaintenanceRecord]) -> None:
    """Write a maintenance log to ``maintenance.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_MAINTENANCE_HEADER)
        for m in sorted(events):
            w.writerow(
                [
                    _fmt(m.time),
                    m.node_id,
                    int(m.hardware_related),
                    _fmt(m.duration_hours),
                ]
            )


def read_maintenance(path: Path, system_id: int) -> list[MaintenanceRecord]:
    """Read a ``maintenance.csv`` file for one system."""

    def build(row: dict[str, str]) -> MaintenanceRecord:
        return MaintenanceRecord(
            time=_float(row, "time"),
            system_id=system_id,
            node_id=_int(row, "node_id"),
            hardware_related=_flag(row, "hardware_related"),
            duration_hours=_float(row, "duration_hours"),
        )

    return _read_records(path, _MAINTENANCE_HEADER, build)


def write_jobs(path: Path, jobs: Sequence[JobRecord]) -> None:
    """Write a usage log to ``jobs.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_JOBS_HEADER)
        for j in sorted(jobs):
            w.writerow(
                [
                    j.job_id,
                    _fmt(j.submit_time),
                    _fmt(j.dispatch_time),
                    _fmt(j.end_time),
                    j.user_id,
                    j.num_processors,
                    ";".join(str(n) for n in j.node_ids),
                    int(j.failed_due_to_node),
                ]
            )


def _job_fields(row: dict[str, str]) -> tuple:
    """One ``jobs.csv`` row parsed field by field (error reporting only)."""
    return (
        _int(row, "job_id"),
        _float(row, "submit_time"),
        _float(row, "dispatch_time"),
        _float(row, "end_time"),
        _int(row, "user_id"),
        _int(row, "num_processors"),
        _node_list(row),
        _flag(row, "failed_due_to_node"),
    )


def _job_columns(table: np.ndarray) -> JobColumns:
    """Columns of a parsed ``jobs.csv`` table, in file order."""
    node_lists = table["node_ids"].tolist()
    tokens = ";".join(node_lists).split(";") if node_lists else []
    offsets = np.zeros(len(node_lists) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter((s.count(";") + 1 for s in node_lists), np.int64),
        out=offsets[1:],
    )
    flags = table["failed_due_to_node"]
    failed = flags == "1"
    if not (failed | (flags == "0")).all():
        raise ValueError("failed_due_to_node must be 0 or 1")
    return JobColumns(
        submit_times=table["submit_time"],
        dispatch_times=table["dispatch_time"],
        end_times=table["end_time"],
        user_ids=table["user_id"],
        num_processors=table["num_processors"],
        failed_due_to_node=failed,
        job_ids=table["job_id"],
        node_offsets=offsets,
        node_ids=np.fromiter(map(int, tokens), np.int64, len(tokens)),
    )


def read_job_columns(path: Path, system_id: int) -> JobColumns:
    """Read a ``jobs.csv`` file into :class:`JobColumns`, in record order.

    Rows are checked against every :class:`JobRecord` rule and sorted
    (stably) by ``(submit_time, job_id)``, as ``sorted(records)`` would.
    """
    cols = _read_table(path, _JOBS_HEADER, _JOB_DTYPE, _job_fields, _job_columns)
    return _in_record_order(
        path, cols, system_id, (cols.job_ids, cols.submit_times)
    )


def write_temperatures(path: Path, readings: Sequence[TemperatureReading]) -> None:
    """Write temperature readings to ``temperatures.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_TEMPERATURES_HEADER)
        for r in sorted(readings):
            w.writerow([_fmt(r.time), r.node_id, _fmt(r.celsius)])


def _temperature_fields(row: dict[str, str]) -> tuple:
    """One ``temperatures.csv`` row parsed field by field (error
    reporting only)."""
    return (_float(row, "time"), _int(row, "node_id"), _float(row, "celsius"))


def _temperature_columns(table: np.ndarray) -> TemperatureColumns:
    return TemperatureColumns(
        times=table["time"], node_ids=table["node_id"], celsius=table["celsius"]
    )


def read_temperature_columns(path: Path, system_id: int) -> TemperatureColumns:
    """Read a ``temperatures.csv`` file into :class:`TemperatureColumns`,
    in record order.

    Rows are checked against every :class:`TemperatureReading` rule and
    sorted (stably) by ``(time, node_id, celsius)``, as
    ``sorted(records)`` would.
    """
    cols = _read_table(
        path,
        _TEMPERATURES_HEADER,
        _TEMPERATURE_DTYPE,
        _temperature_fields,
        _temperature_columns,
    )
    return _in_record_order(
        path, cols, system_id, (cols.celsius, cols.node_ids, cols.times)
    )


def write_layout(path: Path, layout: MachineLayout) -> None:
    """Write a machine layout to ``layout.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_LAYOUT_HEADER)
        for node_id in layout.node_ids:
            p = layout.placement(node_id)
            w.writerow(
                [p.node_id, p.rack_id, p.position_in_rack, p.room_x, p.room_y]
            )


def read_layout(path: Path) -> MachineLayout:
    """Read a ``layout.csv`` file."""

    def build(row: dict[str, str]) -> NodePlacement:
        return NodePlacement(
            node_id=_int(row, "node_id"),
            rack_id=_int(row, "rack_id"),
            position_in_rack=_int(row, "position_in_rack"),
            room_x=_int(row, "room_x"),
            room_y=_int(row, "room_y"),
        )

    placements = _read_records(path, _LAYOUT_HEADER, build)
    try:
        return MachineLayout(placements)
    except LayoutError as exc:
        raise ArchiveIOError(f"{path}: {exc}") from exc


def write_neutrons(path: Path, readings: Sequence[NeutronReading]) -> None:
    """Write the neutron monitor series to ``neutrons.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_NEUTRONS_HEADER)
        for r in sorted(readings):
            w.writerow([_fmt(r.time), _fmt(r.counts_per_minute)])


def read_neutrons(path: Path) -> list[NeutronReading]:
    """Read a ``neutrons.csv`` file."""

    def build(row: dict[str, str]) -> NeutronReading:
        return NeutronReading(
            time=_float(row, "time"),
            counts_per_minute=_float(row, "counts_per_minute"),
        )

    return _read_records(path, _NEUTRONS_HEADER, build)


def save_archive(archive: Archive, root: Path | str) -> None:
    """Persist an :class:`Archive` to a directory tree.

    Creates ``root`` (and parents) if needed; overwrites existing files.
    """
    root = Path(root)
    with span("io.save_archive", path=str(root), systems=len(archive)):
        _save_archive(archive, root)


def _save_archive(archive: Archive, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    with (root / "systems.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SYSTEMS_HEADER)
        for ds in archive:
            w.writerow(
                [
                    ds.system_id,
                    ds.group.value,
                    ds.num_nodes,
                    ds.processors_per_node,
                    _fmt(ds.period.start),
                    _fmt(ds.period.end),
                ]
            )
    write_neutrons(root / "neutrons.csv", archive.neutron_series)
    for ds in archive:
        sysdir = root / f"system-{ds.system_id}"
        sysdir.mkdir(exist_ok=True)
        write_failures(sysdir / "failures.csv", ds.failures)
        write_maintenance(sysdir / "maintenance.csv", ds.maintenance)
        if ds.jobs:
            write_jobs(sysdir / "jobs.csv", ds.jobs)
        if ds.temperatures:
            write_temperatures(sysdir / "temperatures.csv", ds.temperatures)
        if ds.layout is not None:
            write_layout(sysdir / "layout.csv", ds.layout)


def load_archive(root: Path | str) -> Archive:
    """Load an :class:`Archive` from a directory tree written by
    :func:`save_archive` (or laid out by hand in the same format)."""
    root = Path(root)
    with span("io.load_archive", path=str(root)) as s:
        archive = _load_archive(root)
        s.set_attrs(systems=len(archive))
        return archive


def _system_fields(row: dict[str, str]) -> dict:
    """The dataset fields one ``systems.csv`` row gives."""
    try:
        group = HardwareGroup(row["group"])
    except ValueError:
        raise ValueError(f"unknown group {row['group']!r}") from None
    return {
        "system_id": _int(row, "system_id"),
        "group": group,
        "num_nodes": _int(row, "num_nodes"),
        "processors_per_node": _int(row, "processors_per_node"),
        "period": ObservationPeriod(
            start=_float(row, "period_start"), end=_float(row, "period_end")
        ),
    }


def _load_archive(root: Path) -> Archive:
    systems = []
    for fields in _read_records(
        root / "systems.csv", _SYSTEMS_HEADER, _system_fields
    ):
        system_id = fields["system_id"]
        sysdir = root / f"system-{system_id}"
        failures = read_failures(sysdir / "failures.csv", system_id)
        maintenance = read_maintenance(sysdir / "maintenance.csv", system_id)
        jobs_path = sysdir / "jobs.csv"
        temps_path = sysdir / "temperatures.csv"
        layout_path = sysdir / "layout.csv"
        ds = ColumnarSystemDataset.from_columns(
            jobs=(
                read_job_columns(jobs_path, system_id)
                if jobs_path.exists()
                else JobColumns.from_records(())
            ),
            temperatures=(
                read_temperature_columns(temps_path, system_id)
                if temps_path.exists()
                else TemperatureColumns.from_records(())
            ),
            failures=tuple(sorted(failures)),
            maintenance=tuple(sorted(maintenance)),
            layout=read_layout(layout_path) if layout_path.exists() else None,
            **fields,
        )
        try:
            ds.validate()
        except DatasetError as exc:
            raise ArchiveIOError(
                f"inconsistent data for system {system_id}: {exc}"
            ) from exc
        systems.append(ds)
    neutrons_path = root / "neutrons.csv"
    neutrons = read_neutrons(neutrons_path) if neutrons_path.exists() else []
    try:
        return Archive(systems, neutron_series=neutrons)
    except DatasetError as exc:
        raise ArchiveIOError(f"{root}: {exc}") from exc
