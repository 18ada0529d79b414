"""Round-trip and failure-injection tests for archive I/O."""

import dataclasses
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.report import full_report
from repro.records.dataset import Archive, ColumnarSystemDataset
from repro.records.environment import (
    EnvironmentRecordError,
    TemperatureColumns,
    TemperatureReading,
)
from repro.records.failure import RecordError
from repro.records.io import (
    ArchiveIOError,
    load_archive,
    read_failures,
    read_job_columns,
    read_layout,
    read_temperature_columns,
    save_archive,
    write_failures,
)
from repro.records.layout import LayoutError
from repro.records.taxonomy import TaxonomyError
from repro.records.usage import JobColumns, JobRecord, UsageError
from repro.simulate.cache import load_cached, store_cached
from repro.simulate.config import small_config

FAILURES_HEADER = "time,node_id,category,subtype,downtime_hours\n"
JOBS_HEADER = (
    "job_id,submit_time,dispatch_time,end_time,user_id,num_processors,"
    "node_ids,failed_due_to_node\n"
)
TEMPERATURES_HEADER = "time,node_id,celsius\n"
LAYOUT_HEADER = "node_id,rack_id,position_in_rack,room_x,room_y\n"
HEADERS = {
    "failures.csv": FAILURES_HEADER,
    "jobs.csv": JOBS_HEADER,
    "temperatures.csv": TEMPERATURES_HEADER,
    "layout.csv": LAYOUT_HEADER,
}


def _fields(records) -> list[tuple]:
    """Every field of every record (record equality skips some)."""
    return [dataclasses.astuple(r) for r in records]


def _assert_columns_equal(got, want) -> None:
    for name in type(want).__slots__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestRoundTrip:
    def test_full_archive_round_trip(self, tiny_archive: Archive, tmp_path: Path):
        save_archive(tiny_archive, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        assert loaded.system_ids == tiny_archive.system_ids
        for sid in tiny_archive.system_ids:
            orig, back = tiny_archive[sid], loaded[sid]
            assert (back.group, back.num_nodes, back.processors_per_node) == (
                orig.group,
                orig.num_nodes,
                orig.processors_per_node,
            )
            assert back.period == orig.period
            _assert_columns_equal(back.job_columns(), orig.job_columns())
            _assert_columns_equal(
                back.temperature_columns(), orig.temperature_columns()
            )
            for log in ("failures", "maintenance", "jobs", "temperatures"):
                assert _fields(getattr(back, log)) == _fields(
                    getattr(orig, log)
                ), log
            assert back.has_layout == orig.has_layout
            if orig.has_layout:
                assert [
                    back.layout.placement(n) for n in back.layout.node_ids
                ] == [orig.layout.placement(n) for n in orig.layout.node_ids]
        assert _fields(loaded.neutron_series) == _fields(
            tiny_archive.neutron_series
        )

    def test_loaded_systems_build_records_lazily(
        self, tiny_archive: Archive, tmp_path: Path
    ):
        save_archive(tiny_archive, tmp_path / "arch")
        ds = load_archive(tmp_path / "arch")[20]
        assert type(ds) is ColumnarSystemDataset
        assert ds.has_usage and ds.has_temperature
        assert len(ds.job_columns()) == len(tiny_archive[20].jobs)
        assert "_jobs" not in ds.__dict__
        assert "_temperatures" not in ds.__dict__
        assert ds.jobs == tiny_archive[20].jobs
        clone = dataclasses.replace(ds, jobs=ds.jobs[:5])
        assert _fields(clone.jobs) == _fields(ds.jobs[:5])
        _assert_columns_equal(
            clone.job_columns(), JobColumns.from_records(ds.jobs[:5])
        )
        assert clone.temperatures == ds.temperatures

    def test_report_identical_across_load_paths(
        self, tiny_archive: Archive, tmp_path: Path
    ):
        """In-memory, CSV-loaded and cache-loaded archives of one config
        give byte-identical reports, and a CSV load + save reproduces the
        archive directory byte for byte."""
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        config = small_config(seed=3, years=2.0, scale=0.03)
        store_cached(config, tiny_archive, tmp_path / "cache")
        cached = load_cached(config, tmp_path / "cache")
        assert cached is not None
        loaded = load_archive(root)
        assert {type(ds) for ds in [*loaded, *cached]} == {ColumnarSystemDataset}
        text = full_report(tiny_archive)
        assert full_report(loaded) == text
        assert full_report(cached) == text
        save_archive(load_archive(root), tmp_path / "again")
        assert _tree(tmp_path / "again") == _tree(root)

    def test_shuffled_logs_load_in_record_order(self, tmp_path: Path):
        """Rows in any order, with tied sort keys, load in the order
        ``sorted(records)`` gives (a stable sort on the record key)."""
        jobs = [
            (7, 1.0, 1.5, 2.0, 3, 4, (0, 2), False),
            (2, 1.0, 1.0, 3.0, 1, 8, (1,), True),
            (2, 1.0, 1.25, 1.5, 2, 4, (3,), False),
            (5, 0.5, 0.5, 0.5, 0, 1, (2, 0, 1), False),
            (9, 1.0, 2.0, 2.5, 0, 4, (0,), True),
            (1, 2.0, 2.0, 2.0, 1, 4, (1,), False),
        ]
        temps = [
            (1.0, 2, 30.0),
            (1.0, 1, 31.0),
            (1.0, 1, 29.5),
            (0.5, 3, 25.0),
            (1.0, 1, 29.5),
            (2.0, 0, 20.0),
        ]
        rng = random.Random(1)
        rng.shuffle(jobs)
        rng.shuffle(temps)
        jobs_csv = tmp_path / "jobs.csv"
        jobs_csv.write_text(
            JOBS_HEADER
            + "".join(
                f"{j},{s!r},{d!r},{e!r},{u},{p},{';'.join(map(str, n))},{int(f)}\n"
                for j, s, d, e, u, p, n, f in jobs
            )
        )
        temps_csv = tmp_path / "temperatures.csv"
        temps_csv.write_text(
            TEMPERATURES_HEADER
            + "".join(f"{t!r},{n},{c!r}\n" for t, n, c in temps)
        )
        want_jobs = sorted(
            JobRecord(
                submit_time=s,
                system_id=20,
                job_id=j,
                dispatch_time=d,
                end_time=e,
                user_id=u,
                num_processors=p,
                node_ids=n,
                failed_due_to_node=f,
            )
            for j, s, d, e, u, p, n, f in jobs
        )
        want_temps = sorted(TemperatureReading(t, 20, n, c) for t, n, c in temps)
        job_cols = read_job_columns(jobs_csv, 20)
        temp_cols = read_temperature_columns(temps_csv, 20)
        _assert_columns_equal(job_cols, JobColumns.from_records(want_jobs))
        _assert_columns_equal(
            temp_cols, TemperatureColumns.from_records(want_temps)
        )
        assert _fields(job_cols.to_records(20)) == _fields(want_jobs)
        assert _fields(temp_cols.to_records(20)) == _fields(want_temps)

    def test_save_is_deterministic(self, tiny_archive: Archive, tmp_path: Path):
        save_archive(tiny_archive, tmp_path / "a")
        save_archive(tiny_archive, tmp_path / "b")
        sid = tiny_archive.system_ids[0]
        fa = (tmp_path / "a" / f"system-{sid}" / "failures.csv").read_text()
        fb = (tmp_path / "b" / f"system-{sid}" / "failures.csv").read_text()
        assert fa == fb

    def test_jobs_preserved(self, tiny_archive: Archive, tmp_path: Path):
        save_archive(tiny_archive, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        usage_systems = [ds for ds in tiny_archive if ds.has_usage]
        assert usage_systems, "fixture should include a usage system"
        for ds in usage_systems:
            back = loaded[ds.system_id]
            orig_failed = sum(j.failed_due_to_node for j in ds.jobs)
            back_failed = sum(j.failed_due_to_node for j in back.jobs)
            assert orig_failed == back_failed


class TestMalformedInput:
    def test_missing_directory(self, tmp_path: Path):
        with pytest.raises(ArchiveIOError):
            load_archive(tmp_path / "nope")

    def test_missing_failures_file(self, tiny_archive: Archive, tmp_path: Path):
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        sid = tiny_archive.system_ids[0]
        (root / f"system-{sid}" / "failures.csv").unlink()
        with pytest.raises(ArchiveIOError):
            load_archive(root)

    def test_wrong_header(self, tmp_path: Path):
        p = tmp_path / "failures.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ArchiveIOError, match="header"):
            read_failures(p, system_id=1)

    def test_bad_number(self, tmp_path: Path):
        p = tmp_path / "failures.csv"
        p.write_text(
            "time,node_id,category,subtype,downtime_hours\n"
            "oops,0,HW,,1.0\n"
        )
        with pytest.raises(ArchiveIOError, match="not a number"):
            read_failures(p, system_id=1)

    def test_bad_category(self, tmp_path: Path):
        p = tmp_path / "failures.csv"
        p.write_text(
            "time,node_id,category,subtype,downtime_hours\n"
            "1.0,0,NOPE,,1.0\n"
        )
        with pytest.raises(ArchiveIOError):
            read_failures(p, system_id=1)

    def test_short_row(self, tmp_path: Path):
        p = tmp_path / "failures.csv"
        p.write_text(
            "time,node_id,category,subtype,downtime_hours\n"
            "1.0,0\n"
        )
        with pytest.raises(ArchiveIOError, match="short row"):
            read_failures(p, system_id=1)

    @pytest.mark.parametrize(
        "name, row",
        [
            ("failures.csv", "1.0,0,HW,,1.0,EXTRA"),
            ("jobs.csv", "0,0.0,0.0,1.0,0,4,0,0,EXTRA"),
            ("temperatures.csv", "1.0,0,25.0,EXTRA"),
        ],
    )
    def test_long_row(self, tmp_path: Path, name, row):
        p = tmp_path / name
        p.write_text(HEADERS[name] + row + "\n")
        with pytest.raises(ArchiveIOError, match=f"{name}:2: long row"):
            READERS[name](p, 1)

    @pytest.mark.parametrize(
        "name, rows, line, cause",
        [
            ("failures.csv", ["1.0,0,NOPE,,1.0"], 2, TaxonomyError),
            ("failures.csv", ["1.0,0,HW,NOPE,1.0"], 2, TaxonomyError),
            ("failures.csv", ["1.0,0,HW,,2.0", "2.0,0,HW,,-1.0"], 3, RecordError),
            ("jobs.csv", ["0,2.0,1.0,3.0,0,4,0,0"], 2, UsageError),
            ("jobs.csv", ["0,0.0,0.0,1.0,0,4,0,0", "1,0.0,0.0,1.0,0,4,1;1,0"], 3, UsageError),
            ("jobs.csv", ["0,inf,inf,inf,0,4,0,0"], 2, UsageError),
            ("jobs.csv", ["0,0.0,nan,1.0,0,4,0,0"], 2, UsageError),
            ("temperatures.csv", ["1.0,0,25.0", "", "2.0,0,300.0"], 4, EnvironmentRecordError),
            ("temperatures.csv", ["1.0,-1,25.0"], 2, EnvironmentRecordError),
            ("temperatures.csv", ["nan,0,25.0"], 2, EnvironmentRecordError),
            ("temperatures.csv", ["inf,0,25.0"], 2, EnvironmentRecordError),
            ("layout.csv", ["0,0,1,0,0", "1,0,99,0,0"], 3, LayoutError),
        ],
    )
    def test_record_errors_name_the_line(self, tmp_path: Path, name, rows, line, cause):
        """A value a record rejects raises ArchiveIOError at path:line,
        chained to the record's own typed error."""
        p = tmp_path / name
        p.write_text(HEADERS[name] + "".join(row + "\n" for row in rows))
        with pytest.raises(ArchiveIOError, match=f"{name}:{line}: ") as info:
            READERS[name](p, 1)
        assert isinstance(info.value.__cause__, cause)

    def test_bad_node_list_names_the_line(self, tmp_path: Path):
        p = tmp_path / "jobs.csv"
        p.write_text(JOBS_HEADER + "0,0.0,0.0,1.0,0,4,0,0\n1,0.0,0.0,1.0,0,4,,0\n")
        with pytest.raises(ArchiveIOError, match="jobs.csv:3: empty node_ids"):
            read_job_columns(p, 1)
        p.write_text(JOBS_HEADER + "0,0.0,0.0,1.0,0,4,0;x,0\n")
        with pytest.raises(ArchiveIOError, match="jobs.csv:2: .*not an integer"):
            read_job_columns(p, 1)

    def test_duplicate_layout_node(self, tmp_path: Path):
        p = tmp_path / "layout.csv"
        p.write_text(LAYOUT_HEADER + "0,0,1,0,0\n0,1,1,0,0\n")
        with pytest.raises(ArchiveIOError, match="duplicate") as info:
            read_layout(p)
        assert isinstance(info.value.__cause__, LayoutError)

    def test_corrupt_systems_csv(self, tiny_archive: Archive, tmp_path: Path):
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        systems = root / "systems.csv"
        content = systems.read_text().replace("group-1", "group-9")
        systems.write_text(content)
        with pytest.raises(ArchiveIOError, match="group"):
            load_archive(root)


READERS = {
    "failures.csv": read_failures,
    "jobs.csv": read_job_columns,
    "temperatures.csv": read_temperature_columns,
    "layout.csv": lambda path, system_id: read_layout(path),
}


class TestWriters:
    def test_write_failures_sorted(self, tiny_archive: Archive, tmp_path: Path):
        ds = tiny_archive[list(tiny_archive.system_ids)[0]]
        p = tmp_path / "f.csv"
        write_failures(p, list(reversed(ds.failures)))
        back = read_failures(p, ds.system_id)
        times = [f.time for f in back]
        assert times == sorted(times)
