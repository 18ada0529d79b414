"""Hypothesis fuzz of the CSV readers.

Each example starts from a valid small ``failures.csv``, ``jobs.csv`` or
``temperatures.csv`` and mutates one field or one row: a garbage token,
an empty field, an extra or missing field, ``nan`` / ``inf``, a negative
or out-of-range value, a duplicate node id, or a dropped or doubled
row.  A reader must then either load values equal to ``float()`` /
``int()`` of the same strings, or raise :class:`ArchiveIOError` -- no
other exception type is allowed.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.records.io import (
    ArchiveIOError,
    read_failures,
    read_job_columns,
    read_temperature_columns,
)
from repro.records.taxonomy import parse_category, parse_subtype

SYSTEM_ID = 20

VALID = {
    "failures.csv": [
        "time,node_id,category,subtype,downtime_hours",
        "0.5,0,HW,MEM,2.0",
        "1.25,3,SW,,0.0",
        "1.25,1,ENV,,12.5",
    ],
    "jobs.csv": [
        "job_id,submit_time,dispatch_time,end_time,user_id,num_processors,"
        "node_ids,failed_due_to_node",
        "0,0.5,0.75,2.0,1,4,0;2,0",
        "1,0.25,0.25,0.5,2,8,1,1",
        "2,0.5,1.0,1.0,1,4,3;0;1,0",
    ],
    "temperatures.csv": [
        "time,node_id,celsius",
        "0.5,0,25.5",
        "0.25,1,41.0",
        "0.5,0,24.0",
    ],
}

#: Tokens the parsers must either read like Python does or reject.
SPECIAL = [
    "",
    "nan",
    "inf",
    "-inf",
    "-1",
    "-0",
    "1e309",
    "300",
    "-300",
    "99999999999999999999",
    "1.5",
    "0;0",
    "1;1",
    "2;;3",
    " 1",
    "0x1",
    "1_0",
    "HW",
]
garbage = st.one_of(
    st.sampled_from(SPECIAL),
    st.text(alphabet="0123456789.-+eEinfaNI_ ;xHW", max_size=8),
)


@st.composite
def mutated(draw, name: str) -> str:
    lines = list(VALID[name])
    row = draw(st.integers(1, len(lines) - 1))
    fields = lines[row].split(",")
    kind = draw(st.sampled_from(["replace", "extra", "missing", "drop", "double"]))
    if kind == "replace":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(garbage)
    elif kind == "extra":
        fields.insert(draw(st.integers(0, len(fields))), draw(garbage))
    elif kind == "missing":
        del fields[draw(st.integers(0, len(fields) - 1))]
    lines[row] = ",".join(fields)
    if kind == "drop":
        del lines[row]
    elif kind == "double":
        lines.insert(row, lines[row])
    return "\n".join(lines) + "\n"


def _python_rows(text: str) -> list[dict[str, str]]:
    """The file's data rows as ``csv`` reads them (all full width, since
    the reader accepted the file)."""
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def _flag(value: str) -> bool:
    assert value in ("0", "1"), value
    return value == "1"


def _expected_failures(text: str) -> list[tuple]:
    return [
        (
            float(r["time"]),
            SYSTEM_ID,
            int(r["node_id"]),
            parse_category(r["category"]),
            parse_subtype(r["subtype"]) if r["subtype"] else None,
            float(r["downtime_hours"]),
        )
        for r in _python_rows(text)
    ]


def _expected_jobs(text: str) -> list[tuple]:
    rows = [
        (
            float(r["submit_time"]),
            int(r["job_id"]),
            float(r["dispatch_time"]),
            float(r["end_time"]),
            int(r["user_id"]),
            int(r["num_processors"]),
            tuple(int(n) for n in r["node_ids"].split(";")),
            _flag(r["failed_due_to_node"]),
        )
        for r in _python_rows(text)
    ]
    return sorted(rows, key=lambda j: (j[0], j[1]))


def _expected_temperatures(text: str) -> list[tuple]:
    rows = [
        (float(r["time"]), int(r["node_id"]), float(r["celsius"]))
        for r in _python_rows(text)
    ]
    return sorted(rows)


def _load(reader, path: Path, text: str):
    path.write_text(text)
    try:
        return reader(path, SYSTEM_ID)
    except ArchiveIOError:
        return None


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(text=mutated("failures.csv"))
def test_failures_reader(tmp_path: Path, text: str):
    loaded = _load(read_failures, tmp_path / "failures.csv", text)
    if loaded is not None:
        np.testing.assert_equal(
            [dataclasses.astuple(f) for f in loaded], _expected_failures(text)
        )


@FUZZ
@given(text=mutated("jobs.csv"))
def test_jobs_reader(tmp_path: Path, text: str):
    cols = _load(read_job_columns, tmp_path / "jobs.csv", text)
    if cols is not None:
        offsets = cols.node_offsets.tolist()
        got = [
            (
                cols.submit_times[i],
                cols.job_ids[i],
                cols.dispatch_times[i],
                cols.end_times[i],
                cols.user_ids[i],
                cols.num_processors[i],
                tuple(cols.node_ids[offsets[i] : offsets[i + 1]].tolist()),
                cols.failed_due_to_node[i],
            )
            for i in range(len(cols))
        ]
        np.testing.assert_equal(got, _expected_jobs(text))
        # Every accepted row is a valid record.
        assert len(cols.to_records(SYSTEM_ID)) == len(cols)


@FUZZ
@given(text=mutated("temperatures.csv"))
def test_temperatures_reader(tmp_path: Path, text: str):
    cols = _load(read_temperature_columns, tmp_path / "temperatures.csv", text)
    if cols is not None:
        got = list(zip(cols.times, cols.node_ids, cols.celsius))
        np.testing.assert_equal(got, _expected_temperatures(text))
        assert len(cols.to_records(SYSTEM_ID)) == len(cols)
