"""Record-loop references for the columnar usage and temperature summarizers.

``node_usage_summaries``, ``user_usage_summaries`` and
``summarize_temperatures`` compute on :class:`JobColumns` /
:class:`TemperatureColumns`.  The plain loops over record objects below
are their oracle: hypothesis properties assert exact equality (``==``,
with NaN equal to NaN), including the error raised for an out-of-range
node.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.records.environment import (
    HIGH_TEMP_THRESHOLD_C,
    EnvironmentRecordError,
    NodeTemperatureSummary,
    TemperatureReading,
    summarize_temperatures,
)
from repro.records.timeutil import ObservationPeriod
from repro.records.usage import (
    JobRecord,
    NodeUsage,
    UsageError,
    UserUsage,
    node_usage_summaries,
    user_usage_summaries,
)

#: Jobs are drawn over [0, 60], so some end before, start after or
#: straddle the period and are clipped or dropped.
PERIOD = ObservationPeriod(10.0, 50.0)
MAX_NODES = 6


def union_length(intervals):
    """Total length of the union of ``[start, end)`` intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return total


def naive_node_usage(jobs, num_nodes, period):
    """Per-node usage by merging each node's clipped job intervals."""
    intervals = [[] for _ in range(num_nodes)]
    counts = [0] * num_nodes
    for job in jobs:
        lo = max(job.dispatch_time, period.start)
        hi = min(job.end_time, period.end)
        for node in job.node_ids:
            if node >= num_nodes:
                raise UsageError(
                    f"job {job.job_id} references node {node} but the system "
                    f"has only {num_nodes} nodes"
                )
            counts[node] += 1
            if hi > lo:
                intervals[node].append((lo, hi))
    out = []
    for node in range(num_nodes):
        busy = union_length(intervals[node])
        out.append(
            NodeUsage(
                node_id=node,
                num_jobs=counts[node],
                utilization=busy / period.length,
                busy_days=busy,
            )
        )
    return out


def naive_user_usage(jobs):
    """Per-user totals in job order, heaviest first (ties: first seen)."""
    pd: dict[int, float] = {}
    fails: dict[int, int] = {}
    for job in jobs:
        pd[job.user_id] = pd.get(job.user_id, 0.0) + job.processor_days
        fails[job.user_id] = fails.get(job.user_id, 0) + int(job.failed_due_to_node)
    summaries = [
        UserUsage(user_id=u, processor_days=pd[u], node_failed_jobs=fails[u])
        for u in pd
    ]
    summaries.sort(key=lambda s: s.processor_days, reverse=True)
    return summaries


def naive_temperature_summaries(readings, num_nodes):
    """Per-node aggregates of each node's readings in log order."""
    samples = [[] for _ in range(num_nodes)]
    for r in readings:
        if r.node_id >= num_nodes:
            raise EnvironmentRecordError(
                f"reading references node {r.node_id} but the system has "
                f"only {num_nodes} nodes"
            )
        samples[r.node_id].append(r.celsius)
    out = []
    for node in range(num_nodes):
        vals = np.asarray(samples[node], dtype=float)
        if vals.size == 0:
            out.append(
                NodeTemperatureSummary(
                    node_id=node,
                    avg_temp=math.nan,
                    max_temp=math.nan,
                    temp_var=math.nan,
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


def _fields(summaries):
    """Field tuples with NaN replaced by a token, so ``==`` is exact."""
    return [
        tuple(
            "nan" if isinstance(v, float) and math.isnan(v) else v
            for v in astuple(s)
        )
        for s in summaries
    ]


def _outcome(fn, *args):
    """``("ok", fields)`` or ``("error", type, message)``."""
    try:
        return ("ok", _fields(fn(*args)))
    except (UsageError, EnvironmentRecordError) as exc:
        return ("error", type(exc), str(exc))


# Times partly on a grid, so touching and identical intervals, jobs
# ending exactly at the period edges and processor-day ties are common.
# 10.084 < 11.162 < 27.311 round differently as two touching pieces than
# as one merged interval.
_times = st.one_of(
    st.sampled_from(
        [0.0, 5.0, 10.0, 10.084, 11.162, 12.5, 20.0, 27.311, 50.0, 55.0]
    ),
    st.floats(0.0, 60.0, allow_nan=False),
)
_runtimes = st.one_of(
    st.sampled_from([0.0, 2.5, 10.0]),
    st.floats(0.0, 30.0, allow_nan=False),
)


@st.composite
def job_logs(draw):
    n = draw(st.integers(0, 12))
    jobs = []
    for job_id in range(n):
        submit = draw(_times)
        dispatch = submit + draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]))
        jobs.append(
            JobRecord(
                submit_time=submit,
                system_id=0,
                job_id=job_id,
                dispatch_time=dispatch,
                end_time=(
                    max(dispatch, draw(_times))
                    if draw(st.booleans())
                    else dispatch + draw(_runtimes)
                ),
                user_id=draw(st.integers(0, 4)),
                num_processors=draw(st.sampled_from([1, 2, 4, 8])),
                node_ids=tuple(
                    draw(
                        st.lists(
                            st.integers(0, MAX_NODES - 1),
                            min_size=1,
                            max_size=3,
                            unique=True,
                        )
                    )
                ),
                failed_due_to_node=draw(st.booleans()),
            )
        )
    return jobs


temperature_logs = st.lists(
    st.builds(
        TemperatureReading,
        time=st.floats(0.0, 100.0, allow_nan=False),
        system_id=st.just(0),
        node_id=st.integers(0, MAX_NODES - 1),
        celsius=st.one_of(
            st.sampled_from([20.0, 40.0, 40.5, 55.0]),
            st.floats(-50.0, 150.0, allow_nan=False),
        ),
    ),
    max_size=30,
)

num_nodes_strategy = st.integers(1, MAX_NODES)


class TestNodeUsageReference:
    @settings(max_examples=200, deadline=None)
    @given(jobs=job_logs(), num_nodes=num_nodes_strategy)
    def test_matches_record_loop(self, jobs, num_nodes):
        assert _outcome(
            node_usage_summaries, jobs, num_nodes, PERIOD
        ) == _outcome(naive_node_usage, jobs, num_nodes, PERIOD)

    def test_touching_and_overlapping_intervals(self):
        # Node 0: [10.084, 11.162) touches [11.162, 27.311) and contains
        # [10.5, 11.0); the union is measured as one interval.
        jobs = [
            JobRecord(10.0, 0, 0, 10.084, 11.162, 0, 1, (0,)),
            JobRecord(11.0, 0, 1, 11.162, 27.311, 0, 1, (0,)),
            JobRecord(10.5, 0, 2, 10.5, 11.0, 0, 1, (0,)),
        ]
        got = node_usage_summaries(jobs, 1, PERIOD)
        assert _fields(got) == _fields(naive_node_usage(jobs, 1, PERIOD))
        assert got[0].busy_days == 27.311 - 10.084

    def test_out_of_range_node_message(self):
        jobs = [JobRecord(11.0, 0, 7, 11.0, 12.0, 0, 1, (0, 3))]
        with pytest.raises(UsageError) as exc:
            node_usage_summaries(jobs, 2, PERIOD)
        assert str(exc.value) == _outcome(naive_node_usage, jobs, 2, PERIOD)[2]


class TestUserUsageReference:
    @settings(max_examples=200, deadline=None)
    @given(jobs=job_logs())
    def test_matches_record_loop(self, jobs):
        assert _outcome(user_usage_summaries, jobs) == _outcome(
            naive_user_usage, jobs
        )

    def test_ties_keep_first_appearance(self):
        # Users 3, 1, 2 each use 4 processor-days; user 3 appears first.
        jobs = [
            JobRecord(0.0, 0, 0, 0.0, 1.0, 3, 4, (0,)),
            JobRecord(0.0, 0, 1, 0.0, 2.0, 1, 2, (0,)),
            JobRecord(0.0, 0, 2, 0.0, 4.0, 2, 1, (0,)),
        ]
        assert [u.user_id for u in user_usage_summaries(jobs)] == [3, 1, 2]
        assert _fields(user_usage_summaries(jobs)) == _fields(
            naive_user_usage(jobs)
        )


class TestTemperatureReference:
    @settings(max_examples=200, deadline=None)
    @given(readings=temperature_logs, num_nodes=num_nodes_strategy)
    def test_matches_record_loop(self, readings, num_nodes):
        assert _outcome(
            summarize_temperatures, readings, num_nodes
        ) == _outcome(naive_temperature_summaries, readings, num_nodes)

    def test_node_without_readings_is_nan(self):
        readings = [TemperatureReading(1.0, 0, 1, 30.0)]
        got = summarize_temperatures(readings, 3)
        assert _fields(got) == _fields(naive_temperature_summaries(readings, 3))
        assert math.isnan(got[0].avg_temp) and got[0].num_readings == 0
