"""Job-log record types and per-node usage summaries.

The LANL usage logs (available for systems 8 and 20) record, per job:
submission time, dispatch time, end time, the number of requested
processors, the submitting user and the node(s) the job ran on.  The
paper uses them to derive two per-node usage metrics (Section V):

* **utilization** -- the fraction of time at least one job is assigned to
  the node;
* **number of jobs** -- how many jobs were scheduled on the node over its
  lifetime;

and a per-user metric (Section VI): failures experienced per processor-day
of usage, restricted to job failures caused by node failures (not
application bugs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .timeutil import ObservationPeriod


class UsageError(ValueError):
    """Raised when a job record is internally inconsistent."""


@dataclass(frozen=True, slots=True, order=True)
class JobRecord:
    """One job in a system's usage log.

    Ordering is by ``(submit_time, system_id, job_id)``.

    Attributes:
        submit_time: when the job entered the queue (days).
        system_id: system the job ran on.
        job_id: unique job identifier within the system.
        dispatch_time: when the job started running (days).
        end_time: when the job finished or was killed (days).
        user_id: numeric identifier of the submitting user.
        num_processors: processors requested by the job.
        node_ids: nodes the job was assigned to.
        failed_due_to_node: True when the job died because an underlying
            node failed (the only kind of job failure Section VI counts).
    """

    submit_time: float
    system_id: int
    job_id: int
    dispatch_time: float = field(compare=False)
    end_time: float = field(compare=False)
    user_id: int = field(compare=False)
    num_processors: int = field(compare=False)
    node_ids: tuple[int, ...] = field(compare=False)
    failed_due_to_node: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.submit_time)
            and math.isfinite(self.dispatch_time)
            and math.isfinite(self.end_time)
        ):
            raise UsageError(
                f"job times must be finite, got submit {self.submit_time}, "
                f"dispatch {self.dispatch_time}, end {self.end_time}"
            )
        if self.submit_time < 0:
            raise UsageError(f"submit_time must be >= 0, got {self.submit_time}")
        if self.dispatch_time < self.submit_time:
            raise UsageError(
                f"dispatch_time {self.dispatch_time} precedes submit_time "
                f"{self.submit_time}"
            )
        if self.end_time < self.dispatch_time:
            raise UsageError(
                f"end_time {self.end_time} precedes dispatch_time "
                f"{self.dispatch_time}"
            )
        if self.num_processors < 1:
            raise UsageError(
                f"num_processors must be >= 1, got {self.num_processors}"
            )
        if not self.node_ids:
            raise UsageError("a job must be assigned to at least one node")
        if min(self.node_ids) < 0:
            raise UsageError(f"negative node id in {self.node_ids!r}")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise UsageError(f"duplicate node ids in {self.node_ids!r}")

    @property
    def runtime_days(self) -> float:
        """Wall-clock runtime of the job in days."""
        return self.end_time - self.dispatch_time

    @property
    def processor_days(self) -> float:
        """Processor-days consumed by the job (runtime x processors)."""
        return self.runtime_days * self.num_processors


@dataclass(frozen=True, slots=True)
class JobColumns:
    """A job log as parallel numpy columns (one row per job).

    The columnar twin of a ``list[JobRecord]`` and the form the usage
    summarizers compute on; it skips materializing hundreds of
    thousands of record objects when the log is read from CSV or from
    the archive cache.  Node assignments are ragged, so they are kept in
    CSR layout: job ``i`` ran on ``node_ids[node_offsets[i]:
    node_offsets[i + 1]]``.

    Attributes:
        submit_times: per-job submission time (days).
        dispatch_times: per-job dispatch time (days).
        end_times: per-job end time (days).
        user_ids: per-job submitting user.
        num_processors: per-job processor count.
        failed_due_to_node: per-job node-caused-failure flag.
        job_ids: per-job identifier.
        node_offsets: CSR offsets into ``node_ids``; length is the job
            count plus one.
        node_ids: concatenated node assignments of all jobs.
    """

    submit_times: np.ndarray
    dispatch_times: np.ndarray
    end_times: np.ndarray
    user_ids: np.ndarray
    num_processors: np.ndarray
    failed_due_to_node: np.ndarray
    job_ids: np.ndarray
    node_offsets: np.ndarray
    node_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.submit_times.size)

    @classmethod
    def from_records(cls, jobs: Sequence[JobRecord]) -> "JobColumns":
        """Build columns from record objects, preserving job order."""
        n = len(jobs)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(j.node_ids) for j in jobs), np.int64, n),
            out=offsets[1:],
        )
        return cls(
            submit_times=np.fromiter((j.submit_time for j in jobs), float, n),
            dispatch_times=np.fromiter((j.dispatch_time for j in jobs), float, n),
            end_times=np.fromiter((j.end_time for j in jobs), float, n),
            user_ids=np.fromiter((j.user_id for j in jobs), np.int64, n),
            num_processors=np.fromiter(
                (j.num_processors for j in jobs), np.int64, n
            ),
            failed_due_to_node=np.fromiter(
                (j.failed_due_to_node for j in jobs), bool, n
            ),
            job_ids=np.fromiter((j.job_id for j in jobs), np.int64, n),
            node_offsets=offsets,
            node_ids=np.fromiter(
                (node for j in jobs for node in j.node_ids),
                np.int64,
                int(offsets[-1]),
            ),
        )

    def to_records(self, system_id: int) -> tuple[JobRecord, ...]:
        """The :class:`JobRecord` of every row, in row order."""
        submit = self.submit_times.tolist()
        dispatch = self.dispatch_times.tolist()
        end = self.end_times.tolist()
        user = self.user_ids.tolist()
        nprocs = self.num_processors.tolist()
        failed = self.failed_due_to_node.tolist()
        job_id = self.job_ids.tolist()
        offsets = self.node_offsets.tolist()
        nodes = self.node_ids.tolist()
        return tuple(
            JobRecord(
                submit_time=submit[i],
                system_id=system_id,
                job_id=job_id[i],
                dispatch_time=dispatch[i],
                end_time=end[i],
                user_id=user[i],
                num_processors=nprocs[i],
                node_ids=tuple(nodes[offsets[i] : offsets[i + 1]]),
                failed_due_to_node=failed[i],
            )
            for i in range(len(submit))
        )

    def take(self, rows: np.ndarray) -> "JobColumns":
        """The given rows in the given order; node lists follow their jobs."""
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.diff(self.node_offsets)[rows]
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Position k of the new node array is node (k - offsets[row]) of
        # its job's old slice.
        source = np.repeat(self.node_offsets[rows] - offsets[:-1], counts)
        source += np.arange(offsets[-1], dtype=np.int64)
        return JobColumns(
            submit_times=self.submit_times[rows],
            dispatch_times=self.dispatch_times[rows],
            end_times=self.end_times[rows],
            user_ids=self.user_ids[rows],
            num_processors=self.num_processors[rows],
            failed_due_to_node=self.failed_due_to_node[rows],
            job_ids=self.job_ids[rows],
            node_offsets=offsets,
            node_ids=self.node_ids[source],
        )

    def invalid_rows(self) -> np.ndarray:
        """Mask of the rows :class:`JobRecord` would reject.

        The record's ``__post_init__`` rules, vectorized: keep the two in
        step, so a flagged row's record raises the typed error that
        explains it.
        """
        submit, dispatch, end = (
            self.submit_times,
            self.dispatch_times,
            self.end_times,
        )
        counts = np.diff(self.node_offsets)
        bad = ~(np.isfinite(submit) & np.isfinite(dispatch) & np.isfinite(end))
        bad |= (submit < 0) | (dispatch < submit) | (end < dispatch)
        bad |= (self.num_processors < 1) | (counts < 1)
        job = np.repeat(np.arange(len(self), dtype=np.int64), counts)
        bad[job[self.node_ids < 0]] = True
        order = np.lexsort((self.node_ids, job))
        nodes, job = self.node_ids[order], job[order]
        repeated = (nodes[1:] == nodes[:-1]) & (job[1:] == job[:-1])
        bad[job[1:][repeated]] = True
        return bad


def _as_columns(jobs: Iterable[JobRecord] | JobColumns) -> JobColumns:
    if isinstance(jobs, JobColumns):
        return jobs
    return JobColumns.from_records(list(jobs))


@dataclass(frozen=True, slots=True)
class NodeUsage:
    """Per-node usage summary derived from a job log.

    Attributes:
        node_id: the node.
        num_jobs: number of jobs that were scheduled on the node.
        utilization: fraction of the observation period during which at
            least one job was assigned to the node, in ``[0, 1]``.
        busy_days: absolute busy time in days (``utilization * period``).
    """

    node_id: int
    num_jobs: int
    utilization: float
    busy_days: float


def node_usage_summaries(
    jobs: Iterable[JobRecord] | JobColumns,
    num_nodes: int,
    period: ObservationPeriod,
) -> list[NodeUsage]:
    """Compute per-node usage summaries for every node of a system.

    A node is *utilized* at time t if at least one job is assigned to it
    (the paper's definition); overlapping job intervals on the same node
    are merged before measuring busy time.  Jobs are clipped to the
    observation period.

    Args:
        jobs: the system's job log -- a :class:`JobColumns`, or records
            (converted to columns once).
        num_nodes: total node count (nodes without jobs get zero usage).
        period: the system's observation period.

    Returns:
        One :class:`NodeUsage` per node id in ``[0, num_nodes)``.
    """
    if num_nodes < 1:
        raise UsageError(f"num_nodes must be >= 1, got {num_nodes}")
    cols = _as_columns(jobs)
    nodes = cols.node_ids
    if nodes.size and int(nodes.max()) >= num_nodes:
        pos = int(np.argmax(nodes >= num_nodes))
        job = int(np.searchsorted(cols.node_offsets, pos, side="right")) - 1
        raise UsageError(
            f"job {int(cols.job_ids[job])} references node {int(nodes[pos])} "
            f"but the system has only {num_nodes} nodes"
        )
    counts = np.bincount(nodes, minlength=num_nodes)
    reps = np.diff(cols.node_offsets)
    lo = np.repeat(np.maximum(cols.dispatch_times, period.start), reps)
    hi = np.repeat(np.minimum(cols.end_times, period.end), reps)
    keep = hi > lo
    sel_nodes = nodes[keep]
    lo = lo[keep]
    hi = hi[keep]
    # Each node's intervals in (lo, hi) order.
    order = np.lexsort((hi, lo, sel_nodes))
    sel_nodes = sel_nodes[order]
    lo = lo[order]
    hi = hi[order]
    bounds = np.searchsorted(sel_nodes, np.arange(num_nodes + 1))
    busy = np.zeros(num_nodes, dtype=float)
    for node in np.unique(sel_nodes):
        l = lo[bounds[node] : bounds[node + 1]]
        h = hi[bounds[node] : bounds[node + 1]]
        # Running max of interval ends; a new merged run starts where an
        # interval's start clears everything seen so far.  Because a run's
        # first start exceeds every earlier end, the global running max
        # equals the within-run one, so run lengths fall out directly.
        m = np.maximum.accumulate(h)
        new_run = np.empty(l.size, dtype=bool)
        new_run[0] = True
        np.greater(l[1:], m[:-1], out=new_run[1:])
        run_starts = np.flatnonzero(new_run)
        run_ends = np.append(run_starts[1:], l.size) - 1
        # A Python-level sum adds the run lengths left to right, like a
        # sequential interval merge; np.sum would reorder the additions.
        busy[node] = sum((m[run_ends] - l[run_starts]).tolist())
    return [
        NodeUsage(
            node_id=node,
            num_jobs=int(counts[node]),
            utilization=float(busy[node]) / period.length,
            busy_days=float(busy[node]),
        )
        for node in range(num_nodes)
    ]


@dataclass(frozen=True, slots=True)
class UserUsage:
    """Per-user usage and node-caused failure summary (Section VI).

    Attributes:
        user_id: the user.
        processor_days: total processor-days consumed by the user's jobs.
        node_failed_jobs: number of the user's jobs that died because of a
            node failure.
        failures_per_processor_day: the paper's Figure 8 metric.
    """

    user_id: int
    processor_days: float
    node_failed_jobs: int

    @property
    def failures_per_processor_day(self) -> float:
        """Node-caused job failures per processor-day of usage."""
        if self.processor_days <= 0:
            return 0.0
        return self.node_failed_jobs / self.processor_days


def user_usage_summaries(
    jobs: Iterable[JobRecord] | JobColumns,
) -> list[UserUsage]:
    """Aggregate a job log into per-user usage summaries.

    Returns one :class:`UserUsage` per distinct user, sorted by decreasing
    processor-days (the paper focuses on the 50 heaviest users); ties
    keep first-appearance order.  Records are converted to
    :class:`JobColumns` once.
    """
    cols = _as_columns(jobs)
    users, inverse = np.unique(cols.user_ids, return_inverse=True)
    if users.size == 0:
        return []
    # ``ufunc.at`` accumulates each user's jobs in job order.
    pdays = (cols.end_times - cols.dispatch_times) * cols.num_processors
    totals = np.zeros(users.size, dtype=float)
    np.add.at(totals, inverse, pdays)
    fails = np.zeros(users.size, dtype=np.int64)
    np.add.at(fails, inverse, cols.failed_due_to_node.astype(np.int64))
    first_seen = np.full(users.size, len(cols), dtype=np.int64)
    np.minimum.at(first_seen, inverse, np.arange(len(cols), dtype=np.int64))
    order = np.lexsort((first_seen, -totals))
    return [
        UserUsage(
            user_id=int(users[u]),
            processor_days=float(totals[u]),
            node_failed_jobs=int(fails[u]),
        )
        for u in order
    ]


def heaviest_users(
    jobs: Iterable[JobRecord] | JobColumns, k: int = 50
) -> list[UserUsage]:
    """The ``k`` heaviest users by processor-days (paper Section VI)."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    return user_usage_summaries(jobs)[:k]
