"""The conditional/baseline window-probability engine.

Nearly every figure of the paper compares two probabilities:

* the **baseline**: the probability that a random node experiences a
  qualifying failure in a *random* day/week/month.  We define it by
  tiling each system's observation period into non-overlapping windows
  and computing the fraction of (node, window) tiles containing at least
  one qualifying event -- the natural unbiased estimator (trailing
  partial windows are discarded; an ablation bench compares against
  sliding windows);
* the **conditional**: the probability that a qualifying failure occurs
  in the window *following a trigger event*, at one of three spatial
  scopes -- the same node (Section III-A), another node of the same rack
  (III-B), or another node of the same system (III-C).  Triggers whose
  full window would overrun the observation period are censored
  (excluded), so every counted trigger had a complete window at risk.
  Simultaneous events (identical timestamps, e.g. one power outage
  recording outages on many nodes at once) do not count as follow-ups of
  each other: the window is the *open-closed* interval ``(t, t + span]``.

Everything here is expressed over time-sorted event streams
(:class:`~repro.records.dataset.EventIndex`), so the same engine serves
failures, failure subsets (by category or subtype) and maintenance
events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..records.dataset import EventIndex
from ..records.timeutil import ObservationPeriod, Span, count_windows, window_index
from ..stats.proportion import (
    ProportionEstimate,
    TwoSampleResult,
    two_sample_z_test,
    wilson_interval,
)
from ..telemetry import counter_add


class WindowAnalysisError(ValueError):
    """Raised on inconsistent event arrays or scopes."""


class Scope(enum.Enum):
    """Spatial granularity of a conditional window query."""

    NODE = "node"      # qualifying events on the trigger's own node
    RACK = "rack"      # on *other* nodes of the trigger's rack
    SYSTEM = "system"  # on *other* nodes of the trigger's system

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Counts:
    """Raw (successes, trials) counts behind a probability estimate.

    Counts from several systems can be pooled with ``+`` before turning
    them into estimates, which is how group-level (group-1 / group-2)
    figures aggregate.
    """

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 0 or self.successes < 0 or self.successes > self.trials:
            raise WindowAnalysisError(
                f"invalid counts {self.successes}/{self.trials}"
            )

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.successes + other.successes, self.trials + other.trials)

    def estimate(self, confidence: float = 0.95) -> ProportionEstimate:
        """Wilson-interval estimate of the underlying probability."""
        return wilson_interval(self.successes, self.trials, confidence)


ZERO_COUNTS = Counts(0, 0)


@dataclass(frozen=True, slots=True)
class WindowComparison:
    """A conditional-vs-baseline probability comparison (one figure bar).

    Attributes:
        span: window length used.
        conditional: probability after the trigger, with CI.
        baseline: random-window probability, with CI.
        test: two-sample z-test of conditional vs baseline.
        factor: conditional / baseline -- the figure annotation (NaN when
            the baseline is zero or either side had no trials).
    """

    span: Span
    conditional: ProportionEstimate
    baseline: ProportionEstimate
    test: TwoSampleResult
    factor: float


def _check_events(times: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=float)
    nodes = np.asarray(nodes, dtype=np.int64)
    if times.ndim != 1 or times.shape != nodes.shape:
        raise WindowAnalysisError("times and node ids must be matching 1-D arrays")
    if times.size and np.any(np.diff(times) < 0):
        order = np.argsort(times, kind="stable")
        times, nodes = times[order], nodes[order]
    return times, nodes


#: Most segment elements :func:`slice_window_counts` expands at once.
#: Longer trigger slices are processed in chunks of about this size, so
#: the flat arrays stay bounded on full-scale archives.
SEGMENT_CHUNK = 1 << 20


def prev_same_node(nodes: np.ndarray) -> np.ndarray:
    """Index of the previous event of the same node, or -1.

    ``nodes`` is the node column of a time-sorted event stream; the
    result is the per-event link :func:`slice_window_counts` uses to
    count each node once per window.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    prev = np.full(nodes.size, -1, dtype=np.int64)
    if nodes.size > 1:
        # A stable sort by node keeps each node's events in time order.
        order = np.argsort(nodes, kind="stable")
        same = nodes[order[1:]] == nodes[order[:-1]]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def slice_window_counts(
    starts: np.ndarray,
    ends: np.ndarray,
    trigger_nodes: np.ndarray,
    labels: np.ndarray,
    n_labels: int,
    target_times: np.ndarray,
    target_nodes: np.ndarray,
    target_prev: np.ndarray,
    rack_of: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window hits of a slice of triggers against one target stream.

    Row ``i`` is a trigger on node ``trigger_nodes[i]`` whose window is
    ``(starts[i], ends[i]]``; its hits are added to output label
    ``labels[i]``.  Callers pass only uncensored triggers and compute
    the trials themselves.  The target stream is time-sorted, with
    ``target_prev = prev_same_node(target_nodes)``.

    Each window is the target segment ``[lo, hi)`` found by one
    ``searchsorted(..., "right")`` pair -- the same float comparisons as
    a per-node block query -- and a node is counted once per window, at
    its first event in the segment (``target_prev[j] < lo``).  Counts
    are integers, so they are additive over any split of the triggers
    into slices.

    Returns:
        Per label: own-node hits (NODE scope), distinct other nodes hit
        (SYSTEM scope), and distinct other nodes of the trigger's rack
        hit (RACK scope; zeros when ``rack_of`` is ``None``).
    """
    own = np.zeros(n_labels, dtype=np.int64)
    system = np.zeros(n_labels, dtype=np.int64)
    rack = np.zeros(n_labels, dtype=np.int64)
    if not starts.size or not target_times.size:
        return own, system, rack
    lo = np.searchsorted(target_times, starts, side="right")
    lengths = np.searchsorted(target_times, ends, side="right") - lo
    ends_at = np.cumsum(lengths)
    # Flat element e of row r sits at target position e + shift[r].
    shift = lo - (ends_at - lengths)
    row = 0
    done = 0
    while row < lengths.size:
        stop = max(
            int(np.searchsorted(ends_at, done + SEGMENT_CHUNK, side="right")),
            row + 1,
        )
        rows = np.repeat(np.arange(row, stop), lengths[row:stop])
        pos = np.arange(done, int(ends_at[stop - 1])) + shift[rows]
        first = target_prev[pos] < lo[rows]
        rows = rows[first]
        hit = target_nodes[pos[first]]
        node = trigger_nodes[rows]
        label = labels[rows]
        is_own = hit == node
        own += np.bincount(label[is_own], minlength=n_labels)
        other = ~is_own
        system += np.bincount(label[other], minlength=n_labels)
        if rack_of is not None:
            same_rack = other & (rack_of[hit] == rack_of[node])
            rack += np.bincount(label[same_rack], minlength=n_labels)
        row = stop
        done = int(ends_at[stop - 1])
    return own, system, rack


def conditional_counts_batch(
    triggers: Sequence[EventIndex],
    targets: Sequence[EventIndex],
    period: ObservationPeriod,
    spans: Sequence[Span],
    scope: Scope = Scope.NODE,
    rack_of: np.ndarray | None = None,
    num_nodes: int | None = None,
) -> list[list[list[Counts]]]:
    """A trigger x target x span grid of conditional :class:`Counts`.

    The follow-up window is ``(t, t + span]``, open at the trigger time
    (the trigger itself, and any simultaneous events, never count as
    their own follow-up).  Triggers with ``t + span > period.end`` are
    censored out of the trials.

    The unit at risk matches the paper's phrasing "the probability that
    *a node* fails in the window following ...":

    * NODE scope -- one trial per trigger; success when the trigger's
      *own* node has a qualifying event in the window.
    * RACK scope -- one trial per (trigger, other node in the trigger's
      rack) pair; success when that node has a qualifying event in the
      window.  Requires ``rack_of``.
    * SYSTEM scope -- one trial per (trigger, other node of the system)
      pair; requires ``num_nodes``.

    Counting *pairs* (rather than "any other node fails") is essential:
    in a 1024-node system some node almost surely fails every week, so
    the any-node probability saturates at 1 and carries no information,
    whereas the per-node probability reproduces the paper's 2.04% ->
    2.68% system-level result.

    The grid takes one :func:`slice_window_counts` call per target:
    every (trigger stream, span) pair is one labelled slice of rows.
    Because trigger times are sorted and censoring
    (``t + span.days <= period.end``) is monotone in ``t``, each slice
    is a prefix of its trigger stream.

    Args:
        triggers: trigger event streams (grid rows).
        targets: qualifying event streams (grid columns).
        period: observation period.
        spans: window lengths (grid depth).
        scope: NODE, RACK or SYSTEM.
        rack_of: node -> rack id mapping, required for RACK scope.
        num_nodes: system node count, required for RACK/SYSTEM scope.

    Returns:
        ``grid[i][j][k]`` = counts for ``(triggers[i], targets[j],
        spans[k])``.
    """
    spans = list(spans)
    n_spans = len(spans)
    counter_add("windows.conditional_batch_calls", 1)
    counter_add(
        "windows.conditional_cells", len(triggers) * len(targets) * n_spans
    )
    if scope is not Scope.NODE and num_nodes is None:
        raise WindowAnalysisError(f"{scope} scope requires num_nodes")
    rack_sizes = None
    if scope is Scope.RACK:
        if rack_of is None:
            raise WindowAnalysisError("RACK scope requires a rack_of mapping")
        rack_of = np.asarray(rack_of, dtype=np.int64)
        if rack_of.shape != (num_nodes,):
            raise WindowAnalysisError(
                "rack_of must map every node of the system to a rack"
            )
        rack_sizes = np.bincount(rack_of, minlength=int(rack_of.max()) + 1)
    # One labelled slice per (trigger, span): the censored prefix.
    starts, ends, nodes, labels = [], [], [], []
    n_alive: list[int] = []
    trials: list[int] = []
    for i, trigger in enumerate(triggers):
        for k, span in enumerate(spans):
            # The elementwise predicate ``t + days <= end`` (NOT the
            # rearranged ``t <= end - days``, which differs in float).
            alive = int(
                np.count_nonzero(trigger.times + span.days <= period.end)
            )
            t = trigger.times[:alive]
            n = trigger.nodes[:alive]
            starts.append(t)
            ends.append(t + span.days)
            nodes.append(n)
            labels.append(np.full(alive, i * n_spans + k, dtype=np.int64))
            n_alive.append(alive)
            if scope is Scope.NODE:
                trials.append(alive)
            elif scope is Scope.RACK:
                trials.append(int((rack_sizes[rack_of[n]] - 1).sum()))
            else:
                trials.append(alive * (num_nodes - 1))
    n_labels = len(n_alive)
    if not n_labels:
        return [[[] for _ in targets] for _ in triggers]
    rows = [np.concatenate(column) for column in (starts, ends, nodes, labels)]
    planes: list[list[list[Counts]]] = [[] for _ in triggers]
    for target in targets:
        by_scope = zip(
            (Scope.NODE, Scope.SYSTEM, Scope.RACK),
            slice_window_counts(
                *rows,
                n_labels,
                target.times,
                target.nodes,
                prev_same_node(target.nodes),
                rack_of=rack_of if scope is Scope.RACK else None,
            ),
        )
        hits = dict(by_scope)[scope]
        for i, plane in enumerate(planes):
            plane.append(
                [
                    Counts(int(hits[c]), trials[c])
                    if n_alive[c] and trials[c]
                    else ZERO_COUNTS
                    for c in range(i * n_spans, (i + 1) * n_spans)
                ]
            )
    return planes


def baseline_counts_batch(
    targets: Sequence[EventIndex],
    num_nodes: int,
    period: ObservationPeriod,
    spans: Sequence[Span],
    node_subset: np.ndarray | None = None,
) -> list[list[Counts]]:
    """A target x span grid of tiled-window baseline :class:`Counts`.

    The baseline is "a random node in a random window": a (node, tile)
    trial succeeds when the node has >= 1 qualifying event in the tile.

    Args:
        targets: the qualifying event streams (grid rows).
        num_nodes: node count of the system.
        period: observation period.
        spans: window lengths (grid columns).
        node_subset: restrict the trials (and events) to these nodes --
            used e.g. for "rest of the nodes" baselines in Section IV.
            Duplicate ids count once.

    Returns:
        ``grid[j][k]`` = counts for ``(targets[j], spans[k])``.
    """
    if num_nodes < 1:
        raise WindowAnalysisError(f"num_nodes must be >= 1, got {num_nodes}")
    spans = list(spans)
    counter_add("windows.baseline_batch_calls", 1)
    counter_add("windows.baseline_cells", len(targets) * len(spans))
    subset = None
    n_nodes_at_risk = num_nodes
    if node_subset is not None:
        subset = np.asarray(node_subset, dtype=np.int64)
        if subset.size == 0:
            raise WindowAnalysisError("node_subset must be non-empty")
        n_nodes_at_risk = int(np.unique(subset).size)
    grid: list[list[Counts]] = []
    for target in targets:
        times, nodes = target.times, target.nodes
        if subset is not None:
            keep = np.isin(nodes, subset)
            times, nodes = times[keep], nodes[keep]
        row = []
        for span in spans:
            n_windows = count_windows(period, span)
            idx = window_index(times, period, span)
            valid = idx >= 0
            keys = nodes[valid] * np.int64(n_windows) + idx[valid]
            row.append(
                Counts(int(np.unique(keys).size), n_nodes_at_risk * n_windows)
            )
        grid.append(row)
    return grid


def compare(
    conditional: Counts,
    baseline: Counts,
    span: Span,
    confidence: float = 0.95,
    alpha: float = 0.05,
) -> WindowComparison:
    """Assemble a figure bar: estimates, test and factor annotation."""
    cond_est = conditional.estimate(confidence)
    base_est = baseline.estimate(confidence)
    test = two_sample_z_test(
        conditional.successes,
        conditional.trials,
        baseline.successes,
        baseline.trials,
        alpha=alpha,
    )
    if cond_est.defined and base_est.defined and base_est.value > 0:
        factor = cond_est.value / base_est.value
    else:
        factor = float("nan")
    return WindowComparison(
        span=span,
        conditional=cond_est,
        baseline=base_est,
        test=test,
        factor=factor,
    )


def sliding_baseline_counts(
    target_times: np.ndarray,
    target_nodes: np.ndarray,
    num_nodes: int,
    period: ObservationPeriod,
    span: Span,
    step: float,
) -> Counts:
    """Overlapping-window baseline (the ablation alternative).

    Windows start every ``step`` days; a (node, window) trial succeeds
    when the node has >= 1 qualifying event inside ``[start, start+span)``.
    Used by ``benchmarks/bench_ablation.py`` to show the tiling choice
    does not drive the paper's factors.
    """
    from ..records.timeutil import overlapping_window_starts

    times, nodes = _check_events(target_times, target_nodes)
    starts = overlapping_window_starts(period, span, step)
    trials = int(starts.size) * num_nodes
    index = EventIndex(times, nodes)
    successes = 0
    for node in index.event_nodes():
        if node >= num_nodes:
            continue
        block = index.node_block(int(node))
        l = np.searchsorted(block, starts, side="left")
        h = np.searchsorted(block, starts + span.days, side="left")
        successes += int(((h - l) > 0).sum())
    return Counts(successes, trials)
