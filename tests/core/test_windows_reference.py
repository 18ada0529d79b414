"""Reference-implementation tests for the window engine.

The batched kernels in :mod:`repro.core.windows` are the foundation of
most results, so they are checked here against a deliberately naive
O(triggers x targets) implementation under randomly generated event
streams (hypothesis).  The naive functions are the only oracle of the
window counts: any disagreement is a bug in one of them.

:func:`baseline_cell` / :func:`conditional_cell` run the batched
kernels on a one-cell grid, for tests that check a single hand-built
case.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import windows
from repro.core.windows import (
    Counts,
    Scope,
    baseline_counts_batch,
    conditional_counts_batch,
    prev_same_node,
    slice_window_counts,
)
from repro.records.dataset import EventIndex
from repro.records.timeutil import ALL_SPANS, ObservationPeriod, Span, count_windows

PERIOD = ObservationPeriod(0.0, 120.0)
NUM_NODES = 5
RACK_OF = np.array([0, 0, 1, 1, 2])


def baseline_cell(target, num_nodes, period, span, node_subset=None):
    """One baseline cell of :func:`baseline_counts_batch`."""
    return baseline_counts_batch(
        [target], num_nodes, period, [span], node_subset=node_subset
    )[0][0]


def conditional_cell(
    trigger, target, period, span, scope=Scope.NODE, rack_of=None, num_nodes=None
):
    """One conditional cell of :func:`conditional_counts_batch`."""
    return conditional_counts_batch(
        [trigger],
        [target],
        period,
        [span],
        scope=scope,
        rack_of=rack_of,
        num_nodes=num_nodes,
    )[0][0][0]


def naive_baseline(times, nodes, num_nodes, period, span, node_subset=None):
    """Brute-force tiled baseline, optionally over a node subset."""
    n_windows = count_windows(period, span)
    at_risk = range(num_nodes) if node_subset is None else set(node_subset)
    successes = 0
    for node in at_risk:
        for w in range(n_windows):
            lo = period.start + w * span.days
            hi = lo + span.days
            if any(
                n == node and lo <= t < hi for t, n in zip(times, nodes)
            ):
                successes += 1
    return Counts(successes, len(at_risk) * n_windows)


def naive_conditional(
    trig, targ, period, span, scope, rack_of=None, num_nodes=None
):
    """Brute-force conditional counts, mirroring the documented semantics."""
    successes = trials = 0
    for t0, n0 in trig:
        if t0 + span.days > period.end:
            continue  # censored
        if scope is Scope.NODE:
            trials += 1
            if any(
                n == n0 and t0 < t <= t0 + span.days for t, n in targ
            ):
                successes += 1
        else:
            if scope is Scope.RACK:
                others = [
                    m
                    for m in range(num_nodes)
                    if m != n0 and rack_of[m] == rack_of[n0]
                ]
            else:
                others = [m for m in range(num_nodes) if m != n0]
            for m in others:
                trials += 1
                if any(
                    n == m and t0 < t <= t0 + span.days for t, n in targ
                ):
                    successes += 1
    return Counts(successes, trials)


events_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 119.5, allow_nan=False),
        st.integers(0, NUM_NODES - 1),
    ),
    min_size=0,
    max_size=25,
)


# Times drawn partly from a small grid, so ties (simultaneous events and
# events exactly at a window's closed end) are common.  Node 3 never has
# an event, and node 4 is alone in its rack.
tied_events_strategy = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([0.0, 1.0, 2.0, 7.0, 8.0, 9.0, 112.0, 113.0]),
            st.floats(0.0, 119.5, allow_nan=False),
        ),
        st.sampled_from([0, 1, 2, 4]),
    ),
    min_size=0,
    max_size=25,
)

#: One to three event streams (grid rows or columns), each tied or not.
streams_strategy = st.lists(
    st.one_of(events_strategy, tied_events_strategy), min_size=1, max_size=3
)

#: The grid depth: every span, in any order.
spans_strategy = st.permutations(list(ALL_SPANS))

scopes_strategy = st.sampled_from([Scope.NODE, Scope.RACK, Scope.SYSTEM])


def to_arrays(events):
    events = sorted(events)
    t = np.array([e[0] for e in events], dtype=float)
    n = np.array([e[1] for e in events], dtype=np.int64)
    return t, n


def to_index(events):
    return EventIndex(*to_arrays(events))


def conditional_grid(triggers, targets, spans, scope):
    return conditional_counts_batch(
        [to_index(e) for e in triggers],
        [to_index(e) for e in targets],
        PERIOD,
        spans,
        scope=scope,
        rack_of=RACK_OF if scope is Scope.RACK else None,
        num_nodes=NUM_NODES,
    )


def assert_conditional_grid(grid, triggers, targets, spans, scope):
    for i, trig in enumerate(triggers):
        for j, targ in enumerate(targets):
            for k, span in enumerate(spans):
                expected = naive_conditional(
                    sorted(trig),
                    sorted(targ),
                    PERIOD,
                    span,
                    scope,
                    rack_of=RACK_OF,
                    num_nodes=NUM_NODES,
                )
                assert grid[i][j][k] == expected, (i, j, span)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(targets=streams_strategy, spans=spans_strategy)
    def test_baseline_matches(self, targets, spans):
        grid = baseline_counts_batch(
            [to_index(e) for e in targets], NUM_NODES, PERIOD, spans
        )
        for j, targ in enumerate(targets):
            t, n = to_arrays(targ)
            for k, span in enumerate(spans):
                assert grid[j][k] == naive_baseline(t, n, NUM_NODES, PERIOD, span)

    @settings(max_examples=150, deadline=None)
    @given(
        targets=streams_strategy,
        spans=spans_strategy,
        subset=st.lists(st.integers(0, NUM_NODES - 1), min_size=1, max_size=8),
    )
    def test_subset_baseline_matches(self, targets, spans, subset):
        """Duplicate subset ids count once; other nodes' events drop out."""
        grid = baseline_counts_batch(
            [to_index(e) for e in targets],
            NUM_NODES,
            PERIOD,
            spans,
            node_subset=np.array(subset),
        )
        for j, targ in enumerate(targets):
            t, n = to_arrays(targ)
            for k, span in enumerate(spans):
                expected = naive_baseline(
                    t, n, NUM_NODES, PERIOD, span, node_subset=subset
                )
                assert grid[j][k] == expected

    @settings(max_examples=150, deadline=None)
    @given(
        triggers=streams_strategy,
        targets=streams_strategy,
        spans=spans_strategy,
        scope=scopes_strategy,
    )
    def test_conditional_matches(self, triggers, targets, spans, scope):
        grid = conditional_grid(triggers, targets, spans, scope)
        assert_conditional_grid(grid, triggers, targets, spans, scope)

    @settings(max_examples=150, deadline=None)
    @given(streams=streams_strategy, spans=spans_strategy, scope=scopes_strategy)
    def test_self_conditional_matches(self, streams, spans, scope):
        """Triggers == targets (the paper's common case), at every scope."""
        grid = conditional_grid(streams, streams, spans, scope)
        assert_conditional_grid(grid, streams, streams, spans, scope)


class TestSliceKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        trig=tied_events_strategy,
        targ=tied_events_strategy,
        span=st.sampled_from([Span.DAY, Span.WEEK]),
        cuts=st.lists(st.integers(0, 25), max_size=4),
        chunk=st.sampled_from([1, 3, windows.SEGMENT_CHUNK]),
    )
    def test_additive_over_slices(self, trig, targ, span, cuts, chunk):
        """Per-slice counts sum to the naive reference at every scope.

        Small ``chunk`` values force the kernel's internal chunking.
        """
        trig = sorted(trig)
        alive = [(t, n) for t, n in trig if t + span.days <= PERIOD.end]
        bounds = sorted({0, len(alive), *(min(c, len(alive)) for c in cuts)})
        slices = [alive[a:b] for a, b in zip(bounds, bounds[1:])]
        tt = np.array([t for t, _ in alive], dtype=float)
        tn = np.array([n for _, n in alive], dtype=np.int64)
        labels = np.concatenate(
            [np.full(len(part), i, dtype=np.int64) for i, part in enumerate(slices)]
            or [np.zeros(0, dtype=np.int64)]
        )
        gt, gn = to_arrays(targ)
        with mock.patch.object(windows, "SEGMENT_CHUNK", chunk):
            own, system, rack = slice_window_counts(
                tt,
                tt + span.days,
                tn,
                labels,
                len(slices),
                gt,
                gn,
                prev_same_node(gn),
                rack_of=RACK_OF,
            )
        by_scope = {Scope.NODE: own, Scope.SYSTEM: system, Scope.RACK: rack}
        for scope, hits in by_scope.items():
            for i, part in enumerate(slices):
                expected = naive_conditional(
                    part, sorted(targ), PERIOD, span, scope, RACK_OF, NUM_NODES
                )
                assert hits[i] == expected.successes
            whole = naive_conditional(
                trig, sorted(targ), PERIOD, span, scope, RACK_OF, NUM_NODES
            )
            assert int(hits.sum()) == whole.successes
