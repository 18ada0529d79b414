"""Tests for the window-probability engine, on hand-constructed streams.

Each case is one cell of the batched kernels (see
``test_windows_reference.baseline_cell`` / ``conditional_cell``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.windows import (
    Counts,
    Scope,
    WindowAnalysisError,
    ZERO_COUNTS,
    compare,
    sliding_baseline_counts,
)
from repro.records.dataset import EventIndex
from repro.records.timeutil import ObservationPeriod, Span
from tests.core.test_windows_reference import baseline_cell, conditional_cell

PERIOD = ObservationPeriod(0.0, 70.0)  # 70 days = 10 weeks


def ev(*pairs):
    """Build an event index from (time, node) pairs."""
    times = np.array([p[0] for p in pairs], dtype=float)
    nodes = np.array([p[1] for p in pairs], dtype=np.int64)
    return EventIndex(times, nodes)


class TestCounts:
    def test_add(self):
        assert (Counts(1, 2) + Counts(3, 4)) == Counts(4, 6)

    def test_estimate(self):
        est = Counts(5, 10).estimate()
        assert est.value == 0.5

    def test_rejects_invalid(self):
        with pytest.raises(WindowAnalysisError):
            Counts(5, 3)


class TestBaseline:
    def test_exact_tiling(self):
        # Node 0 fails in weeks 0 and 1; node 1 never. 2 nodes x 10 weeks.
        e = ev((1.0, 0), (8.0, 0))
        c = baseline_cell(e, 2, PERIOD, Span.WEEK)
        assert c == Counts(2, 20)

    def test_multiple_events_one_window_count_once(self):
        e = ev((1.0, 0), (2.0, 0), (3.0, 0))
        c = baseline_cell(e, 1, PERIOD, Span.WEEK)
        assert c == Counts(1, 10)

    def test_event_in_trailing_partial_window_ignored(self):
        period = ObservationPeriod(0.0, 69.0)  # 9 complete weeks
        e = ev((68.0, 0))
        c = baseline_cell(e, 1, period, Span.WEEK)
        assert c == Counts(0, 9)

    def test_node_subset(self):
        e = ev((1.0, 0), (1.0, 1), (1.0, 2))
        c = baseline_cell(e, 3, PERIOD, Span.WEEK, node_subset=np.array([1, 2]))
        assert c == Counts(2, 20)

    def test_empty_subset_rejected(self):
        e = ev((1.0, 0))
        with pytest.raises(WindowAnalysisError):
            baseline_cell(e, 1, PERIOD, Span.WEEK, node_subset=np.array([]))

    def test_no_events(self):
        c = baseline_cell(ev(), 5, PERIOD, Span.DAY)
        assert c == Counts(0, 350)

    @given(
        st.lists(
            st.tuples(st.floats(0, 69.99), st.integers(0, 3)),
            max_size=40,
        ),
        st.sampled_from([Span.DAY, Span.WEEK, Span.MONTH]),
    )
    def test_bounds(self, pairs, span):
        c = baseline_cell(ev(*pairs), 4, PERIOD, span)
        assert 0 <= c.successes <= c.trials
        assert c.successes <= len(pairs)


class TestConditionalNode:
    def test_simple_follow_up(self):
        trig = ev((1.0, 0))
        targ = ev((1.0, 0), (3.0, 0))
        c = conditional_cell(trig, targ, PERIOD, Span.WEEK)
        assert c == Counts(1, 1)

    def test_trigger_not_its_own_follow_up(self):
        trig = ev((1.0, 0))
        c = conditional_cell(trig, trig, PERIOD, Span.WEEK)
        assert c == Counts(0, 1)

    def test_simultaneous_events_not_follow_ups(self):
        # Two nodes fail at the exact same instant (one outage).
        trig = ev((1.0, 0))
        targ = ev((1.0, 0), (1.0, 1))
        c = conditional_cell(trig, targ, PERIOD, Span.WEEK)
        assert c == Counts(0, 1)

    def test_window_is_open_closed(self):
        trig = ev((1.0, 0))
        targ = ev((8.0, 0))  # exactly t + 7
        c = conditional_cell(trig, targ, PERIOD, Span.WEEK)
        assert c == Counts(1, 1)
        targ_late = ev((8.0001, 0))
        c = conditional_cell(trig, targ_late, PERIOD, Span.WEEK)
        assert c == Counts(0, 1)

    def test_other_node_does_not_count_at_node_scope(self):
        trig = ev((1.0, 0))
        targ = ev((2.0, 1))
        c = conditional_cell(trig, targ, PERIOD, Span.WEEK)
        assert c == Counts(0, 1)

    def test_censored_trigger_excluded(self):
        trig = ev((65.0, 0))  # 65 + 7 > 70
        targ = ev((66.0, 0))
        c = conditional_cell(trig, targ, PERIOD, Span.WEEK)
        assert c == ZERO_COUNTS

    def test_window_ending_at_period_end_kept(self):
        trig = ev((63.0, 0))  # 63 + 7 == 70: a complete window
        targ = ev((70.0, 0))
        c = conditional_cell(trig, targ, PERIOD, Span.WEEK)
        assert c == Counts(1, 1)

    def test_multiple_triggers(self):
        trig = ev((1.0, 0), (20.0, 0), (40.0, 1))
        targ = ev((2.0, 0), (41.0, 1))
        c = conditional_cell(trig, targ, PERIOD, Span.WEEK)
        assert c == Counts(2, 3)

    def test_unsorted_input_sorted_internally(self):
        trig = ev((20.0, 0), (1.0, 0))
        targ = ev((21.0, 0))
        c = conditional_cell(trig, targ, PERIOD, Span.WEEK)
        assert c == Counts(1, 2)


class TestConditionalSystem:
    def test_pair_counting(self):
        # 3 nodes. Trigger on node 0; node 1 fails next day; node 2 silent.
        trig = ev((1.0, 0))
        targ = ev((2.0, 1))
        c = conditional_cell(
            trig, targ, PERIOD, Span.WEEK, scope=Scope.SYSTEM, num_nodes=3
        )
        assert c == Counts(1, 2)  # pairs: (trigger, node1), (trigger, node2)

    def test_own_node_excluded(self):
        trig = ev((1.0, 0))
        targ = ev((2.0, 0))  # same node only
        c = conditional_cell(
            trig, targ, PERIOD, Span.WEEK, scope=Scope.SYSTEM, num_nodes=3
        )
        assert c == Counts(0, 2)

    def test_requires_num_nodes(self):
        trig = ev((1.0, 0))
        with pytest.raises(WindowAnalysisError):
            conditional_cell(
                trig, trig, PERIOD, Span.WEEK, scope=Scope.SYSTEM
            )

    def test_multiple_failing_nodes(self):
        trig = ev((1.0, 0))
        targ = ev((2.0, 1), (3.0, 2), (4.0, 1))
        c = conditional_cell(
            trig, targ, PERIOD, Span.WEEK, scope=Scope.SYSTEM, num_nodes=4
        )
        assert c == Counts(2, 3)  # nodes 1 and 2 fail; node 3 does not


class TestConditionalRack:
    RACKS = np.array([0, 0, 1, 1])  # nodes 0,1 in rack 0; 2,3 in rack 1

    def test_rack_neighbour_counts(self):
        trig = ev((1.0, 0))
        targ = ev((2.0, 1), (2.0, 2))
        c = conditional_cell(
            trig,
            targ,
            PERIOD,
            Span.WEEK,
            scope=Scope.RACK,
            rack_of=self.RACKS,
            num_nodes=4,
        )
        # One trial (node 1, the only rack mate), success (node 1 failed).
        assert c == Counts(1, 1)

    def test_other_rack_ignored(self):
        trig = ev((1.0, 2))
        targ = ev((2.0, 0), (2.0, 1))
        c = conditional_cell(
            trig,
            targ,
            PERIOD,
            Span.WEEK,
            scope=Scope.RACK,
            rack_of=self.RACKS,
            num_nodes=4,
        )
        assert c == Counts(0, 1)

    def test_requires_rack_mapping(self):
        trig = ev((1.0, 0))
        with pytest.raises(WindowAnalysisError):
            conditional_cell(
                trig, trig, PERIOD, Span.WEEK, scope=Scope.RACK, num_nodes=4
            )

    def test_rejects_short_rack_mapping(self):
        trig = ev((1.0, 0))
        with pytest.raises(WindowAnalysisError):
            conditional_cell(
                trig,
                trig,
                PERIOD,
                Span.WEEK,
                scope=Scope.RACK,
                rack_of=np.array([0, 0]),
                num_nodes=4,
            )


class TestCompare:
    def test_assembles_factor(self):
        res = compare(Counts(30, 100), Counts(10, 100), Span.WEEK)
        assert res.factor == pytest.approx(3.0)
        assert res.test.significant

    def test_zero_baseline_factor_nan(self):
        res = compare(Counts(5, 100), Counts(0, 100), Span.WEEK)
        assert np.isnan(res.factor)

    def test_empty_conditional(self):
        res = compare(ZERO_COUNTS, Counts(5, 100), Span.WEEK)
        assert not res.conditional.defined
        assert np.isnan(res.factor)


class TestSlidingBaseline:
    def test_close_to_tiled_for_dense_data(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0, 70, 100))
        n = rng.integers(0, 4, 100)
        tiled = baseline_cell(EventIndex(t, n), 4, PERIOD, Span.WEEK)
        slid = sliding_baseline_counts(t, n, 4, PERIOD, Span.WEEK, step=1.0)
        p_tiled = tiled.successes / tiled.trials
        p_slid = slid.successes / slid.trials
        assert p_slid == pytest.approx(p_tiled, abs=0.12)


@settings(max_examples=30)
@given(
    events=st.lists(
        st.tuples(st.floats(0, 69.5), st.integers(0, 3)), min_size=1, max_size=30
    ),
    span=st.sampled_from([Span.DAY, Span.WEEK]),
    scope=st.sampled_from([Scope.NODE, Scope.SYSTEM]),
)
def test_conditional_probability_bounds(events, span, scope):
    """Property: counts are consistent and probabilities in [0, 1]."""
    e = ev(*events)
    c = conditional_cell(e, e, PERIOD, span, scope=scope, num_nodes=4)
    assert 0 <= c.successes <= c.trials
    if c.trials:
        assert 0.0 <= c.successes / c.trials <= 1.0
