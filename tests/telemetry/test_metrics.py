"""Metrics registry accuracy, including against known cache workloads."""

from __future__ import annotations

import pytest
import numpy as np

from repro import telemetry
from repro.core.cache import fail_kind, get_cache
from repro.records.timeutil import Span
from repro.stats.bootstrap import bootstrap_ci, bootstrap_ratio_ci


class TestRegistry:
    def test_disabled_mutators_noop(self):
        assert not telemetry.metrics_enabled()
        telemetry.counter_add("x", 5)
        telemetry.gauge_set("y", 1.0)
        telemetry.observe("z", 2.0)
        snap = telemetry.metrics_snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_counter_label_series(self):
        telemetry.enable_metrics()
        telemetry.counter_add("loads", 1, result="warm")
        telemetry.counter_add("loads", 1, result="warm")
        telemetry.counter_add("loads", 3, result="cold")
        telemetry.counter_add("plain")
        snap = telemetry.metrics_snapshot()["counters"]
        assert snap["loads{result=warm}"] == 2
        assert snap["loads{result=cold}"] == 3
        assert snap["plain"] == 1

    def test_counter_value_and_reset(self):
        telemetry.enable_metrics()
        telemetry.counter_add("n", 2, k="a")
        assert telemetry.registry().counter_value("n", k="a") == 2
        assert telemetry.registry().counter_value("n", k="other") == 0
        telemetry.reset_metrics()
        assert telemetry.registry().counter_value("n", k="a") == 0

    def test_histogram_timer(self):
        telemetry.enable_metrics()
        for _ in range(3):
            with telemetry.timer("op", stage="x"):
                pass
        summary = telemetry.metrics_snapshot()["histograms"]["op{stage=x}"]
        assert summary["count"] == 3
        assert summary["min"] >= 0.0
        assert summary["max"] >= summary["min"]

    def test_timer_disabled_is_shared_noop(self):
        t1 = telemetry.timer("op")
        t2 = telemetry.timer("op")
        assert t1 is t2
        with t1:
            pass
        assert telemetry.metrics_snapshot()["histograms"] == {}


class TestCacheWorkload:
    """Counters must match a hand-computed cache workload exactly."""

    @pytest.fixture()
    def fresh_system(self, tiny_archive):
        # A dataset object with a guaranteed-cold analysis cache:
        # session fixtures share caches, so rebuild a tiny system.
        from repro.simulate.archive import quick_archive

        return quick_archive(seed=11, years=1.0, scale=0.03)[2]

    def test_baseline_grid_counters(self, fresh_system):
        telemetry.enable_metrics()
        cache = get_cache(fresh_system)
        kinds = [fail_kind()]
        spans = [Span.DAY, Span.WEEK]

        cache.baseline_grid(kinds, spans)  # cold: every cell misses
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["analysis_cache.misses"] == len(kinds) * len(spans)
        assert "analysis_cache.hits" not in counters

        cache.baseline_grid(kinds, spans)  # warm: every cell hits
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["analysis_cache.hits"] == len(kinds) * len(spans)
        # registry agrees with the per-instance tallies
        assert counters["analysis_cache.hits"] == cache.hits
        assert counters["analysis_cache.misses"] == cache.misses

    def test_window_kernel_cell_counters(self, fresh_system):
        telemetry.enable_metrics()
        cache = get_cache(fresh_system)
        spans = [Span.DAY, Span.WEEK]
        cache.baseline_grid([fail_kind()], spans)
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["windows.baseline_batch_calls"] == 1
        assert counters["windows.baseline_cells"] == len(spans)


class TestBootstrapCounters:
    def test_replicates_counted(self):
        telemetry.enable_metrics()
        rng = np.random.default_rng(0)
        data = rng.normal(size=50)
        bootstrap_ci(data, np.mean, replicates=250, rng=rng)
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["bootstrap.calls{kind=statistic}"] == 1
        assert counters["bootstrap.replicates{kind=statistic}"] == 250

    def test_ratio_replicates_counted(self):
        telemetry.enable_metrics()
        rng = np.random.default_rng(1)
        bootstrap_ratio_ci(30, 100, 20, 100, replicates=300, rng=rng)
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["bootstrap.calls{kind=ratio}"] == 1
        assert counters["bootstrap.replicates{kind=ratio}"] == 300
