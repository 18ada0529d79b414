"""Analysis-cache correctness and report byte-identity.

The memoization layer must be invisible: a cached report, a memo-less
report (:class:`MemolessCache`, which forgets every memo before each
query) and a parallel report must all be the same bytes.  These tests
also pin the cache bookkeeping the ``--profile`` flag reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache import (
    AnalysisCache,
    cache_stats,
    fail_kind,
    get_cache,
    maint_kind,
    pooled_baseline_grid,
    pooled_conditional_grid,
    split_kind,
)
from repro.core.report import REPORT_SECTIONS, full_report, profiled_full_report
from repro.core.windows import Scope, WindowAnalysisError
from repro.records.taxonomy import Category, HardwareSubtype
from repro.records.timeutil import Span
from tests.core.test_windows_reference import baseline_cell, conditional_cell

#: Modules that bind ``get_cache`` at import time.
CACHE_USERS = ("cache", "nodes", "regression", "temperature", "usage", "users")


def _memoless(query):
    def forgetful(self, *args, **kwargs):
        self._counts.clear()
        self._summaries.clear()
        self._indices.clear()
        return query(self, *args, **kwargs)

    return forgetful


class MemolessCache(AnalysisCache):
    """An :class:`AnalysisCache` that recomputes every query from scratch."""

    baseline_grid = _memoless(AnalysisCache.baseline_grid)
    conditional_grid = _memoless(AnalysisCache.conditional_grid)
    summary = _memoless(AnalysisCache.summary)

    def events(self, kind):
        # Only the index memo: a grid query calls this mid-computation.
        self._indices.clear()
        return super().events(kind)


def _fresh(ds):
    """Drop any memoized cache so a test starts from a cold dataset."""
    ds.__dict__.pop("_analysis_cache", None)
    return ds


class TestAnalysisCache:
    def test_get_cache_is_per_dataset_singleton(self, group1):
        ds = _fresh(group1[0])
        cache = get_cache(ds)
        assert isinstance(cache, AnalysisCache)
        assert get_cache(ds) is cache
        assert get_cache(_fresh(group1[1])) is not cache

    def test_baseline_matches_direct_and_hits_on_reuse(self, group1):
        ds = _fresh(group1[0])
        cache = get_cache(ds)
        kind = fail_kind(category=Category.HARDWARE)
        idx = ds.failure_table.events(category=Category.HARDWARE)
        expected = baseline_cell(idx, ds.num_nodes, ds.period, Span.WEEK)
        assert cache.baseline(kind, Span.WEEK) == expected
        misses = cache.misses
        assert cache.baseline(kind, Span.WEEK) == expected
        assert cache.misses == misses
        assert cache.hits >= 1

    def test_conditional_matches_direct(self, group1):
        ds = _fresh(group1[0])
        cache = get_cache(ds)
        trig = fail_kind(category=Category.SOFTWARE)
        targ = fail_kind()
        got = cache.conditional(trig, targ, Span.DAY, Scope.NODE)
        expected = conditional_cell(
            ds.failure_table.events(category=Category.SOFTWARE),
            ds.failure_table.events(),
            ds.period,
            Span.DAY,
            num_nodes=ds.num_nodes,
        )
        assert got == expected

    def test_node_subset_requires_key(self, group1):
        cache = get_cache(_fresh(group1[0]))
        with pytest.raises(ValueError, match="subset_key"):
            cache.baseline(
                fail_kind(), Span.WEEK, node_subset=np.array([0, 1])
            )

    def test_maintenance_kind(self, group1):
        ds = _fresh(group1[0])
        cache = get_cache(ds)
        hw = cache.events(maint_kind(hardware_only=True))
        allm = cache.events(maint_kind(hardware_only=False))
        assert hw.times.size <= allm.times.size

    def test_split_kind(self):
        assert split_kind(None) == fail_kind()
        assert split_kind(Category.HARDWARE) == fail_kind(
            category=Category.HARDWARE
        )
        assert split_kind(HardwareSubtype.CPU) == fail_kind(
            subtype=HardwareSubtype.CPU
        )


class TestPooledGrids:
    def test_pooled_sums_over_systems(self, group1):
        systems = [_fresh(ds) for ds in group1[:2]]
        kind = fail_kind()
        grid = pooled_baseline_grid(systems, [kind], [Span.WEEK])
        parts = [get_cache(ds).baseline(kind, Span.WEEK) for ds in systems]
        assert grid[0][0].successes == sum(p.successes for p in parts)
        assert grid[0][0].trials == sum(p.trials for p in parts)

    def test_pooled_conditional_skips_rackless(self, group1):
        systems = [_fresh(ds) for ds in group1[:2]]
        with_racks = [ds for ds in systems if ds.rack_of is not None]
        if len(with_racks) == len(systems):
            pytest.skip("all fixture systems have rack layouts")
        kind = fail_kind()
        pooled = pooled_conditional_grid(
            systems, [kind], [kind], [Span.WEEK], scope=Scope.RACK
        )
        only_racked = pooled_conditional_grid(
            with_racks, [kind], [kind], [Span.WEEK], scope=Scope.RACK
        )
        assert pooled == only_racked

    def test_empty_pool_rejected(self):
        with pytest.raises(WindowAnalysisError, match="at least one system"):
            pooled_baseline_grid([], [fail_kind()], [Span.WEEK])
        with pytest.raises(WindowAnalysisError, match="at least one system"):
            pooled_conditional_grid([], [fail_kind()], [fail_kind()], [Span.WEEK])


class TestReportIdentity:
    @pytest.fixture(scope="class")
    def uncached_text(self, tiny_archive):
        for ds in tiny_archive:
            _fresh(ds)
        with pytest.MonkeyPatch.context() as patch:
            for name in CACHE_USERS:
                patch.setattr(
                    f"repro.core.{name}.get_cache", lambda ds: MemolessCache(ds)
                )
            text = full_report(tiny_archive)
        for ds in tiny_archive:
            assert "_analysis_cache" not in ds.__dict__
        return text

    def test_cold_and_warm_match_uncached(self, tiny_archive, uncached_text):
        for ds in tiny_archive:
            _fresh(ds)
        cold = full_report(tiny_archive)
        warm = full_report(tiny_archive)
        assert cold == uncached_text
        assert warm == uncached_text
        hits, misses, entries = cache_stats(tiny_archive)
        assert hits > 0 and misses > 0 and entries > 0

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_serial(self, tiny_archive, uncached_text, workers):
        assert full_report(tiny_archive, workers=workers) == uncached_text

    def test_profiled_report(self, tiny_archive, uncached_text):
        text, profile = profiled_full_report(tiny_archive, workers=2)
        assert text == uncached_text
        assert profile.workers == 2
        assert len(profile.section_seconds) == len(REPORT_SECTIONS)
        rendered = profile.render()
        for name, seconds in profile.section_seconds:
            assert seconds >= 0.0
            assert name in rendered
        assert "analysis cache:" in rendered
        assert f"workers={profile.workers}" in rendered
