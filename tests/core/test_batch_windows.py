"""The batched window kernels on real archive grids.

A grid must equal its cells computed one at a time: batching stacks
every (trigger, span) pair into one labelled slice per target, so a
labelling or prefix slip would move counts between cells.  The naive
reference in ``test_windows_reference.py`` pins the cells themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.records.dataset import EventIndex
from repro.records.taxonomy import Category, HardwareSubtype, all_categories
from repro.records.timeutil import ALL_SPANS, Span
from repro.core.windows import (
    ZERO_COUNTS,
    Scope,
    WindowAnalysisError,
    baseline_counts_batch,
    conditional_counts_batch,
)
from tests.core.test_windows_reference import baseline_cell, conditional_cell


def _indexes(ds, kinds):
    out = []
    for kind in kinds:
        if kind is None or isinstance(kind, Category):
            out.append(ds.failure_table.events(category=kind))
        else:
            out.append(ds.failure_table.events(subtype=kind))
    return out


TRIGGER_KINDS = [None, *all_categories(), HardwareSubtype.MEMORY]
TARGET_KINDS = [None, Category.HARDWARE, Category.SOFTWARE, HardwareSubtype.CPU]


class TestConditionalBatchEquivalence:
    @pytest.mark.parametrize("scope", [Scope.NODE, Scope.SYSTEM])
    def test_matches_per_cell_exactly(self, group1, scope):
        ds = group1[0]
        triggers = _indexes(ds, TRIGGER_KINDS)
        targets = _indexes(ds, TARGET_KINDS)
        grid = conditional_counts_batch(
            triggers,
            targets,
            ds.period,
            ALL_SPANS,
            scope=scope,
            num_nodes=ds.num_nodes,
        )
        for i, trig in enumerate(triggers):
            for j, targ in enumerate(targets):
                for k, span in enumerate(ALL_SPANS):
                    expected = conditional_cell(
                        trig,
                        targ,
                        ds.period,
                        span,
                        scope=scope,
                        num_nodes=ds.num_nodes,
                    )
                    assert grid[i][j][k] == expected

    def test_matches_per_cell_rack_scope(self, group1):
        ds = next(s for s in group1 if s.rack_of is not None)
        triggers = _indexes(ds, TRIGGER_KINDS)
        targets = _indexes(ds, TARGET_KINDS)
        spans = [Span.DAY, Span.WEEK]
        grid = conditional_counts_batch(
            triggers,
            targets,
            ds.period,
            spans,
            scope=Scope.RACK,
            rack_of=ds.rack_of,
            num_nodes=ds.num_nodes,
        )
        for i, trig in enumerate(triggers):
            for j, targ in enumerate(targets):
                for k, span in enumerate(spans):
                    expected = conditional_cell(
                        trig,
                        targ,
                        ds.period,
                        span,
                        scope=Scope.RACK,
                        rack_of=ds.rack_of,
                        num_nodes=ds.num_nodes,
                    )
                    assert grid[i][j][k] == expected

    def test_empty_trigger_stream(self, group1):
        ds = group1[0]
        empty = EventIndex(np.zeros(0), np.zeros(0, dtype=np.int64))
        target = ds.failure_table.events()
        grid = conditional_counts_batch(
            [empty], [target], ds.period, ALL_SPANS, num_nodes=ds.num_nodes
        )
        assert grid[0][0] == [ZERO_COUNTS] * len(ALL_SPANS)

    def test_rack_scope_requires_mapping(self, group1):
        ds = group1[0]
        idx = ds.failure_table.events()
        with pytest.raises(WindowAnalysisError):
            conditional_counts_batch(
                [idx],
                [idx],
                ds.period,
                [Span.WEEK],
                scope=Scope.RACK,
                num_nodes=ds.num_nodes,
            )


class TestBaselineBatchEquivalence:
    def test_matches_per_cell_exactly(self, group1):
        ds = group1[0]
        targets = _indexes(ds, TARGET_KINDS)
        grid = baseline_counts_batch(
            targets, ds.num_nodes, ds.period, ALL_SPANS
        )
        for j, targ in enumerate(targets):
            for k, span in enumerate(ALL_SPANS):
                expected = baseline_cell(targ, ds.num_nodes, ds.period, span)
                assert grid[j][k] == expected

    def test_matches_per_cell_with_node_subset(self, group1):
        ds = group1[0]
        targets = _indexes(ds, [None, Category.HARDWARE])
        subset = np.arange(0, ds.num_nodes, 2, dtype=np.int64)
        grid = baseline_counts_batch(
            targets, ds.num_nodes, ds.period, ALL_SPANS, node_subset=subset
        )
        for j, targ in enumerate(targets):
            for k, span in enumerate(ALL_SPANS):
                expected = baseline_cell(
                    targ, ds.num_nodes, ds.period, span, node_subset=subset
                )
                assert grid[j][k] == expected
