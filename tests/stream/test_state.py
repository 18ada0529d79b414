"""Incremental state: dispositions, out-of-order handling, checkpoints."""

from __future__ import annotations

import pytest

from repro.core.windows import Scope
from repro.records.taxonomy import Category
from repro.records.timeutil import ObservationPeriod, Span
from repro.stream import (
    CHECKPOINT_VERSION,
    OnlineAnalysis,
    StreamAnalysisConfig,
    StreamAnalysisState,
    StreamEvent,
    StreamStateError,
    latest_checkpoint_sequence,
    load_checkpoint,
    write_checkpoint,
)


def _state(lateness: float = 0.0) -> StreamAnalysisState:
    state = StreamAnalysisState(StreamAnalysisConfig(lateness_days=lateness))
    state.register_system(0, 4, ObservationPeriod(0.0, 100.0), None)
    return state


def _event(
    t: float, node: int = 0, eid: str | None = None, system: int = 0
) -> StreamEvent:
    return StreamEvent(
        time=t,
        system_id=system,
        node_id=node,
        event_id=eid or f"e{t}-{node}",
        category=Category.HARDWARE,
    )


class TestDispositions:
    def test_accept_and_count(self):
        state = _state()
        stats = state.ingest([_event(1.0), _event(2.0, node=1)])
        assert stats.accepted == 2
        assert stats.touched == {0}

    def test_duplicates_dropped(self):
        state = _state(lateness=10.0)
        stats = state.ingest(
            [_event(1.0, eid="dup"), _event(1.0, eid="dup")]
        )
        assert stats.accepted == 1
        assert stats.duplicate == 1

    def test_late_events_dropped(self):
        state = _state(lateness=1.0)
        stats = state.ingest([_event(10.0), _event(8.0)])
        assert stats.accepted == 1
        assert stats.late == 1

    def test_out_of_order_within_tolerance_accepted(self):
        state = _state(lateness=5.0)
        stats = state.ingest([_event(10.0), _event(6.0)])
        assert stats.accepted == 2
        assert stats.late == 0

    def test_unknown_system_counted(self):
        state = _state()
        stats = state.ingest([_event(1.0, system=99)])
        assert stats.unknown_system == 1
        assert stats.accepted == 0

    def test_out_of_period_invalid(self):
        state = _state()
        stats = state.ingest([_event(-1.0), _event(100.0), _event(1e6)])
        # Period is [0, 100): t=-1 and t=1e6 invalid; t=100.0 invalid too
        # (events at/after period.end can never open a window).
        assert stats.invalid == 3

    def test_node_out_of_range_invalid(self):
        state = _state()
        stats = state.ingest([_event(1.0, node=4)])
        assert stats.invalid == 1

    def test_register_system_idempotent_but_shape_checked(self):
        state = _state()
        state.register_system(0, 4, ObservationPeriod(0.0, 100.0), None)
        with pytest.raises(StreamStateError):
            state.register_system(0, 8, ObservationPeriod(0.0, 100.0), None)


class TestCounters:
    def test_same_node_week_window_counts(self):
        state = _state()
        # Trigger at t=1 on node 0; its own follow-up at t=3 lands in
        # the (1, 8] week window.  The t=3 event opens a window too,
        # with no success after it.
        state.ingest([_event(1.0), _event(3.0)])
        state.finalize()
        counts = state.systems[0].counts(Scope.NODE, None, None, Span.WEEK)
        assert counts.trials == 2
        assert counts.successes == 1

    def test_open_closed_window_boundaries(self):
        state = _state()
        # (t, t+1] day window: an event exactly at t is NOT a success,
        # one exactly at t+1 IS.
        state.ingest([_event(1.0), _event(2.0)])
        state.finalize()
        day = state.systems[0].counts(Scope.NODE, None, None, Span.DAY)
        assert day.successes == 1  # the t=2.0 hit at the closed boundary
        state2 = _state()
        state2.ingest([_event(1.0), _event(2.0 + 1e-9)])
        state2.finalize()
        day2 = state2.systems[0].counts(Scope.NODE, None, None, Span.DAY)
        assert day2.successes == 0  # just past the closed boundary

    def test_censoring_excludes_windows_past_period_end(self):
        state = _state()
        # Period ends at 100: a trigger at t=99 has no complete week
        # window, so it contributes no trial at WEEK span.
        state.ingest([_event(99.0)])
        state.finalize()
        week = state.systems[0].counts(Scope.NODE, None, None, Span.WEEK)
        assert week.trials == 0
        day = state.systems[0].counts(Scope.NODE, None, None, Span.DAY)
        assert day.trials == 1  # (99, 100] still fits

    def test_baseline_counts_windows_with_events(self):
        state = _state()
        state.ingest([_event(0.5), _event(0.7), _event(30.5, node=2)])
        state.finalize()
        base = state.systems[0].baseline(None, Span.DAY)
        # Two distinct (node, day-window) keys; 4 nodes x 100 windows.
        assert base.successes == 2
        assert base.trials == 400


class TestCheckpointFiles:
    def test_round_trip_preserves_digest(self, tmp_path):
        state = _state(lateness=3.0)
        state.ingest([_event(1.0), _event(5.0, node=2), _event(4.0, node=1)])
        write_checkpoint(state, tmp_path)
        restored = load_checkpoint(tmp_path)
        assert restored.digest() == state.digest()

    def test_sequence_advances_and_prunes(self, tmp_path):
        state = _state()
        for t in (1.0, 2.0, 3.0):
            state.ingest([_event(t)])
            write_checkpoint(state, tmp_path, keep=2)
        assert latest_checkpoint_sequence(tmp_path) == 3
        metas = sorted(p.name for p in tmp_path.glob("ckpt-*.meta.json"))
        assert metas == ["ckpt-000002.meta.json", "ckpt-000003.meta.json"]

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        state = _state()
        state.ingest([_event(1.0)])
        info = write_checkpoint(state, tmp_path)
        meta_path = tmp_path / f"ckpt-{info.sequence:06d}.meta.json"
        payload = json.loads(meta_path.read_text())
        payload["version"] = CHECKPOINT_VERSION + 1
        meta_path.write_text(json.dumps(payload))
        with pytest.raises(StreamStateError):
            load_checkpoint(tmp_path)

    def test_config_mismatch_rejected(self, tmp_path):
        state = _state(lateness=1.0)
        state.ingest([_event(1.0)])
        write_checkpoint(state, tmp_path)
        with pytest.raises(StreamStateError):
            load_checkpoint(tmp_path, StreamAnalysisConfig(lateness_days=2.0))

    def test_checkpoint_writes_are_byte_stable(self, tmp_path):
        state = _state()
        state.ingest([_event(1.0), _event(2.0, node=3)])
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_checkpoint(state, a)
        write_checkpoint(state, b)
        meta_a = (a / "ckpt-000001.meta.json").read_bytes()
        meta_b = (b / "ckpt-000001.meta.json").read_bytes()
        assert meta_a == meta_b

    def test_writes_leave_no_temporary_files(self, tmp_path):
        state = _state()
        state.ingest([_event(1.0)])
        write_checkpoint(state, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "LATEST",
            "ckpt-000001.meta.json",
            "ckpt-000001.state.npz",
        ]


class TestCorruptCheckpoints:
    """Damaged checkpoint files raise ``StreamStateError``, never raw errors."""

    @staticmethod
    def _checkpoint(tmp_path):
        state = _state()
        state.ingest([_event(1.0), _event(2.0, node=3)])
        info = write_checkpoint(state, tmp_path)
        stem = tmp_path / f"ckpt-{info.sequence:06d}"
        return stem.with_name(stem.name + ".meta.json"), stem.with_name(
            stem.name + ".state.npz"
        )

    def test_truncated_npz(self, tmp_path):
        _, npz_path = self._checkpoint(tmp_path)
        data = npz_path.read_bytes()
        npz_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StreamStateError, match="unreadable checkpoint arrays"):
            load_checkpoint(tmp_path)

    def test_missing_meta_key(self, tmp_path):
        import json

        meta_path, _ = self._checkpoint(tmp_path)
        payload = json.loads(meta_path.read_text())
        del payload["systems"][0]["stats"]
        meta_path.write_text(json.dumps(payload))
        with pytest.raises(StreamStateError, match="missing 'stats'"):
            load_checkpoint(tmp_path)

    def test_missing_array(self, tmp_path):
        import numpy as np

        _, npz_path = self._checkpoint(tmp_path)
        with np.load(npz_path) as payload:
            arrays = {k: payload[k] for k in payload.files if k != "s0.k.any.times"}
        with open(npz_path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(StreamStateError, match="s0.k.any.times"):
            load_checkpoint(tmp_path)


class TestConfig:
    def test_negative_lateness_rejected(self):
        with pytest.raises(StreamStateError):
            StreamAnalysisConfig(lateness_days=-1.0)

    def test_wide_targets_must_be_tracked_selections(self):
        with pytest.raises(StreamStateError):
            StreamAnalysisConfig(
                selections=(None,), wide_targets=(Category.HARDWARE,)
            )

    def test_risk_horizon_must_be_tracked(self):
        state = StreamAnalysisState(
            StreamAnalysisConfig(spans=(Span.DAY,))
        )
        state.register_system(0, 2, ObservationPeriod(0.0, 10.0), None)
        from repro.stream import StreamAnalysisError

        with pytest.raises(StreamAnalysisError):
            OnlineAnalysis(state, risk_horizon=Span.WEEK)
