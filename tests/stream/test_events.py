"""Event envelope: validation, JSON round trip, watermark clock."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.records.taxonomy import Category, HardwareSubtype
from repro.stream import StreamEvent, StreamEventError, WatermarkClock, jsonl_source

_EVENT = '{"time": 1.0, "system_id": 0, "node_id": 0, "event_id": "e"'

#: Lines the decoder must reject with :class:`StreamEventError`, by name.
BAD_LINES = {
    "deep-nesting": "[" * 100000,
    "system-id-overflow": (
        '{"time": 1.0, "system_id": 1e400, "node_id": 0, "event_id": "e"}'
    ),
    "node-id-infinity": (
        '{"time": 1.0, "system_id": 0, "node_id": Infinity, "event_id": "e"}'
    ),
    "node-id-float": '{"time": 1.0, "system_id": 0, "node_id": 1.7, "event_id": "e"}',
    "node-id-bool": '{"time": 1.0, "system_id": 0, "node_id": true, "event_id": "e"}',
    "node-id-beyond-int64": (
        '{"time": 1.0, "system_id": 0, "node_id": 99999999999999999999, '
        '"event_id": "e"}'
    ),
    "time-int-overflow": (
        '{"time": 1' + "0" * 400 + ', "system_id": 0, "node_id": 0, "event_id": "e"}'
    ),
    "time-string": '{"time": "1.0", "system_id": 0, "node_id": 0, "event_id": "e"}',
    "downtime-nan": _EVENT + ', "downtime_hours": NaN}',
    "downtime-negative": _EVENT + ', "downtime_hours": -1.0}',
    "downtime-infinity": _EVENT + ', "downtime_hours": Infinity}',
    "category-list": _EVENT + ', "category": ["hardware"]}',
    "int-digit-limit": '{"node_id": ' + "1" * 5000 + "}",
}


class TestStreamEvent:
    def test_minimal_event(self):
        ev = StreamEvent(time=1.5, system_id=2, node_id=3, event_id="e1")
        assert ev.kind == "failure"
        assert ev.category is None

    def test_subtype_implies_category(self):
        ev = StreamEvent(
            time=0.0,
            system_id=0,
            node_id=0,
            event_id="e1",
            subtype=HardwareSubtype.CPU,
        )
        assert ev.category is Category.HARDWARE

    def test_subtype_category_mismatch_rejected(self):
        with pytest.raises(StreamEventError):
            StreamEvent(
                time=0.0,
                system_id=0,
                node_id=0,
                event_id="e1",
                category=Category.NETWORK,
                subtype=HardwareSubtype.CPU,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"event_id": ""},
            {"time": math.nan},
            {"time": math.inf},
            {"node_id": -1},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(time=0.0, system_id=0, node_id=0, event_id="e1")
        base.update(kwargs)
        with pytest.raises(StreamEventError):
            StreamEvent(**base)

    def test_events_order_by_time_then_identity(self):
        a = StreamEvent(time=1.0, system_id=0, node_id=5, event_id="a")
        b = StreamEvent(time=1.0, system_id=0, node_id=9, event_id="b")
        c = StreamEvent(time=0.5, system_id=9, node_id=0, event_id="c")
        assert sorted([b, a, c]) == [c, a, b]

    def test_json_round_trip(self):
        ev = StreamEvent(
            time=12.25,
            system_id=4,
            node_id=17,
            event_id="s4-f000017",
            category=Category.SOFTWARE,
            downtime_hours=1.5,
        )
        again = StreamEvent.from_json_line(ev.to_json_line())
        assert again == ev
        assert again.category is Category.SOFTWARE
        assert again.downtime_hours == 1.5

    def test_json_round_trip_with_subtype(self):
        ev = StreamEvent(
            time=3.0,
            system_id=0,
            node_id=1,
            event_id="x",
            subtype=HardwareSubtype.MEMORY,
        )
        again = StreamEvent.from_json_line(ev.to_json_line())
        assert again.subtype is HardwareSubtype.MEMORY
        assert again.category is Category.HARDWARE

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"time": 1.0}',
            '{"time": 1.0, "system_id": 0, "node_id": 0, "event_id": "e", '
            '"category": "bogus"}',
            *(pytest.param(line, id=name) for name, line in BAD_LINES.items()),
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(StreamEventError):
            StreamEvent.from_json_line(line)

    @settings(max_examples=300, deadline=None)
    @given(
        line=st.one_of(
            st.text(),
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers()
                | st.floats()
                | st.text(max_size=8),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(max_size=8), inner, max_size=3),
            ).map(json.dumps),
            st.fixed_dictionaries(
                {
                    "time": st.one_of(st.floats(), st.integers(), st.text()),
                    "system_id": st.one_of(st.integers(), st.floats(), st.booleans()),
                    "node_id": st.one_of(st.integers(), st.floats(), st.none()),
                    "event_id": st.text(),
                },
                optional={
                    "downtime_hours": st.one_of(st.floats(), st.integers()),
                    "category": st.sampled_from(["hardware", "bogus", ""]),
                    "subtype": st.sampled_from(["cpu", "memory", "bogus"]),
                },
            ).map(json.dumps),
        )
    )
    def test_any_text_decodes_or_raises_typed_error(self, line):
        try:
            event = StreamEvent.from_json_line(line)
        except StreamEventError:
            return
        assert isinstance(event, StreamEvent)
        assert math.isfinite(event.time) and event.node_id >= 0
        assert math.isfinite(event.downtime_hours) and event.downtime_hours >= 0


class TestJsonlSource:
    @pytest.fixture()
    def metrics(self):
        telemetry.reset_metrics()
        telemetry.set_metrics_enabled(True)
        yield telemetry.registry()
        telemetry.set_metrics_enabled(False)
        telemetry.reset_metrics()

    def test_bad_lines_counted_not_fatal(self, tmp_path, metrics):
        good = [
            StreamEvent(time=1.0, system_id=0, node_id=0, event_id="a"),
            StreamEvent(time=2.0, system_id=0, node_id=1, event_id="b"),
        ]
        bad = list(BAD_LINES.values())
        log = tmp_path / "events.jsonl"
        log.write_text(
            "\n".join([good[0].to_json_line(), *bad, good[1].to_json_line()])
            + "\n"
        )
        errors = []
        events = list(
            jsonl_source(log, on_error=lambda text, exc: errors.append(exc))
        )
        assert events == good
        assert len(errors) == len(bad)
        assert all(isinstance(exc, StreamEventError) for exc in errors)
        assert metrics.counter_value("stream.source_errors", source="jsonl") == len(
            bad
        )


class TestWatermarkClock:
    def test_initial_watermark_is_minus_inf(self):
        clock = WatermarkClock(lateness_days=1.0)
        assert clock.watermark == -math.inf

    def test_admit_advances_high_water_mark(self):
        clock = WatermarkClock(lateness_days=1.0)
        assert clock.admit(5.0)
        assert clock.high == 5.0
        assert clock.watermark == 4.0

    def test_out_of_order_within_tolerance_admitted(self):
        clock = WatermarkClock(lateness_days=2.0)
        clock.admit(10.0)
        assert clock.admit(8.5)
        assert clock.high == 10.0  # high never regresses

    def test_late_event_rejected(self):
        clock = WatermarkClock(lateness_days=1.0)
        clock.admit(10.0)
        assert not clock.admit(8.9)

    def test_zero_lateness_rejects_any_regression(self):
        clock = WatermarkClock(lateness_days=0.0)
        clock.admit(3.0)
        assert not clock.admit(2.999)
        assert clock.admit(3.0)  # equal to watermark is admitted

    def test_seal_rejects_everything(self):
        clock = WatermarkClock(lateness_days=5.0)
        clock.admit(1.0)
        clock.seal()
        assert clock.watermark == math.inf
        assert not clock.admit(1e12)
