"""Metrics derived from one run's iterations.

End-to-end metrics (``--trace 0``) are medians over the untraced
iterations, with times in reference seconds (see ``speed.py``).
Per-layer metrics (``--trace 1``) are medians over the traced
iterations of span totals, self times and counts read off each
iteration's :class:`~tracer.Tracer`.
"""

from __future__ import annotations

import resource
import statistics

from speed import reference_seconds

SIM_STAGES = ("neutrons", "usage", "stressors", "failures", "temperature")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return float(statistics.quantiles(values, n=10)[-1])


def traced_layer_metrics(it) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    tracer = it.tracer
    cold = tracer.subtree(it.roots["cold"])
    warm = tracer.subtree(it.roots["warm"])
    timed = cold + warm
    t_cold, t_warm, t_all = (
        tracer.totals(cold),
        tracer.totals(warm),
        tracer.totals(timed),
    )
    calls = tracer.calls(timed)
    m = dict(it.layer)
    for stage in SIM_STAGES:
        m[f"simulate.{stage}_s"] = t_cold.get(f"simulate.{stage}", 0.0)
    m["simulate.system_self_s"] = tracer.self_times(cold).get(
        "simulate.system", 0.0
    )
    systems = [s for s in cold if s.name == "simulate.system"]
    for attr, metric in (
        ("failures", "simulate.failures_n"),
        ("jobs", "simulate.jobs_n"),
        ("temperatures", "simulate.temperature_n"),
    ):
        m[metric] = float(sum(s.attrs.get(attr, 0) for s in systems))
    m["archive_cache.store_s"] = t_cold.get("archive_cache.store", 0.0)
    m["archive_cache.load_s"] = t_warm.get("archive_cache.load", 0.0)
    m["io.save_s"] = t_cold.get("io.save", 0.0)
    m["io.save_regen_s"] = t_warm.get("io.save", 0.0)
    m["io.load_s"] = t_cold.get("io.load", 0.0)
    m["core.index_s"] = t_all.get("core.index", 0.0)
    m["core.grid_s"] = t_all.get("core.grid", 0.0)
    m["core.grid_cells"] = float(
        sum(s.attrs.get("cells", 0) for s in cold if s.name == "core.grid")
    )
    for layer in ("distfit", "glm"):
        m[f"stats.{layer}_s"] = t_all.get(f"stats.{layer}", 0.0)
        m[f"stats.{layer}_calls"] = float(calls.get(f"stats.{layer}", 0))
    for layer in ("ingest", "resolve", "risk", "alerts", "queue_wait"):
        m[f"stream.{layer}_s"] = t_cold.get(f"stream.{layer}", 0.0)
    writes = [s for s in cold if s.name == "stream.checkpoint_write"]
    m["stream.checkpoint_write_s"] = t_cold.get("stream.checkpoint_write", 0.0)
    m["stream.checkpoint_writes"] = float(len(writes))
    m["stream.checkpoint_bytes"] = float(
        max(writes, key=lambda s: s.start_ns).attrs["bytes"] if writes else 0
    )
    m["stream.restore_s"] = t_warm.get("stream.restore", 0.0)
    for name, seconds in tracer.self_times(timed).items():
        if not name.startswith("e2e."):
            m[f"self.{name}_s"] = seconds
    for label in ("cold", "warm"):
        m[f"trace.uncovered.{label}"] = tracer.uncovered_share(it.roots[label])
    return m


def _ref(it, label: str) -> float:
    return reference_seconds(it.seconds[label], it.probe[label])


def end_to_end_metrics(raw: dict) -> dict[str, float]:
    """Medians over the run; times in reference seconds (``speed.py``)."""
    plain = raw["plain"]
    return {
        "setup_s": _median(reference_seconds(*setup) for setup in raw["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_s": _median(_ref(it, "cold") for it in plain),
        "warm_s": _median(_ref(it, "warm") for it in plain),
        "records_per_s": _median(it.records / _ref(it, "cold") for it in plain),
    }


def per_layer_metrics(raw: dict) -> dict[str, float]:
    traced = raw["traced"]
    rows = [traced_layer_metrics(it) for it in traced]
    names = sorted({name for row in rows for name in row})
    out = {name: _median(row.get(name, 0.0) for row in rows) for name in names}
    batches = [ms for it in raw["plain"] + traced for ms in it.batch_ms]
    out["stream.batch_p50_ms"] = _median(batches)
    out["stream.batch_tail_ms"] = _p90(batches)
    out["stream.batch_n"] = float(len(batches))

    def seconds(its):
        return _median(_ref(it, "cold") + _ref(it, "warm") for it in its)

    out["telemetry.trace_overhead_ratio"] = (
        seconds(traced) / seconds(raw["plain"]) - 1
    )
    return out


def select(values: dict[str, float], spec: list[dict]) -> dict[str, dict]:
    """Every metric ``spec`` lists, with its unit; 0 where a layer did
    no work in this workload."""
    unknown = sorted(set(values) - {m["name"] for m in spec})
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec
    }


