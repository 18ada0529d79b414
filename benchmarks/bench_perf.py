#!/usr/bin/env python
"""Performance harness: generation (cold/warm/parallel) + window analysis.

Unlike the ``bench_fig*``/``bench_table*`` modules (pytest suites that
assert the paper's *findings*), this is a standalone script that records
how *fast* the pipeline is, writing the measurements to
``BENCH_PERF.json`` so the perf trajectory is tracked in-repo:

* **cold serial** -- ``make_archive`` of the benchmark configuration
  from scratch in one process;
* **cold parallel** -- the same with a worker pool (identical output by
  construction; only interesting on a multi-core box);
* **warm cache** -- loading the same archive back from the on-disk
  archive cache, the path repeat benchmark runs take;
* **CSV load** -- ``load_archive`` of the same archive saved once
  (untimed) as LANL-style CSV files, the input path of ``hpcfail
  report <dir>`` (``csv_load_s``, guarded by
  ``check_perf_regression.py``);
* **analysis** -- one representative window analysis (the Section
  III-A.3 pairwise matrix over group-1), first on cold per-category
  event indices, then warm;
* **report** -- the full combined report four ways: cold (empty
  analysis cache), warm (fully memoized), parallel (section pool) and
  traced (warm run with span collection on).  All four texts are
  asserted byte-identical before timings are recorded;
* **telemetry no-op** -- the disabled span+counter fast path, timed
  before ``REPRO_TELEMETRY`` is applied and guarded by
  ``check_perf_regression.py`` so instrumentation stays free when off;
* **streaming** -- a full archive replay through the online analysis
  consumer (``stream_replay_s``, with the derived ``stream_ingest_eps``
  throughput rate-guarded in CI) and one checkpoint write + restore
  round trip of the final state (``checkpoint_roundtrip_s``).

With ``REPRO_TELEMETRY=trace`` and ``REPRO_TRACE_FILE`` set (as in CI)
the run's span tree is exported as JSONL, and the metrics snapshot is
embedded in the output JSON either way.

Run from the repository root::

    python benchmarks/bench_perf.py                 # benchmark scale
    python benchmarks/bench_perf.py --smoke -o /tmp/smoke.json   # CI

The benchmark scale matches ``benchmarks/conftest.py`` (seed 42, seven
years, 35% of LANL node counts).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro import telemetry
from repro.core.correlations import pairwise_matrix
from repro.core.report import full_report
from repro.records.dataset import HardwareGroup
from repro.records.io import load_archive, save_archive
from repro.records.timeutil import Span
from repro.simulate.archive import make_archive
from repro.simulate.cache import load_cached, store_cached
from repro.simulate.config import small_config
from repro.simulate.failures import GENERATOR_VERSION
from repro.stream import (
    OnlineAnalysis,
    StreamAnalysisState,
    load_checkpoint,
    replay_archive,
    write_checkpoint,
)

#: Benchmark archive parameters (keep in sync with benchmarks/conftest.py).
BENCH_SEED = 46
BENCH_YEARS = 7.0
BENCH_SCALE = 0.35

#: Iterations of the disabled span + counter pair timed for the
#: zero-overhead guard (``telemetry_noop_s`` in the output).
NOOP_ITERATIONS = 100_000


def _time_telemetry_noop() -> float:
    """Seconds for ``NOOP_ITERATIONS`` disabled span+counter call pairs.

    Runs inside :func:`telemetry.disabled` so the measurement reflects
    the fast path regardless of ``REPRO_TELEMETRY``; the perf gate
    fails the build if this creeps up (i.e. instrumentation stopped
    being free when switched off).
    """
    with telemetry.disabled():
        t0 = time.perf_counter()
        for i in range(NOOP_ITERATIONS):
            with telemetry.span("bench.noop", iteration=i):
                telemetry.counter_add("bench.noop", 1)
        return time.perf_counter() - t0


def _timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; return (best seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run(args: argparse.Namespace) -> dict:
    if args.smoke:
        config = small_config(seed=BENCH_SEED, years=1.0, scale=0.03)
    else:
        config = small_config(
            seed=BENCH_SEED, years=BENCH_YEARS, scale=BENCH_SCALE
        )
    workers = args.workers or min(os.cpu_count() or 1, 8)
    timings: dict[str, float] = {}

    print(
        f"config: seed={config.seed} years={config.years} "
        f"scale={config.scale} (generator v{GENERATOR_VERSION})"
    )

    # Measured before configure_from_env() so a CI run with
    # REPRO_TELEMETRY set still times the genuinely-disabled fast path.
    timings["telemetry_noop_s"] = _time_telemetry_noop()
    print(
        f"telemetry no-op overhead: {timings['telemetry_noop_s']:8.2f} s "
        f"({NOOP_ITERATIONS} span+counter pairs)"
    )
    telemetry.configure_from_env()
    telemetry.enable_metrics()
    telemetry.reset_metrics()

    timings["cold_serial_s"], archive = _timed(lambda: make_archive(config))
    print(f"cold serial generation:   {timings['cold_serial_s']:8.2f} s")

    if workers > 1:
        timings["cold_parallel_s"], _ = _timed(
            lambda: make_archive(config, workers=workers)
        )
        print(
            f"cold parallel ({workers} workers): "
            f"{timings['cold_parallel_s']:6.2f} s"
        )

    with tempfile.TemporaryDirectory(prefix="bench-perf-cache-") as tmp:
        cache_dir = Path(args.cache_dir) if args.cache_dir else Path(tmp)
        timings["cache_store_s"], _ = _timed(
            lambda: store_cached(config, archive, cache_dir)
        )
        timings["warm_load_s"], cached = _timed(
            lambda: load_cached(config, cache_dir),
            repeats=args.load_repeats,
        )
        assert cached is not None, "cache round-trip failed"
        print(f"cache store:              {timings['cache_store_s']:8.2f} s")
        print(f"warm cache load:          {timings['warm_load_s']:8.2f} s")
        csv_dir = Path(tmp) / "csv"
        save_archive(archive, csv_dir)
        timings["csv_load_s"], _ = _timed(
            lambda: load_archive(csv_dir), repeats=args.load_repeats
        )
        print(f"CSV archive load:         {timings['csv_load_s']:8.2f} s")

        def fresh_archive():
            # Each report timing starts from a freshly loaded archive so
            # no analysis cache (or materialized column) leaks between
            # variants; only the warm timing reuses an instance.
            loaded = load_cached(config, cache_dir)
            assert loaded is not None, "cache round-trip failed"
            return loaded

        cold_archive = fresh_archive()
        timings["report_cold_s"], cold_text = _timed(
            lambda: full_report(cold_archive)
        )
        timings["report_warm_s"], warm_text = _timed(
            lambda: full_report(cold_archive)
        )
        parallel_archive = fresh_archive()
        report_workers = max(workers, 2)
        timings["report_parallel_s"], parallel_text = _timed(
            lambda: full_report(parallel_archive, workers=report_workers)
        )
        # Warm report with span collection forced on (scoped trace, so
        # this measures tracing cost no matter what REPRO_TELEMETRY
        # says); output must stay byte-identical to the untraced runs.
        with telemetry.trace("bench.report"):
            timings["report_traced_s"], traced_text = _timed(
                lambda: full_report(cold_archive)
            )
        assert (
            cold_text == warm_text == parallel_text == traced_text
        ), "full_report output differs between cache/parallel/trace variants"
    print(f"report cold cache:        {timings['report_cold_s']:8.2f} s")
    print(f"report warm cache:        {timings['report_warm_s']:8.2f} s")
    print(f"report warm traced:       {timings['report_traced_s']:8.2f} s")
    print(
        f"report parallel ({report_workers} workers): "
        f"{timings['report_parallel_s']:5.2f} s"
    )

    group1 = archive.group(HardwareGroup.GROUP1)
    timings["analysis_cold_s"], _ = _timed(
        lambda: pairwise_matrix(group1, Span.WEEK)
    )
    timings["analysis_warm_s"], _ = _timed(
        lambda: pairwise_matrix(group1, Span.WEEK)
    )
    print(f"pairwise analysis (cold): {timings['analysis_cold_s']:8.2f} s")
    print(f"pairwise analysis (warm): {timings['analysis_warm_s']:8.2f} s")

    # Streaming: replay the whole archive through the online consumer
    # (incremental counters + per-batch risk refresh), then round-trip
    # the final state through one checkpoint write + restore.
    def stream_replay():
        consumer = OnlineAnalysis(StreamAnalysisState())
        replay_archive(archive, consumer, batch_size=1024)
        return consumer

    timings["stream_replay_s"], stream_consumer = _timed(stream_replay)
    stream_events = stream_consumer.totals.accepted
    print(
        f"stream replay:            {timings['stream_replay_s']:8.2f} s "
        f"({stream_events} events)"
    )
    with tempfile.TemporaryDirectory(prefix="bench-perf-ckpt-") as ckpt_tmp:

        def checkpoint_roundtrip():
            write_checkpoint(stream_consumer.state, Path(ckpt_tmp))
            return load_checkpoint(Path(ckpt_tmp))

        timings["checkpoint_roundtrip_s"], restored = _timed(
            checkpoint_roundtrip
        )
        assert (
            restored.digest() == stream_consumer.state.digest()
        ), "checkpoint round trip changed the streaming state"
    print(
        f"checkpoint round trip:    {timings['checkpoint_roundtrip_s']:8.2f} s"
    )

    cold_best = min(
        timings["cold_serial_s"],
        timings.get("cold_parallel_s", float("inf")),
    )
    derived = {
        "warm_vs_cold_speedup": cold_best / max(timings["warm_load_s"], 1e-9),
        "analysis_warm_vs_cold_speedup": timings["analysis_cold_s"]
        / max(timings["analysis_warm_s"], 1e-9),
        "stream_ingest_eps": stream_events
        / max(timings["stream_replay_s"], 1e-9),
    }
    if "cold_parallel_s" in timings:
        derived["parallel_vs_serial_speedup"] = (
            timings["cold_serial_s"] / timings["cold_parallel_s"]
        )
    print(f"warm vs cold speedup:     {derived['warm_vs_cold_speedup']:8.1f}x")
    print(f"stream ingest rate:       {derived['stream_ingest_eps']:8.0f} events/s")

    return {
        "smoke": args.smoke,
        "date": time.strftime("%Y-%m-%d"),
        "generator_version": GENERATOR_VERSION,
        "config": {
            "seed": config.seed,
            "years": config.years,
            "scale": config.scale,
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workers": workers,
        "total_failures": archive.total_failures(),
        "timings_s": {k: round(v, 4) for k, v in timings.items()},
        "derived": {k: round(v, 2) for k, v in derived.items()},
        "metrics": telemetry.metrics_snapshot(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny configuration for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel timing (default: cpu count)",
    )
    parser.add_argument(
        "--load-repeats",
        type=int,
        default=3,
        help="repetitions of the warm-cache and CSV loads (best is reported)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory for the warm timing (default: fresh temp dir)",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_PERF.json",
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)
    report = run(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    roots = telemetry.finish_trace()
    trace_file = telemetry.trace_file_from_env()
    if trace_file and roots:
        telemetry.write_spans_jsonl(roots, trace_file)
        print(f"wrote {trace_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
