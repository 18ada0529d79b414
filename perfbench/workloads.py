"""The benchmark's workloads: ``generate``, ``report`` and ``stream``.

Each workload drives the program the way its command-line user does, in
this one process, serially (no worker pools; the stream's producer
thread is the only extra thread).  A workload has

* ``setup()`` -- untimed preparation of its inputs (the runner times it
  separately as ``setup_s``);
* ``prepare_checks()`` -- reference outputs for the correctness checks;
* ``run_once(tracer)`` -- one iteration: a *cold* and a *warm* timed
  operation, then the output checks, outside both timed regions.

The archive configuration is fixed (``YEARS``, ``SCALE``); the workload
seed sets the archive seed and, for ``stream``, the delivery order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.cli as cli
import repro.core.cache as core_cache
import repro.core.downtime as core_downtime
import repro.core.interarrival as core_interarrival
import repro.core.regression as core_regression
import repro.core.report as core_report
import repro.core.temperature as core_temperature
import repro.simulate.archive as sim_archive
import repro.simulate.cache as sim_cache
import repro.stream.alerts as stream_alerts
import repro.stream.analysis as stream_analysis
import repro.stream.cli as stream_cli
import repro.stream.ingest as stream_ingest
import repro.stream.state as stream_state
from repro.records.dataset import Archive
from repro.records.io import load_archive, save_archive
from repro.simulate.config import ArchiveConfig
from repro.stream.replay import verify_equivalence

from speed import probe_seconds
from tracer import Span, Tracer

#: Archive configuration of every workload: seven years (the bench
#: period of ``benchmarks/bench_perf.py``) at 7% of LANL node counts,
#: about 6,300 failures, 21,000 jobs and 46,000 temperature readings.
#: Small enough for about ten iterations of each workload in a run.
YEARS = 7.0
SCALE = 0.07

#: ``stream``: events streamed (the start of the log, so every seed
#: streams the same number), out-of-order tolerance, delivery jitter
#: (below the tolerance, so no event is late), share of events delivered
#: twice, micro-batch size and periodic checkpoint interval.
STREAM_EVENTS = 4000
LATENESS_DAYS = 1.0
JITTER_DAYS = 0.5
DUPLICATE_SHARE = 0.01
BATCH_SIZE = 256
CHECKPOINT_EVERY = 1000


@dataclass
class Iteration:
    """What one ``run_once`` measured."""

    seconds: dict[str, float]
    probe: dict[str, float]
    records: int
    attempted: int
    failed: int
    layer: dict[str, float] = field(default_factory=dict)
    batch_ms: list[float] = field(default_factory=list)
    tracer: Tracer | None = None
    roots: dict[str, Span] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Stopwatch:
    """Times the cold and warm operations, and the speed probe around
    each; opens their root spans."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.probe: dict[str, float] = {}
        self.roots: dict[str, Span] = {}

    @contextlib.contextmanager
    def time(self, label: str):
        opened = (
            self.tracer.span(f"e2e.{label}")
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        # Start every timed operation from the same collector state, so a
        # collection owed to an earlier iteration's garbage does not land
        # in this one.
        gc.collect()
        before = probe_seconds()
        with opened as root:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[label] = time.perf_counter() - start
        self.probe[label] = (before + probe_seconds()) / 2
        if self.tracer is not None:
            self.roots[label] = root.record


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points at their callers' names."""

    def system_counts(ds, attrs):
        attrs.update(
            failures=len(ds.failures),
            jobs=len(ds.jobs),
            temperatures=len(ds.temperatures),
        )

    def grid_cells(grid, attrs):
        def cells(node) -> int:
            return sum(map(cells, node)) if isinstance(node, list) else 1

        attrs["cells"] = cells(grid)

    def checkpoint_bytes(info, attrs):
        attrs["bytes"] = info.bytes

    wrap = tracer.wrap
    wrap(sim_cache, "load_cached", "archive_cache.load")
    wrap(sim_cache, "store_cached", "archive_cache.store")
    wrap(sim_cache, "make_archive", "simulate.make_archive")
    wrap(sim_archive, "generate_neutron_series", "simulate.neutrons")
    wrap(sim_archive, "generate_system", "simulate.system", system_counts)
    wrap(sim_archive, "generate_usage", "simulate.usage")
    wrap(sim_archive, "generate_stressors", "simulate.stressors")
    wrap(sim_archive, "simulate_failures", "simulate.failures")
    wrap(sim_archive, "generate_temperatures", "simulate.temperature")
    wrap(cli, "save_archive", "io.save")
    wrap(cli, "load_archive", "io.load")
    wrap(core_report, "profiled_full_report", "core.report")
    tracer.replace(
        core_report,
        "REPORT_SECTIONS",
        tuple(
            (name, _traced_section(tracer, name, render))
            for name, render in core_report.REPORT_SECTIONS
        ),
    )
    wrap(core_cache.AnalysisCache, "events", "core.index")
    wrap(core_cache.AnalysisCache, "conditional_grid", "core.grid", grid_cells)
    wrap(core_cache.AnalysisCache, "baseline_grid", "core.grid", grid_cells)
    wrap(core_downtime, "best_fit", "stats.distfit")
    wrap(core_interarrival, "fit_all", "stats.distfit")
    for module in (core_regression, core_temperature):
        wrap(module, "fit_poisson", "stats.glm")
        wrap(module, "fit_negative_binomial", "stats.glm")
    wrap(stream_analysis.OnlineAnalysis, "process_batch", "stream.process_batch")
    wrap(stream_analysis.OnlineAnalysis, "finalize", "stream.finalize")
    wrap(stream_state.StreamAnalysisState, "ingest", "stream.ingest")
    wrap(stream_state.SystemStreamState, "resolve", "stream.resolve")
    wrap(stream_analysis, "risk_model_from_state", "stream.risk")
    wrap(stream_analysis, "node_risks", "stream.risk")
    wrap(stream_alerts.AlertEngine, "evaluate", "stream.alerts")
    wrap(stream_ingest.BoundedQueue, "get_batch", "stream.queue_wait")
    wrap(stream_state, "write_checkpoint", "stream.checkpoint_write", checkpoint_bytes)
    wrap(stream_state, "load_checkpoint", "stream.restore")


def _traced_section(tracer: Tracer, name: str, render):
    def traced(archive, fig4):
        with tracer.span("report.section", section=name):
            return render(archive, fig4)

    return traced


# ----------------------------------------------------------------------
# helpers


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _tree_files(root: Path, skip: frozenset[str] = frozenset()) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def _tree_digest(files: dict[str, bytes]) -> str:
    hasher = hashlib.sha256()
    for name in sorted(files):
        hasher.update(name.encode())
        hasher.update(hashlib.sha256(files[name]).digest())
    return hasher.hexdigest()


def _csv_rows(files: dict[str, bytes]) -> int:
    """Data rows (lines minus the header) over the CSV files."""
    return sum(
        max(data.count(b"\n") - 1, 0)
        for name, data in files.items()
        if name.endswith(".csv")
    )


class Workload:
    """Base class: a seeded workload with its own scratch directory."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.config = ArchiveConfig(seed=seed, years=YEARS, scale=SCALE)
        self.results: dict[str, object] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute reference outputs (untimed; default: none)."""

    def run_once(self, tracer: Tracer | None) -> Iteration:
        raise NotImplementedError


# ----------------------------------------------------------------------
# generate


class GenerateWorkload(Workload):
    """``hpcfail generate`` into an empty archive cache, then again.

    Cold: cache miss (``make_archive`` + ``store_cached`` +
    ``save_archive``).  Warm: cache hit (``load_cached`` +
    ``save_archive``).
    """

    name = "generate"

    def _cli_generate(self, out: Path, config: ArchiveConfig, cache: Path) -> int:
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        argv = [
            "generate",
            str(out),
            "--seed",
            str(config.seed),
            "--years",
            repr(config.years),
            "--scale",
            repr(config.scale),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self) -> None:
        # Warm-up: a small generation through the same command, so lazy
        # imports and first-call costs are paid before timing.
        scratch = _fresh(self.workdir / "warmup")
        small = ArchiveConfig(seed=self.seed, years=2.0, scale=0.05)
        if self._cli_generate(scratch / "out", small, scratch / "cache") != 0:
            raise RuntimeError("warm-up generation failed")
        shutil.rmtree(scratch)
        self.reference: str | None = None

    def run_once(self, tracer: Tracer | None) -> Iteration:
        base = _fresh(self.workdir / "iteration")
        cache, miss, hit = base / "cache", base / "miss", base / "hit"
        watch = Stopwatch(tracer)
        with watch.time("cold"):
            miss_rc = self._cli_generate(miss, self.config, cache)
        entry = sim_cache.cache_path(self.config, cache)
        stat_miss = entry.stat() if entry.exists() else None
        with watch.time("warm"):
            hit_rc = self._cli_generate(hit, self.config, cache)
        stat_hit = entry.stat() if entry.exists() else None

        problems: list[str] = []
        cold_ok = warm_ok = True
        skip = frozenset({"manifest.json"})
        miss_files = _tree_files(miss, skip) if miss_rc == 0 else {}
        hit_files = _tree_files(hit, skip) if hit_rc == 0 else {}
        if miss_rc != 0 or not miss_files:
            cold_ok = False
            problems.append(f"cache-miss generate exited {miss_rc}")
        if hit_rc != 0 or hit_files != miss_files:
            warm_ok = False
            problems.append("cache-hit archive differs from the cache-miss one")
        if stat_miss is None or stat_hit is None or (
            (stat_miss.st_ino, stat_miss.st_mtime_ns)
            != (stat_hit.st_ino, stat_hit.st_mtime_ns)
        ):
            warm_ok = False
            problems.append("second generate did not hit the archive cache")
        digest = _tree_digest(miss_files)
        if self.reference is None and cold_ok:
            # First iteration: establish the reference and prove a CSV
            # round trip (load + save) reproduces the archive exactly.
            round_trip = base / "round-trip"
            save_archive(load_archive(miss), round_trip)
            if _tree_files(round_trip) != miss_files:
                cold_ok = False
                problems.append("CSV round trip changed the archive")
            self.reference = digest
            self.results["archive_sha256"] = digest
            self.results["io.bytes"] = sum(len(v) for v in miss_files.values())
            self.results["io.rows"] = _csv_rows(miss_files)
            self.results["archive_cache.bytes"] = (
                stat_miss.st_size if stat_miss is not None else 0
            )
        elif digest != self.reference:
            cold_ok = False
            problems.append("generated archive differs between iterations")
        shutil.rmtree(base)
        layer = {
            key: float(self.results.get(key, 0))
            for key in ("io.bytes", "io.rows", "archive_cache.bytes")
        }
        return Iteration(
            seconds=watch.seconds,
            probe=watch.probe,
            records=int(layer["io.rows"]),
            attempted=2,
            failed=(not cold_ok) + (not warm_ok),
            layer=layer,
            tracer=tracer,
            roots=watch.roots,
            problems=problems,
        )


# ----------------------------------------------------------------------
# report


class ReportWorkload(Workload):
    """``hpcfail report <dir>``, then a second report on the same object.

    Cold: ``load_archive`` (CSV read) + serial ``full_report`` on empty
    analysis caches.  Warm: ``full_report`` again with every grid
    memoized.
    """

    name = "report"

    def setup(self) -> None:
        self.archive_dir = self.workdir / "archive"
        self.cache_dir = self.workdir / "cache"
        shutil.rmtree(self.archive_dir, ignore_errors=True)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        archive = sim_archive.make_archive(self.config)
        save_archive(archive, self.archive_dir)
        sim_cache.store_cached(self.config, archive, self.cache_dir)

    def prepare_checks(self) -> None:
        copy = sim_cache.load_cached(self.config, self.cache_dir)
        if copy is None:
            raise RuntimeError("archive cache entry did not load back")
        self.reference, _ = core_report.profiled_full_report(copy)
        self.results["report_sha256"] = hashlib.sha256(
            self.reference.encode()
        ).hexdigest()
        files = _tree_files(self.archive_dir)
        self.layer = {
            "io.bytes": float(sum(len(v) for v in files.values())),
            "io.rows": float(_csv_rows(files)),
        }

    def run_once(self, tracer: Tracer | None) -> Iteration:
        watch = Stopwatch(tracer)
        with watch.time("cold"):
            archive = cli.load_archive(self.archive_dir)
            cold_text, cold = core_report.profiled_full_report(archive)
        with watch.time("warm"):
            warm_text, warm = core_report.profiled_full_report(archive)
        problems = []
        if cold_text != self.reference:
            problems.append("cold report differs from the cache-loaded report")
        if warm_text != self.reference:
            problems.append("warm report differs from the cache-loaded report")
        layer = dict(self.layer)
        for label, profile in (("cold", cold), ("warm", warm)):
            for section, seconds in profile.section_seconds:
                layer[f"report.{label}.{section}_s"] = seconds
            layer[f"core.cache_hits.{label}"] = float(profile.cache_hits)
            layer[f"core.cache_misses.{label}"] = float(profile.cache_misses)
        return Iteration(
            seconds=watch.seconds,
            probe=watch.probe,
            records=int(self.layer["io.rows"]),
            attempted=2,
            failed=len(problems),
            layer=layer,
            tracer=tracer,
            roots=watch.roots,
            problems=problems,
        )


# ----------------------------------------------------------------------
# stream


class _TimedConsumer:
    """Times each ``process_batch`` call of the wrapped consumer."""

    def __init__(self, consumer) -> None:
        self.consumer = consumer
        self.batch_ms: list[float] = []

    def process_batch(self, events):
        start = time.perf_counter()
        stats = self.consumer.process_batch(events)
        self.batch_ms.append((time.perf_counter() - start) * 1e3)
        return stats


def log_prefix(archive: Archive, n_events: int) -> Archive:
    """The archive with its failure logs cut to the first ``n_events``
    events of the merged, time-ordered log (fewer on a tied time)."""
    times = sorted(f.time for ds in archive for f in ds.failures)
    if len(times) <= n_events:
        return archive
    cutoff = times[n_events]
    return Archive(
        (
            dataclasses.replace(
                ds, failures=tuple(f for f in ds.failures if f.time < cutoff)
            )
            for ds in archive
        ),
        neutron_series=archive.neutron_series,
    )


def delivery_order(archive: Archive, seed: int):
    """The archive's failure events in a seeded out-of-order delivery.

    Each event is delayed by a uniform jitter below ``JITTER_DAYS``
    (< ``LATENESS_DAYS``, so none is late), and ``DUPLICATE_SHARE`` of
    the events are delivered a second time, after the original and
    within the same jitter.  Returns ``(deliveries, duplicates)``.
    """
    events = list(stream_ingest.archive_source(archive))
    rng = np.random.default_rng([seed, 2013])
    delay = rng.uniform(0.0, JITTER_DAYS, size=len(events))
    keyed = [(e.time + d, i, e) for i, (e, d) in enumerate(zip(events, delay))]
    n_dup = int(round(DUPLICATE_SHARE * len(events)))
    for i in sorted(rng.choice(len(events), size=n_dup, replace=False).tolist()):
        later = rng.uniform(delay[i], JITTER_DAYS)
        keyed.append((events[i].time + later, len(events) + i, events[i]))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [e for _, _, e in keyed], n_dup


class StreamWorkload(Workload):
    """A closed-loop backfill through ``IngestPipeline``, as ``repro
    stream --lateness 1 --alerts --checkpoint-every 1000`` runs it, of
    the first ``STREAM_EVENTS`` events of the archive's log.

    Cold: pipeline start to ``finalize()`` from an empty state.  Warm:
    a restart -- restore the checkpoint a run killed half-way through
    left behind, re-deliver the whole feed, finalize.
    """

    name = "stream"

    def _consumer(self, state, checkpoint_dir: Path):
        checkpointer = stream_state.Checkpointer(
            checkpoint_dir, every=CHECKPOINT_EVERY
        )
        consumer = stream_analysis.OnlineAnalysis(
            state,
            alert_engine=stream_alerts.AlertEngine.default(),
            checkpointer=checkpointer,
        )
        return consumer, checkpointer

    def _pipeline(self, consumer, max_events=None):
        return stream_ingest.IngestPipeline(
            self.deliveries,
            consumer,
            policy=stream_ingest.BackpressurePolicy.BLOCK,
            batch_size=BATCH_SIZE,
            max_events=max_events,
        )

    def setup(self) -> None:
        self.archive = None
        archive_dir = self.workdir / "archive"
        shutil.rmtree(archive_dir, ignore_errors=True)
        save_archive(sim_archive.make_archive(self.config), archive_dir)
        self.archive = log_prefix(
            stream_cli.load_archive(archive_dir), STREAM_EVENTS
        )
        self.deliveries, self.duplicates = delivery_order(self.archive, self.seed)
        self.stream_config = stream_state.StreamAnalysisConfig(
            lateness_days=LATENESS_DAYS
        )
        # The restart point: a run stopped after half the deliveries
        # (``--max-events``), which writes its checkpoint on the way out.
        self.restart_dir = _fresh(self.workdir / "restart")
        state = stream_state.StreamAnalysisState(self.stream_config)
        state.register_archive(self.archive)
        consumer, checkpointer = self._consumer(state, self.restart_dir)
        self._pipeline(consumer, max_events=len(self.deliveries) // 2).run()
        checkpointer.write(state)
        self.reference: str | None = None

    def run_once(self, tracer: Tracer | None) -> Iteration:
        watch = Stopwatch(tracer)
        base = _fresh(self.workdir / "iteration")
        state = stream_state.StreamAnalysisState(self.stream_config)
        state.register_archive(self.archive)
        consumer, checkpointer = self._consumer(state, base / "cold")
        timed = _TimedConsumer(consumer)
        pipeline = self._pipeline(timed)
        with watch.time("cold"):
            pipeline.run()
            consumer.finalize()
        info = checkpointer.write(state)

        with watch.time("warm"):
            resumed = stream_state.load_checkpoint(
                self.restart_dir, self.stream_config
            )
            resumed.register_archive(self.archive)
            restart, _ = self._consumer(resumed, base / "warm")
            self._pipeline(restart).run()
            restart.finalize()

        problems = []
        cold_ok = True
        digest = state.digest()
        totals = consumer.totals
        expected_accepted = len(self.deliveries) - self.duplicates
        if (totals.accepted, totals.duplicate, totals.late) != (
            expected_accepted,
            self.duplicates,
            0,
        ):
            cold_ok = False
            problems.append(
                f"dispositions accepted={totals.accepted} "
                f"duplicate={totals.duplicate} late={totals.late}, expected "
                f"{expected_accepted}/{self.duplicates}/0"
            )
        if stream_state.load_checkpoint(info.directory).digest() != digest:
            cold_ok = False
            problems.append("restored checkpoint digest differs from live state")
        if self.reference is None:
            # First iteration: prove the state equals the batch analysis;
            # later iterations must reproduce its digest exactly.
            report = verify_equivalence(self.archive, state)
            if report.ok:
                self.reference = digest
                self.results["state_sha256"] = digest
            else:
                cold_ok = False
                problems.append(f"{len(report.mismatches)} stream/batch mismatches")
        elif digest != self.reference:
            cold_ok = False
            problems.append("stream state differs between iterations")
        warm_ok = resumed.digest() == digest
        if not warm_ok:
            problems.append("restarted stream state differs from the live one")
        shutil.rmtree(base)
        return Iteration(
            seconds=watch.seconds,
            probe=watch.probe,
            records=totals.accepted,
            attempted=2,
            failed=(not cold_ok) + (not warm_ok),
            layer={
                "stream.accepted": float(totals.accepted),
                "stream.duplicate": float(totals.duplicate),
                "stream.late": float(totals.late),
            },
            batch_ms=timed.batch_ms,
            tracer=tracer,
            roots=watch.roots,
            problems=problems,
        )


WORKLOADS = {
    cls.name: cls for cls in (GenerateWorkload, ReportWorkload, StreamWorkload)
}
