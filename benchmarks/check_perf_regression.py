#!/usr/bin/env python
"""Fail CI when the memoized report path regresses against the baseline.

Compares a fresh ``bench_perf.py --smoke`` measurement against the
committed smoke baseline (``BENCH_PERF_SMOKE.json``).  Guarded timings
must stay within ``--factor`` (default 2x) of their baseline:

* ``report_warm_s`` -- the fully memoized ``full_report`` run, the
  headline win of the analysis-cache work;
* ``telemetry_noop_s`` -- the disabled-telemetry fast path (100k
  span+counter pairs), so instrumentation that stops being free when
  switched off fails the build;
* ``checkpoint_roundtrip_s`` -- one streaming-state checkpoint write +
  restore round trip;
* ``csv_load_s`` -- ``load_archive`` of the archive saved as CSV files
  (the column readers for job and temperature logs).

Guarded *rates* are lower-bounded at baseline / ``--factor``:

* ``stream_ingest_eps`` -- streaming events/second through the online
  analysis consumer over a full archive replay.

A small absolute slack absorbs timer noise on very fast runs so
sub-100ms jitter cannot flap the build.

Run from the repository root::

    python benchmarks/bench_perf.py --smoke -o /tmp/bench_smoke.json
    python benchmarks/check_perf_regression.py /tmp/bench_smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Timings guarded against regression (all from the smoke configuration).
GUARDED = (
    "report_warm_s",
    "telemetry_noop_s",
    "checkpoint_roundtrip_s",
    "csv_load_s",
)

#: Derived rates guarded against regression (higher is better, so the
#: bound is a floor at baseline / factor rather than a ceiling).
RATE_GUARDED = ("stream_ingest_eps",)


def check(
    current: dict, baseline: dict, factor: float, slack_s: float
) -> list[str]:
    """Return a list of human-readable regression messages (empty = pass)."""
    problems = []
    if current.get("config") != baseline.get("config"):
        problems.append(
            f"config mismatch: current {current.get('config')} vs "
            f"baseline {baseline.get('config')} -- regenerate the baseline"
        )
        return problems
    for key in GUARDED:
        base = baseline["timings_s"].get(key)
        cur = current["timings_s"].get(key)
        if base is None or cur is None:
            problems.append(f"{key}: missing from {'baseline' if base is None else 'current run'}")
            continue
        limit = base * factor + slack_s
        if cur > limit:
            problems.append(
                f"{key}: {cur:.4f}s exceeds {limit:.4f}s "
                f"(baseline {base:.4f}s x {factor:g} + {slack_s:g}s slack)"
            )
    for key in RATE_GUARDED:
        base = baseline.get("derived", {}).get(key)
        cur = current.get("derived", {}).get(key)
        if base is None or cur is None:
            problems.append(f"{key}: missing from {'baseline' if base is None else 'current run'}")
            continue
        floor = base / factor
        if cur < floor:
            problems.append(
                f"{key}: {cur:.0f}/s below {floor:.0f}/s "
                f"(baseline {base:.0f}/s / {factor:g})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current", type=Path, help="JSON written by a fresh bench_perf.py run"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_PERF_SMOKE.json",
        help="committed baseline JSON (default: repo root smoke baseline)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum allowed slowdown factor vs the baseline (default 2.0)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.05,
        help="absolute slack in seconds added to every limit (default 0.05)",
    )
    args = parser.parse_args(argv)
    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    problems = check(current, baseline, args.factor, args.slack)
    if problems:
        for p in problems:
            print(f"PERF REGRESSION: {p}", file=sys.stderr)
        return 1
    for key in GUARDED:
        print(
            f"{key}: {current['timings_s'][key]:.4f}s "
            f"(baseline {baseline['timings_s'][key]:.4f}s) OK"
        )
    for key in RATE_GUARDED:
        print(
            f"{key}: {current['derived'][key]:.0f}/s "
            f"(baseline {baseline['derived'][key]:.0f}/s) OK"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
