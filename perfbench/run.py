#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload report --seed 46 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, read from spans the benchmark records around each
layer's entry points (see ``tracer.py`` and ``workloads.py``).  Metric
names and units come from ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, and for traced runs every span as JSONL, are
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Iterations per run at least, even past ``--seconds``.
MIN_ITERATIONS = 3
#: Untraced and traced iterations per ``--trace 1`` run at least.
MIN_TRACED = 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("generate", "report", "stream")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure(workload, seconds: int, trace: bool) -> dict:
    """Set up, then iterate for ``seconds``; returns the raw results."""
    from tracer import Tracer
    from workloads import Stopwatch, install_layer_wrappers

    setups = []
    for _ in range(SETUP_REPEATS):
        watch = Stopwatch(None)
        with watch.time("setup"):
            workload.setup()
        setups.append((watch.seconds["setup"], watch.probe["setup"]))
    workload.prepare_checks()

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if not trace:
            if len(plain) >= MIN_ITERATIONS and time.perf_counter() >= deadline:
                break
            plain.append(workload.run_once(None))
            continue
        if (
            min(len(plain), len(traced)) >= MIN_TRACED
            and time.perf_counter() >= deadline
        ):
            break
        plain.append(workload.run_once(None))
        tracer = Tracer()
        install_layer_wrappers(tracer)
        try:
            traced.append(workload.run_once(tracer))
        finally:
            tracer.unwrap_all()
    return {"setup": setups, "plain": plain, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One process, serial: no BLAS thread pools, and the program's own
    # telemetry stays off whatever the environment says.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_TELEMETRY", "REPRO_TRACE_FILE"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    from metrics import end_to_end_metrics, per_layer_metrics, select
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        raw = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = raw["plain"] + raw["traced"]
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    if args.trace:
        metrics = select(per_layer_metrics(raw), spec["per_layer"])
    else:
        metrics = select(end_to_end_metrics(raw), spec["end_to_end"])

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for i, it in enumerate(raw["traced"]):
        it.tracer.write_jsonl(out_dir / f"{stem}-iter{i}.spans.jsonl")
    problems = [p for it in iterations for p in it.problems]
    (out_dir / f"{stem}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "setup": [
                    {"seconds": wall, "probe": probe}
                    for wall, probe in raw["setup"]
                ],
                "iterations": [
                    {
                        "traced": it.tracer is not None,
                        "seconds": it.seconds,
                        "probe": it.probe,
                        "records": it.records,
                        "failed": it.failed,
                    }
                    for it in iterations
                ],
                "checks": workload.results,
                "problems": problems,
                "metrics": metrics,
            },
            indent=1,
            sort_keys=True,
        )
    )

    for key, value in sorted(workload.results.items()):
        print(f"{key}: {value}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    for name, metric in metrics.items():
        print(f"{name:<40s} {metric['value']:>16.6g} {metric['unit']}")
    plain = raw["plain"]
    print(
        "wall-clock medians: "
        + ", ".join(
            f"{label} {statistics.median(it.seconds[label] for it in plain):.4f} s"
            for label in ("cold", "warm")
        )
        + f"; speed probe {statistics.median(it.probe['cold'] for it in plain) * 1e3:.2f} ms"
    )
    print(f"operations attempted {attempted}, failed {failed}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
