#!/usr/bin/env python
"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload stream-4view --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Their times are scaled by the host's speed, measured in the same run
with a fixed calibration unit (see ``perfbench/calibrate.py``), so they
read as on a reference host; the wall-clock figures are printed too.
``--trace 1`` runs the loop twice on the same inputs, for half the time
each: once untraced, once with spans around every layer's entry points.
It reports the per-layer metrics of the traced half and the tracing
overhead (the difference of the two halves' p50 latencies), and writes
the spans to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
answers disagree with recomputation prints ``correct: false`` with no
metrics and exits 1.  See ``perfbench/README.md`` for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stream-4view", "serve-mixed", "journal-sharded")
#: Every number must measure the defaults, so these knobs must be unset.
REFUSED_ENV = ("REPRO_ENGINE_EXECUTOR", "REPRO_WINDOW_SIZE")
#: Set-up is short, so one sample mostly measures the shared machine's
#: state at that instant: repeat it at least this often and for at
#: least this long in total, and report the median.
SETUP_REPEATS = 9
REPEAT_SECONDS = 3.0
#: Recovery is timed this often; its median is printed, not gated.
RECOVER_REPEATS = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def emit(text: str = "") -> None:
    print(text, flush=True)


def _result_line(correct: bool, result, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": sum(result.attempted.values()),
            "failed": sum(result.failed.values()),
            "metrics": metrics,
        }
    )


def _setup(workload, data, workdir: Path, tracer=None) -> tuple[object, float]:
    started = time.perf_counter()
    dep = workload.setup(data, Path(tempfile.mkdtemp(dir=workdir)), tracer)
    return dep, time.perf_counter() - started


def _repeat_setup(workload, data, workdir: Path, speed, times: list[float]):
    """Set up at least ``SETUP_REPEATS // 2 + 1`` times and for at least
    ``REPEAT_SECONDS / 2`` of wall time, each between two calibration
    points; append each duration, scaled by the slowdown the two points
    measured, to ``times``.  Return the last deployment, the others
    closed."""
    from perfbench.calibrate import SETUP_UNITS

    dep = None
    wall = 0.0
    started = len(times)
    while len(times) - started <= SETUP_REPEATS // 2 or wall < REPEAT_SECONDS / 2:
        if dep is not None:
            dep.close()
            gc.collect()  # free the closed deployment before timing the next
        first = len(speed.seconds)
        speed.point(SETUP_UNITS)
        dep, elapsed = _setup(workload, data, workdir)
        speed.point(SETUP_UNITS)
        wall += elapsed
        times.append(elapsed / speed.slowdown(first))
    return dep


def _report_loop(label: str, result) -> None:
    attempts = ", ".join(
        f"{kind} {result.attempted[kind]} ({result.failed[kind]} failed)"
        for kind in sorted(result.attempted)
    )
    emit(
        f"{label}: {result.wall:.2f}s wall, {len(result.applied)} batches, "
        f"{result.updates} updates, {result.reads} reads; attempted: {attempts}"
    )
    for error, count in sorted(result.errors.items()):
        emit(f"  failed {error}: {count}")
    if result.exhausted:
        # A faster program outran the generated stream: the figures
        # cover a shorter loop than asked for.
        warning = (
            f"WARNING: {label} ran out of input after {result.wall:.2f}s; "
            "raise batches_per_second in perfbench/workloads.py"
        )
        emit(warning)
        print(warning, file=sys.stderr)


def _check(workload, dep, data, result) -> list[str]:
    started = time.perf_counter()
    problems = workload.check(dep, data, result)
    for problem in problems:
        emit(f"ORACLE MISMATCH: {problem}")
    emit(
        f"oracle: {len(problems)} mismatches, "
        f"checked in {time.perf_counter() - started:.1f}s"
    )
    return problems


def _recover(workload, data, workdir: Path, repeats: int):
    if not workload.recovery_batches:
        emit("recovery: none, the workload keeps no store")
        return [], None, []
    gc.collect()
    started = time.perf_counter()
    times, load_report, problems = workload.recover(
        data, Path(tempfile.mkdtemp(dir=workdir)), repeats
    )
    for problem in problems:
        emit(f"RECOVERY MISMATCH: {problem}")
    emit(
        f"recovery fixture: {workload.recovery_batches} batches, "
        f"{load_report.entries_replayed} replayed, {len(problems)} mismatches, "
        f"built and loaded {len(times)}x in {time.perf_counter() - started:.1f}s"
    )
    return times, load_report, problems


def run(args, workdir: Path) -> int:
    from perfbench import report
    from perfbench.calibrate import HostSpeed
    from perfbench.trace import Tracer
    from perfbench.workloads import (
        WORKLOADS,
        instrument,
        log_bytes,
        peak_rss_mb,
        probe_fsync_us,
        snapshot_bytes,
    )

    workload = WORKLOADS[args.workload]
    fsync_us = probe_fsync_us(workdir)
    started = time.perf_counter()
    data = workload.make_input(args.seed, args.seconds)
    emit(
        f"workload {workload.name} (seed {args.seed}): {workload.why}\n"
        f"inputs: |V|={data.graph.num_nodes} |E|={data.graph.num_edges}, "
        f"{len(data.batches)} batches / {data.num_updates} updates"
        + (f", {len(data.schedule)} scheduled ops" if data.schedule else "")
        + f", generated in {time.perf_counter() - started:.1f}s"
    )
    emit(
        f"environment: python {platform.python_version()}, "
        f"nproc {os.cpu_count()}, fsync {fsync_us:.0f} us, "
        f"trace {args.trace}, {args.seconds:g}s measured"
    )
    # The inputs live for the whole run; keep the collector from
    # traversing them, so its pauses reflect the program's own heap.
    gc.collect()
    gc.freeze()
    inputs_rss_mb = peak_rss_mb()

    if args.trace == 0:
        # Half the set-ups run before the loop (the last one serves it)
        # and half after, so the median spans two moments of the machine.
        speed = HostSpeed()
        setup_seconds: list[float] = []
        dep = _repeat_setup(workload, data, workdir, speed, setup_seconds)
        result = workload.drive(dep, data, args.seconds, speed=speed)
        _report_loop("loop", result)
        problems = _check(workload, dep, data, result)
        dep.close()
        _repeat_setup(workload, data, workdir, speed, setup_seconds).close()
        recover_seconds, _, recovery_problems = _recover(
            workload, data, workdir, RECOVER_REPEATS
        )
        problems += recovery_problems
        if problems:
            emit(_result_line(False, result, {}))
            return 1
        metrics = report.end_to_end(result, setup_seconds, recover_seconds, speed)
        units = report.END_TO_END
        slowdowns = sorted(report.segment_slowdowns(result, speed))
        emit(
            f"host slowdown over {len(slowdowns)} loop segments: "
            f"min {slowdowns[0]:.3f}, median {statistics.median(slowdowns):.3f}, "
            f"max {slowdowns[-1]:.3f}; {len(speed.seconds)} calibration units in all"
        )
        emit(
            "wall clock, not scaled: "
            + ", ".join(
                f"{name} {value:.4f}" for name, value in report.loop_metrics(result).items()
            )
        )
        emit(
            f"samples: {len(result.apply_seconds)} applies, "
            f"{len(result.read_seconds)} reads\n"
            f"setups (s, scaled): {' '.join(f'{value:.4f}' for value in setup_seconds)}"
        )
        if recover_seconds:
            emit(f"recoveries (s): {' '.join(f'{value:.4f}' for value in recover_seconds)}")
        emit(
            f"peak rss: {result.rss_mb:.1f} MB after {result.rss_batches} batches; "
            f"{inputs_rss_mb:.1f} MB before set-up, with the inputs made; "
            f"difference {result.rss_mb - inputs_rss_mb:.1f} MB"
        )
    else:
        half = args.seconds / 2
        dep, _ = _setup(workload, data, workdir)
        untraced = workload.drive(dep, data, half)
        _report_loop("untraced half", untraced)
        problems = _check(workload, dep, data, untraced)
        dep.close()

        tracer = Tracer()
        dep, _ = _setup(workload, data, workdir, tracer)
        instrument(dep, tracer)
        routing_before = {
            name: (stats.batches_routed, stats.batches_skipped)
            for name, stats in dep.engine.routing_stats().items()
        }
        cache_before = dep.repo.cache_stats()
        log_before = log_bytes(dep.store)
        result = workload.drive(dep, data, half, tracer)
        tracer.unwrap()
        _report_loop("traced half", result)
        cache_after = dep.repo.cache_stats()
        routing = {
            name: (
                stats.batches_routed - routing_before[name][0],
                stats.batches_skipped - routing_before[name][1],
            )
            for name, stats in dep.engine.routing_stats().items()
        }
        disk = {
            "log_bytes_per_update": report.ratio(
                log_bytes(dep.store) - log_before, result.updates
            ),
            "snapshot_bytes": snapshot_bytes(dep.store),
        }
        problems += _check(workload, dep, data, result)
        dep.close()
        _, load_report, recovery_problems = _recover(workload, data, workdir, 1)
        problems += recovery_problems
        if problems:
            emit(_result_line(False, result, {}))
            return 1
        metrics = report.per_layer(
            tracer,
            result,
            untraced,
            routing,
            (
                cache_after.hits - cache_before.hits,
                cache_after.misses - cache_before.misses,
                cache_after.frozen - cache_before.frozen,
            ),
            disk,
            load_report,
        )
        units = report.PER_LAYER
        spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        emit(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    printed = units if args.trace else {**units, **report.REPORTED_ONLY}
    for name, unit in printed.items():
        if name in metrics:
            emit(f"  {name:<32} {metrics[name]:>16.6f} {unit}")
    emit(
        _result_line(
            True,
            result,
            {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        )
    )
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(
            f"refusing to run: {', '.join(refused)} set; every number must "
            "measure the defaults",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
