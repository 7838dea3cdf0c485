"""Turn loop results and spans into the named metrics.

``END_TO_END`` and ``PER_LAYER`` are the metric names and units
``BENCHMARK.json`` lists; a run prints exactly one of the two sets.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable
from typing import Optional

from perfbench.calibrate import HostSpeed
from perfbench.trace import Tracer
from perfbench.workloads import LoopResult

END_TO_END = {
    "setup_s": "s",
    "apply_p50_ms": "ms",
    "apply_p99_ms": "ms",
    "updates_per_s": "1/s",
    "read_p50_ms": "ms",
    "reads_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end metrics but left out of the result line.
#: Read p99 and recovery time (a ~0.1 s restore on stream-4view) swing
#: by a third to a half between runs on a shared 2-core host, more than
#: any bound a regression gate could use; the failure ratio is 0 on a
#: healthy run.
REPORTED_ONLY = {"read_p99_ms": "ms", "recover_s": "s", "failed_ops_ratio": "ratio"}

#: Views named in per-layer metrics, by the name each workload
#: registers them under.
LAYER_VIEWS = ("kws", "rpq", "scc", "iso", "dataflow")

PER_LAYER = {
    **{
        f"{view}.{metric}": unit
        for view in LAYER_VIEWS
        for metric, unit in (
            ("absorb_ms", "ms"),
            ("absorb_share", "ratio"),
            ("cost", "count"),
            ("cost_per_ms", "count/ms"),
        )
    },
    "engine.apply_ms": "ms",
    "engine.route_ms": "ms",
    "engine.dispatch_ms": "ms",
    "engine.self_ms": "ms",
    **{f"engine.skip_ratio.{view}": "ratio" for view in LAYER_VIEWS},
    "persist.append_ms": "ms",
    "persist.append_share": "ratio",
    "persist.save_ms": "ms",
    "persist.log_bytes_per_update": "B",
    "persist.snapshot_bytes": "B",
    "persist.restore_s": "s",
    "persist.replay_s": "s",
    "persist.entries_replayed": "count",
    "graph.bulk_load_s": "s",
    "serving.write_overhead_ms": "ms",
    "serving.hit_ratio": "ratio",
    "serving.frozen": "count",
    "serving.hit_ms": "ms",
    "serving.miss_ms": "ms",
    "serving.session_open_ms": "ms",
    "trace.apply_p50_overhead_ms": "ms",
    "trace.read_p50_overhead_ms": "ms",
    "ops.failed_ratio": "ratio",
}


def percentile_ms(seconds: list[float], fraction: float) -> float:
    """Nearest-rank percentile of second-valued samples, in ms."""
    if not seconds:
        return 0.0
    ordered = sorted(seconds)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1] * 1e3


def median_ms(seconds: Iterable[float]) -> float:
    values = list(seconds)
    return statistics.median(values) * 1e3 if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def failed_ratio(result: LoopResult) -> float:
    return ratio(sum(result.failed.values()), sum(result.attempted.values()))


#: The loop is cut into segments this long; each op's latency is scaled
#: by the host's slowdown over the segment it ended in.  The host's
#: speed flips within a few seconds, so a segment must be shorter.
SEGMENT_SECONDS = 0.25


#: apply_p99 is the median of the p99s of up to this many windows of
#: consecutive applies...
P99_WINDOWS = 10
#: ...each holding at least this many, so each window's p99 has ten
#: samples beyond it.  A disk slow spell then moves few windows.
MIN_WINDOW_APPLIES = 1000


def windowed_p99_ms(seconds: list[float]) -> float:
    """Median over windows of consecutive samples of each window's p99."""
    count = min(P99_WINDOWS, max(1, len(seconds) // MIN_WINDOW_APPLIES))
    size = len(seconds) // count
    return statistics.median(
        percentile_ms(seconds[index * size : (index + 1) * size], 0.99)
        for index in range(count)
    )


def segment_slowdowns(result: LoopResult, speed: HostSpeed) -> list[float]:
    """The host's slowdown over each segment of the loop: the median of
    the calibration units timed in it, or over the whole loop for a
    segment that holds none (one long operation)."""
    end = result.started + result.wall
    overall = speed.slowdown(*speed.between(result.started, end))
    slowdowns = []
    for index in range(max(1, math.ceil(result.wall / SEGMENT_SECONDS))):
        low = result.started + index * SEGMENT_SECONDS
        first, last = speed.between(low, min(low + SEGMENT_SECONDS, end))
        slowdowns.append(speed.slowdown(first, last) if last > first else overall)
    return slowdowns


def loop_metrics(
    result: LoopResult, speed: Optional[HostSpeed] = None
) -> dict[str, float]:
    """Latency and rate metrics of one loop, over all its operations.

    With ``speed``, each latency is divided by the host's slowdown over
    its segment, and each rate counts the loop's time the same way, so
    that a second at slowdown 2 counts as half a second; the time spent
    on calibration units is left out of the loop's time."""
    if speed is None:
        scale = [1.0]
        busy = result.wall
    else:
        scale = segment_slowdowns(result, speed)
        busy = 0.0
        for index, slowdown in enumerate(scale):
            low = result.started + index * SEGMENT_SECONDS
            high = min(low + SEGMENT_SECONDS, result.started + result.wall)
            busy += (high - low - speed.spent(low, high)) / slowdown
    last_segment = len(scale) - 1
    started = result.started

    def scaled(seconds: list[float], ends: list[float]) -> list[float]:
        return [
            value / scale[min(last_segment, int((end - started) / SEGMENT_SECONDS))]
            for value, end in zip(seconds, ends)
        ]

    applies = scaled(result.apply_seconds, result.apply_ends)
    reads = scaled(result.read_seconds, result.read_ends)
    return {
        "apply_p50_ms": percentile_ms(applies, 0.50),
        "apply_p99_ms": windowed_p99_ms(applies),
        "updates_per_s": result.updates / busy,
        "read_p50_ms": percentile_ms(reads, 0.50),
        "read_p99_ms": percentile_ms(reads, 0.99),
        "reads_per_s": len(reads) / busy,
    }


def end_to_end(
    result: LoopResult,
    setup_seconds: list[float],
    recover_seconds: list[float],
    speed: HostSpeed,
) -> dict[str, float]:
    """The end-to-end metrics of one loop, its times scaled by ``speed``;
    ``setup_seconds`` and ``recover_seconds`` hold one figure per set-up
    and recovery, as they are to be reported."""
    metrics = {"setup_s": statistics.median(setup_seconds)}
    metrics.update(loop_metrics(result, speed))
    if recover_seconds:
        metrics["recover_s"] = statistics.median(recover_seconds)
    metrics["peak_rss_mb"] = result.rss_mb
    metrics["failed_ops_ratio"] = failed_ratio(result)
    return metrics


def per_layer(
    tracer: Tracer,
    traced: LoopResult,
    untraced: LoopResult,
    routing: dict[str, tuple[int, int]],
    cache: tuple[int, int, int],
    disk: dict[str, float],
    load_report,
) -> dict[str, float]:
    """The per-layer metrics of one traced loop.

    ``routing`` maps each view to its loop deltas of (batches routed,
    batches skipped); ``cache`` holds the loop deltas of the cache's
    (hits, misses, frozen) counters; ``disk`` holds the log growth per
    update and the snapshot size; ``load_report`` is the store's
    :class:`~repro.persist.snapshot.LoadReport` for the recovery, or
    ``None`` for a workload without a store."""
    metrics: dict[str, float] = {}
    write_seconds = sum(span.duration for span in tracer.named("serving.apply"))
    for view in LAYER_VIEWS:
        walls = [
            report[view][0]
            for report in traced.view_reports
            if view in report and not report[view][2]
        ]
        cost = sum(report[view][1] for report in traced.view_reports if view in report)
        metrics[f"{view}.absorb_ms"] = median_ms(walls)
        metrics[f"{view}.absorb_share"] = ratio(sum(walls), write_seconds)
        metrics[f"{view}.cost"] = cost
        metrics[f"{view}.cost_per_ms"] = ratio(cost, sum(walls) * 1e3)
        routed, skipped = routing.get(view, (0, 0))
        metrics[f"engine.skip_ratio.{view}"] = ratio(skipped, routed + skipped)

    def spans_ms(name: str) -> float:
        return median_ms(span.duration for span in tracer.named(name))

    metrics["engine.apply_ms"] = spans_ms("engine.apply")
    metrics["engine.route_ms"] = spans_ms("engine.route")
    metrics["engine.dispatch_ms"] = spans_ms("engine.dispatch")
    metrics["engine.self_ms"] = median_ms(tracer.self_times("engine.apply"))
    appends = [span.duration for span in tracer.named("persist.append")]
    metrics["persist.append_ms"] = median_ms(appends)
    metrics["persist.append_share"] = ratio(sum(appends), write_seconds)
    metrics["persist.save_ms"] = spans_ms("persist.save")
    metrics["persist.log_bytes_per_update"] = disk["log_bytes_per_update"]
    metrics["persist.snapshot_bytes"] = disk["snapshot_bytes"]
    if load_report is not None:
        metrics["persist.restore_s"] = load_report.restore_seconds
        metrics["persist.replay_s"] = load_report.replay_seconds
        metrics["persist.entries_replayed"] = load_report.entries_replayed
    else:
        metrics["persist.restore_s"] = metrics["persist.replay_s"] = 0.0
        metrics["persist.entries_replayed"] = 0
    metrics["graph.bulk_load_s"] = spans_ms("graph.bulk_load") / 1e3
    metrics["serving.write_overhead_ms"] = median_ms(
        tracer.self_times("serving.apply")
    )
    hits, misses, frozen = cache
    metrics["serving.hit_ratio"] = ratio(hits, hits + misses)
    metrics["serving.frozen"] = frozen
    reads = [
        span
        for span in tracer.spans
        if span.name in ("serving.read_latest", "serving.session_read")
    ]
    metrics["serving.hit_ms"] = median_ms(
        span.duration for span, hit in zip(reads, traced.read_hits) if hit is True
    )
    metrics["serving.miss_ms"] = median_ms(
        span.duration for span, hit in zip(reads, traced.read_hits) if hit is False
    )
    metrics["serving.session_open_ms"] = spans_ms("serving.session_open")
    metrics["trace.apply_p50_overhead_ms"] = percentile_ms(
        traced.apply_seconds, 0.5
    ) - percentile_ms(untraced.apply_seconds, 0.5)
    metrics["trace.read_p50_overhead_ms"] = percentile_ms(
        traced.read_seconds, 0.5
    ) - percentile_ms(untraced.read_seconds, 0.5)
    metrics["ops.failed_ratio"] = failed_ratio(traced)
    return metrics
