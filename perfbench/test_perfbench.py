"""Self-checks of the benchmark's tracer, accounting and oracle.

Each workload runs a tiny instance (a handful of batches) with every
layer wrapped, and the recorded spans are checked against what the
driver actually issued.

Run:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import pytest

from perfbench import report, run
from perfbench.calibrate import REFERENCE_UNIT_SECONDS, HostSpeed
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS, LoopResult, instrument

#: Batches (serve-mixed: write cycles of 49 reads + 1 write) per tiny run.
TINY = {"stream-4view": 12, "serve-mixed": 6, "journal-sharded": 40}
READ_SPANS = ("serving.read_latest", "serving.session_read")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    data = workload.generate(7, TINY[workload.name])
    tracer = Tracer()
    dep = workload.setup(data, tmp_path_factory.mktemp(workload.name), tracer)
    instrument(dep, tracer)
    result = workload.drive(dep, data, seconds=60.0, tracer=tracer)
    tracer.unwrap()
    problems = workload.check(dep, data, result)
    yield workload, data, tracer, result, problems
    dep.close()


def test_child_spans_lie_inside_their_parent(traced_run):
    _, _, tracer, _, _ = traced_run
    assert tracer.spans
    for span in tracer.spans:
        assert span.end >= span.start
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    for name in {span.name for span in tracer.spans}:
        assert min(tracer.self_times(name)) >= 0.0


def test_view_absorbs_fit_inside_dispatch(traced_run):
    _, _, tracer, result, _ = traced_run
    dispatches = tracer.named("engine.dispatch")
    assert len(dispatches) == len(result.view_reports) > 0
    for span, views in zip(dispatches, result.view_reports):
        assert sum(wall for wall, _, _ in views.values()) <= span.duration


def test_span_counts_equal_issued_operations(traced_run):
    workload, data, tracer, result, _ = traced_run
    assert not result.failed
    assert len(result.applied) == len(data.batches)
    assert len(tracer.named("serving.apply")) == result.attempted["apply"]
    assert len(tracer.named("engine.apply")) == result.attempted["apply"]
    journaled = result.attempted["apply"] if workload.recovery_batches else 0
    assert len(tracer.named("persist.append")) == journaled
    assert (
        len(tracer.named("serving.session_open"))
        == result.attempted["session_open"]
    )
    reads = [span for span in tracer.spans if span.name in READ_SPANS]
    assert len(reads) == result.attempted["read"] == len(result.read_hits)
    assert all(span.parent == -1 for span in reads)


def test_a_run_past_its_input_is_flagged(traced_run):
    # The tiny inputs end long before the 60 s clock, and before the
    # batch count at which peak RSS is due, so it is read at the end.
    _, data, _, result, _ = traced_run
    assert result.exhausted
    assert result.rss_batches == len(data.batches)
    assert result.rss_mb > 0


def test_oracle_accepts_the_run_and_rejects_a_lost_batch(traced_run):
    workload, data, _, result, problems = traced_run
    assert problems == []
    result.applied.pop()
    try:
        assert workload.reference_graph(data, result.applied) != (
            workload.reference_graph(data, result.applied + [len(data.batches) - 1])
        )
    finally:
        result.applied.append(len(data.batches) - 1)


def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        first = workload.generate(3, 5)
        again = workload.generate(3, 5)
        assert first.graph == again.graph
        assert [list(batch) for batch in first.batches] == [
            list(batch) for batch in again.batches
        ]
        assert first.schedule == again.schedule


@pytest.mark.parametrize("variable", run.REFUSED_ENV)
def test_refuses_non_default_knobs(monkeypatch, capsys, variable):
    monkeypatch.setenv(variable, "serial")
    argv = ["--workload", "stream-4view", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    assert variable in capsys.readouterr().err


def test_loop_metrics_scale_by_each_segments_slowdown():
    # Two segments: the host runs at the reference speed in the first and
    # at half of it in the second.  Each segment holds one calibration
    # unit, one apply of 2 updates and one read.
    width = report.SEGMENT_SECONDS
    unit = REFERENCE_UNIT_SECONDS
    speed = HostSpeed()
    speed.ends = speed.point_ends = [0.1 * width, 1.1 * width]
    speed.seconds = [unit, 2 * unit]
    speed.point_seconds = [2 * unit, 4 * unit]
    result = LoopResult(started=0.0, wall=2 * width)
    result.record_apply(0, 2, 0.4 * width - 0.004, 0.4 * width)
    result.record_apply(1, 2, 1.4 * width - 0.008, 1.4 * width)
    result.read_seconds = [0.002, 0.004]
    result.read_ends = [0.5 * width, 1.5 * width]
    assert report.segment_slowdowns(result, speed) == [1.0, 2.0]
    metrics = report.loop_metrics(result, speed)
    assert metrics["apply_p50_ms"] == pytest.approx(4.0)
    assert metrics["apply_p99_ms"] == pytest.approx(4.0)
    assert metrics["read_p50_ms"] == pytest.approx(2.0)
    # The loop's time, calibration left out, counts the slow segment half.
    busy = (width - 2 * unit) + (width - 4 * unit) / 2
    assert metrics["updates_per_s"] == pytest.approx(4 / busy)
    assert metrics["reads_per_s"] == pytest.approx(2 / busy)
    assert report.loop_metrics(result)["updates_per_s"] == pytest.approx(4 / (2 * width))
