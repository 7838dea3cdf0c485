"""The three benchmark workloads: set-up, driver loop and answer oracle.

Each workload builds a served :class:`~repro.Repository` through the
public API, drives one closed loop (one thread: the next operation is
issued when the previous one returns) until the clock runs out, and
then checks every answer against a from-scratch recomputation and the
recovered store against the live engine.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro import (
    DataflowView,
    DiGraph,
    Engine,
    EngineError,
    InvalidDeltaError,
    Repository,
    ServingError,
    ShardedGraphStore,
    ShardMap,
    SnapshotPolicy,
    SnapshotStore,
)
from repro.iso import ISOIndex, vf2_matches
from repro.kws import KWSIndex, batch_kws
from repro.rpq import RPQIndex, rpq_nfa
from repro.scc import SCCIndex, tarjan_scc
from repro.serving.repository import (
    RepositoryPoisonedError,
    default_queries,
    freeze_answer,
)

from perfbench import inputs
from perfbench.calibrate import POINT_INTERVAL_SECONDS, HostSpeed
from perfbench.inputs import WorkloadInput
from perfbench.trace import Tracer

#: Errors the program raises on purpose.  An operation that raises one
#: counts as failed; anything else (or a poisoned repository) aborts.
TYPED_ERRORS = (ServingError, InvalidDeltaError, EngineError)


class AbortRun(RuntimeError):
    """The run cannot report numbers: poisoned repository, or an error
    the program does not raise on purpose."""


@dataclass(frozen=True)
class ViewSpec:
    """One served view: how to build it, its standing query, and how to
    recompute that query's answer from scratch."""

    name: str
    query: str
    factory: Callable[[Any, Any], Any]
    reference: Callable[[DiGraph], Any]


def _kws(query) -> tuple[Callable, Callable]:
    return (
        lambda g, m: KWSIndex(g, query, meter=m),
        lambda g: frozenset(batch_kws(g, query)),
    )


def _rpq(regex: str) -> tuple[Callable, Callable]:
    return (
        lambda g, m: RPQIndex(g, regex, meter=m),
        lambda g: rpq_nfa(g, regex).matches,
    )


SCC = (lambda g, m: SCCIndex(g, meter=m), lambda g: tarjan_scc(g).partition())
ISO = (
    lambda g, m: ISOIndex(g, inputs.ISO_PATTERN, meter=m),
    lambda g: vf2_matches(g, inputs.ISO_PATTERN),
)
EDGE_LABEL_COUNT = (
    lambda g, m: DataflowView(g, "edge-label-count", meter=m),
    lambda g: DataflowView(g.copy(), "edge-label-count").value(),
)


@dataclass
class Deployment:
    """A served repository and the store journaling it, if any."""

    repo: Repository
    engine: Engine
    store: Optional[SnapshotStore]
    root: Path

    def close(self) -> None:
        self.repo.close()
        shutil.rmtree(self.root, ignore_errors=True)


@dataclass
class LoopResult:
    """What one timed driver loop did."""

    #: perf_counter at the loop's start, and its duration.
    started: float = 0.0
    wall: float = 0.0
    #: Per successful apply / read: latency, completion time, and (for
    #: applies) unit updates.
    apply_seconds: list[float] = field(default_factory=list)
    apply_ends: list[float] = field(default_factory=list)
    apply_sizes: list[int] = field(default_factory=list)
    read_seconds: list[float] = field(default_factory=list)
    read_ends: list[float] = field(default_factory=list)
    #: Per read span, was it a cache hit (``None``: the read failed)?
    #: Traced loops only.
    read_hits: list[bool] = field(default_factory=list)
    #: Per applied batch, ``{view: (wall_seconds, cost, skipped)}``.
    #: Traced loops only.
    view_reports: list[dict] = field(default_factory=list)
    #: Indexes of the input batches applied, in order, and their updates.
    applied: list[int] = field(default_factory=list)
    updates: int = 0
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    #: serve-mixed: ``(generation, view index) -> answer`` for pinned
    #: session reads, plus reads whose answer object differed from the
    #: first one recorded under the same key.
    session_answers: dict = field(default_factory=dict)
    session_extra: list = field(default_factory=list)
    #: Peak RSS in MB when the loop had applied ``rss_batches`` batches
    #: (see :attr:`Workload.rss_batches`).
    rss_mb: float = 0.0
    rss_batches: int = 0
    #: The input stream ran out before the clock did.
    exhausted: bool = False

    @property
    def reads(self) -> int:
        return len(self.read_seconds)

    def record_apply(self, index: int, size: int, before: float, after: float) -> None:
        self.applied.append(index)
        self.updates += size
        self.apply_seconds.append(after - before)
        self.apply_ends.append(after)
        self.apply_sizes.append(size)

    def note_rss(self) -> None:
        self.rss_mb = peak_rss_mb()
        self.rss_batches = len(self.applied)


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _fail(result: LoopResult, kind: str, error: BaseException) -> None:
    if isinstance(error, RepositoryPoisonedError):
        raise AbortRun(f"repository poisoned: {error}") from error
    result.failed[kind] += 1
    result.errors[f"{kind}:{type(error).__name__}"] += 1


def _engine_with(graph: Any, views: tuple[ViewSpec, ...]) -> Engine:
    engine = Engine(graph)
    for spec in views:
        engine.register(spec.name, spec.factory)
    return engine


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


class Workload:
    """Base: a named workload over a set of views."""

    name = ""
    why = ""
    views: tuple[ViewSpec, ...] = ()
    #: ``(view, query)`` read after every applied batch by the stream
    #: workloads, in rotation.
    probes: tuple[tuple[str, str], ...] = ()
    #: Batches the recovery fixture applies before it is loaded; 0 for a
    #: workload that keeps no store, so has nothing to recover.
    recovery_batches = 0
    #: Write batches generated per second of measurement: well above
    #: the rate the loop reaches, so the stream outlasts the clock.
    batches_per_second = 0
    #: Peak RSS is read when the loop has applied this many batches, so
    #: it does not grow with the loop's speed.  A loop that stops sooner
    #: reads it at its end.
    rss_batches = 0

    def make_input(self, seed: int, seconds: float) -> WorkloadInput:
        count = max(self.recovery_batches, math.ceil(seconds * self.batches_per_second))
        return self.generate(seed, count)

    def generate(self, seed: int, count: int) -> WorkloadInput:
        raise NotImplementedError

    def setup(
        self, data: WorkloadInput, root: Path, tracer: Optional[Tracer] = None
    ) -> Deployment:
        raise NotImplementedError

    # -- the driver loop ------------------------------------------------

    def drive(
        self,
        dep: Deployment,
        data: WorkloadInput,
        seconds: float,
        tracer: Optional[Tracer] = None,
        speed: Optional[HostSpeed] = None,
    ) -> LoopResult:
        """Apply the batch stream, reading one probe query after every
        batch, until ``seconds`` have passed or the stream ends.  With
        ``speed``, time a calibration point every
        :data:`~perfbench.calibrate.POINT_INTERVAL_SECONDS` between
        operations."""
        repo = dep.repo
        result = LoopResult()
        probes = self.probes
        clock = time.perf_counter
        stats = repo.cache_stats
        result.started = started = clock()
        deadline = started + seconds
        next_point = started if speed is not None else math.inf
        op = 0
        for index, batch in enumerate(data.batches):
            now = clock()
            if now >= deadline:
                break
            if now >= next_point:
                speed.point()
                next_point = clock() + POINT_INTERVAL_SECONDS
            if tracer is not None:
                tracer.op = op = op + 1
            result.attempted["apply"] += 1
            try:
                before = clock()
                report = repo.apply(batch)
                after = clock()
            except TYPED_ERRORS as error:
                _fail(result, "apply", error)
            else:
                result.record_apply(index, len(batch), before, after)
                if tracer is not None:
                    result.view_reports.append(_summarize(report))
                if len(result.applied) == self.rss_batches:
                    result.note_rss()
            view, query = probes[index % len(probes)]
            if tracer is not None:
                tracer.op = op = op + 1
                hits = stats().hits
            result.attempted["read"] += 1
            try:
                before = clock()
                repo.read_latest(view, query)
                after = clock()
                result.read_seconds.append(after - before)
                result.read_ends.append(after)
            except TYPED_ERRORS as error:
                _fail(result, "read", error)
                if tracer is not None:
                    result.read_hits.append(None)
            else:
                if tracer is not None:
                    result.read_hits.append(stats().hits > hits)
        else:
            result.exhausted = True
        result.wall = clock() - started
        if not result.rss_batches:
            result.note_rss()
        return result

    # -- the oracle -----------------------------------------------------

    def reference_graph(self, data: WorkloadInput, applied: list[int]) -> DiGraph:
        graph = DiGraph(labels=data.graph.labels, edges=data.graph.edges)
        for index in applied:
            data.batches[index].apply_to(graph)
        return graph

    def check(
        self, dep: Deployment, data: WorkloadInput, result: LoopResult
    ) -> list[str]:
        """Compare the live engine's graph and every served answer with
        a from-scratch recomputation; return the mismatches."""
        problems = []
        graph = self.reference_graph(data, result.applied)
        if dep.engine.graph != graph:
            problems.append("live graph differs from the replayed input stream")
        for spec in self.views:
            served = dep.repo.read_latest(spec.name, spec.query)
            if served != freeze_answer(spec.reference(graph)):
                problems.append(
                    f"{spec.name}.{spec.query} differs from recomputation"
                )
        return problems

    def recover(
        self, data: WorkloadInput, root: Path, repeats: int
    ) -> tuple[list[float], Any, list[str]]:
        """Time recovery on a fixture of fixed size: a fresh deployment
        that applies the first :attr:`recovery_batches` input batches,
        outside any clock, then is loaded ``repeats`` times without
        re-attaching the journal.  (The timed loop's own store holds a
        log whose length depends on how fast the loop ran.)  Returns the
        load times, the last load report, and every difference between a
        recovered engine and the live one."""
        dep = self.setup(data, root)
        for batch in data.batches[: self.recovery_batches]:
            dep.repo.apply(batch)
        times: list[float] = []
        problems: list[str] = []
        for _ in range(repeats):
            started = time.perf_counter()
            revived = dep.store.load(attach_journal=False)
            times.append(time.perf_counter() - started)
            if revived.graph != dep.engine.graph:
                problems.append("recovered graph differs from the live graph")
            for spec in self.views:
                view = revived.view(spec.name)
                again = freeze_answer(default_queries(view)[spec.query](view))
                if again != dep.repo.read_latest(spec.name, spec.query):
                    problems.append(
                        f"recovered {spec.name}.{spec.query} differs from live"
                    )
            del revived, view
            gc.collect()  # one recovered engine alive at a time
        report = dep.store.last_load_report
        dep.close()
        return times, report, sorted(set(problems))


def _summarize(report) -> dict:
    return {
        name: (view.wall_seconds, view.cost.total(), view.skipped)
        for name, view in report.views.items()
    }


class Stream4View(Workload):
    name = "stream-4view"
    why = "four paper views absorb 40-update batches on a giant-SCC graph: view repair dominates"
    views = (
        ViewSpec("kws", "roots", *_kws(inputs.KWS_QUERY)),
        ViewSpec("rpq", "matches", *_rpq(inputs.RPQ_REGEX)),
        ViewSpec("scc", "components", *SCC),
        ViewSpec("iso", "matches", *ISO),
    )
    #: One view only: the four views' reads cost 0.15-2 ms apart, so a
    #: median over a rotation would sit on the edge between two of them.
    probes = (("scc", "components"),)
    #: Two snapshot periods: the set-up snapshot plus two incremental
    #: saves and no log tail, so recovery is pure restore
    #: (journal-sharded measures replay).  A short tail would make the
    #: figure hinge on the cost of a few particular SCC repairs.
    recovery_batches = 100
    batches_per_second = 150
    rss_batches = 400

    def generate(self, seed: int, count: int) -> WorkloadInput:
        return inputs.stream_4view_input(seed, count)

    def setup(self, data, root, tracer=None):
        graph = DiGraph(labels=data.graph.labels, edges=data.graph.edges)
        engine = _engine_with(graph, self.views)
        store = SnapshotStore(root)
        store.attach(engine, SnapshotPolicy(every_batches=50))
        store.save(engine)
        return Deployment(Repository(engine), engine, store, root)


class JournalSharded(Workload):
    name = "journal-sharded"
    why = "2-update shard-local batches on a 4-shard segmented journal: per-batch fixed costs dominate"
    views = (
        ViewSpec("rpq", "matches", *_rpq(inputs.SHARD_RPQ_REGEX)),
        ViewSpec("kws", "roots", *_kws(inputs.SHARD_KWS_QUERY)),
        ViewSpec("dataflow", "value", *EDGE_LABEL_COUNT),
    )
    probes = tuple((spec.name, spec.query) for spec in views)
    #: No snapshot policy: the post-preload snapshot, then pure replay.
    recovery_batches = 2000
    batches_per_second = 5000
    rss_batches = 16000

    def generate(self, seed: int, count: int) -> WorkloadInput:
        return inputs.journal_sharded_input(seed, count)

    def setup(self, data, root, tracer=None):
        shard_map = ShardMap(
            kind="range",
            boundaries=[
                inputs.SHARD_NODE_SPACE * k // inputs.SHARD_COUNT
                for k in range(1, inputs.SHARD_COUNT)
            ],
        )
        engine = _engine_with(ShardedGraphStore(shard_map=shard_map), self.views)
        store = SnapshotStore(root, shard_map=shard_map)
        store.attach(engine)
        repo = Repository(engine)
        if tracer is not None:
            tracer.wrap(repo, "bulk_load", "graph.bulk_load")
        labels = data.graph.labels
        repo.bulk_load(
            (source, target, labels[source], labels[target])
            for source, target in data.graph.edges
        )
        store.save(engine)
        return Deployment(repo, engine, store, root)


class ServeMixed(Workload):
    name = "serve-mixed"
    why = "49 skewed reads per 6-update write through pinned sessions and read_latest: admission and cache lookup dominate"
    views = (
        ViewSpec("kws", "roots", *_kws(inputs.SERVE_KWS_QUERY)),
        ViewSpec("scc", "components", *SCC),
    )
    #: No store, as in ``bench_serving.py``: a per-batch fsync would be
    #: most of a small write, and would tie the serving figures to the
    #: disk's latency.
    recovery_batches = 0
    batches_per_second = 1000
    rss_batches = 1200

    def generate(self, seed: int, count: int) -> WorkloadInput:
        return inputs.serve_mixed_input(seed, count)

    def setup(self, data, root, tracer=None):
        graph = DiGraph(labels=data.graph.labels, edges=data.graph.edges)
        engine = _engine_with(graph, self.views)
        repo = Repository(engine, max_sessions=inputs.SERVE_SESSION_SLOTS + 2)
        return Deployment(repo, engine, None, root)

    def drive(self, dep, data, seconds, tracer=None, speed=None):
        repo = dep.repo
        result = LoopResult()
        queries = [(spec.name, spec.query) for spec in self.views]
        sessions: list = [None] * inputs.SERVE_SESSION_SLOTS
        answers = result.session_answers
        clock = time.perf_counter
        stats = repo.cache_stats
        writes = 0
        result.started = started = clock()
        deadline = started + seconds
        next_point = started if speed is not None else math.inf
        for op, step in enumerate(data.schedule):
            now = clock()
            if now >= deadline:
                break
            if now >= next_point:
                speed.point()
                next_point = clock() + POINT_INTERVAL_SECONDS
            if tracer is not None:
                tracer.op = op
            code, slot, view_index = step & 3, step >> 2 & 3, step >> 4
            if code == inputs.OP_WRITE:
                index, writes = writes, writes + 1
                batch = data.batches[index]
                result.attempted["apply"] += 1
                try:
                    before = clock()
                    report = repo.apply(batch)
                    after = clock()
                except TYPED_ERRORS as error:
                    _fail(result, "apply", error)
                else:
                    result.record_apply(index, len(batch), before, after)
                    if tracer is not None:
                        result.view_reports.append(_summarize(report))
                    if len(result.applied) == self.rss_batches:
                        result.note_rss()
            elif code == inputs.OP_SESSION_OPEN:
                if sessions[slot] is not None:
                    sessions[slot].close()
                    sessions[slot] = None
                result.attempted["session_open"] += 1
                try:
                    session = repo.session()
                except TYPED_ERRORS as error:
                    _fail(result, "session_open", error)
                else:
                    sessions[slot] = session
                    if tracer is not None:
                        tracer.wrap(session, "read", "serving.session_read")
            else:
                view, query = queries[view_index]
                session = sessions[slot] if code == inputs.OP_SESSION_READ else None
                result.attempted["read"] += 1
                if code == inputs.OP_SESSION_READ and session is None:
                    result.failed["read"] += 1
                    result.errors["read:no admitted session"] += 1
                    continue
                if tracer is not None:
                    hits = stats().hits
                try:
                    before = clock()
                    if session is None:
                        answer = repo.read_latest(view, query)
                    else:
                        answer = session.read(view, query)
                    after = clock()
                    result.read_seconds.append(after - before)
                    result.read_ends.append(after)
                except TYPED_ERRORS as error:
                    _fail(result, "read", error)
                    if tracer is not None:
                        result.read_hits.append(None)
                    continue
                if tracer is not None:
                    result.read_hits.append(stats().hits > hits)
                if session is not None:
                    key = (session.generation, view_index)
                    seen = answers.get(key)
                    if seen is None:
                        answers[key] = answer
                    elif seen is not answer:
                        result.session_extra.append((key, answer))
        else:
            result.exhausted = True
        result.wall = clock() - started
        if not result.rss_batches:
            result.note_rss()
        for session in sessions:
            if session is not None:
                session.close()
        return result

    def check(self, dep, data, result):
        """Besides the final-state oracle, check every pinned-session
        read against a recomputation at the session's generation."""
        problems = super().check(dep, data, result)
        by_generation: dict[int, list] = {}
        recorded = list(result.session_answers.items()) + result.session_extra
        for (generation, view), answer in recorded:
            by_generation.setdefault(generation, []).append((view, answer))
        graph = DiGraph(labels=data.graph.labels, edges=data.graph.edges)
        replayed = 0
        for generation in sorted(by_generation):
            while replayed < generation:
                data.batches[result.applied[replayed]].apply_to(graph)
                replayed += 1
            references: dict[int, Any] = {}
            for view, answer in by_generation[generation]:
                if view not in references:
                    references[view] = freeze_answer(self.views[view].reference(graph))
                if answer != references[view]:
                    problems.append(
                        f"session read of {self.views[view].name} at "
                        f"generation {generation} differs from recomputation"
                    )
        return problems


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (Stream4View(), ServeMixed(), JournalSharded())
}


def log_bytes(store: Optional[SnapshotStore]) -> int:
    """Bytes of write-ahead log on disk (monolithic or segmented)."""
    if store is None:
        return 0
    root = store.root
    total = _size(root / SnapshotStore.LOG_NAME)
    segments = root / SnapshotStore.SEGMENTS_NAME
    if segments.is_dir():
        total += sum(_size(path) for path in segments.iterdir() if path.is_file())
    return total


def snapshot_bytes(store: Optional[SnapshotStore]) -> int:
    return 0 if store is None else _size(store.snapshot_path)


#: Appends (each fsync'd) the fsync probe times.
FSYNC_PROBE_ROUNDS = 80


def probe_fsync_us(workspace: Path) -> float:
    """Sustained fsync latency of the workspace filesystem, in us."""
    path = workspace / "fsync-probe.bin"
    with open(path, "ab") as handle:
        started = time.perf_counter()
        for _ in range(FSYNC_PROBE_ROUNDS):
            handle.write(b"x" * 256)
            handle.flush()
            os.fsync(handle.fileno())
        elapsed = time.perf_counter() - started
    path.unlink()
    return elapsed / FSYNC_PROBE_ROUNDS * 1e6


def instrument(dep: Deployment, tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the loop reaches.
    Session reads are wrapped per session, as the loop admits them."""
    engine = dep.engine
    tracer.wrap(dep.repo, "apply", "serving.apply")
    tracer.wrap(dep.repo, "read_latest", "serving.read_latest")
    tracer.wrap(dep.repo, "session", "serving.session_open")
    tracer.wrap(engine, "apply", "engine.apply")
    tracer.wrap(engine.scheduler, "partition", "engine.route")
    tracer.wrap(engine.scheduler, "dispatch", "engine.dispatch")
    if dep.store is not None:
        tracer.wrap(engine.journal, "append", "persist.append")
        tracer.wrap(dep.store, "save", "persist.save")
