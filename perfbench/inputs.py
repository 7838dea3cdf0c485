"""Seeded input generation for the three benchmark workloads.

Everything here runs before any clock starts.  The program under test
receives only what these functions return: labels and edge lists for the
initial graph, :class:`~repro.core.delta.Delta` batches for the write
stream, and a flat operation schedule for the mixed read/write loop.
The same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import Delta, delete, insert
from repro.graph.generators import label_alphabet, uniform_random_graph
from repro.graph.updates import random_delta
from repro.iso import Pattern
from repro.kws import KWSQuery

# ----------------------------------------------------------------------
# stream-4view: the four paper views over one random graph
# ----------------------------------------------------------------------

STREAM_NODES = 1200
STREAM_EDGES = 4800
STREAM_BATCH = 40
STREAM_NEW_NODE_FRACTION = 0.05
#: Batches cut from one ``random_delta`` draw.  Each draw costs O(|E|),
#: so drawing several batches at once keeps generation short; the cut
#: batches apply in order, since a draw touches every edge at most once.
STREAM_BATCHES_PER_DRAW = 5
ALPHABET = label_alphabet(6)

KWS_QUERY = KWSQuery((ALPHABET[0], ALPHABET[1]), bound=3)
RPQ_REGEX = f"{ALPHABET[0]} {ALPHABET[1]}*"
ISO_PATTERN = Pattern.from_edges(
    {0: ALPHABET[0], 1: ALPHABET[1], 2: ALPHABET[2]}, [(0, 1), (1, 2)]
)

# ----------------------------------------------------------------------
# serve-mixed: skewed reads over a hot/cold graph
# ----------------------------------------------------------------------

SERVE_NODES = 1500
SERVE_EDGES = 4000
SERVE_HOT_FRACTION = 0.3
SERVE_KWS_QUERY = KWSQuery(("a", "b"), bound=3)
SERVE_BATCH = 6
#: Toggled edge slots per region: each write inserts an absent slot
#: edge or deletes a present one, so every batch stays applicable.
#: Enough slots that the cost of a write does not hinge on where a
#: few particular edges fall in the SCC structure.
SERVE_SLOTS = 96
SERVE_READS_PER_WRITE = 49
SERVE_HOT_READ_FRACTION = 0.85
SERVE_SESSION_READ_FRACTION = 0.70
SERVE_HOT_WRITE_FRACTION = 0.10
SERVE_SESSION_SLOTS = 4
#: A session stays open for this many writes (uniform draw), then is
#: closed and a fresh one admitted in its slot.
SERVE_SESSION_LIFETIME = (300, 900)

#: Serve-mixed operation codes.  A schedule entry is the small int
#: ``code | slot << 2 | view << 4`` (8 bytes of list rather than a
#: tuple's 60 or more), and the n-th write applies ``batches[n]``.
OP_WRITE = 0
OP_SESSION_READ = 1
OP_LATEST_READ = 2
OP_SESSION_OPEN = 3
assert SERVE_SESSION_SLOTS <= 4

# ----------------------------------------------------------------------
# journal-sharded: fixed per-batch costs on a sharded, segmented store
# ----------------------------------------------------------------------

SHARD_NODE_SPACE = 8000
SHARD_COUNT = 4
SHARD_PRELOAD_EDGES = 23000
#: An x/y-labelled island past the stream's node space: it gives the
#: RPQ and KWS views a non-empty answer the stream never reaches.
SHARD_ISLAND_NODES = 400
SHARD_ISLAND_EDGES = 1000
SHARD_BATCH = 2
SHARD_SOURCE_RANGES = 8
SHARD_RPQ_REGEX = "x y*"
SHARD_KWS_QUERY = KWSQuery(("x", "y"), bound=3)


@dataclass
class GraphInput:
    """An initial graph as plain data: node labels and an edge list."""

    labels: dict
    edges: list

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass
class WorkloadInput:
    """Everything one workload run consumes, generated from its seed."""

    graph: GraphInput
    batches: list[Delta]
    #: serve-mixed only: encoded operations, see the ``OP_*`` codes.
    schedule: list[int] = field(default_factory=list)

    @property
    def num_updates(self) -> int:
        return sum(len(batch) for batch in self.batches)


def _graph_input(graph) -> GraphInput:
    return GraphInput(
        labels={node: graph.label(node) for node in graph.nodes()},
        edges=list(graph.edges()),
    )


def stream_4view_input(seed: int, count: int) -> WorkloadInput:
    """A random 1200/4800 graph (giant SCC) and a stream of 40-update
    batches cut from ``random_delta`` draws against the evolving graph."""
    base = uniform_random_graph(STREAM_NODES, STREAM_EDGES, ALPHABET, seed=seed)
    rng = random.Random(seed)
    scratch = base.copy()
    batches: list[Delta] = []
    while len(batches) < count:
        draw = random_delta(
            scratch,
            STREAM_BATCH * STREAM_BATCHES_PER_DRAW,
            rho=1.0,
            seed=rng.randrange(1 << 30),
            new_node_fraction=STREAM_NEW_NODE_FRACTION,
            alphabet=ALPHABET,
        )
        draw.apply_to(scratch)
        updates = list(draw)
        batches.extend(
            Delta(updates[start : start + STREAM_BATCH])
            for start in range(0, len(updates), STREAM_BATCH)
        )
    return WorkloadInput(_graph_input(base), batches[:count])


def _serve_graph(rng: random.Random) -> GraphInput:
    hot = int(SERVE_NODES * SERVE_HOT_FRACTION)
    labels = {
        node: rng.choice(["a", "b"]) if node < hot else rng.choice(["c", "d"])
        for node in range(SERVE_NODES)
    }
    edges: set = set()
    ordered = []
    while len(ordered) < SERVE_EDGES:
        edge = (rng.randrange(SERVE_NODES), rng.randrange(SERVE_NODES))
        if edge[0] != edge[1] and edge not in edges:
            edges.add(edge)
            ordered.append(edge)
    return GraphInput(labels, ordered)


def _free_slots(rng: random.Random, sources: list, targets: list, taken: set) -> list:
    slots: list = []
    while len(slots) < SERVE_SLOTS:
        edge = (rng.choice(sources), rng.choice(targets))
        if edge[0] != edge[1] and edge not in taken and edge not in slots:
            slots.append(edge)
    return slots


def serve_mixed_input(seed: int, count: int) -> WorkloadInput:
    """The hot/cold graph, a 90% cold / 10% hot write stream of 6-update
    batches, and one interleave of 49 reads per write (``count``
    writes)."""
    rng = random.Random(seed)
    graph = _serve_graph(rng)
    hot = int(SERVE_NODES * SERVE_HOT_FRACTION)
    taken = set(graph.edges)
    # Cold writes point at cold sinks: a node without out-edges reaches
    # no keyword, so the KWS relevance filter skips every such batch.
    # Sinks never become slot sources, so they stay sinks.
    has_out = {source for source, _ in graph.edges}
    cold = range(hot, SERVE_NODES)
    sinks = [node for node in cold if node not in has_out]
    hot_nodes = list(range(hot))
    pools = [
        _free_slots(rng, [node for node in cold if node in has_out], sinks, taken),
        _free_slots(rng, hot_nodes, hot_nodes, taken),
    ]
    present: set = set()
    batches = []
    for _ in range(count):
        pool = pools[1] if rng.random() < SERVE_HOT_WRITE_FRACTION else pools[0]
        updates = []
        for slot in rng.sample(pool, SERVE_BATCH):
            if slot in present:
                updates.append(delete(*slot))
                present.discard(slot)
            else:
                updates.append(insert(*slot))
                present.add(slot)
        batches.append(Delta(updates))

    schedule: list[int] = []
    expires = [0] * SERVE_SESSION_SLOTS  # write count at which a slot renews
    for index in range(count):
        for _ in range(SERVE_READS_PER_WRITE):
            view = 0 if rng.random() < SERVE_HOT_READ_FRACTION else 1
            if rng.random() < SERVE_SESSION_READ_FRACTION:
                slot = rng.randrange(SERVE_SESSION_SLOTS)
                if expires[slot] <= index:
                    expires[slot] = index + rng.randint(*SERVE_SESSION_LIFETIME)
                    schedule.append(OP_SESSION_OPEN | slot << 2)
                schedule.append(OP_SESSION_READ | slot << 2 | view << 4)
            else:
                schedule.append(OP_LATEST_READ | view << 4)
        schedule.append(OP_WRITE)
    return WorkloadInput(graph, batches, schedule)


def journal_sharded_input(seed: int, count: int) -> WorkloadInput:
    """A ~8.4k-node / ~24k-edge preload and the shard-local stream of
    2-update batches: each batch's sources sit in one of eight ranges
    (round-robin), targets roam the whole node space."""
    rng = random.Random(seed)
    labels = {node: rng.choice(["a", "b"]) for node in range(SHARD_NODE_SPACE)}
    island = range(SHARD_NODE_SPACE, SHARD_NODE_SPACE + SHARD_ISLAND_NODES)
    labels.update({node: rng.choice(["x", "y"]) for node in island})
    preload: set = set()
    edges = []
    for wanted, low, high in (
        (SHARD_PRELOAD_EDGES, 0, SHARD_NODE_SPACE),
        (SHARD_ISLAND_EDGES, island.start, island.stop),
    ):
        wanted += len(edges)
        while len(edges) < wanted:
            edge = (rng.randrange(low, high), rng.randrange(low, high))
            if edge[0] != edge[1] and edge not in preload:
                preload.add(edge)
                edges.append(edge)

    ranges = [
        (SHARD_NODE_SPACE * k // SHARD_SOURCE_RANGES,
         SHARD_NODE_SPACE * (k + 1) // SHARD_SOURCE_RANGES)
        for k in range(SHARD_SOURCE_RANGES)
    ]
    # Per-range stream-inserted edges: a list for seeded picks, a set
    # for membership.  Deletions swap-remove from the list.
    live: list[tuple[list, set]] = [([], set()) for _ in ranges]
    batches = []
    for index in range(count):
        low, high = ranges[index % len(ranges)]
        pool, members = live[index % len(ranges)]
        updates, touched = [], set()
        while len(updates) < SHARD_BATCH:
            if pool and rng.random() < 0.3:
                position = rng.randrange(len(pool))
                edge = pool[position]
                if edge in touched:
                    break
                pool[position] = pool[-1]
                pool.pop()
                members.discard(edge)
                touched.add(edge)
                updates.append(delete(*edge))
            else:
                edge = (rng.randrange(low, high), rng.randrange(SHARD_NODE_SPACE))
                if (
                    edge[0] == edge[1]
                    or edge in members
                    or edge in touched
                    or edge in preload
                ):
                    continue
                pool.append(edge)
                members.add(edge)
                touched.add(edge)
                updates.append(insert(*edge, "a", "b"))
        batches.append(Delta(updates))
    # The preload is an edge list: nodes it does not mention stay absent.
    labels = {node: labels[node] for edge in edges for node in edge}
    return WorkloadInput(GraphInput(labels, edges), batches)
