"""Shared helpers for the test suite: canned graphs, random graph
generation, a config writer that parse_config reads back, and oracles
that share no code with the simulator: a plain breadth-first search, the
shortest-path forwarder set, the set-based flood wave loop the bitmask
kernel replaced, the per-node forwarder selection walks the hop masks
replaced, the dict-per-record schema-1 JSONL renderer, a reader that turns
a schema-5 trace back into its config and schema-1 records, per-round
views of a round's radio row and generated packets, per-node views of
the world's run state, and a run stepped a round at a time."""

from __future__ import annotations

import json
import random
from collections import deque
from typing import Callable, Iterable, Iterator

from lwbsim.config import SimConfig, config_texts, parse_config
from lwbsim.engine import RoundTrace, SlotTrace, World
from lwbsim.glossy import FloodOutcome, ids_of
from lwbsim.metrics import RunMetrics
from lwbsim.sim import build_world, rounds
from lwbsim.topology import Topology


def adjacency(topo: Topology) -> dict[int, list[int]]:
    """Sorted neighbour list of every node, read from the edge set alone."""
    adj: dict[int, list[int]] = {n: [] for n in topo.nodes}
    for u, v in topo.edges:
        adj[u].append(v)
        adj[v].append(u)
    return {n: sorted(nbs) for n, nbs in adj.items()}


def bfs_oracle(
    topo: Topology, root: int, relays: set[int] | None = None
) -> dict[int, int | None]:
    """Hop distance from root to every node, None when unreachable.

    Every interior vertex of a path must be in relays (None: all nodes);
    the root always relays.
    """
    dist: dict[int, int | None] = {n: None for n in topo.nodes}
    dist[root] = 0
    adj = adjacency(topo)
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                if relays is None or v in relays:
                    queue.append(v)
    return dist


def reachable_hops(dist: dict[int, int | None]) -> dict[int, int]:
    return {n: d for n, d in dist.items() if d is not None}


def reference_flood_hops(
    topology: Topology,
    initiator: int,
    participants: set[int],
    loss_probability: float = 0.0,
    rng: random.Random | None = None,
) -> dict[int, int]:
    """The set-based wave loop of the original flood, kept as the reference
    for the bitmask kernel (neighbours now come from the edge set): same
    hops, same rng draws."""
    adj = adjacency(topology)
    hops: dict[int, int] = {initiator: 0}
    transmitters: list[int] = [initiator]
    counter = 1
    while transmitters:
        candidates: set[int] = set()
        for tx in transmitters:
            for nb in adj[tx]:
                if nb not in hops:
                    candidates.add(nb)
        receivers: list[int] = []
        for nb in sorted(candidates):
            if loss_probability > 0.0 and rng.random() < loss_probability:
                continue
            hops[nb] = counter
            receivers.append(nb)
        transmitters = [r for r in receivers if r in participants]
        counter += 1
    return hops


def hops_of(outcome: FloodOutcome) -> dict[int, int]:
    """Node id -> hop count of every node a flood reached, read off its
    wave layers."""
    return {
        n: hop
        for hop, layer in enumerate(outcome.layers)
        for n in range(layer.bit_length())
        if layer >> n & 1
    }


def config_document(pairs: Iterable[tuple[str, str]]) -> str:
    """The "KEY = text" lines of (KEY, text) pairs."""
    return "".join(f"{key} = {text}\n" for key, text in pairs)


def to_text(config: SimConfig) -> str:
    """A config document of every key, in CONFIG_KEYS order, that
    parse_config reads back to an equal config."""
    return config_document(config_texts(config))


def line_topology(n: int) -> Topology:
    return Topology.from_edges([(i, i + 1) for i in range(1, n)])


def diamond_pendant() -> Topology:
    """Diamond 1-2-4-3-1 with pendant 5 hanging off node 2."""
    return Topology.from_edges([(1, 2), (1, 3), (2, 4), (3, 4), (2, 5)])


def random_connected_topology(
    rng: random.Random, n: int, extra_edge_prob: float = 0.15, max_ecc: int | None = None
) -> Topology:
    """Random connected graph on nodes 1..n.

    Built as a random attachment tree plus independent extra edges. With
    max_ecc set, regenerates until every node lies within that many hops of
    node 1 (the usual sink), so bootstrap can finish during cool-off.
    """
    while True:
        edges = set()
        for v in range(2, n + 1):
            u = rng.randint(1, v - 1)
            edges.add((u, v))
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if (u, v) not in edges and rng.random() < extra_edge_prob:
                    edges.add((u, v))
        topo = Topology.from_edges(edges)
        if max_ecc is None:
            return topo
        dist = bfs_oracle(topo, 1)
        if all(d is not None and d <= max_ecc for d in dist.values()):
            return topo


def shortest_path_forwarders(topo: Topology, sink: int, source: int) -> set[int]:
    """Oracle: nodes on at least one shortest path between sink and source.

    u qualifies exactly when d(sink, u) + d(u, source) == d(sink, source),
    with all distances taken over the full graph.
    """
    from_sink = bfs_oracle(topo, sink)
    from_source = bfs_oracle(topo, source)
    total = from_sink[source]
    assert total is not None, "oracle needs a connected sink/source pair"
    return {
        u
        for u in topo.nodes
        if from_sink[u] is not None
        and from_source[u] is not None
        and from_sink[u] + from_source[u] == total
    }


# The per-node walks that forwarding's hop masks replaced, kept as their
# reference: sink distances as a node -> hop dict, forwarders as a set.


def walk_sink_distances(distances: dict[int, int], outcome: FloodOutcome) -> None:
    """Every relay that heard the sink's reply flood records its hop count
    as its sink distance; every other node keeps its previous one."""
    for n, hop in hops_of(outcome).items():
        if outcome.relays >> n & 1:
            distances[n] = hop


def walk_announce(
    distances: dict[int, int], outcome: FloodOutcome, distance: int
) -> set[int]:
    """The relays of an announce flood, heard at hop k, whose recorded sink
    distance is the announced distance minus k."""
    return {
        n
        for n, hop in hops_of(outcome).items()
        if outcome.relays >> n & 1 and distances.get(n) == distance - hop
    }


# The dict-per-record schema-1 renderer, built from the slot objects: every
# slot record spells out its start, its awake and received lists and its
# seq. sim.render_trace writes schema 5, and read_trace below must rebuild
# these same records from its text alone.


def slot_starts(trace: RoundTrace) -> list[int]:
    """Where each slot of a round starts, by the LWB round layout: the sync
    slot at the round's start, then each slot where the one before it ends,
    the sync slot SYNC_SLOT_LENGTH long and every other SLOT_LENGTH."""
    cfg, start = trace.config, trace.t_start
    after_sync = start + cfg.sync_slot_length
    return [start] + [after_sync + k * cfg.slot_length for k in range(len(trace.slots) - 1)]


def _slot_record(trace: RoundTrace, place: int, t: int, slot: SlotTrace) -> dict:
    rec: dict = {
        "kind": "slot",
        "round": trace.index,
        "t": t,
        "phase": trace.phase,
        "type": slot.kind,
        "initiator": slot.initiator,
        "awake": awake_ids(slot),
        "received": received_ids(slot),
    }
    if slot.kind == "request":
        rec["contenders"] = slot.contender_count
        rec["winner"] = slot.initiator  # the node the request flooded from
        rec["delivered"] = slot.delivered
    elif slot.kind == "reply":
        rec["requester"] = slot.requester
        rec["assigned_slot"] = slot.assigned_slot
        rec["new_assignment"] = slot.new_assignment
        rec["delivered"] = slot.delivered
        if slot.capacity_exceeded:
            rec["capacity_exceeded"] = True
    elif slot.kind == "announce":
        rec["source"] = slot.initiator  # the node the announce flooded from
        rec["distance"] = slot.announced_distance
        rec["slot_id"] = slot.slot_id
    elif slot.kind == "data":
        rec["slot_id"] = place - 1 - trace.n_rr  # data slots follow the request block
        rec["owner"] = slot.owner
        rec["payload_len"] = slot.payload_len
        rec["gen_round"] = slot.gen_round
        rec["delivered"] = slot.delivered
    return rec


def _round_record(trace: RoundTrace) -> dict:
    return {
        "kind": "round",
        "round": trace.index,
        "t": trace.t_start,
        "phase": trace.phase,
        "mode": trace.config.mode,
        "period": trace.round_period,
        "n_rr": trace.n_rr,
        "n_data": trace.n_data,
        "radio_on": {str(n): us for n, us in sorted(radio_on_of(trace).items())},
        "new_assignments": [list(pair) for pair in trace.new_assignments],
        "joined": ids_of(trace.joined),
        "desynced": ids_of(trace.desynced),
        "bootstrap": ids_of(trace.bootstrap),
        "generated": [list(pair) for pair in generated_of(trace)],
        "dropped": trace.dropped,
        "capacity_events": trace.capacity_events,
    }


def radio_on_of(trace: RoundTrace) -> dict[int, int]:
    """Node id -> radio-on microseconds of a round."""
    return dict(zip(trace.node_ids, trace.radio_totals))


def awake_ids(slot: SlotTrace) -> list[int]:
    """The ids a slot woke, ascending, read off its awake mask."""
    return ids_of(slot.awake_mask)


def received_ids(slot: SlotTrace) -> list[int]:
    """The ids that received a slot's flood, ascending, read off its
    received mask."""
    return ids_of(slot.received_mask)


def generated_of(trace: RoundTrace) -> list[tuple[int, int]]:
    """The (node, round) pair of every packet a round made, node-major:
    each of its sources made new_sequences packets in it."""
    return [(n, trace.index) for n in trace.sources for _ in range(trace.new_sequences)]


def trace_records(traces: list[RoundTrace]) -> Iterator[dict]:
    """Flat record stream: slot records in time order, then the round
    summary, for each round. A global seq field gives a total order."""
    seq = 0
    for trace in traces:
        for place, (t, slot) in enumerate(zip(slot_starts(trace), trace.slots)):
            rec = _slot_record(trace, place, t, slot)
            rec["seq"] = seq
            seq += 1
            yield rec
        rec = _round_record(trace)
        rec["seq"] = seq
        seq += 1
        yield rec


def dump_records(records: Iterable[dict]) -> str:
    """Line-delimited JSON of schema-1 records, one compact line each."""
    lines = [json.dumps(rec, separators=(",", ":"), sort_keys=False) for rec in records]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_render_trace(traces: list[RoundTrace]) -> str:
    """Schema-1 JSONL: every slot record spells out its awake and received
    lists. The oracle that read_trace's output is compared against."""
    return dump_records(trace_records(traces))


SCHEMA_HEADER = {"kind": "schema", "version": 5}  # and the run's config
_SLOT_KINDS = ("sync", "request", "reply", "announce", "data")


def read_trace(text: str) -> tuple[dict[str, str] | None, list[dict]]:
    """The header's config (KEY -> text, None for a trace of no rounds)
    and the schema-1 records of a schema-5 trace, read from its text alone.

    A record's seq is its line's index less one, for the header. A slot
    record's kind is its type. It takes its round and phase from the round
    record that closes its round, and its start from its place in that
    round: the first slot starts at the round's t and slot k >= 1 at
    t + SYNC_SLOT_LENGTH + (k - 1) * SLOT_LENGTH, the header's lengths. A
    round record's mode is the header's, from FORWARDER_SELECTION. A data
    slot without an initiator has its owner's, and a request's winner and
    an announce's source are its initiator. A slot without an awake list is
    awake on its round's active set, the received ids of the round's sync
    slot; every slot receives on its awake nodes less its missed ones. A
    round record without radio_on has the previous round record's."""
    lines = text.splitlines()
    assert lines, "no header"
    header = json.loads(lines[0])
    assert list(header) == [*SCHEMA_HEADER, "config"], header
    assert {key: header[key] for key in SCHEMA_HEADER} == SCHEMA_HEADER, header
    if header["config"] is None:
        assert len(lines) == 1, "records after a header without a config"
        return None, []
    config = parse_config(config_document(header["config"].items()))
    sync_length, slot_length = config.sync_slot_length, config.slot_length
    records, slots = [], []  # slots: the rest of each record of the open round
    active = radio_on = None
    for seq, line in enumerate(lines[1:]):
        rec = json.loads(line)
        kind = rec.pop("kind")
        if kind == "round":
            assert len(slots) == 1 + rec["n_rr"] + rec["n_data"], f"round {seq}: {len(slots)} slots"
            start = rec["t"]
            for k, rest in enumerate(slots):
                t = start if k == 0 else start + sync_length + (k - 1) * slot_length
                records.append({
                    "kind": "slot", "round": rec["round"], "t": t, "phase": rec["phase"], **rest,
                })
            active, slots = None, []
            radio_on = rec.pop("radio_on", radio_on)
            assert radio_on is not None, f"round {seq} has no radio_on row"
            head = {key: rec.pop(key) for key in ("round", "t", "phase")}
            layout = {key: rec.pop(key) for key in ("period", "n_rr", "n_data")}
            records.append({
                "kind": "round", **head, "mode": config.mode, **layout, "radio_on": radio_on,
                **rec, "seq": seq,
            })
            continue
        assert kind in _SLOT_KINDS and not {"round", "phase", "t", "type"} & rec.keys(), rec
        awake = rec.pop("awake", active)
        assert awake is not None, f"slot {seq} has no awake set"
        missed = set(rec.pop("missed"))
        assert missed <= set(awake), f"slot {seq} missed a node not awake"
        initiator = rec.pop("initiator") if kind != "data" else rec.pop("initiator", rec["owner"])
        received = [n for n in awake if n not in missed]
        if kind == "request":
            rec = {"contenders": rec.pop("contenders"), "winner": initiator, **rec}
        elif kind == "announce":
            rec = {"source": initiator, **rec}
        slots.append({
            "type": kind, "initiator": initiator, "awake": awake, "received": received, **rec,
            "seq": seq,
        })
        if kind == "sync":
            active = received
    assert not slots, f"{len(slots)} slot records after the last round record"
    return header["config"], records


def schema1_text(text: str) -> str:
    """A schema-5 trace rebuilt by read_trace and written the way
    reference_render_trace writes: equal to it for a lossless reader."""
    return dump_records(read_trace(text)[1])


# Per-node views of the run state the world keeps as masks and windows, in
# the shape the per-node state objects had.


def sync_node(world: World, node: int, since: int = 0) -> None:
    """Take node out of bootstrap as if it last heard a sync flood in the
    round starting at since; the clock guard checks it only if it drifts."""
    bit = 1 << node
    world.bootstrap &= ~bit
    groups = {start: mask & ~bit for start, mask in world.synced_at.items()}
    if world.drift_prefix[-1] & bit:
        groups[since] = groups.get(since, 0) | bit
    world.synced_at = {start: mask for start, mask in groups.items() if mask}


def last_sync_of(world: World, node: int) -> int | None:
    """Start of the round whose sync a synced drifting node last heard,
    None for every other node."""
    return next((start for start, mask in world.synced_at.items() if mask >> node & 1), None)


def desync_gap_of(world: World, node: int) -> int | None:
    """The least gap since its last sync at which a drifting node fails the
    clock guard, None for a node that does not drift."""
    prefix = world.drift_prefix
    first = next((i for i, mask in enumerate(prefix) if mask >> node & 1), None)
    return None if first is None else world.drift_cuts[first - 1]


def queue_of(world: World, node: int) -> list[tuple[int, int]]:
    """A source's queued packets, oldest first, as (round generated, length
    of its "node:seq" text)."""
    stop = world.next_sequence
    return [
        (world.gen_rounds[seq - stop], len(f"{node}:{seq}"))
        for seq in range(world.queue_start[node], stop)
    ]


def stepped_run(
    config: SimConfig, topology: Topology
) -> tuple[World, RunMetrics, Iterator[RoundTrace]]:
    """A run as run_simulation sets it up: its world, its metrics and its
    round iterator. Between rounds the world is the live run state."""
    config.validate()
    world = build_world(config, topology)
    metrics = RunMetrics(list(topology.nodes), config.sink_node_id)
    return world, metrics, rounds(world, metrics)


def checked_traces(
    config: SimConfig, topology: Topology, check: Callable[[World, RoundTrace], None]
) -> list[RoundTrace]:
    """The traces of a stepped run, check(world, trace) called after each
    round with the live world."""
    world, _, run = stepped_run(config, topology)
    return [check(world, trace) or trace for trace in run]
