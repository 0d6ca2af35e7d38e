"""Glossy-style network floods and per-node clock bookkeeping.

A flood is modeled as a synchronous wave process instead of a per-bit radio
simulation, and every wave is computed on node bitmasks: bit n of an int
stands for node n, and the topology holds one neighbour mask per node.

The initiator transmits with relay counter 1 in wave 0. The candidates of
wave k are the OR of the neighbour masks of the wave k-1 transmitters, minus
every node that has already received. Each candidate receives subject to
one independent loss draw and records the counter value as its hop
distance. Loss draws go low bit first, which is ascending node id, and only
happen when the loss probability is nonzero; the engine and the run driver
rely on this draw order for determinism. The receivers AND the participant
mask transmit in wave k+1. With a loss probability of zero the waves are a
breadth-first search through the participant set.

A zero-loss flood depends on nothing but its initiator and participant
mask, so flood memoizes its outcome per topology under that key. The memo
holds at most MEMO_CAP entries and drops its oldest entry first. A memo hit
returns the shared outcome object: callers must treat every FloodOutcome,
its hops and its receiver list as read-only. Argument checks run on every
call, hit or miss.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import SimConfig

if TYPE_CHECKING:
    from .topology import Topology

# Zero-loss outcomes kept per topology.
MEMO_CAP = 1024


@dataclass
class FloodOutcome:
    """Result of one flood: who received, and at which hop count.

    hops maps node id to hop distance; the initiator is present with hop 0.
    Nodes absent from hops did not receive. heard lists the receivers that
    are also participants, in ascending order; the engine's participants
    are the nodes awake in a slot, so heard is the slot's received list.
    Outcomes may be shared between floods, so neither hops nor heard may be
    mutated.
    """

    initiator: int
    hops: dict[int, int]
    heard: list[int]

    def received(self, node: int) -> bool:
        return node in self.hops

    def received_nodes(self) -> list[int]:
        return sorted(self.hops)


def waves(
    masks: dict[int, int],
    initiator: int,
    relays: int,
    loss_probability: float = 0.0,
    rng: random.Random | None = None,
) -> tuple[dict[int, int], list[int]]:
    """The wave kernel.

    masks maps every node to its neighbour mask and relays is the mask of
    the nodes that retransmit after receiving; the initiator always
    transmits. Returns the hop count of every receiver, and the receivers
    that retransmitted, in the order they received.
    """
    hops = {initiator: 0}
    received = 1 << initiator
    relayed: list[int] = []
    transmitters = [initiator]
    counter = 1
    while transmitters:
        candidates = 0
        for tx in transmitters:
            candidates |= masks[tx]
        candidates &= ~received
        transmitters = []
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            if loss_probability and rng.random() < loss_probability:
                continue
            node = low.bit_length() - 1
            hops[node] = counter
            received |= low
            if relays & low:
                transmitters.append(node)
        relayed += transmitters
        counter += 1
    return hops, relayed


def flood(
    topology: Topology,
    initiator: int,
    payload: bytes,
    participants: int,
    loss_probability: float = 0.0,
    rng: random.Random | None = None,
    max_payload_len: int = SimConfig.max_payload_len,
) -> FloodOutcome:
    """Run one flood and report reception per node.

    Args:
        topology: the connectivity graph.
        initiator: node that starts the flood, transmits regardless of the
            participant set.
        payload: application bytes carried by the flood.
        participants: mask of the nodes allowed to retransmit after
            receiving (bit n = node n, as built by Topology.mask_of).
            Callers compute it once per distinct participant set.
        loss_probability: per node, per wave reception failure probability.
        rng: required when loss_probability > 0; draws happen in node id
            order within each wave.
        max_payload_len: upper bound on payload size.

    Returns:
        FloodOutcome with hop counts for every node that received. At loss
        zero the outcome may be shared with earlier and later floods.
    """
    if initiator not in topology:
        raise ValueError(f"flood initiator {initiator} not in topology")
    if len(payload) > max_payload_len:
        raise ValueError(
            f"payload of {len(payload)} bytes exceeds limit {max_payload_len}"
        )
    if not 0.0 <= loss_probability < 1.0:
        raise ValueError(f"loss probability {loss_probability} outside [0, 1)")
    if loss_probability > 0.0 and rng is None:
        raise ValueError("an rng is required when loss_probability > 0")

    if loss_probability > 0.0:
        return _outcome(topology, initiator, participants, loss_probability, rng)
    memo = topology.flood_memo
    key = (initiator, participants)
    outcome = memo.get(key)
    if outcome is None:
        if len(memo) >= MEMO_CAP:
            del memo[next(iter(memo))]
        outcome = memo[key] = _outcome(topology, initiator, participants, 0.0, None)
    return outcome


def _outcome(
    topology: Topology,
    initiator: int,
    relays: int,
    loss_probability: float,
    rng: random.Random | None,
) -> FloodOutcome:
    hops, relayed = waves(
        topology.neighbor_masks, initiator, relays, loss_probability, rng
    )
    if relays >> initiator & 1:
        relayed.append(initiator)
    # sorted() copies into a list of exact size, which traces keep
    return FloodOutcome(initiator, hops, sorted(relayed))


@dataclass
class ClockState:
    """Synchronization state of one node's local clock.

    A node stays usable as long as the worst-case clock offset accumulated
    since its last resynchronization stays within the guard window around
    slot boundaries. Once the offset exceeds the guard the node can no
    longer hit its slots and must fall back to bootstrap listening.
    """

    drift_ppm: float = 0.0
    guard: int = SimConfig.glossy_guard_time
    last_sync_time: int = 0

    def offset_at(self, now: int) -> float:
        """Worst-case accumulated offset in microseconds at time now."""
        return (now - self.last_sync_time) * abs(self.drift_ppm) * 1e-6

    def apply_sync(self, now: int) -> None:
        """Record a successful sync reception at time now."""
        self.last_sync_time = now

    def check_guard(self, now: int) -> bool:
        """Return True while the clock is still trustworthy at time now.

        Only an offset strictly over the guard fails; an offset exactly
        equal to the guard still counts as synced. Whether the node is
        synced at all is NodeState.bootstrap, not the clock's business.
        """
        return self.offset_at(now) <= self.guard
