"""Glossy-style network floods.

A flood is modeled as a synchronous wave process instead of a per-bit radio
simulation, and every wave is computed on node bitmasks: bit n of an int
stands for node n, and the topology holds one neighbour mask per node.

The initiator transmits with relay counter 1 in wave 0. The candidates of
wave k are the OR of the neighbour masks of the wave k-1 transmitters, minus
every node that has already received. Each candidate receives subject to
one independent loss draw; a lost draw clears its bit, and the bits left
are wave k's receivers, at hop distance k. Loss draws go low bit
first, which is ascending node id, and only happen when the loss
probability is nonzero; the engine and the run driver rely on this draw
order for determinism. The receivers AND the participant mask transmit in
wave k+1: the walk that draws a candidate's loss ORs a kept relay's
neighbour mask into wave k+1's candidates at once, so no id list is built
and no receiver is visited twice. With a loss probability of zero the
waves are a breadth-first search through the participant set.

A zero-loss flood depends on nothing but its initiator and participant
mask, so flood memoizes its outcome per topology under that key. The memo
holds at most MEMO_CAP entries and drops its oldest entry first. A memo hit
returns the shared outcome object: callers must treat every FloodOutcome
as read-only. Argument checks run on every call, hit or miss.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .topology import Topology

# Zero-loss outcomes kept per topology.
MEMO_CAP = 1024


class FloodOutcome:
    """Result of one flood: who received, and at which hop count.

    layers[k] masks the nodes at hop distance k (layers[0] is the
    initiator), reached is their OR and relays is the participant mask; a
    relay at hop k is a bit of layers[k] & relays. Outcomes may be shared
    between floods, so none of these may be mutated.
    """

    __slots__ = ("initiator", "layers", "reached", "relays")

    def __init__(self, initiator: int, layers: list[int], relays: int) -> None:
        self.initiator = initiator
        self.layers = layers
        self.reached = sum(layers)  # disjoint layers sum to their OR
        self.relays = relays

    def received(self, node: int) -> bool:
        return self.reached >> node & 1 == 1


def ids_of(mask: int) -> list[int]:
    """The node ids of a mask, ascending."""
    ids: list[int] = []
    while mask:
        low = mask & -mask
        mask ^= low
        ids.append(low.bit_length() - 1)
    return ids


def waves(
    masks: dict[int, int],
    initiator: int,
    relays: int,
    loss_probability: float = 0.0,
    rng: random.Random | None = None,
) -> list[int]:
    """The wave kernel.

    masks maps every node to its neighbour mask and relays is the mask of
    the nodes that retransmit after receiving; the initiator always
    transmits. Returns the receiver mask of every wave, the initiator's
    first. The walk over a wave's candidates that draws their losses also
    ORs the neighbour mask of every kept relay into the next wave's pool;
    a lossless wave walks only its relays.
    """
    draw = rng.random if loss_probability else None
    reached = 1 << initiator
    layers = [reached]
    pool = masks[initiator]
    while True:
        layer = pool & ~reached
        pool = 0
        if draw:
            candidates = layer
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                if draw() < loss_probability:
                    layer ^= low
                elif low & relays:
                    pool |= masks[low.bit_length() - 1]
        else:
            candidates = layer & relays
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                pool |= masks[low.bit_length() - 1]
        if not layer:
            break
        reached |= layer
        layers.append(layer)
    return layers


def flood(
    topology: Topology,
    initiator: int,
    participants: int,
    loss_probability: float = 0.0,
    rng: random.Random | None = None,
) -> FloodOutcome:
    """Run one flood and report reception per node. It carries no packet:
    sim.check_topology checks every packet's size before the run.

    Args:
        topology: the connectivity graph.
        initiator: node that starts the flood, transmits regardless of the
            participant set.
        participants: mask of the nodes allowed to retransmit after
            receiving (bit n = node n, as built by Topology.mask_of).
            Callers compute it once per distinct participant set.
        loss_probability: per node, per wave reception failure probability.
        rng: required when loss_probability > 0; draws happen in node id
            order within each wave.

    Returns:
        FloodOutcome with the receivers of every wave. At loss zero the
        outcome may be shared with earlier and later floods.
    """
    if initiator not in topology.neighbor_masks:
        raise ValueError(f"flood initiator {initiator} not in topology")
    if not 0.0 <= loss_probability < 1.0:
        raise ValueError(f"loss probability {loss_probability} outside [0, 1)")
    if loss_probability > 0.0 and rng is None:
        raise ValueError("an rng is required when loss_probability > 0")

    if loss_probability > 0.0:
        layers = waves(topology.neighbor_masks, initiator, participants, loss_probability, rng)
        return FloodOutcome(initiator, layers, participants)
    memo = topology.flood_memo
    key = (initiator, participants)
    outcome = memo.get(key)
    if outcome is None:
        if len(memo) >= MEMO_CAP:
            del memo[next(iter(memo))]
        layers = waves(topology.neighbor_masks, initiator, participants)
        outcome = memo[key] = FloodOutcome(initiator, layers, participants)
    return outcome
