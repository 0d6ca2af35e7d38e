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
mask, so flood memoizes its outcome per topology under that key. A relay
initiator's reach is also its relay component's, C, the relays joined to it
through relays only: the flood's transmitters are exactly C, so it reaches
C and every neighbour of C, and the relays of that reach are C itself (a
relay next to C is in C). Every relay of C therefore floods to the same
reach. The memo keeps, per participant mask, the outcome of one kernel run
per component found; a relay of a known component gets an outcome with its
reach and no kernel run, and the kernel builds that outcome's layers when
they are first read. So a participant mask costs one kernel run per relay
component, plus one per non-relay initiator. Lossy floods never touch the
memo. It holds at most MEMO_CAP entries in total, an initiator's outcome
and a participant mask's components counting as one each, and drops its
oldest entry first. A memo hit returns the shared outcome object: callers
must treat every FloodOutcome as read-only. Argument checks run on every
call, hit or miss.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .topology import Topology

# Memo entries kept per topology: zero-loss outcomes and relay components.
MEMO_CAP = 1024


class FloodOutcome:
    """Result of one flood: who received, and at which hop count.

    layers[k] masks the nodes at hop distance k (layers[0] is the
    initiator), reached is their OR and relays is the participant mask; a
    relay at hop k is a bit of layers[k] & relays. An outcome served from
    its relay component (serve) has no layers until they are first read,
    when the same kernel builds them. Outcomes may be shared between floods,
    so none of these may be mutated.
    """

    __slots__ = ("initiator", "_layers", "reached", "relays", "_masks")

    def __init__(self, initiator: int, layers: list[int], relays: int) -> None:
        self.initiator = initiator
        self._layers = layers
        self.reached = sum(layers)  # disjoint layers sum to their OR
        self.relays = relays

    def serve(self, initiator: int, masks: dict[int, int]) -> FloodOutcome:
        """The outcome of a zero-loss flood from initiator, another relay of
        this outcome's relay component: the same reach, with its layers
        left for the kernel to build when first read."""
        outcome = object.__new__(FloodOutcome)
        outcome.initiator, outcome.reached, outcome.relays = initiator, self.reached, self.relays
        outcome._layers, outcome._masks = None, masks
        return outcome

    @property
    def layers(self) -> list[int]:
        """The receivers of every wave, the initiator's first."""
        if self._layers is None:
            self._layers = waves(self._masks, self.initiator, self.relays)
        return self._layers

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
        outcome may be shared with earlier and later floods, and a relay
        initiator whose relay component an earlier flood over the same
        participant mask reached gets that flood's reached mask, without a
        kernel run; its layers are built when first read.
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
    if outcome is not None:
        return outcome
    masks = topology.neighbor_masks
    relay = participants >> initiator & 1
    known = memo.get(participants, ()) if relay else ()
    shared = next((o for o in known if o.reached >> initiator & 1), None)
    if shared is not None:
        outcome = shared.serve(initiator, masks)
    else:
        outcome = FloodOutcome(initiator, waves(masks, initiator, participants), participants)
        if relay:
            _remember(memo, participants, (*known, outcome))
    return _remember(memo, key, outcome)


def _remember(memo: dict, key: object, value: object):
    """Store value under key, dropping the oldest entry when a new key
    would take the memo past MEMO_CAP."""
    if key not in memo and len(memo) >= MEMO_CAP:
        del memo[next(iter(memo))]
    memo[key] = value
    return value
