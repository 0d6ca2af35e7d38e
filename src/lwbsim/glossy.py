"""Glossy-style network floods.

A flood is modeled as a synchronous wave process instead of a per-bit radio
simulation, and every wave is computed on node bitmasks: bit n of an int
stands for node n, and the topology holds one neighbour mask per node.

The initiator transmits with relay counter 1 in wave 0. The candidates of
wave k are the OR of the neighbour masks of the wave k-1 transmitters, minus
every node that has already received. Each candidate receives subject to
one independent loss draw; a lost draw clears its bit, and the bits left
are wave k's receivers, at hop distance k. Loss draws go low bit first,
which is ascending node id, one per candidate, and only happen when the
loss probability is nonzero; the engine and the run driver rely on this
draw order for determinism. The receivers AND the participant mask
transmit in wave k+1; participant bits that name no node (above the
largest id, or those of a negative mask) relay nothing.

A wave turns its candidate mask into bytes once and walks only the bytes
that can hold a node, ascending (Topology.byte_rows). In a nonzero byte a
lossy wave draws for each set bit, low bit first (BYTE_BITS): one draw per
candidate in ascending id order; a lossless wave draws for none
(NO_DRAWS). A byte that lost any candidate clears them with one OR into
the wave's lost mask, and its kept relays add their neighbour masks to
wave k+1's candidates with one lookup per nibble, in the topology's
tables of the neighbour union of every subset of a nibble's four ids.
With a loss probability of zero the waves are a breadth-first search
through the participant set.

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
memo. It is a Memo, so it holds at most MEMO_CAP entries in total, an
initiator's outcome and a participant mask's components counting as one
each, and drops its oldest entry first. A memo hit returns the shared
outcome object: callers must treat every FloodOutcome as read-only.
Argument checks run on every call, hit or miss.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Hashable

if TYPE_CHECKING:
    from .topology import Topology

MEMO_CAP = 1024


class Memo(dict):
    """A dict of at most MEMO_CAP entries, the one cache type of a run: a
    topology's flood memo, a world's radio rows and a render's text memos.
    put stores a value, first dropping the oldest entry when a new key would
    take the memo past the cap; a key put again keeps its place. A memo made
    with make fills a missing key with make(key) on its first lookup."""

    def __init__(self, make: Callable[[Hashable], object] | None = None) -> None:
        self.make = make

    def put(self, key: Hashable, value):
        if len(self) >= MEMO_CAP and key not in self:
            del self[next(iter(self))]
        self[key] = value
        return value

    def __missing__(self, key: Hashable):
        if self.make is None:
            raise KeyError(key)
        return self.put(key, self.make(key))


# The set bits of every byte value, low bit first; a lossless wave draws
# for none of them.
BYTE_BITS = tuple(tuple(1 << b for b in range(8) if v >> b & 1) for v in range(256))
NO_DRAWS = ((),) * 256


class FloodOutcome:
    """Result of one flood: who received, and at which hop count.

    layers[k] masks the nodes at hop distance k (layers[0] is the
    initiator), reached is their OR and relays is the participant mask; a
    relay at hop k is a bit of layers[k] & relays. An outcome served from
    its relay component (serve) has no layers until they are first read,
    when the same kernel builds them. Outcomes may be shared between floods,
    so none of these may be mutated.
    """

    __slots__ = ("initiator", "_layers", "reached", "relays", "_masks", "_tables")

    def __init__(self, initiator: int, layers: list[int], relays: int) -> None:
        self.initiator = initiator
        self._layers = layers
        self.reached = sum(layers)  # disjoint layers sum to their OR
        self.relays = relays

    def serve(self, initiator: int, topology: Topology) -> FloodOutcome:
        """The outcome of a zero-loss flood from initiator, another relay of
        this outcome's relay component: the same reach, with its layers
        left for the kernel to build when first read."""
        outcome = object.__new__(FloodOutcome)
        outcome.initiator, outcome.reached, outcome.relays = initiator, self.reached, self.relays
        outcome._layers = None
        outcome._masks, outcome._tables = topology.neighbor_masks, topology.byte_rows
        return outcome

    @property
    def layers(self) -> list[int]:
        """The receivers of every wave, the initiator's first."""
        if self._layers is None:
            self._layers = waves(self._masks, self._tables, self.initiator, self.relays)
        return self._layers

    def received(self, node: int) -> bool:
        return self.reached >> node & 1 == 1


def ids_of(mask: int) -> list[int]:
    """The node ids of a mask, ascending; ValueError on a negative mask."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    ids: list[int] = []
    while mask:
        low = mask & -mask
        mask ^= low
        ids.append(low.bit_length() - 1)
    return ids


def waves(
    masks: dict[int, int],
    tables: tuple[int, int, tuple],
    initiator: int,
    relays: int,
    loss_probability: float = 0.0,
    rng: random.Random | None = None,
) -> list[int]:
    """The wave kernel: the receiver mask of every wave, the initiator's
    first. masks and tables are the topology's neighbor_masks and
    byte_rows; relays masks the nodes that retransmit after receiving, and
    the initiator always transmits. Waves are walked a byte at a time (see
    the module docstring).
    """
    width, nodes, rows = tables
    relay_bytes = (relays & nodes).to_bytes(width, "little")
    draw = rng.random if loss_probability else None
    bits_of = BYTE_BITS if loss_probability else NO_DRAWS
    reached = 1 << initiator
    layers = [reached]
    pool = masks[initiator]
    while True:
        layer = pool & ~reached
        if not layer:
            break
        pool = lost = 0
        data = layer.to_bytes(width, "little")
        for i, lo, hi in rows:
            byte = data[i]
            if byte:
                kept = byte
                for bit in bits_of[byte]:
                    if draw() < loss_probability:
                        kept ^= bit
                if kept != byte:
                    lost |= (byte ^ kept) << 8 * i
                kept &= relay_bytes[i]
                if kept:
                    pool |= lo[kept & 15] | hi[kept >> 4]
        layer ^= lost
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
        masks, tables = topology.neighbor_masks, topology.byte_rows
        layers = waves(masks, tables, initiator, participants, loss_probability, rng)
        return FloodOutcome(initiator, layers, participants)
    memo = topology.flood_memo
    key = (initiator, participants)
    outcome = memo.get(key)
    if outcome is not None:
        return outcome
    relay = participants >> initiator & 1
    known = memo.get(participants, ()) if relay else ()
    shared = next((o for o in known if o.reached >> initiator & 1), None)
    if shared is not None:
        outcome = shared.serve(initiator, topology)
    else:
        layers = waves(topology.neighbor_masks, topology.byte_rows, initiator, participants)
        outcome = FloodOutcome(initiator, layers, participants)
        if relay:
            memo.put(participants, (*known, outcome))
    return memo.put(key, outcome)
