"""Forwarder selection: deciding who stays awake for which data slot.

With forwarder selection enabled every request group carries a third slot.
The sink's reply flood tells each node its hop distance from the sink. The
fresh slot owner then floods an announcement carrying that distance and the
slot index; every listener measures its own hop distance from the source in
the same flood and keeps the slot only if the two distances add up exactly,
which means the node sits on a shortest path between sink and source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import NodeState
from .glossy import FloodOutcome, ids_of


@dataclass(frozen=True)
class AnnouncePacket:
    source: int
    distance: int  # announced hop distance of the source from the sink
    slot: int


def refresh_sink_distances(nodes: dict[int, NodeState], outcome: FloodOutcome) -> None:
    """Record hop distances from a reply flood initiated by the sink.

    Every participant of the flood that received it remembers its hop count
    as its current distance from the sink. Nodes that missed the flood, or
    slept through it, keep their previous value.
    """
    for hop, layer in enumerate(outcome.layers):
        for node_id in ids_of(layer & outcome.relays):
            nodes[node_id].sink_distance = hop


def build_announce(source: int, state: NodeState, assigned_slot: int) -> AnnouncePacket | None:
    """Build node source's announcement from its state, or None when it
    cannot announce.

    A source that never learned its distance from the sink (it missed the
    reply flood) stays silent; the slot then falls back to everyone
    participating.
    """
    if state.sink_distance is None:
        return None
    return AnnouncePacket(source, state.sink_distance, assigned_slot)


def apply_announce(
    state: NodeState, announce: AnnouncePacket, hop: int | None
) -> None:
    """Update one node's forwarder table from an announcement it heard.

    hop is the node's hop count in the announce flood (0 for the source
    itself) or None when the node missed the flood. The node keeps the slot
    exactly when its distance from the sink plus its distance from the
    source equals the announced sink-source distance. Missing either
    distance leaves the node out of the forwarder set; a missed flood
    leaves the previous decision untouched.
    """
    if hop is None:
        return
    if state.sink_distance is not None and state.sink_distance + hop == announce.distance:
        state.forwarder_slots.add(announce.slot)
    else:
        state.forwarder_slots.discard(announce.slot)


def forwarder_index(
    awake: list[int], nodes: dict[int, NodeState], announced: Iterable[int]
) -> dict[int, int]:
    """Map every announced slot to the mask of its forwarders among the
    awake nodes. A slot that was never announced has no entry."""
    index = dict.fromkeys(announced, 0)
    for node_id in awake:
        for slot in nodes[node_id].forwarder_slots:
            index[slot] |= 1 << node_id
    return index


def data_participants(
    awake: int, forwarders: dict[int, int], slot_id: int, owner: int, sink: int
) -> int:
    """Mask of the nodes awake for one data slot.

    awake is the mask of the active nodes and forwarders the round's
    forwarder_index. Without forwarder selection nothing is announced and
    every active node takes part; so does everyone in a slot whose owner
    never announced, so packets are not lost to missing metadata. An
    announced slot wakes its forwarders plus the owner, when active, and
    the sink, which is always active.
    """
    selected = forwarders.get(slot_id)
    if selected is None:
        return awake
    return selected | (awake & 1 << owner) | 1 << sink
