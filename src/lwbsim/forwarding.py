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
from .glossy import FloodOutcome


@dataclass(frozen=True)
class AnnouncePacket:
    source: int
    distance: int  # announced hop distance of the source from the sink
    slot: int


def refresh_sink_distances(
    nodes: dict[int, NodeState], listeners: set[int], outcome: FloodOutcome
) -> None:
    """Record hop distances from a reply flood initiated by the sink.

    Every listener that received the flood remembers its hop count as its
    current distance from the sink. Nodes that missed the flood keep their
    previous value.
    """
    for node_id in sorted(outcome.hops):
        if node_id in listeners:
            nodes[node_id].sink_distance = outcome.hops[node_id]


def build_announce(state: NodeState, assigned_slot: int) -> AnnouncePacket | None:
    """Build the owner's announcement, or None when it cannot announce.

    A source that never learned its distance from the sink (it missed the
    reply flood) stays silent; the slot then falls back to everyone
    participating.
    """
    if state.sink_distance is None:
        return None
    return AnnouncePacket(state.node_id, state.sink_distance, assigned_slot)


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
) -> dict[int, list[int]]:
    """Map every announced slot to its forwarders among the awake nodes.

    awake is sorted, so every forwarder list comes out sorted too. A slot
    that was never announced has no entry.
    """
    index: dict[int, list[int]] = {slot: [] for slot in announced}
    for node_id in awake:
        for slot in nodes[node_id].forwarder_slots:
            index[slot].append(node_id)
    return index


def data_participants(
    awake: list[int],
    forwarders: dict[int, list[int]],
    slot_id: int,
    owner: int,
    sink: int,
) -> list[int]:
    """Nodes awake for one data slot, sorted.

    awake is the sorted list of active nodes and forwarders the round's
    forwarder_index. Without forwarder selection nothing is announced and
    every active node takes part; so does everyone in a slot whose owner
    never announced, so packets are not lost to missing metadata. Both cases
    return the awake list object itself. An announced slot wakes its
    forwarders plus the owner, when active, and the sink, which is always
    active; a selection that covers every active node is awake itself too.
    """
    selected = forwarders.get(slot_id)
    if selected is None:
        return awake
    members = set(selected)
    if owner in awake:
        members.add(owner)
    members.add(sink)
    if len(members) == len(awake):
        return awake
    return sorted(members)
