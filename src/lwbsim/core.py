"""Round and phase machinery shared by both bus modes.

The sink owns the global schedule. Every round starts with a sync flood
whose header announces the round period and the slot counts; nodes follow
whatever the header says. The sink walks three phases:

  cool-off       one second rounds carrying only the sync slot, so joining
                 nodes can lock their clocks before anything else happens
  stabilization  one second rounds packed with request/reply slots where
                 sources acquire data slots; the request block shrinks to
                 the minimum once it goes quiet
  operational    rounds of MINIMUM_LWB_ROUND; data bearing rounds carry the
                 minimum request group plus every assigned data slot, the
                 rounds in between carry only the sync slot
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .config import (
    POLICY_CAPTURE,
    POLICY_COLLISION,
    SHORT_ROUND_US,
    TRIGGER_ROUNDS,
    TRIGGER_SLOTS,
    SimConfig,
)
from .errors import SimulationError, SlotCapacityError
from .glossy import ClockState

PHASE_COOLOFF = "cool-off"
PHASE_STABILIZATION = "stabilization"
PHASE_OPERATIONAL = "operational"


@dataclass(frozen=True)
class SyncHeader:
    """Contents of the sync packet: the shape of the round it opens."""

    round_period: int
    n_rr: int
    n_data: int


@dataclass(frozen=True)
class ReplyPacket:
    requester: int
    assigned_slot: int


@dataclass(frozen=True)
class DataPacket:
    source: int
    sequence: int | None
    payload: bytes


@dataclass
class SinkSchedule:
    """Sink-side view of the whole bus."""

    phase: str = PHASE_COOLOFF
    phase_clock: int = 0
    slot_owner: dict[int, int] = field(default_factory=dict)
    owner_slot: dict[int, int] = field(default_factory=dict)
    next_free_slot: int = 0
    rr_current: int = 0
    empty_streak: int = 0
    rr_reduced: bool = False
    op_round_index: int = 0

    def assert_injective(self) -> None:
        if len(self.slot_owner) != len(self.owner_slot):
            raise SimulationError("slot table lost injectivity")
        if len(self.slot_owner) != self.next_free_slot:
            raise SimulationError("slot table is not dense")
        for slot, owner in self.slot_owner.items():
            if self.owner_slot.get(owner) != slot:
                raise SimulationError("slot table maps are inconsistent")


@dataclass
class NodeState:
    """Everything one node knows."""

    node_id: int
    clock: ClockState
    bootstrap: bool = True
    my_slot: int | None = None
    sink_distance: int | None = None
    queue: deque = field(default_factory=deque)
    next_sequence: int = 0
    next_generation_time: int = 0
    forwarder_slots: set[int] = field(default_factory=set)


def advance_phase(schedule: SinkSchedule, config: SimConfig) -> None:
    """Move the sink to the next phase when the current one has elapsed.

    Called once per round before building the sync header. Zero length
    periods fall straight through.
    """
    if (
        schedule.phase == PHASE_COOLOFF
        and schedule.phase_clock >= config.cooloff_period
    ):
        schedule.phase = PHASE_STABILIZATION
        schedule.phase_clock = 0
        schedule.rr_current = config.initial_rr_slots()
    if (
        schedule.phase == PHASE_STABILIZATION
        and schedule.phase_clock >= config.stabilization_period
    ):
        schedule.phase = PHASE_OPERATIONAL
        schedule.phase_clock = 0


def data_round_cadence(config: SimConfig, op_round_index: int) -> bool:
    """True when the given operational round carries data slots.

    Rounds fire every MINIMUM_LWB_ROUND; one in every floor(IPI / round)
    rounds is data bearing, clamped so at least every round qualifies when
    IPI equals the round length.
    """
    ratio = max(1, config.ipi // config.minimum_lwb_round)
    return op_round_index % ratio == 0


def sink_build_sync(schedule: SinkSchedule, config: SimConfig) -> SyncHeader:
    """Build the header for the round that starts now."""
    if schedule.phase == PHASE_COOLOFF:
        return SyncHeader(SHORT_ROUND_US, 0, 0)
    if schedule.phase == PHASE_STABILIZATION:
        return SyncHeader(SHORT_ROUND_US, schedule.rr_current, 0)
    if schedule.phase == PHASE_OPERATIONAL:
        if data_round_cadence(config, schedule.op_round_index):
            return SyncHeader(
                config.minimum_lwb_round,
                config.rr_group_size,
                schedule.next_free_slot,
            )
        return SyncHeader(config.minimum_lwb_round, 0, 0)
    raise SimulationError(f"unknown phase {schedule.phase!r}")


def contend(
    contenders: list[int] | set[int], policy: str, rng: random.Random
) -> int | None:
    """Resolve one request slot.

    No contender means an empty slot. A single contender always gets
    through. With several, the capture policy picks a uniformly random
    winner; the collision policy destroys them all.
    """
    pool = sorted(set(contenders))
    if not pool:
        return None
    if len(pool) == 1:
        return pool[0]
    if policy == POLICY_CAPTURE:
        return pool[rng.randrange(len(pool))]
    if policy == POLICY_COLLISION:
        return None
    raise SimulationError(f"unknown contention policy {policy!r}")


def sink_assign(
    schedule: SinkSchedule, requester: int, capacity: int | None = None
) -> ReplyPacket:
    """Grant the requester a data slot, reusing an existing grant.

    Assignment is dense: the next free slot index. Asking again returns the
    already assigned slot so lost replies are harmless. Raises
    SlotCapacityError when the round cannot hold another data slot.
    """
    existing = schedule.owner_slot.get(requester)
    if existing is not None:
        return ReplyPacket(requester, existing)
    if capacity is not None and schedule.next_free_slot >= capacity:
        raise SlotCapacityError(
            f"no data slot left for node {requester}: "
            f"{schedule.next_free_slot} slots already fill the round"
        )
    slot = schedule.next_free_slot
    schedule.slot_owner[slot] = requester
    schedule.owner_slot[requester] = slot
    schedule.next_free_slot += 1
    return ReplyPacket(requester, slot)


def update_rr_dynamics(
    schedule: SinkSchedule, request_outcomes: list[int | None], config: SimConfig
) -> None:
    """Shrink the request block once contention has died down.

    request_outcomes holds, per request slot of the finished round, the
    requester the sink heard or None. Two consecutive empty request slots
    (or, with the round trigger, two consecutive fully empty rounds) drop
    the block to one group for every later round. Reduction is permanent.
    """
    if config.rr_reduction_trigger == TRIGGER_SLOTS:
        for outcome in request_outcomes:
            if outcome is None:
                schedule.empty_streak += 1
                if schedule.empty_streak >= 2:
                    schedule.rr_reduced = True
            else:
                schedule.empty_streak = 0
    elif config.rr_reduction_trigger == TRIGGER_ROUNDS:
        if request_outcomes and all(o is None for o in request_outcomes):
            schedule.empty_streak += 1
            if schedule.empty_streak >= 2:
                schedule.rr_reduced = True
        elif request_outcomes:
            schedule.empty_streak = 0
    else:
        raise SimulationError(
            f"unknown reduction trigger {config.rr_reduction_trigger!r}"
        )
    if schedule.rr_reduced:
        schedule.rr_current = config.rr_group_size
