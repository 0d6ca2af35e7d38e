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
from typing import NamedTuple

from .config import (
    POLICY_CAPTURE,
    POLICY_COLLISION,
    SHORT_ROUND_US,
    TRIGGER_ROUNDS,
    TRIGGER_SLOTS,
    SimConfig,
)
from .errors import SimulationError, SlotCapacityError

PHASE_COOLOFF = "cool-off"
PHASE_STABILIZATION = "stabilization"
PHASE_OPERATIONAL = "operational"


class SyncHeader(NamedTuple):
    """Contents of the sync packet: the shape of the round it opens."""

    round_period: int
    n_rr: int
    n_data: int


class SinkSchedule:
    """Sink-side view of the whole bus: phase_clock is the time spent in the
    current phase and slot_owner[i] the owner of slot index i."""

    __slots__ = ("phase", "phase_clock", "slot_owner", "rr_current", "empty_streak")

    def __init__(
        self, phase: str = PHASE_COOLOFF, phase_clock: int = 0,
        slot_owner: list[int] | None = None, rr_current: int = 0, empty_streak: int = 0,
    ) -> None:
        self.phase, self.phase_clock, self.rr_current = phase, phase_clock, rr_current
        self.slot_owner = [] if slot_owner is None else slot_owner
        self.empty_streak = empty_streak

    def assert_injective(self) -> None:
        """The table is dense by construction; no node may own two slots."""
        if len(set(self.slot_owner)) != len(self.slot_owner):
            raise SimulationError("slot table lost injectivity")


class NodeState:
    """What one node keeps besides the World masks of the bootstrap and
    granted nodes. drift_ppm is its clock's drift and last_sync the start
    of the last round whose sync flood it received, written only for a
    drifting node: the clock guard, its one reader, skips the others."""

    __slots__ = ("drift_ppm", "last_sync", "queue")

    def __init__(
        self, drift_ppm: float = 0.0, last_sync: int = 0,
        queue: deque | None = None,  # (gen_round, payload_len)
    ) -> None:
        self.drift_ppm, self.last_sync = drift_ppm, last_sync
        self.queue = deque() if queue is None else queue


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


def last_round_start(config: SimConfig) -> int:
    """Start of the run's last round. advance_phase gives ceil(COOLOFF_PERIOD
    / 1 s) + ceil(STABILIZATION_PERIOD / 1 s) one second rounds, then rounds
    of MINIMUM_LWB_ROUND; the last round starts before DURATION."""
    short, end = SHORT_ROUND_US, config.duration - 1
    rounds = -(-config.cooloff_period // short) - (-config.stabilization_period // short)
    period = short if end < rounds * short else config.minimum_lwb_round
    return end - (end - rounds * short) % period


def data_round_cadence(config: SimConfig, op_round_index: int) -> bool:
    """True when the given operational round carries data slots.

    Rounds fire every MINIMUM_LWB_ROUND, so operational round k starts at
    phase clock k * MINIMUM_LWB_ROUND; one in every floor(IPI / round)
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
        if data_round_cadence(config, schedule.phase_clock // config.minimum_lwb_round):
            return SyncHeader(
                config.minimum_lwb_round,
                config.rr_group_size,
                len(schedule.slot_owner),
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
) -> int:
    """Grant the requester a data slot, reusing an existing grant, and
    return the slot index.

    Assignment is dense: the next free slot index. Asking again returns the
    already assigned slot so lost replies are harmless. Raises
    SlotCapacityError when the round cannot hold another data slot.
    """
    owners = schedule.slot_owner
    if requester in owners:
        return owners.index(requester)
    if capacity is not None and len(owners) >= capacity:
        raise SlotCapacityError(
            f"no data slot left for node {requester}: "
            f"{len(owners)} slots already fill the round"
        )
    owners.append(requester)
    return len(owners) - 1


def update_rr_dynamics(schedule: SinkSchedule, slots: list, config: SimConfig) -> None:
    """Shrink the request block once contention has died down.

    slots are the finished round's slot traces; a request slot is empty
    when the sink heard no requester in it (it was not delivered). Two
    consecutive empty request slots (or, with the round trigger, two
    consecutive fully empty rounds) drop the block to one group for every
    later round. Reduction is permanent: nothing raises rr_current again
    once stabilization has started.
    """
    trigger = config.rr_reduction_trigger
    empties = [not slot.delivered for slot in slots if slot.kind == "request"]
    if trigger == TRIGGER_ROUNDS:
        empties = [all(empties)] if empties else []
    elif trigger != TRIGGER_SLOTS:
        raise SimulationError(f"unknown reduction trigger {trigger!r}")
    for empty in empties:
        schedule.empty_streak = schedule.empty_streak + 1 if empty else 0
        if schedule.empty_streak >= 2:
            schedule.rr_current = config.rr_group_size
