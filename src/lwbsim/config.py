"""Simulation configuration: protocol parameters plus simulator knobs.

Config files are plain "KEY = value" text. Keys are case insensitive and
match the protocol parameter names (IPI, MINIMUM_LWB_ROUND, ...). Durations
accept the suffixes s, ms and us; a bare number means seconds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .units import US_PER_MS, US_PER_S, format_duration, parse_duration

log = logging.getLogger(__name__)

POLICY_CAPTURE = "capture"
POLICY_COLLISION = "collision"

TRIGGER_SLOTS = "slots"
TRIGGER_ROUNDS = "rounds"

# One stabilization or cool-off round always spans one second.
SHORT_ROUND_US = US_PER_S


@dataclass
class SimConfig:
    """All tunables for one run. Durations are integer microseconds."""

    ipi: int = 10 * US_PER_S
    minimum_lwb_round: int = 5 * US_PER_S
    cooloff_period: int = 10 * US_PER_S
    stabilization_period: int = 10 * US_PER_S
    max_payload_len: int = 40
    sink_node_id: int = 1
    max_node_number: int = 150
    forwarder_selection: bool = False
    glossy_guard_time: int = 2 * US_PER_MS
    slot_length: int = 15 * US_PER_MS
    sync_slot_length: int | None = None
    loss_probability: float = 0.0
    drift_ppm_range: tuple[float, float] = (0.0, 0.0)
    contention_policy: str = POLICY_CAPTURE
    rr_reduction_trigger: str = TRIGGER_SLOTS
    queue_capacity: int = 8
    seed: int = 1
    duration: int = 60 * US_PER_S

    def __post_init__(self) -> None:
        if self.sync_slot_length is None:
            self.sync_slot_length = self.slot_length

    @property
    def mode(self) -> str:
        return "fs-lwb" if self.forwarder_selection else "lwb"

    @property
    def rr_group_size(self) -> int:
        """Slots per request group: request/reply pairs, plus an announce
        slot when forwarder selection is on."""
        return 3 if self.forwarder_selection else 2

    def initial_rr_slots(self) -> int:
        """Request/reply slots announced at the start of stabilization.

        As many slots as fit into a one second round after the sync slot,
        rounded down to a whole group, but never below one group.
        """
        avail = (SHORT_ROUND_US - self.sync_slot_length) // self.slot_length
        group = self.rr_group_size
        return max(group, avail - avail % group)

    def data_slot_capacity(self) -> int:
        """Data slots that fit into one operational round after the sync
        slot and the minimum request group."""
        used = self.sync_slot_length + self.rr_group_size * self.slot_length
        return max(0, (self.minimum_lwb_round - used) // self.slot_length)

    def validate(self) -> None:
        problems: list[str] = []
        for f in fields(self):
            value = getattr(self, f.name)
            parts = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in parts):
                problems.append(f"{f.name.upper()} must be finite")
        if self.ipi < self.minimum_lwb_round:
            problems.append(
                f"IPI ({format_duration(self.ipi)}) must be at least "
                f"MINIMUM_LWB_ROUND ({format_duration(self.minimum_lwb_round)})"
            )
        if self.minimum_lwb_round <= 0:
            problems.append("MINIMUM_LWB_ROUND must be positive")
        if self.slot_length <= 0:
            problems.append("SLOT_LENGTH must be positive")
        if self.sync_slot_length <= 0:
            problems.append("SYNC_SLOT_LENGTH must be positive")
        if self.cooloff_period < 0 or self.stabilization_period < 0:
            problems.append("phase periods must not be negative")
        if self.max_payload_len < 0:
            problems.append("MAX_PAYLOAD_LEN must not be negative")
        if self.max_node_number > 65535:  # Sky/Contiki node ids are 16 bit
            problems.append("MAX_NODE_NUMBER must not exceed 65535")
        if not 1 <= self.sink_node_id <= self.max_node_number:
            problems.append(
                f"SINK_NODE_ID {self.sink_node_id} outside [1, {self.max_node_number}]"
            )
        if self.glossy_guard_time < 0:
            problems.append("GLOSSY_GUARD_TIME must not be negative")
        if not 0.0 <= self.loss_probability < 1.0:
            problems.append("LOSS_PROBABILITY must lie in [0, 1)")
        lo, hi = self.drift_ppm_range
        if lo > hi:
            problems.append("DRIFT_PPM_RANGE low bound exceeds high bound")
        if self.contention_policy not in (POLICY_CAPTURE, POLICY_COLLISION):
            problems.append(
                f"CONTENTION_POLICY must be '{POLICY_CAPTURE}' or '{POLICY_COLLISION}'"
            )
        if self.rr_reduction_trigger not in (TRIGGER_SLOTS, TRIGGER_ROUNDS):
            problems.append(
                f"RR_REDUCTION_TRIGGER must be '{TRIGGER_SLOTS}' or '{TRIGGER_ROUNDS}'"
            )
        if self.seed < 0:
            problems.append("SEED must not be negative")
        if self.queue_capacity < 1:
            problems.append("QUEUE_CAPACITY must be at least 1")
        if self.duration <= 0:
            problems.append("DURATION must be positive")
        if self.slot_length > 0:
            needed = self.sync_slot_length + self.rr_group_size * self.slot_length
            if needed > SHORT_ROUND_US:
                problems.append(
                    "SLOT_LENGTH too large: one sync slot plus one request group "
                    "must fit into a one second round"
                )
            if needed > self.minimum_lwb_round:
                problems.append(
                    "MINIMUM_LWB_ROUND too small for a sync slot plus one "
                    "request group"
                )
        if problems:
            raise ConfigError("; ".join(problems))
        if self.ipi % self.minimum_lwb_round != 0:
            effective = (self.ipi // self.minimum_lwb_round) * self.minimum_lwb_round
            log.warning(
                "IPI %s is not a multiple of MINIMUM_LWB_ROUND %s; "
                "effective IPI for data rounds is %s",
                format_duration(self.ipi),
                format_duration(self.minimum_lwb_round),
                format_duration(effective),
            )

    def to_text(self) -> str:
        """Serialize so that parse_config() reproduces this config."""
        lines = [
            f"{key} = {fmt(getattr(self, name))}"
            for key, (name, _, fmt) in CONFIG_KEYS.items()
        ]
        return "\n".join(lines) + "\n"


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_drift(value: str) -> tuple[float, float]:
    if ":" in value:
        lo_s, hi_s = value.split(":", 1)
        return (float(lo_s), float(hi_s))
    r = abs(float(value))
    return (-r, r)


def _format_drift(value: tuple[float, float]) -> str:
    lo, hi = value
    return f"{lo!r}:{hi!r}"


_DURATION = (parse_duration, format_duration)
_INT = (int, str)
_WORD = (str.lower, str)

# KEY -> (SimConfig field, parse, format), in to_text() order.
CONFIG_KEYS = {
    "IPI": ("ipi", *_DURATION),
    "MINIMUM_LWB_ROUND": ("minimum_lwb_round", *_DURATION),
    "COOLOFF_PERIOD": ("cooloff_period", *_DURATION),
    "STABILIZATION_PERIOD": ("stabilization_period", *_DURATION),
    "MAX_PAYLOAD_LEN": ("max_payload_len", *_INT),
    "SINK_NODE_ID": ("sink_node_id", *_INT),
    "MAX_NODE_NUMBER": ("max_node_number", *_INT),
    "FORWARDER_SELECTION": ("forwarder_selection", _parse_bool, lambda v: str(int(v))),
    "GLOSSY_GUARD_TIME": ("glossy_guard_time", *_DURATION),
    "SLOT_LENGTH": ("slot_length", *_DURATION),
    "SYNC_SLOT_LENGTH": ("sync_slot_length", *_DURATION),
    "LOSS_PROBABILITY": ("loss_probability", float, repr),
    "DRIFT_PPM_RANGE": ("drift_ppm_range", _parse_drift, _format_drift),
    "CONTENTION_POLICY": ("contention_policy", *_WORD),
    "RR_REDUCTION_TRIGGER": ("rr_reduction_trigger", *_WORD),
    "QUEUE_CAPACITY": ("queue_capacity", *_INT),
    "SEED": ("seed", *_INT),
    "DURATION": ("duration", *_DURATION),
}

VALID_KEYS = sorted(CONFIG_KEYS)


def parse_config(text: str) -> SimConfig:
    """Parse and validate a config document. Missing keys take defaults."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected KEY = value, got {line!r}")
        key_raw, _, val_raw = line.partition("=")
        key = key_raw.strip().upper()
        if key not in CONFIG_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(VALID_KEYS)
            )
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} already set on line {first_line[key]}")
        first_line[key] = lineno
        name, parse, _ = CONFIG_KEYS[key]
        try:
            values[name] = parse(val_raw.strip())
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc

    config = SimConfig(**values)  # type: ignore[arg-type]
    config.validate()
    return config
