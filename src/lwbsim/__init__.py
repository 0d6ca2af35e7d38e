"""Slot-stepped simulator for the Low-Power Wireless Bus (LWB) and its
forwarder-selection variant (FS-LWB).

All communication is modeled as scheduled network-wide floods. The package
provides the flood primitive, the round and phase machinery, forwarder
selection, per-run metrics and a command line front end.
"""

from .config import SimConfig, parse_config
from .engine import RoundTrace, SlotTrace, World, execute_round
from .errors import (
    ComparabilityError,
    ConfigError,
    LwbError,
    SimulationError,
    SlotCapacityError,
    TopologyError,
)
from .glossy import FloodOutcome, flood
from .metrics import RunMetrics, compare, render_summary
from .sim import RunResult, forwarder_table, render_trace, run_simulation, write_trace
from .topology import Topology, load_topology

__version__ = "0.1.0"

__all__ = [
    "ComparabilityError",
    "ConfigError",
    "FloodOutcome",
    "LwbError",
    "RoundTrace",
    "RunMetrics",
    "RunResult",
    "SimConfig",
    "SimulationError",
    "SlotCapacityError",
    "SlotTrace",
    "Topology",
    "TopologyError",
    "World",
    "compare",
    "execute_round",
    "flood",
    "forwarder_table",
    "load_topology",
    "parse_config",
    "render_summary",
    "render_trace",
    "run_simulation",
    "write_trace",
]
