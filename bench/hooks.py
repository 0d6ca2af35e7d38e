"""Span tracer for the traced pass: wraps the simulator's layer functions
from outside, at the names the simulator itself looks up.

Spans are folded into per-name totals in memory as they close. A span's
self time is its duration minus the time of the hooked calls it made. The
wrapper's own bookkeeping is charged to neither the span nor its parent but
to ``overhead_s``, so the root span's duration equals the sum of every self
time plus ``overhead_s``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# The one hook table: (span name, module, attribute path in that module).
# Each target is replaced where its caller looks it up: the engine and the
# sim import these functions by name, so the wrapper goes into their
# namespace. A target that no longer exists is reported as absent.
HOOKS = [
    ("glossy.flood", "lwbsim.engine", "flood"),
    ("forwarding.data_participants", "lwbsim.engine", "data_participants"),
    ("forwarding.apply_announce", "lwbsim.engine", "apply_announce"),
    ("forwarding.refresh_sink_distances", "lwbsim.engine", "refresh_sink_distances"),
    ("core.contend", "lwbsim.engine", "contend"),
    ("core.sink_assign", "lwbsim.engine", "sink_assign"),
    ("engine.execute_round", "lwbsim.sim", "execute_round"),
    ("core.advance_phase", "lwbsim.sim", "advance_phase"),
    ("core.sink_build_sync", "lwbsim.sim", "sink_build_sync"),
    ("core.update_rr_dynamics", "lwbsim.sim", "update_rr_dynamics"),
    ("metrics.accumulate", "lwbsim.metrics", "RunMetrics.accumulate"),
    ("sim.render_trace", "lwbsim", "render_trace"),
]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)


def _observe_flood(
    stats: SpanStats,
    outcome,
    topology,
    initiator,
    payload,
    participants,
    loss_probability=0.0,
    *_rest,
    **_kw,
) -> None:
    """Per-flood counts: receivers, participant set size, and whether a
    lossless flood repeats an earlier (topology, initiator, participant set)."""
    extra = stats.extra
    extra["nodes_reached"] = extra.get("nodes_reached", 0) + len(outcome.hops) - 1
    extra["participants"] = extra.get("participants", 0) + len(participants)
    if loss_probability == 0.0:
        seen = extra.setdefault("lossless_keys", set())
        key = (topology, initiator, frozenset(participants))
        extra["lossless"] = extra.get("lossless", 0) + 1
        if key in seen:
            extra["lossless_repeats"] = extra.get("lossless_repeats", 0) + 1
        else:
            seen.add(key)


OBSERVERS = {"glossy.flood": _observe_flood}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self.observe_failed: list[str] = []
        self.overhead_s = 0.0
        # Hooked time spent inside each open span; [0] is the root.
        self._children: list[float] = [0.0]

    def install(self) -> None:
        for name, module_name, path in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(name, target, OBSERVERS.get(name)))

    def root_span(self, fn, *args):
        """Call fn as a root span; return (result, seconds, hooked seconds)."""
        self._children[0] = 0.0
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        return result, elapsed, self._children[0]

    def _wrap(self, name, fn, observe):
        stats = self.spans.setdefault(name, SpanStats())
        children = self._children
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            enter = clock()
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
            stats.calls += 1
            stats.self_s += elapsed - inner
            if observe is not None and name not in tracer.observe_failed:
                try:
                    observe(stats, result, *args, **kwargs)
                except (TypeError, AttributeError):
                    tracer.observe_failed.append(name)
            spent = clock() - enter
            children[-1] += spent
            tracer.overhead_s += spent - elapsed
            return result

        return wrapper
