"""Per-run accounting: radio-on time, delivery and latency bookkeeping.

Duty cycle is radio-on time over elapsed time. Delivery ratio counts a
packet against a source once the packet has left its queue: delivered,
dropped by queue overflow, or lost in flight. Packets still queued at the
end of a run are neither successes nor failures yet, so they do not lower
the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .engine import RoundTrace
from .errors import ComparabilityError, SimulationError


@dataclass
class SourceStats:
    """Delivery accounting for one non-sink node."""

    generated: int = 0
    delivered: int = 0
    dropped: int = 0
    lost: int = 0
    latencies: list[int] = field(default_factory=list)
    acquisition_round: int | None = None
    slot: int | None = None

    @property
    def pending(self) -> int:
        return self.generated - self.delivered - self.dropped - self.lost

    @property
    def pdr(self) -> float:
        accountable = self.delivered + self.dropped + self.lost
        if accountable == 0:
            return 1.0
        return self.delivered / accountable


@dataclass
class RunMetrics:
    """Accumulates round traces in order."""

    node_ids: list[int]
    sink: int
    radio_on: dict[int, int] = field(init=False)
    elapsed: int = 0
    rounds: int = 0
    sources: dict[int, SourceStats] = field(init=False)

    def __post_init__(self) -> None:
        self.node_ids = sorted(self.node_ids)
        self.radio_on = {n: 0 for n in self.node_ids}
        self.sources = {n: SourceStats() for n in self.node_ids if n != self.sink}

    def duty_cycle(self, node: int) -> float:
        if self.elapsed == 0:
            return 0.0
        return self.radio_on[node] / self.elapsed

    def accumulate(self, trace: RoundTrace) -> None:
        """Fold one round into the totals. Rounds must arrive in order."""
        if trace.index != self.rounds:
            raise SimulationError(
                f"round {trace.index} out of order, expected {self.rounds}"
            )
        self.rounds += 1
        self.elapsed += trace.round_period
        for node, us in trace.radio_on.items():
            self.radio_on[node] += us
        for node, _ in trace.generated:
            self.sources[node].generated += 1
        for node in trace.dropped:
            self.sources[node].dropped += 1
        for slot in trace.slots:
            if slot.kind == "reply" and slot.delivered and slot.requester is not None:
                stats = self.sources[slot.requester]
                if stats.acquisition_round is None:
                    stats.acquisition_round = trace.index
                    stats.slot = slot.assigned_slot
            elif slot.kind == "data" and slot.gen_round is not None:
                stats = self.sources[slot.owner]
                if slot.delivered:
                    stats.delivered += 1
                    stats.latencies.append(trace.index - slot.gen_round)
                else:
                    stats.lost += 1

    def to_dict(self) -> dict:
        nodes = {}
        for n in self.node_ids:
            entry: dict = {
                "radio_on_us": self.radio_on[n],
                "duty_cycle": round(self.duty_cycle(n), 9),
            }
            if n != self.sink:
                s = self.sources[n]
                entry.update(
                    generated=s.generated,
                    delivered=s.delivered,
                    dropped=s.dropped,
                    lost=s.lost,
                    pending=s.pending,
                    pdr=round(s.pdr, 9),
                    slot=s.slot,
                    acquisition_round=s.acquisition_round,
                    mean_latency_rounds=(
                        round(sum(s.latencies) / len(s.latencies), 6)
                        if s.latencies
                        else None
                    ),
                )
            nodes[str(n)] = entry
        duties = [self.duty_cycle(n) for n in self.node_ids]
        return {
            "rounds": self.rounds,
            "elapsed_us": self.elapsed,
            "nodes": nodes,
            "aggregate": {
                "mean_duty_cycle": round(sum(duties) / len(duties), 9),
                "max_duty_cycle": round(max(duties), 9),
                "total_drops": sum(s.dropped for s in self.sources.values()),
                "total_delivered": sum(s.delivered for s in self.sources.values()),
            },
        }


def render_summary(metrics: RunMetrics, mode: str, seed: int) -> str:
    """Human readable per-node table plus aggregates."""
    lines = [
        f"run: mode={mode} seed={seed} rounds={metrics.rounds} "
        f"elapsed={metrics.elapsed}us"
    ]
    lines.append(
        f"{'node':>4}  {'duty':>9}  {'pdr':>6}  {'slot':>4}  "
        f"{'acq_round':>9}  {'dlv/gen':>9}  {'drop':>4}"
    )
    for n in metrics.node_ids:
        duty = f"{metrics.duty_cycle(n):.6f}"
        if n == metrics.sink:
            lines.append(
                f"{n:>4}  {duty:>9}  {'-':>6}  {'-':>4}  {'-':>9}  {'-':>9}  {'-':>4}"
            )
            continue
        s = metrics.sources[n]
        slot = "-" if s.slot is None else str(s.slot)
        acq = "-" if s.acquisition_round is None else str(s.acquisition_round)
        lines.append(
            f"{n:>4}  {duty:>9}  {s.pdr:>6.3f}  {slot:>4}  {acq:>9}  "
            f"{f'{s.delivered}/{s.generated}':>9}  {s.dropped:>4}"
        )
    agg = metrics.to_dict()["aggregate"]
    lines.append(
        f"aggregate: mean_duty={agg['mean_duty_cycle']:.6f} "
        f"max_duty={agg['max_duty_cycle']:.6f} drops={agg['total_drops']} "
        f"delivered={agg['total_delivered']}"
    )
    unsynced = [
        n
        for n in metrics.node_ids
        if n != metrics.sink and metrics.sources[n].acquisition_round is None
    ]
    if unsynced:
        lines.append(f"nodes without a slot: {unsynced}")
    return "\n".join(lines) + "\n"


@dataclass
class NodeComparison:
    node: int
    duty_a: float
    duty_b: float
    pdr_a: float | None
    pdr_b: float | None
    acquisition_a: int | None
    acquisition_b: int | None

    @property
    def duty_delta(self) -> float:
        return self.duty_b - self.duty_a


@dataclass
class ComparisonReport:
    label_a: str
    label_b: str
    per_node: list[NodeComparison]

    def render(self) -> str:
        lines = [f"compare: {self.label_a} (a) vs {self.label_b} (b)"]
        lines.append(
            f"{'node':>4}  {'duty_a':>9}  {'duty_b':>9}  {'delta_b-a':>10}  "
            f"{'pdr_a':>6}  {'pdr_b':>6}"
        )
        for row in self.per_node:
            pdr_a = "-" if row.pdr_a is None else f"{row.pdr_a:.3f}"
            pdr_b = "-" if row.pdr_b is None else f"{row.pdr_b:.3f}"
            lines.append(
                f"{row.node:>4}  {row.duty_a:>9.6f}  {row.duty_b:>9.6f}  "
                f"{row.duty_delta:>+10.6f}  {pdr_a:>6}  {pdr_b:>6}"
            )
        lower = sum(1 for r in self.per_node if r.duty_delta < 0)
        equal = sum(1 for r in self.per_node if r.duty_delta == 0)
        lines.append(
            f"aggregate: nodes_lower_in_b={lower} nodes_equal={equal} "
            f"nodes_higher_in_b={len(self.per_node) - lower - equal}"
        )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "nodes": {
                str(r.node): {
                    "duty_a": round(r.duty_a, 9),
                    "duty_b": round(r.duty_b, 9),
                    "duty_delta": round(r.duty_delta, 9),
                    "pdr_a": r.pdr_a,
                    "pdr_b": r.pdr_b,
                    "acquisition_a": r.acquisition_a,
                    "acquisition_b": r.acquisition_b,
                }
                for r in self.per_node
            },
        }


def compare(run_a, run_b) -> ComparisonReport:
    """Compare two finished runs of the same scenario.

    Both runs must use the same topology and agree on every config field
    except forwarder_selection, the one difference a comparison is for;
    anything else would compare apples with oranges and raises
    ComparabilityError.
    """
    if run_a.topology != run_b.topology:
        raise ComparabilityError("runs used different topologies")
    for f in fields(run_a.config):
        a, b = getattr(run_a.config, f.name), getattr(run_b.config, f.name)
        if f.name != "forwarder_selection" and a != b:
            raise ComparabilityError(f"runs used different {f.name}: {a!r} vs {b!r}")
    ma, mb = run_a.metrics, run_b.metrics
    rows = []
    for n in ma.node_ids:
        is_sink = n == ma.sink
        rows.append(
            NodeComparison(
                node=n,
                duty_a=ma.duty_cycle(n),
                duty_b=mb.duty_cycle(n),
                pdr_a=None if is_sink else ma.sources[n].pdr,
                pdr_b=None if is_sink else mb.sources[n].pdr,
                acquisition_a=None if is_sink else ma.sources[n].acquisition_round,
                acquisition_b=None if is_sink else mb.sources[n].acquisition_round,
            )
        )
    return ComparisonReport(run_a.config.mode, run_b.config.mode, rows)
