"""Per-run accounting: radio-on time, delivery and latency bookkeeping.

Duty cycle is radio-on time over elapsed time. Delivery ratio counts a
packet against a source once the packet has left its queue: delivered,
dropped by queue overflow, or lost in flight. Packets still queued at the
end of a run are neither successes nor failures yet, so they do not lower
the ratio.
"""

from __future__ import annotations

from typing import Iterator

from .config import FIELDS
from .engine import RoundTrace
from .errors import ComparabilityError, SimulationError

PENDING_ROWS = 64  # distinct radio rows RunMetrics counts before adding them up


class SourceStats:
    """Delivery accounting for one non-sink node."""

    __slots__ = ("delivered", "dropped", "lost", "latency_rounds", "acquisition_round", "slot")

    def __init__(self) -> None:
        self.delivered = self.dropped = self.lost = 0
        self.latency_rounds = 0  # summed over the delivered packets
        self.acquisition_round = self.slot = None  # of the first grant the source heard

    @property
    def pdr(self) -> float:
        accountable = self.delivered + self.dropped + self.lost
        if accountable == 0:
            return 1.0
        return self.delivered / accountable


class RunMetrics:
    """Accumulates round traces in order."""

    def __init__(self, node_ids: list[int], sink: int) -> None:
        self.node_ids, self.sink = sorted(node_ids), sink
        self.elapsed = self.rounds = 0
        self.generated = 0  # packets made by each source: every source makes every sequence
        self._radio_on = {n: 0 for n in self.node_ids}
        # Rounds share radio rows: (id(node_ids), id(row)) -> [node_ids, row,
        # rounds not yet in _radio_on]; holding both objects keeps the ids valid.
        self._rows: dict[tuple[int, int], list] = {}
        self.sources = {n: SourceStats() for n in self.node_ids if n != sink}

    def _fold_rows(self) -> dict[int, int]:
        """Radio-on time per node so far, once the pending rows are added in."""
        radio_on = self._radio_on
        for node_ids, row, rounds in self._rows.values():
            for node, us in zip(node_ids, row):
                radio_on[node] += us * rounds
        self._rows.clear()
        return radio_on

    radio_on = property(_fold_rows)

    def duty_cycle(self, node: int) -> float:
        if self.elapsed == 0:
            return 0.0
        return self.radio_on[node] / self.elapsed

    def accumulate(self, trace: RoundTrace) -> None:
        """Fold one round into the totals. Rounds must arrive in order."""
        sources, index = self.sources, trace.index
        if index != self.rounds:
            raise SimulationError(f"round {index} out of order, expected {self.rounds}")
        self.rounds += 1
        self.elapsed += trace.round_period
        key = id(trace.node_ids), id(trace.radio_totals)
        entry = self._rows.get(key)
        if entry is None:
            if len(self._rows) >= PENDING_ROWS:
                self._fold_rows()
            entry = self._rows[key] = [trace.node_ids, trace.radio_totals, 0]
        entry[2] += 1
        self.generated += trace.new_sequences
        for node in trace.dropped:
            sources[node].dropped += 1
        for slot in trace.replies:
            if slot.delivered:
                stats = sources[slot.requester]
                if stats.acquisition_round is None:
                    stats.acquisition_round = index
                    stats.slot = slot.assigned_slot
        for slot in trace.slots[1 + trace.n_rr:]:  # the data slots
            if slot.gen_round is not None:
                stats = sources[slot.owner]
                if slot.delivered:
                    stats.delivered += 1
                    stats.latency_rounds += index - slot.gen_round
                else:
                    stats.lost += 1

    def to_dict(self) -> dict:
        nodes = {}
        for n in self.node_ids:
            duty = round(self.duty_cycle(n), 9)
            entry: dict = {"radio_on_us": self.radio_on[n], "duty_cycle": duty}
            if n != self.sink:
                s = self.sources[n]
                entry.update(
                    generated=self.generated, delivered=s.delivered, dropped=s.dropped,
                    lost=s.lost, pending=self.generated - s.delivered - s.dropped - s.lost,
                    pdr=round(s.pdr, 9), slot=s.slot,
                    acquisition_round=s.acquisition_round, mean_latency_rounds=(
                        round(s.latency_rounds / s.delivered, 6) if s.delivered else None
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
        f"run: mode={mode} seed={seed} rounds={metrics.rounds} elapsed={metrics.elapsed}us"
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
            f"{f'{s.delivered}/{metrics.generated}':>9}  {s.dropped:>4}"
        )
    agg = metrics.to_dict()["aggregate"]
    lines.append(
        f"aggregate: mean_duty={agg['mean_duty_cycle']:.6f} "
        f"max_duty={agg['max_duty_cycle']:.6f} drops={agg['total_drops']} "
        f"delivered={agg['total_delivered']}"
    )
    sources = metrics.sources
    unsynced = [n for n in sources if sources[n].acquisition_round is None]
    if unsynced:
        lines.append(f"nodes without a slot: {unsynced}")
    return "\n".join(lines) + "\n"


class ComparisonReport:
    """Two finished runs side by side, a and b, labelled by their modes. It
    holds both runs' RunMetrics and reads each node's row off them when
    asked, never a copy."""

    def __init__(self, label_a: str, label_b: str, a: RunMetrics, b: RunMetrics) -> None:
        self.label_a, self.label_b, self.a, self.b = label_a, label_b, a, b

    def rows(self) -> Iterator[tuple]:
        """(node, duty_a, duty_b, pdr_a, pdr_b, acquisition_a, acquisition_b)
        per node in id order; the sink's pdr and acquisition are None."""
        a, b = self.a, self.b
        for n in a.node_ids:
            sa, sb = a.sources.get(n), b.sources.get(n)  # None for the sink
            yield (n, a.duty_cycle(n), b.duty_cycle(n), sa and sa.pdr, sb and sb.pdr,
                   sa and sa.acquisition_round, sb and sb.acquisition_round)

    def render(self) -> str:
        lines = [f"compare: {self.label_a} (a) vs {self.label_b} (b)"]
        lines.append(
            f"{'node':>4}  {'duty_a':>9}  {'duty_b':>9}  {'delta_b-a':>10}  "
            f"{'pdr_a':>6}  {'pdr_b':>6}"
        )
        deltas = []
        for n, duty_a, duty_b, pdr_a, pdr_b, _, _ in self.rows():
            deltas.append(delta := duty_b - duty_a)
            pdr_a, pdr_b = ("-" if pdr is None else f"{pdr:.3f}" for pdr in (pdr_a, pdr_b))
            lines.append(
                f"{n:>4}  {duty_a:>9.6f}  {duty_b:>9.6f}  {delta:>+10.6f}  {pdr_a:>6}  {pdr_b:>6}"
            )
        lower, equal = sum(d < 0 for d in deltas), deltas.count(0)
        lines.append(
            f"aggregate: nodes_lower_in_b={lower} nodes_equal={equal} "
            f"nodes_higher_in_b={len(deltas) - lower - equal}"
        )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "a": self.label_a,
            "b": self.label_b,
            "nodes": {
                str(n): {
                    "duty_a": round(duty_a, 9), "duty_b": round(duty_b, 9),
                    "duty_delta": round(duty_b - duty_a, 9), "pdr_a": pdr_a, "pdr_b": pdr_b,
                    "acquisition_a": acq_a, "acquisition_b": acq_b,
                }
                for n, duty_a, duty_b, pdr_a, pdr_b, acq_a, acq_b in self.rows()
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
    for name in FIELDS:
        a, b = getattr(run_a.config, name), getattr(run_b.config, name)
        if name != "forwarder_selection" and a != b:
            raise ComparabilityError(f"runs used different {name}: {a!r} vs {b!r}")
    return ComparisonReport(run_a.config.mode, run_b.config.mode, run_a.metrics, run_b.metrics)
