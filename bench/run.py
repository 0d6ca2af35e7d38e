"""lwbsim benchmark: host time and simulated outcomes of whole runs.

    python3 bench/run.py --workload lwb-clean --seed 1 --seconds 40 --trace 0

Every sample is one fresh child process (bench/child.py), run one at a time,
that imports lwbsim from this checkout's src/, parses the generated
topology and config text, runs the simulation and renders its JSONL trace.
Samples repeat until --seconds is used up. With --trace 0 the last stdout
line reports the end-to-end metrics (medians over samples); with --trace 1
untraced and traced samples alternate and it reports the per-layer metrics.

Host speed on a shared virtual machine drifts: on a 2-vCPU Xeon VM, whole
40-second runs went 20-25% faster or slower than the next. Every child
therefore also times a fixed calibration loop (child.calibrate) at its
start, after every run_simulation and at its end, and each of its times is
scaled by CAL_REF_S / (mean of those calibration times): host seconds at
the speed where the loop takes CAL_REF_S. bench/README.md gives the
measurements behind this choice.

Every sample is checked: all samples of a workload must render the same
trace SHA-256, every slot's receivers must be awake, and at the default
seed the simulated outcome must equal the fingerprint in
bench/fingerprints.json. A failed check makes the exit code nonzero.

--workload all runs every workload in turn; --out writes the full
statistics (median, quartiles, sample count) as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
FINGERPRINTS = BENCH / "fingerprints.json"

DEFAULT_SEED = 1
CAL_REF_S = 0.1  # reference duration of child.calibrate
MIN_SAMPLES = 3
ACCOUNTED_MIN_PCT = 95.0  # hooked layers' share of the traced run, tracer excluded
HARD_STOP_S = 140.0  # start no sample after this, whatever --seconds says
DEADLINE_S = 170.0  # kill a sample still running at this point of a workload


@dataclass(frozen=True)
class Workload:
    nodes: int
    networks: int  # simulated one after another in every sample
    config: str


# Why each workload exists: BENCHMARK.json and bench/README.md.
# Every topology: random attachment tree plus extra edges with probability
# 4/n, every node within 8 hops of sink 1, drawn from the workload seed.
# fs-lossy simulates four networks per sample because its delivery ratio,
# duty cycle and run time depend on the topology far more than lwb's do;
# one network per seed would spread them by about 9% between seeds.
WORKLOADS = {
    "lwb-clean": Workload(
        nodes=150,
        networks=1,
        config="FORWARDER_SELECTION = 0\nLOSS_PROBABILITY = 0\nIPI = 10s\nDURATION = 600s\n",
    ),
    "fs-lossy": Workload(
        nodes=150,
        networks=4,
        config="FORWARDER_SELECTION = 1\nLOSS_PROBABILITY = 0.1\nIPI = 10s\nDURATION = 450s\n",
    ),
    "lwb-churn-long": Workload(
        nodes=100,
        networks=1,
        config="FORWARDER_SELECTION = 0\nLOSS_PROBABILITY = 0.1\nDRIFT_PPM_RANGE = 300\n"
        "IPI = 60s\nDURATION = 7200s\n",
    ),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_slots_per_s": "slots/s",
    "render_s": "s",
    "trace_mb": "MB",
    "peak_rss_mb": "MB",
    "mean_duty_cycle_pct": "%",
    "pdr_pct": "%",
}

PER_LAYER = {
    "glossy.flood.calls": "count",
    "glossy.flood.s": "s",
    "glossy.flood.nodes_reached": "count",
    "glossy.flood.ns_per_reach": "ns",
    "glossy.flood.participants_mean": "count",
    "glossy.flood.lossless_repeat_ratio": "ratio",
    "engine.execute_round.calls": "count",
    "engine.execute_round.self_s": "s",
    "engine.slots.sync": "count",
    "engine.slots.request": "count",
    "engine.slots.reply": "count",
    "engine.slots.announce": "count",
    "engine.slots.data": "count",
    "engine.awake_entries": "count",
    "forwarding.data_participants.calls": "count",
    "forwarding.data_participants.s": "s",
    "forwarding.apply_announce.calls": "count",
    "forwarding.apply_announce.s": "s",
    "forwarding.refresh_sink_distances.s": "s",
    "core.s": "s",
    "core.contend.calls": "count",
    "metrics.accumulate.calls": "count",
    "metrics.accumulate.s": "s",
    "sim.run_simulation.self_s": "s",
    "sim.traces_retained": "count",
    "sim.render_trace.s": "s",
    "sim.render_trace.records": "count",
    "sim.rss_run_mb": "MB",
    "sim.rss_render_delta_mb": "MB",
    "setup.import_s": "s",
    "topology.load_topology.s": "s",
    "config.parse_config.s": "s",
    "sim.build_world.s": "s",
    "trace.run_s": "s",
    "trace.hook_s": "s",
    "trace.accounted_pct": "%",
    "trace.overhead_pct": "%",
}


def generate_topology(rng: random.Random, n: int, extra_edge_prob: float, max_ecc: int) -> str:
    """Edge-list text of a random connected graph on nodes 1..n.

    A random attachment tree plus independent extra edges, redrawn until
    every node lies within max_ecc hops of node 1.
    """
    while True:
        edges = set()
        for v in range(2, n + 1):
            edges.add((rng.randint(1, v - 1), v))
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if (u, v) not in edges and rng.random() < extra_edge_prob:
                    edges.add((u, v))
        adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        dist = {1: 0}
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) == n and max(dist.values()) <= max_ecc:
            return "".join(f"{u} {v}\n" for u, v in sorted(edges))


def make_inputs(workload: Workload, seed: int) -> tuple[list[str], str]:
    rng = random.Random(seed)
    n = workload.nodes
    topologies = [
        generate_topology(rng, n, extra_edge_prob=4 / n, max_ecc=8)
        for _ in range(workload.networks)
    ]
    return topologies, workload.config + f"SEED = {seed}\n"


def run_child(
    topologies: list[str], config: str, *, trace: bool, setup_only: bool, timeout: float = DEADLINE_S
) -> tuple[dict | None, str]:
    """One sample in a fresh process. Returns (result, error message)."""
    request = {
        "src": str(SRC),
        "topologies": topologies,
        "config": config,
        "trace": trace,
        "setup_only": setup_only,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"sample exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return None, lines[-1]
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def check_sample(sample: dict, workload: str, seed: int, reference: dict | None, sha: set) -> list[str]:
    """Output checks of one full sample; returns the failures."""
    problems = []
    for i, network in enumerate(sample["networks"]):
        if network["invariant_violations"]:
            problems.append(
                f"network {i}: {network['invariant_violations']} slots list receivers that were not awake"
            )
        if network["unknown_slot_kinds"]:
            problems.append(f"network {i}: unknown slot kinds {network['unknown_slot_kinds']}")
    fingerprints = [network["fingerprint"] for network in sample["networks"]]
    sha.add(sample["sha256"])
    if len(sha) > 1:
        problems.append("trace SHA-256 differs between samples of the same seed")
    if seed == DEFAULT_SEED:
        if reference is None:
            problems.append(
                f"no recorded fingerprint for {workload} in {FINGERPRINTS.name}; "
                f"this run's is {json.dumps(fingerprints)}"
            )
        elif fingerprints != reference:
            problems.append(
                f"fingerprint {json.dumps(fingerprints)} != recorded {json.dumps(reference)}"
            )
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values: dict[str, list[float]], units: dict[str, str]) -> dict:
    stats = {}
    for name, unit in units.items():
        samples = values.get(name, [])
        if not samples:
            continue
        q1, median, q3 = quartiles(samples)
        stats[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread_pct": (q3 - q1) / median * 100 if median else 0.0,
            "n": len(samples),
            "unit": unit,
        }
    return stats


def scaled(sample: dict, seconds: float) -> float:
    return seconds * CAL_REF_S / sample["calibration_s"]


def setup_values(sample: dict) -> dict[str, float]:
    return {"setup_s": scaled(sample, sample["setup"]["setup_s"])}


def totals(sample: dict) -> Counter:
    """Sums over the sample's networks of every counted fingerprint field."""
    total: Counter = Counter()
    for network in sample["networks"]:
        fp = network["fingerprint"]
        total.update({f"engine.slots.{kind}": count for kind, count in fp["slots"].items()})
        total.update({key: fp[key] for key in ("delivered", "dropped", "lost")})
        total.update({key: network[key] for key in ("awake_entries", "traces_retained")})
    total["slots"] = sum(v for k, v in total.items() if k.startswith("engine.slots."))
    return total


def e2e_values(sample: dict) -> dict[str, float]:
    total = totals(sample)
    duties = [n["fingerprint"]["mean_duty_cycle_pct"] for n in sample["networks"]]
    accountable = total["delivered"] + total["dropped"] + total["lost"]
    run_s = scaled(sample, sample["run_s"])
    return {
        "run_s": run_s,
        "sim_slots_per_s": total["slots"] / run_s,
        "render_s": scaled(sample, sample["render_s"]),
        "trace_mb": sample["trace_bytes"] / 1e6,
        "peak_rss_mb": sample["peak_rss_mb"],
        "mean_duty_cycle_pct": sum(duties) / len(duties),
        "pdr_pct": total["delivered"] / accountable * 100 if accountable else 100.0,
    }


def layer_values(sample: dict) -> dict[str, float]:
    total = totals(sample)
    values = dict(sample["layers"])
    values.update({k: v for k, v in total.items() if k.startswith("engine.slots.")})
    values["engine.awake_entries"] = total["awake_entries"]
    values["sim.traces_retained"] = total["traces_retained"]
    values["sim.render_trace.records"] = sample["records"]
    values["sim.rss_run_mb"] = sample["rss_run_mb"]
    values["sim.rss_render_delta_mb"] = sample["rss_render_mb"] - sample["rss_run_mb"]
    for name, seconds in sample["setup"].items():
        if name != "setup_s":
            values[name] = seconds
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ns") and name in values:
            values[name] = scaled(sample, values[name])
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    topologies, config = make_inputs(workload, seed)
    reference = load_fingerprints()["workloads"].get(name)
    start = time.perf_counter()
    attempted = failed = 0
    errors: list[str] = []
    sha: set[str] = set()
    values: dict[str, list[float]] = {}
    run_s = {False: [], True: []}
    calibrations: list[float] = []
    absent: set[str] = set()

    def record(metrics: dict[str, float]) -> None:
        for key, value in metrics.items():
            values.setdefault(key, []).append(value)

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - start))

    # The first child compiles and caches the package; it is not counted.
    run_child(topologies, config, trace=False, setup_only=True, timeout=remaining())

    # Every full sample follows a set-up-only child, so that set-up and run
    # are timed over the same stretch of host time. With tracing, untraced
    # and traced samples alternate, and the traced one goes first in every
    # other pair.
    modes = [False, True, True, False] if trace else [False]
    min_samples = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
    walls: list[float] = []
    count = 0
    while True:
        elapsed = time.perf_counter() - start
        estimate = statistics.median(walls) if walls else 0.0
        if elapsed + estimate > HARD_STOP_S:
            break
        if count >= min_samples and elapsed + estimate > seconds:
            break
        traced = modes[count % len(modes)]
        count += 1
        began = time.perf_counter()
        for setup_only in (True, False):
            attempted += 1
            sample, error = run_child(
                topologies, config, trace=traced and not setup_only, setup_only=setup_only,
                timeout=remaining(),
            )
            if sample is None:
                problems = [error]
            else:
                problems = [] if setup_only else check_sample(sample, name, seed, reference, sha)
            if problems:
                failed += 1
                errors.extend(problems)
                continue
            calibrations.append(sample["calibration_s"])
            record(setup_values(sample))
            if setup_only:
                continue
            run_s[traced].append(scaled(sample, sample["run_s"]))
            if traced:
                record(layer_values(sample))
                absent.update(sample["absent"])
                absent.update(f"{n} counts" for n in sample["observe_failed"])
            else:
                record(e2e_values(sample))
        walls.append(time.perf_counter() - began)

    if trace:
        if run_s[False] and run_s[True]:
            untraced = statistics.median(run_s[False])
            values["trace.overhead_pct"] = [
                (statistics.median(run_s[True]) / untraced - 1) * 100
            ]
        stats = summarize(values, PER_LAYER)
    else:
        stats = summarize(values, END_TO_END)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "absent": sorted(absent),
        "calibration_s": statistics.median(calibrations) if calibrations else None,
        "metrics": stats,
    }


def print_table(report: dict) -> None:
    print(
        f"workload {report['workload']}  seed {report['seed']}  "
        f"runs_failed {report['failed']} / runs_attempted {report['attempted']}"
    )
    if report["calibration_s"] is not None:
        print(
            f"  calibration loop median {report['calibration_s']:.4g} s; each sample's times "
            f"scaled by {CAL_REF_S:g} s / its mean"
        )
    for error in report["errors"]:
        print(f"  FAILED: {error}")
    for name in report["absent"]:
        print(f"  absent: {name}")
    accounted = report["metrics"].get("trace.accounted_pct")
    if accounted is not None and accounted["median"] < ACCOUNTED_MIN_PCT:
        print(
            f"  WARNING: hooked layers hold only {accounted['median']:.1f}% of the traced run_s; "
            "time of an unhooked layer is in sim.run_simulation.self_s"
        )
    print(f"  {'metric':<38} {'unit':<8} {'median':>14} {'spread%':>8} {'n':>4}")
    for name, s in report["metrics"].items():
        print(
            f"  {name:<38} {s['unit']:<8} {s['median']:>14.6g} "
            f"{s['spread_pct']:>8.2f} {s['n']:>4}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="write full statistics as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "lwbsim" / "__init__.py").is_file():
        print(f"error: no lwbsim package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(report)
        reports.append(report)
    failed = sum(r["failed"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    complete = all(len(r["metrics"]) == len(PER_LAYER if args.trace else END_TO_END) for r in reports)
    if args.out is not None:
        args.out.write_text(json.dumps({r["workload"]: r for r in reports}, indent=1) + "\n")
    result = {"correct": failed == 0 and complete, "attempted": attempted, "failed": failed}
    if len(reports) == 1:
        result["metrics"] = {
            name: {"value": s["median"], "unit": s["unit"]}
            for name, s in reports[0]["metrics"].items()
        }
    else:
        result["metrics"] = {}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def load_fingerprints() -> dict:
    if FINGERPRINTS.is_file():
        return json.loads(FINGERPRINTS.read_text())
    return {"seed": DEFAULT_SEED, "workloads": {}}


if __name__ == "__main__":
    sys.exit(main())
