"""One benchmark sample in a fresh process.

Reads a JSON request on stdin: the source directory to import lwbsim from,
the topology texts of the workload's networks, the config text, and the
flags ``setup_only`` and ``trace``. Times set-up (import, parse, world
build), then ``run_simulation`` and ``render_trace`` on each network in
turn, checks the outputs, and prints one JSON object on stdout. A fixed
calibration loop runs at the start, after every run and at the end; the
parent scales the sample's timings by their mean to a reference host speed.
Nothing is written to disk.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

SLOT_KINDS = ("sync", "request", "reply", "announce", "data")


def calibrate() -> float:
    """Seconds taken by a fixed loop of the work the simulator is made of:
    dict and set building, sorting, membership filters and JSON encoding.
    The loop is part of the benchmark's definition; changing it rescales
    every reported time."""
    rng = random.Random(7)
    start = time.perf_counter()
    for _ in range(100):
        weights = {i: rng.random() for i in range(2000)}
        ordered = sorted(weights, key=weights.get)
        keep = set(ordered[::2])
        json.dumps([k for k in ordered if k in keep])
    return time.perf_counter() - start


def rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def setup(src: str, topology_texts: list[str], config_text: str):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import lwbsim
    import lwbsim.sim

    origin = Path(lwbsim.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise RuntimeError(f"lwbsim imported from {origin}, not from {src}")
    t1 = time.perf_counter()
    topologies = [lwbsim.load_topology(text) for text in topology_texts]
    t2 = time.perf_counter()
    config = lwbsim.parse_config(config_text)
    t3 = time.perf_counter()
    for topology in topologies:
        lwbsim.sim.build_world(config, topology)
    t4 = time.perf_counter()
    times = {
        "setup_s": t4 - t0,
        "setup.import_s": t1 - t0,
        "topology.load_topology.s": t2 - t1,
        "config.parse_config.s": t3 - t2,
        "sim.build_world.s": t4 - t3,
    }
    return lwbsim, topologies, config, times


def outcome(result) -> dict:
    """Format-independent fingerprint of one network's simulated outcome,
    plus its slot counts and received-within-awake violations."""
    metrics = result.metrics
    sources = metrics.sources.values()
    kinds: Counter = Counter()
    awake_entries = 0
    violations = 0
    for trace in result.traces:
        for slot in trace.slots:
            kinds[slot.kind] += 1
            awake_entries += len(slot.awake)
            if not set(slot.received) <= set(slot.awake):
                violations += 1
    delivered = sum(s.delivered for s in sources)
    dropped = sum(s.dropped for s in sources)
    lost = sum(s.lost for s in sources)
    accountable = delivered + dropped + lost
    fingerprint = {
        "rounds": metrics.rounds,
        "slots": {kind: kinds[kind] for kind in SLOT_KINDS},
        "delivered": delivered,
        "dropped": dropped,
        "lost": lost,
        "radio_on_us": sum(metrics.radio_on.values()),
        "mean_duty_cycle_pct": metrics.to_dict()["aggregate"]["mean_duty_cycle"] * 100,
        "pdr_pct": delivered / accountable * 100 if accountable else 100.0,
    }
    return {
        "fingerprint": fingerprint,
        "awake_entries": awake_entries,
        "invariant_violations": violations,
        "unknown_slot_kinds": sorted(set(kinds) - set(SLOT_KINDS)),
    }


def layer_metrics(tracer, run_s: float, run_hooked_s: float) -> dict:
    spans = tracer.spans

    def self_s(name: str) -> float:
        return spans[name].self_s if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name].calls if name in spans else 0

    flood = spans.get("glossy.flood")
    extra = flood.extra if flood is not None else {}
    reached = extra.get("nodes_reached", 0)
    lossless = extra.get("lossless", 0)
    # run_hooked_s includes the wrappers' bookkeeping, so run_self is the
    # time the run spent outside every hooked layer, tracer excluded.
    run_self = run_s - run_hooked_s
    layers_s = sum(spans[n].self_s for n in spans if n != "sim.render_trace")
    return {
        "glossy.flood.calls": calls("glossy.flood"),
        "glossy.flood.s": self_s("glossy.flood"),
        "glossy.flood.nodes_reached": reached,
        "glossy.flood.ns_per_reach": self_s("glossy.flood") * 1e9 / reached if reached else 0.0,
        "glossy.flood.participants_mean": (
            extra.get("participants", 0) / flood.calls if flood and flood.calls else 0.0
        ),
        "glossy.flood.lossless_repeat_ratio": (
            extra.get("lossless_repeats", 0) / lossless if lossless else 0.0
        ),
        "engine.execute_round.calls": calls("engine.execute_round"),
        "engine.execute_round.self_s": self_s("engine.execute_round"),
        "forwarding.data_participants.calls": calls("forwarding.data_participants"),
        "forwarding.data_participants.s": self_s("forwarding.data_participants"),
        "forwarding.apply_announce.calls": calls("forwarding.apply_announce"),
        "forwarding.apply_announce.s": self_s("forwarding.apply_announce"),
        "forwarding.refresh_sink_distances.s": self_s("forwarding.refresh_sink_distances"),
        "core.s": sum(spans[n].self_s for n in spans if n.startswith("core.")),
        "core.contend.calls": calls("core.contend"),
        "metrics.accumulate.calls": calls("metrics.accumulate"),
        "metrics.accumulate.s": self_s("metrics.accumulate"),
        "sim.run_simulation.self_s": run_self,
        "sim.render_trace.s": self_s("sim.render_trace"),
        "trace.run_s": run_s,
        "trace.hook_s": tracer.overhead_s,
        "trace.accounted_pct": layers_s / (layers_s + run_self) * 100,
    }


def measure(request: dict, calibrations: list[float]) -> dict:
    lwbsim, topologies, config, times = setup(
        request["src"], request["topologies"], request["config"]
    )
    if request["setup_only"]:
        return {"setup": times}
    tracer = None
    if request["trace"]:
        from hooks import Tracer

        tracer = Tracer()
        tracer.install()
    digest = hashlib.sha256()
    out: dict = {"setup": times, "run_s": 0.0, "render_s": 0.0, "trace_bytes": 0, "records": 0}
    networks = []
    run_hooked_s = 0.0
    for topology in topologies:
        if tracer is not None:
            result, run_s, hooked_s = tracer.root_span(lwbsim.run_simulation, config, topology)
            run_hooked_s += hooked_s
        else:
            start = time.perf_counter()
            result = lwbsim.run_simulation(config, topology)
            run_s = time.perf_counter() - start
        out.setdefault("rss_run_mb", rss_mb())
        calibrations.append(calibrate())
        start = time.perf_counter()
        text = lwbsim.render_trace(result.traces)
        out["render_s"] += time.perf_counter() - start
        out.setdefault("rss_render_mb", rss_mb())
        out["run_s"] += run_s
        # Hash in small pieces: a whole-trace copy would add the benchmark's
        # own allocation to the program's peak memory.
        for i in range(0, len(text), 1 << 16):
            data = text[i : i + (1 << 16)].encode("utf-8")
            digest.update(data)
            out["trace_bytes"] += len(data)
        out["records"] += text.count("\n")
        networks.append({**outcome(result), "traces_retained": len(result.traces)})
        del result, text
    out["peak_rss_mb"] = rss_mb()
    out["sha256"] = digest.hexdigest()
    out["networks"] = networks
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, out["run_s"], run_hooked_s)
        out["absent"] = tracer.absent
        out["observe_failed"] = tracer.observe_failed
    return out


def sample(request: dict) -> dict:
    calibrations = [calibrate()]
    out = measure(request, calibrations)
    calibrations.append(calibrate())
    out["calibration_s"] = sum(calibrations) / len(calibrations)
    return out


if __name__ == "__main__":
    print(json.dumps(sample(json.load(sys.stdin))))
