"""The CI kernel replay check, on a small lossy run."""

import importlib.util
import random
from pathlib import Path

import pytest

from lwbsim import engine
from lwbsim.glossy import flood

from _support import random_connected_topology

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "scripts" / "kernel_replay.py"

CONFIG = "FORWARDER_SELECTION = 1\nLOSS_PROBABILITY = 0.2\nIPI = 10s\nDURATION = 60s\nSEED = 3\n"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("kernel_replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def topologies():
    topo = random_connected_topology(random.Random(6), 12, max_ecc=4)
    return ["".join(f"{u} {v}\n" for u, v in sorted(topo.edges))]


def test_every_lossy_flood_matches_the_reference(script, topologies):
    floods, differing = script.record(topologies, CONFIG)
    assert len(floods) > 50 and differing == []
    assert all(loss == 0.2 for *_, loss in floods)
    assert script.replay_s(floods) > 0


def test_a_kernel_that_draws_once_too_often_is_caught(script, topologies, monkeypatch):
    def one_draw_too_many(topology, initiator, participants, loss_probability=0.0, rng=None):
        if loss_probability:
            rng.random()
        return flood(topology, initiator, participants, loss_probability, rng)

    monkeypatch.setattr(script, "flood", one_draw_too_many)
    floods, differing = script.record(topologies, CONFIG)
    assert differing == list(range(len(floods)))
    assert engine.flood is flood
