"""The input contract under a seeded fuzzer: every topology and config text
either runs or fails with a documented exit code and one stderr line.

Cases run in-process through cli.main for run, compare and forwarders. The
drawn values stay small enough that a case that runs finishes in
milliseconds; CASE_CAP_S stops one that does not.
"""

import contextlib
import io
import random
import signal

import pytest

from lwbsim.cli import main

SEED = 17
CASES = 500
CASE_CAP_S = 2.0

# KEY -> (values that parse, of which some fail validate(), values that do not)
DURATIONS = (
    ["0", "1us", "999us", "1ms", "15ms", "250ms", "1s", "1.5", "5s", "6s", "10s", "12s"],
    ["-1s", "1e400", "nan", "inf", "0.5us", "abc", "", "2 s"],
)
INTS = (["0", "1", "2", "3", "40", "150", "65535", "65536"], ["-1", "1e3", "x", "1.5", ""])
VALUES = {
    "IPI": DURATIONS,
    "MINIMUM_LWB_ROUND": DURATIONS,
    # periods and run lengths stay short: a case that runs must run fast
    "COOLOFF_PERIOD": (["0", "1s", "1500ms", "3s"], ["-1s", "nan", "x"]),
    "STABILIZATION_PERIOD": (["0", "1s", "1500ms", "3s"], ["-1s", "1e400", "x"]),
    "DURATION": (["0s", "1us", "1s", "5s", "12s", "30s"], ["-5s", "nan", "y"]),
    "MAX_PAYLOAD_LEN": INTS,
    "SINK_NODE_ID": INTS,
    "MAX_NODE_NUMBER": INTS,
    "FORWARDER_SELECTION": (["0", "1", "yes", "off"], ["maybe", ""]),
    "GLOSSY_GUARD_TIME": (["0", "1us", "2ms", "1s"], ["-1ms", "nan"]),
    "SLOT_LENGTH": (["0", "1us", "999us", "1ms", "10ms", "15ms", "333ms", "600ms"], ["-1ms", "x"]),
    "SYNC_SLOT_LENGTH": (["0", "999us", "1ms", "20ms", "500ms"], ["nan"]),
    "LOSS_PROBABILITY": (["0", "0.1", "0.5", "0.99", "1", "-0.1"], ["nan", "inf", "p"]),
    "DRIFT_PPM_RANGE": (["0", "300", "-5:5", "5:-5", "1e6", "1e7"], ["nan", "a:b", "1:2:3"]),
    "CONTENTION_POLICY": (["capture", "collision", "COLLISION", "bogus"], [""]),
    "RR_REDUCTION_TRIGGER": (["slots", "rounds", "Rounds", "moon"], []),
    "QUEUE_CAPACITY": (["0", "1", "3", "8", "-2"], ["z"]),
    "SEED": (["0", "1", "7", "-5", "99999999999999999999"], ["s"]),
}
BAD_CONFIG_LINES = ["IPI", "= 5s", "UNKNOWN = 1", "IPI == 5s", "ipi = 10s", "# only a comment"]
BAD_TOPOLOGY_LINES = ["1 2 3", "a b", "3 3", "1.5 2", "1,2", "0 1", "-1 2", "2 x"]


def _value(rng: random.Random, key: str) -> str:
    parsed, malformed = VALUES[key]
    return rng.choice(malformed if malformed and rng.random() < 0.1 else parsed)


def _config_text(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return ""
    keys = rng.sample(sorted(VALUES), rng.randint(0, 4))
    lines = [f"{key} = {_value(rng, key)}" for key in keys]
    if keys and rng.random() < 0.1:  # a key set twice
        key = rng.choice(keys)
        lines.append(f"{key.lower()} = {_value(rng, key)}")
    if rng.random() < 0.1:
        lines.insert(rng.randint(0, len(lines)), rng.choice(BAD_CONFIG_LINES))
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n"])


def _topology_text(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.05:
        return ""
    if roll < 0.1:
        return "# no nodes\n\n"
    n = rng.randint(1, 10)
    if rng.random() < 0.3:  # sparse ids, some beyond the default MAX_NODE_NUMBER
        top = rng.choice([150, 151, 1000, 65535, 65536])
        ids = [1, *rng.sample(range(2, top + 1), n)]
    else:
        ids = list(range(1, n + 2))
    lines = [f"{ids[rng.randrange(i)]} {ids[i]}" for i in range(1, len(ids))]
    if rng.random() < 0.2:
        lines.append(rng.choice(lines))  # a duplicate edge
    if rng.random() < 0.1:
        lines.append(str(rng.choice([ids[-1] + 1, 0, 70000])))  # an isolated node
    if rng.random() < 0.1:
        lines.insert(rng.randint(0, len(lines)), rng.choice(BAD_TOPOLOGY_LINES))
    return "\n".join(lines) + "\n"


def _argv(rng: random.Random, tmp_path, case: int) -> list[str]:
    topology, config = tmp_path / f"{case}.topo", tmp_path / f"{case}.cfg"
    topology.write_text(_topology_text(rng), encoding="utf-8")
    config.write_text(_config_text(rng), encoding="utf-8")
    command = rng.choice(["run", "run", "compare", "forwarders"])
    argv = [command, "--topology", str(topology)]
    if rng.random() < 0.9:
        argv += ["--config", str(config) if rng.random() < 0.97 else str(tmp_path / "none")]
    if rng.random() < 0.2:
        argv += ["--seed", rng.choice(["3", "-1", "x"])]
    if command != "forwarders" and rng.random() < 0.3:
        argv += ["--duration", rng.choice(["0s", "4s", "20s", "nan", "1e400", "q"])]
    if command == "run" and rng.random() < 0.2:
        argv += ["--summary", str(tmp_path / f"{case}.json")]
    return argv


class _CaseTimeout(BaseException):
    """Raised by the alarm in a case that outlives CASE_CAP_S."""


def _on_alarm(signum, frame):
    raise _CaseTimeout


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
def test_every_input_runs_or_fails_with_one_line(tmp_path):
    rng = random.Random(SEED)
    codes = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for case in range(CASES):
            argv = _argv(rng, tmp_path, case)
            out, err = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, CASE_CAP_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except _CaseTimeout:
                pytest.fail(f"case {case} ran over {CASE_CAP_S} s: {argv}")
            except Exception as exc:  # noqa: BLE001 - any escape is the finding
                pytest.fail(f"case {case} raised {exc!r}: {argv}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            stderr = err.getvalue()
            assert code in (0, 1, 2, 3), (case, argv, code)
            if code:
                assert stderr.count("\n") == 1 and stderr.endswith("\n"), (case, argv, stderr)
            else:  # a run prints at most the IPI warning
                assert stderr == "" or (
                    stderr.startswith("IPI ") and stderr.count("\n") == 1
                ), (case, argv, stderr)
            codes.append(code)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the generator reaches every documented outcome but the runtime failure
    assert {0, 1, 2} <= set(codes), sorted(set(codes))
