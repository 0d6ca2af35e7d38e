"""Traced-pass check: run one benchmark workload under the span tracer and
fail when a hook target is missing, a hooked layer reads 0, or rendering
raised peak RSS over a bound.

The traced pass (bench/run.py --trace 1) wraps simulator functions by name
(bench/hooks.py) and prints "absent: <span>" for a target that no longer
exists, whose per-layer metrics then read 0. "absent: glossy.flood counts"
is known: the flood observer still reads a field the outcome lost, and only
a benchmark change may mend it. Any other absence fails. A hooked layer
that exists but is no longer called reads 0 too, so each workload names the
metrics that must not read 0 in the last line of the pass, its JSON result.
The pass's own exit code counts as well: it is nonzero on a fingerprint
mismatch or a failed sample.

Usage: python .github/scripts/traced_pass.py WORKLOAD --nonzero NAME...
           [--max-render-delta-mb MB]
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
KNOWN_ABSENT = "glossy.flood counts"
ABSENT = re.compile(r" *absent: (.*)")


def run_pass(workload: str) -> tuple[int, str]:
    """Run the traced pass, echoing its output as it comes; return its exit
    code and output."""
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload]
    proc = subprocess.Popen(
        [*command, "--seconds", "1", "--trace", "1"], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    lines = []
    for line in proc.stdout:
        sys.stdout.write(line)
        sys.stdout.flush()
        lines.append(line)
    return proc.wait(), "".join(lines)


def check(text: str, nonzero: list[str], max_render_delta_mb: float | None = None) -> list[str]:
    """Return the problems with a traced pass's output; empty means pass."""
    lines = text.split("\n")
    problems = [
        f"a traced-pass hook target is missing: {line.strip()}"
        for line in lines
        if (match := ABSENT.match(line)) and match.group(1) != KNOWN_ABSENT
    ]
    last = next((line for line in reversed(lines) if line.strip()), "")
    try:
        metrics = json.loads(last)["metrics"]
    except (ValueError, KeyError, TypeError):
        return [*problems, "the traced pass printed no JSON result as its last line"]
    zero = [name for name in nonzero if not metrics.get(name, {}).get("value")]
    if zero:
        problems.append("a hooked layer reads 0 in the traced pass: " + ", ".join(zero))
    if max_render_delta_mb is not None:
        delta = metrics.get("sim.rss_render_delta_mb", {}).get("value")
        if delta is None or delta > max_render_delta_mb:
            problems.append(
                f"rendering raised peak RSS by {delta} MB, over {max_render_delta_mb} MB"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--nonzero", nargs="+", required=True, metavar="NAME")
    parser.add_argument("--max-render-delta-mb", type=float)
    args = parser.parse_args(argv)
    code, text = run_pass(args.workload)
    problems = check(text, args.nonzero, args.max_render_delta_mb)
    if code:
        problems.append(f"bench/run.py exited with {code}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
