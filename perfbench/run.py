"""Run one workload of the catalog-service benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog_reads --seed 1 --seconds 12 --trace 0

Each run starts a fresh interpreter (``perfbench/session.py``) with
``PYTHONHASHSEED`` pinned, because set and dict iteration orders steer the
engine's search and would otherwise change the work done from run to run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it carry the work-done counters, the machine reference and the
set-up times.

A traced run runs the same stream twice, untraced and traced, each in its
own process, and reports the throughput ratio as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The hash seed every run is pinned to.
HASH_SEED = "0"

#: A run that has not finished by then is stopped and reported as failed.
TIMEOUT_S = 170


def run_session(workload: str, seed: int, seconds: int, trace: int, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    command = [
        sys.executable, "-m", "perfbench.session",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"benchmark session exited with code {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("benchmark session printed no result")
    return json.loads(lines[-1])


def metrics_of(figures: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(figures.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing\n")
        return 2
    if args.trace:
        plain = run_session(args.workload, args.seed, args.seconds, 0, TIMEOUT_S / 2)
        result = run_session(args.workload, args.seed, args.seconds, 1, TIMEOUT_S / 2)
        result["problems"] = plain["problems"] + result["problems"]
        figures = dict(result["per_layer"])
        figures["trace.overhead_ratio"] = (
            plain["end_to_end"]["throughput_rps"][0] / result["end_to_end"]["throughput_rps"][0],
            "ratio",
        )
        print("split " + json.dumps(result["split"], sort_keys=True))
    else:
        result = run_session(args.workload, args.seed, args.seconds, 0, TIMEOUT_S)
        figures = result["end_to_end"]
    print("counters " + json.dumps(result["counters"], sort_keys=True))
    print("machine_ref_ms " + json.dumps(result["machine_ref_ms"], sort_keys=True))
    print("setup_times_s " + json.dumps(result["setup_times_s"]))
    print(f"timed_s {result['timed_s']:.3f} check_s {result['check_s']:.3f}")
    print(f"fewest_beyond_p99 {result['beyond_p99']}")
    for problem in result["problems"][:20]:
        print("problem " + problem)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(figures),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
