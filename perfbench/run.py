"""Benchmark entry point for the Semandaq reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload report-refresh --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The workload runs in a fresh interpreter (``bench.py``) that sees only
this checkout's ``src/``, no ``REPRO_*`` variables and a fixed
``PYTHONHASHSEED``, so per-layer counts repeat exactly between runs.
Its last line of output is the result JSON.  The exit status is not 0
when the program under test is missing or the run does not finish.

``--smoke`` runs a few ops of every workload, untraced and traced, and
checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit and that every output check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"
#: a run must end within 180 s; the child is killed shortly before.
TIMEOUT_SECONDS = 170


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(argv: list[str], capture: bool = False) -> subprocess.CompletedProcess:
    """Run ``bench.py`` in its own process group and wait for all of it."""
    process = subprocess.Popen([sys.executable, str(HERE / "bench.py"), *argv],
                               cwd=ROOT, env=child_env(), start_new_session=True,
                               stdout=subprocess.PIPE if capture else None,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=TIMEOUT_SECONDS)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return subprocess.CompletedProcess(process.args, process.returncode, stdout)


def smoke(seed: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} trace={trace}"
            done = run_child(["--workload", workload["name"], "--seed", str(seed),
                              "--seconds", "0", "--trace", str(trace), "--smoke"],
                             capture=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit status {done.returncode}")
                continue
            result = json.loads(lines[-1])
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                problems.append(f"{label}: metrics differ (missing {missing}, "
                                f"unexpected {extra}) or units differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} ops failed their checks")
            print(f"{label}: {result['attempted']} ops, {len(units)} metrics", flush=True)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    done = run_child(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
