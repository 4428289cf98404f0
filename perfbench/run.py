"""Benchmark of the positroids package: closure, rank2 and verify workloads.

Usage:
    python3 perfbench/run.py --workload {closure,rank2,verify} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  Every
round runs in a fresh interpreter (perfbench/worker.py) with no warm-up,
because users pay the package's unbounded caches on every run.  With
``--trace 0`` the run first starts the interpreter SETUP_REPEATS times to time
set-up alone, then runs whole rounds until ``--seconds`` have passed, and
prints the end-to-end metrics.  With ``--trace 1`` it runs one plain round
and one traced round and prints the per-layer metrics.  The last line of stdout is the JSON result; diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 7
# A run must end within 180 s.  A worker still running DEADLINE_S after the
# run began is killed and the run fails; no round after the first starts
# that would end past BUDGET_S.
DEADLINE_S = 170.0
BUDGET_S = 120.0
# A 99th percentile is a tail only with at least ten operations beyond it.
TAIL_MIN_OPS = 1000


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to ``ready``, its JSON result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    timeout = max(0.0, deadline - start)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran past the run's {DEADLINE_S} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"{mode} worker for {workload} exited with code {code}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[list[dict], dict[str, float]]:
    setups = [spawn(workload, seed, "setup", deadline)[0] for _ in range(SETUP_REPEATS)]
    rounds = []
    start = perf_counter()
    while True:
        began = perf_counter()
        rounds.append(spawn(workload, seed, "round", deadline)[1])
        now = perf_counter()
        elapsed, last = now - start, now - began
        if elapsed >= seconds or elapsed + last > BUDGET_S:
            break
    ops = [t for r in rounds for t in r["op_s"]]
    walls = [r["wall_s"] for r in rounds]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * statistics.median(ops),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        "cells_per_s": statistics.median(len(r["op_s"]) / r["wall_s"] for r in rounds),
    }
    return rounds, metrics


def per_layer(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict[str, float]]:
    plain = spawn(workload, seed, "round", deadline)[1]
    trace = spawn(workload, seed, "traced", deadline)[1]
    tally = plain["tally"]
    layers = dict(trace["layers"])
    layers["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    layers["graphs_per_s"] = tally["graphs"] / tally["graph_s"] if tally["graph_s"] else 0.0
    layers["seeds_per_s"] = tally["seeds"] / tally["seed_s"] if tally["seed_s"] else 0.0
    layers["checks_per_s"] = tally["checks"] / plain["wall_s"]
    ops = plain["op_s"]
    layers["op_p99_ms"] = 1000 * percentile(ops, 99) if len(ops) >= TAIL_MIN_OPS else 0.0
    return [plain, trace], layers


def units(trace: int) -> dict[str, str]:
    """Unit of each metric the mode reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("closure", "rank2", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "positroids" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    try:
        unit_of = units(args.trace)
        if args.trace:
            rounds, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            rounds, metrics = end_to_end(args.workload, args.seed, args.seconds, deadline)
        if set(metrics) != set(unit_of):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(unit_of))} differ from BENCHMARK.json")
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in rounds:
        for message in r["errors"]:
            print(f"incorrect: {message}", file=sys.stderr)
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
