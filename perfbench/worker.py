"""One round of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --mode {setup,round,traced}

Prints ``ready`` once the package is imported and the inputs are made, then
(unless the mode is ``setup``) runs every operation of the workload once,
checks each result with the clock stopped, and prints one JSON line with the
round's timings, counts and, in ``traced`` mode, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracing import LayerStats, Tracer
from workloads import WORKLOADS, Incorrect, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import ``positroids`` from this checkout's source tree, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import positroids
    import positroids.cli  # noqa: F401  (binds positroids.cli for the verify workload)

    if SRC.resolve() not in Path(positroids.__file__).resolve().parents:
        raise ImportError(f"positroids imported from {positroids.__file__}, not from {SRC}")
    return positroids


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "round", "traced"), required=True)
    args = parser.parse_args()

    package = import_package()
    workload = WORKLOADS[args.workload](package, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer()
    stats = None
    if args.mode == "traced":
        tracer.install()
        stats = LayerStats(tracer)

    tally = Tally()
    errors: list[str] = []
    durations: list[float] = []
    failed = 0
    wall = 0.0
    for op in workload.ops:
        tracer.on = True
        start = perf_counter()
        try:
            result = workload.run(op, tally)
        except Exception as exc:  # a crash of the package is a wrong result, not a benchmark crash
            result = exc
        elapsed = perf_counter() - start
        tracer.on = False
        tracer.fold()
        wall += elapsed
        if isinstance(result, Exception):
            errors.append(f"{op[:2]}: {type(result).__name__}: {result}")
            continue
        try:
            if workload.check(op, result, tally):
                failed += 1
            else:
                durations.append(elapsed)
        except Incorrect as exc:
            errors.append(str(exc))
        except Exception as exc:  # a result the check cannot read is wrong too
            errors.append(f"{op[:2]}: unreadable result: {type(exc).__name__}: {exc}")
    negative_control = getattr(workload, "negative_control", None)
    if negative_control is not None:
        try:
            negative_control()
        except Incorrect as exc:
            errors.append(str(exc))

    layers = None
    if stats is not None:
        stats.output_bytes = tally.output_bytes
        layers = stats.metrics(package.numeric)
    print(
        json.dumps(
            {
                "correct": not errors,
                "errors": errors[:20],
                "attempted": len(workload.ops),
                "failed": failed,
                "op_s": durations,
                "wall_s": wall,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "tally": vars(tally),
                "layers": layers,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
