"""Randomized soak test for the exact identity sweep.

Draws random decorated permutations, samples points of each cell, and runs the
full verification (exchange relations on generic matrices, restricted two-term
identities, which include the rank-two resolutions, and vanishing profiles).
Everything is exact: exchange relations compare ints, the cell identities
integer minors over a common scale; any failure prints the offending identity
and the values.

Pass --corrupt to flip on the negative control and confirm the sweep actually
bites: every run must then fail exactly one entry, the one named ...:corrupted.

Usage: python3 scripts/identity_soak.py --cells 10 --points 8 --max-n 7
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from positroids import (
    DecoratedPermutation,
    bridge_graph_from_permutation,
    initial_seed,
    necklace_from_permutation,
    quiver_from_graph,
    sample_cell_point,
    verify_identities,
)
from positroids.numeric import sample_generic_matrix


def soak(args: argparse.Namespace) -> int:
    rng = random.Random(args.rng_seed)
    bad = 0
    done = 0
    while done < args.cells:
        n = rng.randint(3, args.max_n)
        image = rng.sample(range(1, n + 1), n)
        colors = {i: rng.choice((1, -1)) for i, v in enumerate(image, 1) if v == i}
        sigma = DecoratedPermutation.of(tuple(image), colors)
        if not 0 < sigma.k < sigma.n:
            continue
        start = time.time()
        graph = bridge_graph_from_permutation(sigma)
        neck = necklace_from_permutation(sigma)
        seed = initial_seed(quiver_from_graph(graph))
        if args.corrupt and not seed.quiver.mutable_ids():
            continue  # nothing to corrupt, the control would be vacuous
        done += 1
        points = tuple(
            sample_cell_point(graph, rng_seed=rng.randint(0, 10**6))
            for _ in range(args.points)
        )
        generic = tuple(
            sample_generic_matrix(sigma.k, n, random.Random(rng.randint(0, 10**6)))
            for _ in range(args.generic)
        )
        report = verify_identities(neck, seed, points, generic, corrupt=args.corrupt)
        n_idents = len(report["identities"])
        status = "ok" if report["passed"] else "FAILED"
        if args.corrupt:
            # the control must fail its one entry and only it: a pass means the
            # sweep went blind, a second failure that a value is shared too widely
            failed = [e["name"] for e in report["identities"] if e["failures"]]
            exact = len(failed) == 1 and failed[0].endswith(":corrupted")
            status = "control-ok" if exact else "CONTROL-MISSED"
        if "FAIL" in status or "MISSED" in status:
            bad += 1
            for entry in report["identities"]:
                for f in entry["failures"]:
                    print(f"    {entry['name']} @ {f['point']}: {f['lhs']} != {f['rhs']}")
        print(
            f"{sigma.to_cycle_string():28} k={sigma.k} n={n} "
            f"{n_idents:3} identities {status:14} ({time.time() - start:.1f}s)"
        )
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=10)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--generic", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=7, dest="max_n")
    parser.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    parser.add_argument("--corrupt", action="store_true")
    return 0 if not soak(parser.parse_args()) else 1


if __name__ == "__main__":
    sys.exit(main())
