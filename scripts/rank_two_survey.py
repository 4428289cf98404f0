"""Survey of rank-two cells: how many members fall outside the projective part,
and whether every one of them resolves into a product of two surviving minors.

For each n up to the cap, enumerates every decorated permutation of rank two,
resolves all members outside the Gorenstein-projective list, and (optionally)
checks the resulting product identities on sampled points of the cell.

Usage: python3 scripts/rank_two_survey.py --max-n 6 --points 5
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time

from positroids import (
    DecoratedPermutation,
    bridge_graph_from_permutation,
    gp_b_rank_one_list,
    k2_generator_decomposition,
    minor,
    necklace_from_permutation,
    positroid_members,
    sample_cell_point,
)


def rank_two_permutations(n: int):
    for image in itertools.permutations(range(1, n + 1)):
        strict = sum(1 for i, v in enumerate(image, 1) if v < i)
        if strict > 2:
            continue
        fixed = [i for i, v in enumerate(image, 1) if v == i]
        if 2 - strict > len(fixed):
            continue
        for minus in itertools.combinations(fixed, 2 - strict):
            colors = {f: (-1 if f in minus else 1) for f in fixed}
            yield DecoratedPermutation.of(image, colors)


def survey(args: argparse.Namespace) -> int:
    failures = 0
    for n in range(2, args.max_n + 1):
        start = time.time()
        cells = resolutions = checked = 0
        gp_only = 0
        for sigma in rank_two_permutations(n):
            cells += 1
            neck = necklace_from_permutation(sigma)
            members = positroid_members(neck).members
            gp = gp_b_rank_one_list(neck)
            todo = []
            for label in sorted(members - gp, key=lambda s: s.elements):
                out = k2_generator_decomposition(label, neck)
                if out is None:
                    failures += 1
                    print(f"  !! {sigma.to_cycle_string()}: {label} not resolved")
                    continue
                todo.append((label, *out))
            if not todo:
                gp_only += 1
                continue
            resolutions += len(todo)
            if args.points:
                graph = bridge_graph_from_permutation(sigma)
                for i in range(args.points):
                    point = sample_cell_point(graph, rng_seed=i)
                    for label, j_set, l1, l2 in todo:
                        lhs = minor(point.matrix, label) * minor(point.matrix, j_set)
                        rhs = minor(point.matrix, l1) * minor(point.matrix, l2)
                        checked += 1
                        if lhs != rhs:
                            failures += 1
                            print(f"  !! {sigma.to_cycle_string()}: {label} identity fails")
        print(
            f"n={n}: {cells:5} cells, {gp_only:5} fully projective, "
            f"{resolutions:6} resolutions, {checked:7} point checks "
            f"({time.time() - start:.1f}s)"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=6, dest="max_n")
    parser.add_argument("--points", type=int, default=0)
    failures = survey(parser.parse_args())
    print("all resolved" if not failures else f"{failures} FAILURES")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
