"""Census of square-move closures against brute-force clique search.

Walks a family of cells (uniform shifts plus optional random draws), computes
the closure of the bridge graph under square moves, the seed mutation class,
and the brute-force list of maximal noncrossing collections, and prints the
three counts side by side.  Disagreement between the first and third column
is a bug; the second may legitimately exceed them once non-Pluecker cluster
variables appear.

Usage: python3 scripts/closure_census.py --max-n 7 --randoms 5
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from positroids import (
    DecoratedPermutation,
    bridge_graph_from_permutation,
    graph_mutation_class,
    initial_seed,
    maximal_noncrossing_collections,
    mutation_class,
    necklace_from_permutation,
    quiver_from_graph,
)


# Seeds explored per mutation class before its count is printed with a "+".
SEED_LIMIT = 5000


def uniform(k: int, n: int) -> DecoratedPermutation:
    return DecoratedPermutation.of(tuple((i + k - 1) % n + 1 for i in range(1, n + 1)))


def census_row(name: str, sigma: DecoratedPermutation) -> bool:
    start = time.time()
    graph = bridge_graph_from_permutation(sigma)
    members, complete = graph_mutation_class(graph)
    seeds, seeds_complete = mutation_class(initial_seed(quiver_from_graph(graph)), limit=SEED_LIMIT)
    brute = maximal_noncrossing_collections(necklace_from_permutation(sigma))
    pure = sum(1 for s in seeds if s.is_pure_pluecker())
    ok = complete and len(members) == len(brute)
    flag = "" if ok else "  <-- MISMATCH"
    seed_count = str(len(seeds)) + ("" if seeds_complete else "+")
    print(
        f"{name:24} graphs={len(members):5} seeds={seed_count:>6} pure={pure:5} "
        f"brute={len(brute):5} {time.time() - start:6.1f}s{flag}"
    )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=7, dest="max_n")
    parser.add_argument("--randoms", type=int, default=0)
    parser.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    args = parser.parse_args()

    ok = True
    for n in range(4, args.max_n + 1):
        for k in range(2, n - 1):
            if k * (n - k) > 12:
                continue  # keep the brute-force pool manageable
            ok &= census_row(f"uniform({k},{n})", uniform(k, n))

    rng = random.Random(args.rng_seed)
    for _ in range(args.randoms):
        n = rng.randint(4, args.max_n)
        image = rng.sample(range(1, n + 1), n)
        colors = {i: rng.choice((1, -1)) for i, v in enumerate(image, 1) if v == i}
        sigma = DecoratedPermutation.of(tuple(image), colors)
        if not 0 < sigma.k < sigma.n:
            continue
        ok &= census_row(sigma.to_cycle_string(), sigma)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
