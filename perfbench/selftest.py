"""Fast self-test of the benchmark's own helpers.

Usage: python3 perfbench/selftest.py   (from the root of a checkout; exits 0 on success)

Checks the independent determinant against the package's ``minor`` on random
rational matrices, k = n included, the rank, dimension, necklace and cluster
rank formulas against the package on every decorated permutation of [n],
n <= 5, and the self-time
arithmetic and call counting of the tracer on hand-made nested spans.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

import oracle
from tracing import Tracer, self_times
from worker import import_package


def check_determinant(p) -> None:
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.3:  # a repeated row makes every minor vanish
            rows[-1] = list(rows[0])
        matrix = p.RationalMatrix.of(rows)
        for cols in itertools.combinations(range(1, n + 1), k):
            expected = p.minor(matrix, p.KSet(cols, n))
            assert oracle.column_minor(rows, cols) == expected, (rows, cols)
    assert oracle.det([[2, 1], [1, 1]]) == 1 and oracle.det([[0, 1], [1, 0]]) == -1


def check_cell_formulas(p) -> None:
    for n in range(1, 6):
        for image, colors in oracle.decorated_permutations(n):
            sigma = p.DecoratedPermutation.of(image, colors)
            assert oracle.rank(image, colors) == sigma.k, (image, colors)
            expected = sigma.k * (n - sigma.k) - p.alignments(sigma)
            assert oracle.dimension(image, colors) == expected, (image, colors)
            necklace = [frozenset(s.elements) for s in p.necklace_from_permutation(sigma)]
            assert oracle.necklace(image, colors) == necklace, (image, colors)
            quiver = p.quiver_from_graph(p.bridge_graph_from_permutation(sigma))
            assert oracle.cluster_rank(image, colors) == len(quiver.mutable_ids()), (image, colors)
    for n, count in oracle.RANK_TWO_CELLS.items():
        if n <= 6:
            assert sum(oracle.rank(*cell) == 2 for cell in oracle.decorated_permutations(n)) == count


def check_self_times() -> None:
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; e [11, 12] is a second root
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 9.0, 0), (4, 11.0, 12.0, -1)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert self_times([]) == []


def check_wrappers() -> None:
    # a plabic function calls a plain plabic helper (counted, no span) and a
    # numeric function (a span whose time leaves plabic's self time)
    tracer = Tracer()
    leaf = tracer.wrap(lambda: 1, "numeric", "numeric.leaf")
    helper = tracer.wrap(lambda: 2, "plabic", "plabic.helper")
    outer = tracer.wrap(lambda: helper() + leaf(), "plabic", "plabic.outer")
    assert outer() == 3 and tracer.count("plabic.outer") == 0  # off: no counting
    tracer.on = True
    assert outer() == 3
    tracer.on = False
    assert [(fid, parent) for fid, _, _, parent in tracer.spans] == [(2, -1), (0, 0)]
    whole = tracer.spans[0][2] - tracer.spans[0][1]
    tracer.fold()
    assert [tracer.count(n) for n in ("numeric.leaf", "plabic.helper", "plabic.outer", "cm.none")] == [1, 1, 1, 0]
    assert tracer.span_count == 2 and not tracer.spans
    assert abs(tracer.layer_self["plabic"] + tracer.layer_self["numeric"] - whole) < 1e-12
    assert tracer.seconds("numeric.leaf") == tracer.layer_self["numeric"]


def main() -> int:
    p = import_package()
    check_determinant(p)
    check_cell_formulas(p)
    check_self_times()
    check_wrappers()
    assert oracle.catalan(6) == 132 and oracle.crossing((1, 3), (2, 4), 4) and not oracle.crossing((1, 2), (3, 4), 4)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
