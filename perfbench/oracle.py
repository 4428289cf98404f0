"""Reference facts and exact arithmetic kept apart from the package.

Nothing here imports ``positroids``: the workloads check the package's
outputs against these values, so a fault in the package cannot hide by
agreeing with itself.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb
from typing import Sequence


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix by Fraction Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    size = len(work)
    if any(len(row) != size for row in work):
        raise ValueError("det needs a square matrix")
    sign = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        for r in range(col + 1, size):
            factor = work[r][col] / work[col][col]
            if factor:
                for c in range(col, size):
                    work[r][c] -= factor * work[col][c]
    result = Fraction(sign)
    for i in range(size):
        result *= work[i][i]
    return result


def column_minor(rows: Sequence[Sequence], columns: Sequence[int]) -> Fraction:
    """Determinant of the columns ``columns`` (1-based) of a k x n matrix."""
    return det([[row[c - 1] for c in columns] for row in rows])


def all_minors(rows: Sequence[Sequence], n: int) -> dict[tuple[int, ...], Fraction]:
    """Every maximal minor, keyed by its sorted 1-based column tuple."""
    k = len(rows)
    return {cols: column_minor(rows, cols) for cols in itertools.combinations(range(1, n + 1), k)}


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


# Cluster and square-move class counts of top cells, keyed by (k, n).  For
# Gr(2, n) both are the Catalan number C(n-2) (type A_{n-3}).  Gr(3,6) is of
# type D4 with 50 clusters and Gr(3,7) of type E6 with 833 clusters (Scott,
# arXiv:math/0311148).  The Pluecker clusters, i.e. maximal weakly separated
# collections, number 34 and 259 (Oh-Postnikov-Speyer, arXiv:1109.4434).
TOP_CELL_SEEDS = {(2, 7): catalan(5), (2, 8): catalan(6), (3, 6): 50, (3, 7): 833}
TOP_CELL_GRAPHS = {(2, 7): catalan(5), (2, 8): catalan(6), (3, 6): 34, (3, 7): 259}

# Decorated permutations of [n] of rank two, n = 2..7: the number of positroid
# cells of the totally nonnegative Gr(2, n).
RANK_TWO_CELLS = {2: 1, 3: 7, 4: 33, 5: 131, 6: 473, 7: 1611}


def top_cell_image(k: int, n: int) -> tuple[int, ...]:
    """The shift i -> i + k (mod n), the decorated permutation of the top cell."""
    return tuple((i + k - 1) % n + 1 for i in range(1, n + 1))


def affine_lift(image: Sequence[int], colors: dict[int, int]) -> list[int]:
    """Bounded affine lift f with i <= f(i) <= i + n; a fixed point colored -1
    lifts to i + n."""
    n = len(image)
    out = []
    for i, j in enumerate(image, start=1):
        if j == i:
            out.append(i if colors[i] == 1 else i + n)
        else:
            out.append(j if j > i else j + n)
    return out


def rank(image: Sequence[int], colors: dict[int, int]) -> int:
    """Anti-exceedances plus fixed points colored -1."""
    return sum(1 for i, j in enumerate(image, 1) if j < i) + sum(1 for c in colors.values() if c == -1)


def dimension(image: Sequence[int], colors: dict[int, int]) -> int:
    """Cell dimension k(n-k) minus the inversions of the affine lift."""
    n = len(image)
    f = affine_lift(image, colors)

    def lifted(j: int) -> int:
        return f[(j - 1) % n] + n * ((j - 1) // n)

    inversions = sum(1 for i in range(1, n + 1) for j in range(i + 1, i + n) if f[i - 1] > lifted(j))
    k = rank(image, colors)
    return k * (n - k) - inversions


def necklace(image: Sequence[int], colors: dict[int, int]) -> list[frozenset[int]]:
    """Grassmann necklace: I_i holds each j that comes before its preimage in
    the cyclic order starting at i, and every fixed point colored -1."""
    n = len(image)
    preimage = {j: i for i, j in enumerate(image, 1)}
    loops = {i for i, c in colors.items() if c == -1}
    return [
        frozenset({j for j in range(1, n + 1) if (preimage[j] - i) % n > (j - i) % n} | loops)
        for i in range(1, n + 1)
    ]


def cluster_rank(image: Sequence[int], colors: dict[int, int]) -> int:
    """Mutable vertices of the cell's quiver: a reduced plabic graph has
    dimension + 1 faces, and its boundary faces carry the distinct necklace
    sets."""
    return dimension(image, colors) + 1 - len(set(necklace(image, colors)))


def decorated_permutations(n: int):
    """Every decorated permutation of [n] as (image, colors)."""
    for image in itertools.permutations(range(1, n + 1)):
        fixed = [i for i, j in enumerate(image, 1) if i == j]
        for signs in itertools.product((1, -1), repeat=len(fixed)):
            yield image, dict(zip(fixed, signs))


def crossing(a: Sequence[int], b: Sequence[int], n: int) -> bool:
    """Whether two disjoint 2-sets are interleaved around the circle [n]."""
    if set(a) & set(b):
        return False
    x, z = sorted(a)
    return sum(1 for y in b if x < y < z) == 1


def generic_matrix(rng: random.Random, k: int, n: int) -> list[list[int]]:
    """Integer k x n matrix whose maximal minors are nonzero and pairwise distinct."""
    while True:
        rows = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(k)]
        values = list(all_minors(rows, n).values())
        if all(values) and len(set(values)) == len(values):
            return rows
