"""Exact evaluation on the Grassmannian side: minors, cell-point sampling,
identity verification.

Everything is exact: a matrix keeps integer rows over one denominator per
row, and a ``fractions.Fraction`` is built only where a value is read or
printed.  Cell points come from the boundary measurement of a planar
network: pick an acyclic orientation of a reduced graph in which every
internal black vertex has exactly one outgoing edge and every internal white
vertex exactly one incoming edge, then sum weighted directed paths from
boundary sources to boundary sinks.  With positive weights the resulting
matrix lands in the totally nonnegative part of the open cell, which is what
makes exact zero-testing of the vanishing profile meaningful.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .cluster import SEEDS_LIMIT, ExchangeGraph, Seed, exchange_graph
from .combinatorics import (
    DimensionError,
    GrassmannNecklace,
    KSet,
    ValidationError,
    k_subsets,
    necklace_from_permutation,
    positroid_members,
    three_term,
)
from .plabic import BLACK, PlabicGraph, trip_permutation

__all__ = [
    "ConstructionError",
    "RationalMatrix",
    "CellPoint",
    "minor",
    "sample_cell_point",
    "sample_generic_matrix",
    "verify_identities",
]


# Graphs kept cached (one network each, positroid included) and shapes (n, k) (three-term table).
# Callers sample one graph at a time, so a small bound keeps every hit and long runs stay flat.
GRAPH_CACHE_SIZE = 16

# The default edge weights a / b with 1 <= a, b <= 9, drawn by index.
_WEIGHTS = {(a, b): Fraction(a, b) for a in range(1, 10) for b in range(1, 10)}


class ConstructionError(RuntimeError):
    """No valid network construction exists for the request."""


@dataclass(frozen=True)
class RationalMatrix:
    """A k x n matrix of exact rationals, one affine chart representative: row
    i is ``numerators[i]`` over ``denominators[i]``, the lcm of its reduced
    denominators, so equal matrices have equal fields.  ``n`` is kept for
    Gr(0, n); the Fraction ``rows`` are built only when read."""

    numerators: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]
    n: int

    @classmethod
    def of(cls, rows: Sequence[Sequence], n: int | None = None) -> RationalMatrix:
        """Entries are ints, Fractions or strs that Fraction parses (the JSON form);
        a float, a bool or any other entry raises ValidationError."""
        data = [[_rational(x) for x in row] for row in rows]
        n = (len(data[0]) if data else 0) if n is None else n
        if any(len(row) != n for row in data):
            raise DimensionError(f"ragged rows: expected {n} entries per row")
        dens = tuple(math.lcm(*(x.denominator for x in row)) for row in data)
        return cls(tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row, d in zip(data, dens)), dens, n)

    @property
    def k(self) -> int:
        return len(self.denominators)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(a, d) for a in row) for row, d in zip(self.numerators, self.denominators))

    @cached_property
    def scaled_minors(self) -> tuple[dict[int, int], int]:
        """:func:`_scaled_table`, keyed by column mask (:attr:`KSet.mask`), built on
        first use, once per matrix; read only."""
        return _scaled_table(self)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]


def _rational(x: object) -> Fraction:
    try:
        if type(x) in (int, Fraction, str):
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"matrix entries must be ints, Fractions or rational strs, got {x!r}")


def _scaled_table(matrix: RationalMatrix) -> tuple[dict[int, int], int]:
    """(dets, scale): the nonzero maximal minors times ``scale`` as ints, keyed
    by column bit mask, bit j for column j.  The minors are read from the
    integer rows, and ``scale`` > 0 is the product of the row denominators, so
    signs and zeros are kept.  The nonzero minors of the first r rows come from
    those of the first r - 1 by Laplace expansion along row r: about
    sum_r r * C(n, r) integer products."""
    level: dict[int, int] = {0: 1}
    for row in matrix.numerators:
        entries = [(1 << j, a) for j, a in enumerate(row, 1) if a]
        grown: dict[int, int] = {}
        for cols, det in level.items():
            for bit, a in entries:
                if not cols & bit:  # cofactor sign: (-1) ** (number of columns in cols after bit's)
                    term = -a * det if (cols & -bit).bit_count() & 1 else a * det
                    grown[cols | bit] = grown.get(cols | bit, 0) + term
        level = {cols: det for cols, det in grown.items() if det}
    return level, math.prod(matrix.denominators)


def minor(matrix: RationalMatrix, columns: KSet) -> Fraction:
    """Exact determinant of the selected columns.

    One entry of ``matrix.scaled_minors``, the integer table kept per
    matrix, divided by its scale; no other entry is divided.

    >>> m = RationalMatrix.of([[1, 0, 2], [0, 1, 3]])
    >>> minor(m, KSet.of([1, 2], 3))
    Fraction(1, 1)
    """
    if columns.k != matrix.k:
        raise DimensionError(f"need {matrix.k} columns, got {columns.k}")
    if columns.n != matrix.n:
        raise DimensionError(f"matrix has {matrix.n} columns, label lives on [{columns.n}]")
    dets, scale = matrix.scaled_minors
    return Fraction(dets.get(columns.mask, 0), scale)


# ---------------------------------------------------------------------------
# perfect orientations


class _Network(NamedTuple):
    """A graph's perfect orientation as sorted (edge id, (tail, head)) pairs, its
    boundary sources and the path-sum plan over the topological order that accepted
    it: ``arcs[i]``, the (head position, edge id) arcs out of position i; ``rows``,
    per source its position and (column index, position, sign bit) per sink.
    ``members`` holds the column masks of the positroid of the graph's trip
    permutation, which anchors the sampler's vanishing check."""

    orientation: tuple[tuple[int, tuple[int, int]], ...]
    sources: KSet
    arcs: tuple[tuple[tuple[int, int], ...], ...]
    rows: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]
    members: frozenset[int]


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _network(graph: PlabicGraph) -> _Network:
    """An acyclic orientation with one outgoing edge per internal black vertex
    and one incoming edge per internal white vertex, as edge id -> (tail, head)
    pairs in a :class:`_Network`, with the positroid of the graph's trip
    permutation; ConstructionError when the graph admits no such orientation.

    Found by backtracking over the distinguished edge of each internal vertex
    (the outgoing one at black, the incoming one at white) with unit
    propagation; the coupling is local: a same-colored internal edge is
    distinguished at exactly one end, an opposite-colored one at both ends or
    neither.  Cyclic candidates are rejected, so the first surviving
    assignment is returned.
    """
    n = graph.boundary
    rot = graph.rotation_map
    internal = sorted(v for v in rot if v > n)
    incident: dict[int, list[int]] = {v: list(rot[v]) for v in internal}
    colors = graph.color_map

    domains: dict[int, set[int]] = {v: set(edges) for v, edges in incident.items()}
    chosen: dict[int, int] = {}

    def other(eid: int, v: int) -> int:
        u, w = graph.edges[eid]
        return w if u == v else u

    def force(v: int, eid: int, trail: list[tuple[str, int, int]]) -> bool:
        # v's distinguished edge must be eid
        if v in chosen:
            return chosen[v] == eid
        if eid not in domains[v]:
            return False
        return assign(v, eid, trail)

    def forbid(v: int, eid: int, trail: list[tuple[str, int, int]]) -> bool:
        if v in chosen:
            return chosen[v] != eid
        if eid in domains[v]:
            domains[v].discard(eid)
            trail.append(("domain", v, eid))
            if not domains[v]:
                return False
            if len(domains[v]) == 1 and v not in chosen:
                return assign(v, next(iter(domains[v])), trail)
        return True

    def assign(v: int, eid: int, trail: list[tuple[str, int, int]]) -> bool:
        chosen[v] = eid
        trail.append(("chosen", v, eid))
        for e2 in incident[v]:
            w = other(e2, v)
            if w <= n:
                continue
            if e2 == eid:
                ok = force(w, e2, trail) if colors[v] != colors[w] else forbid(w, e2, trail)
            else:
                ok = forbid(w, e2, trail) if colors[v] != colors[w] else force(w, e2, trail)
            if not ok:
                return False
        return True

    def undo(trail: list[tuple[str, int, int]], mark: int) -> None:
        while len(trail) > mark:
            kind, v, eid = trail.pop()
            if kind == "chosen":
                del chosen[v]
            else:
                domains[v].add(eid)

    def orientation_of(assignment: dict[int, int]) -> dict[int, tuple[int, int]]:
        directed: dict[int, tuple[int, int]] = {}
        for eid, (u, v) in enumerate(graph.edges):
            if u <= n and v <= n:
                directed[eid] = (min(u, v), max(u, v))
                continue
            w, x = (u, v) if u > n else (v, u)  # w is internal
            # black: distinguished = outgoing; white: distinguished = incoming
            out_of_w = (assignment.get(w) == eid) == (colors[w] == BLACK)
            directed[eid] = (w, x) if out_of_w else (x, w)
        return directed

    def search() -> tuple[dict[int, tuple[int, int]], list[int]] | None:
        free = [v for v in internal if v not in chosen]
        if not free:
            directed = orientation_of(chosen)
            order = _topological_order(rot, directed.values())
            return None if order is None else (directed, order)
        v = min(free, key=lambda x: len(domains[x]))
        for eid in sorted(domains[v]):
            trail: list[tuple[str, int, int]] = []
            if assign(v, eid, trail) and (found := search()) is not None:
                return found
            undo(trail, 0)
        return None

    # degree-1 internal vertices are forced immediately
    trail0: list[tuple[str, int, int]] = []
    found = all(len(incident[v]) != 1 or force(v, incident[v][0], trail0) for v in internal) and search()
    if not found:
        raise ConstructionError("graph admits no acyclic perfect orientation")
    directed, order = found
    sources = [b for b in range(1, n + 1) if directed[rot[b][0]][0] == b]
    positroid = positroid_members(necklace_from_permutation(trip_permutation(graph)))
    return _plan(sorted(directed.items()), order, sources, n, frozenset(s.mask for s in positroid.members))


def _plan(
    orientation: list[tuple[int, tuple[int, int]]], order: list[int], sources: list[int], n: int,
    members: frozenset[int],
) -> _Network:
    position = {v: i for i, v in enumerate(order)}
    arcs: list[list[tuple[int, int]]] = [[] for _ in order]
    for eid, (tail, head) in orientation:
        arcs[position[tail]].append((position[head], eid))
    # before[j - 1] sources are smaller than j; sink j's sign in the row of the i-th
    # source s, (-1) ** (number of sources strictly between s and j), has parity i + before[j - 1] + (s < j)
    before = list(itertools.accumulate((j in sources for j in range(1, n + 1)), initial=0))
    sinks = [j for j in range(1, n + 1) if j not in sources]
    rows = tuple(
        (position[s], tuple((j - 1, position[j], (i + before[j - 1] + (s < j)) & 1) for j in sinks))
        for i, s in enumerate(sources)
    )
    return _Network(tuple(orientation), KSet(tuple(sources), n), tuple(map(tuple, arcs)), rows, members)


def _topological_order(
    vertices: Iterable[int], arcs: Iterable[tuple[int, int]]
) -> list[int] | None:
    """Kahn's sort of the digraph with the given (tail, head) arcs, or None
    when it has a directed cycle."""
    outs: dict[int, list[int]] = {v: [] for v in vertices}
    indeg = dict.fromkeys(outs, 0)
    for tail, head in arcs:
        outs[tail].append(head)
        indeg[head] += 1
    order = []
    queue = [v for v, d in indeg.items() if d == 0]
    while queue:
        v = queue.pop()
        order.append(v)
        for w in outs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order if len(order) == len(indeg) else None


# ---------------------------------------------------------------------------
# boundary measurement


@dataclass(frozen=True)
class CellPoint:
    """A sampled point of the open cell: the measurement matrix, the edge
    weights that produced it and their graph, whose one cached network gives
    the sources."""

    matrix: RationalMatrix
    weights: tuple[tuple[int, Fraction], ...]
    graph: PlabicGraph

    @property
    def sources(self) -> KSet:
        return _network(self.graph).sources

    def to_json(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "weights": {str(eid): str(w) for eid, w in self.weights},
            "sources": self.sources.to_json(),
        }


def _measurement_matrix(graph: PlabicGraph, weights: Mapping[int, Fraction]) -> RationalMatrix:
    network = _network(graph)
    arcs = [[(w, weights[eid].numerator, weights[eid].denominator) for w, eid in out] for out in network.arcs]
    numerators, denominators = [], []
    for s, (start, sinks) in zip(network.sources, network.rows):
        # nums[v] / dens[v]: the path sum from s to position v, an unreduced pair, 0 / 1 until reached
        nums, dens = [0] * len(arcs), [1] * len(arcs)
        nums[start] = 1
        for v in range(start, len(arcs)):
            if a := nums[v]:  # weights are positive: a reached vertex has a positive sum
                b = dens[v]
                for w, p, q in arcs[v]:
                    d = dens[w]
                    if d == b * q:
                        nums[w] += a * p
                    else:
                        nums[w], dens[w] = nums[w] * b * q + a * p * d, d * b * q
        row, row_dens = [0] * graph.boundary, [1] * graph.boundary
        row[s - 1] = 1
        for j, v, negated in sinks:
            g = math.gcd(nums[v], dens[v])
            row[j], row_dens[j] = -nums[v] // g if negated else nums[v] // g, dens[v] // g
        lcm = math.lcm(*row_dens)
        numerators.append(tuple(num * (lcm // den) for num, den in zip(row, row_dens)))
        denominators.append(lcm)
    return RationalMatrix(tuple(numerators), tuple(denominators), graph.boundary)


def sample_cell_point(
    graph: PlabicGraph,
    weights: Mapping[int, Fraction] | None = None,
    rng_seed: int = 0,
) -> CellPoint:
    """Boundary measurement at positive edge weights, validated exactly.

    Weights default to small random positive rationals drawn from the seeded
    generator.  Every call checks the vanishing profile of the result: minors
    vanish exactly on the positroid complement and are strictly positive on
    the members (the point lies in the totally nonnegative part of the cell),
    whose positroid is materialized for any n.  The check reads the integer
    minors; Fractions are built only to name the first offending minor, or
    when the point's minors are read.
    """
    if weights is None:
        draws = _randints(random.Random(rng_seed), 2 * len(graph.edges), 1, 9)
        weights = {eid: _WEIGHTS[pair] for eid, pair in enumerate(zip(draws[::2], draws[1::2]))}
    else:
        weights = dict(weights)
        if set(weights) != set(range(len(graph.edges))):
            raise ValidationError("need one weight per edge id")
        if any(type(w) not in (int, Fraction) or w <= 0 for w in weights.values()):
            raise ValidationError("weights must be positive ints or Fractions")
    matrix = _measurement_matrix(graph, weights)

    members = _network(graph).members
    dets, _ = matrix.scaled_minors
    if dets.keys() != members or any(det < 0 for det in dets.values()):
        for s in k_subsets(matrix.n, matrix.k):
            value = minor(matrix, s)
            if s.mask in members and value <= 0:
                raise ConstructionError(f"minor {s} should be positive, got {value}")
            if s.mask not in members and value != 0:
                raise ConstructionError(f"minor {s} should vanish, got {value}")
    return CellPoint(matrix, tuple(sorted(weights.items())), graph)


def _randints(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """``[rng.randint(low, high) for _ in range(count)]`` in one frame: each is
    ``getrandbits`` of the width's bit length, redrawn while past the width."""
    width = high - low + 1
    bits, size, out = rng.getrandbits, width.bit_length(), []
    while len(out) < count:
        if (r := bits(size)) < width:
            out.append(low + r)
    return out


def sample_generic_matrix(k: int, n: int, rng: random.Random) -> RationalMatrix:
    """Random integer matrix whose integer table holds every maximal minor."""
    while True:
        entries = _randints(rng, k * n, -9, 9)
        m = RationalMatrix(tuple(tuple(entries[i * n : i * n + n]) for i in range(k)), (1,) * k, n)
        if len(m.scaled_minors[0]) == math.comb(n, k):
            return m


# ---------------------------------------------------------------------------
# identity verification


def _exchange_identities(seed: Seed) -> tuple[ExchangeGraph, list[tuple[str, int, int, int, int]]]:
    # the exchange graph, and (name, member, pivot, neighbour, vertex of x') per (member,
    # mutable vertex); mutation is an involution, so x' sits at the one vertex whose move leads back
    graph = members, complete, neighbours, _ = exchange_graph(seed, SEEDS_LIMIT)
    if not complete:
        raise ValidationError(f"mutation class exceeded the limit {SEEDS_LIMIT}")
    out = []
    for idx, member in enumerate(members):
        for vid, target in zip(member.quiver.mutable_ids(), neighbours[idx]):
            new = members[target].quiver.mutable_ids()[neighbours[target].index(idx)]
            pivot = member.quiver.vertex(vid).label
            name = pivot.label() if pivot is not None else f"v{vid}"
            out.append((f"exchange:{name}@{idx}", idx, vid, target, new))
    return graph, out


def _minor_identities(
    necklace: GrassmannNecklace, members: frozenset[KSet]
) -> list[tuple[str, tuple[KSet, KSet], tuple[tuple[KSet, KSet], ...]]]:
    """Product identities among minors on the cell, as (name, lhs pair, rhs
    pairs): the left product equals the sum of the right ones.

    ``restricted:`` entries are two-term specializations of three-term
    relations: whenever a product contains a minor from the positroid
    complement it drops on the cell, and the equality between the surviving
    products is a nontrivial exact check.  On a rank-two cell these include
    every resolution (label, J, L1, L2) of
    :func:`cm.k2_generator_decomposition`: label and J are members and exactly
    one of the two reroutings lies in the positroid, so the relation through
    label * J keeps two of its three products.
    """
    n, columns, out = necklace.n, {s.mask for s in members}, []
    for relation in _three_term_table(n, necklace.k):
        alive = [(KSet.from_mask(x, n), KSet.from_mask(y, n)) for x, y in relation if x in columns and y in columns]
        if 0 < len(alive) < len(relation):
            name = "=".join(f"{x.label()}*{y.label()}" for x, y in alive)
            out.append((f"restricted:{name}", alive[0], tuple(alive[1:])))
    return out


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _three_term_table(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every three-term relation through a (k-2)-core of [n]: its three products
    in :func:`three_term` order, each a pair of column masks."""
    if k < 2:  # no quadruple fits around a (k-2)-core
        return ()
    ground = range(1, n + 1)
    return tuple(
        tuple((x.mask, y.mask) for x, y in three_term(core, *quad, n))
        for core in itertools.combinations(ground, k - 2)
        for quad in itertools.combinations([x for x in ground if x not in core], 4)
    )


def _product(dets: Mapping[int, int], pair: tuple[KSet, KSet]) -> int:
    return dets.get(pair[0].mask, 0) * dets.get(pair[1].mask, 0)


def _exchange_checks(
    seed: Seed, vid: int, value: Callable[[Seed, int], Sequence[Fraction]], new_values: Sequence[Fraction]
) -> Iterator[tuple[str, Fraction, Fraction]]:
    """(name, x * x', M1 + M2) per matrix, M1 and M2 the monomials of the exchange binomial at ``vid``."""
    arrows = (seed.quiver.arrows_in(vid), seed.quiver.arrows_out(vid))
    sides = [[(value(seed, w), mult) for w, mult in side] for side in arrows]
    for pidx, (x, new_value) in enumerate(zip(value(seed, vid), new_values)):
        yield f"generic:{pidx}", x * new_value, sum(math.prod(v[pidx] ** m for v, m in side) for side in sides)


def _entry(name: str, checks: Iterable[tuple[str, object, object]], show=lambda side: str(Fraction(*side))) -> dict:
    """One report entry from (point, lhs, rhs) triples; a failure records both
    sides through ``show``, by default (numerator, denominator) as a Fraction."""
    entry = {"name": name, "points_checked": 0, "failures": []}
    for point, lhs, rhs in checks:
        entry["points_checked"] += 1
        if lhs != rhs:
            entry["failures"].append({"point": point, "lhs": show(lhs), "rhs": show(rhs)})
    return entry


def verify_identities(
    necklace: GrassmannNecklace,
    seed: Seed,
    points: Sequence[CellPoint],
    generic: Sequence[RationalMatrix],
    corrupt: bool = False,
) -> dict:
    """Exact verification sweep; no tolerances anywhere.

    Checks, in order: every exchange relation of every seed that
    :func:`exchange_graph` returns on every generic matrix (labels evaluated
    as minors, unlabeled variables through the graph's Laurent expansions,
    which ties the two routes); the restricted two-term identities on every
    cell point, which include the k=2 generator decompositions; and the exact
    vanishing profile of every cell point.  Seats with one label, or unlabeled
    seats with one g-vector, which names the variable, share one list of
    values.  ``corrupt`` is a negative control: the first exchange reads its
    x' values plus 1, outside the shared table, so no other entry sees them;
    that entry gains ":corrupted" and must fail.
    Exchange relations are checked on ints: at the minors of a generic matrix's
    integer rows, its ``scaled_minors``, every cluster variable, in Z[x_ij], is
    an int.  A rational matrix is so checked at that rescaling; the relations
    are homogeneous in the Pluecker coordinates, so the verdict is the same.
    ValidationError: ``corrupt`` on a cell with no exchange relation, or a
    class past ``SEEDS_LIMIT``.
    """
    initial_labels = [v.label for v in seed.quiver.vertices]
    if any(lab is None for lab in initial_labels):
        raise ValidationError("seed must be fully labeled")
    n, k = necklace.n, necklace.k
    if any((m.k, m.n) != (k, n) for m in (*generic, *(point.matrix for point in points))):
        raise DimensionError(f"generic matrices and cell points must be {k} x {n} matrices")
    graph, exchanges = _exchange_identities(seed)
    members = graph.members
    if corrupt and not exchanges:
        raise ValidationError("the negative control needs an exchange relation; this cell has none")

    minors = [matrix.scaled_minors[0] for matrix in generic]
    assignments = [{lab.label(): dets.get(lab.mask, 0) for lab in initial_labels} for dets in minors]
    shared: dict[KSet | tuple[int, ...], list[int | Fraction]] = {}

    def value(member: Seed, vid: int) -> list[int | Fraction]:
        # a label reads its minors, an unlabeled seat its g-vector's expansion, an int when integral
        label = member.quiver.vertex(vid).label
        key = label if label is not None else member.g_vectors[member.quiver.mutable_ids().index(vid)]
        if key not in shared:
            if label is not None:
                shared[key] = [dets.get(label.mask, 0) for dets in minors]
            else:
                values = map(graph.expansions[key].evaluate, assignments)
                shared[key] = [v.numerator if v.denominator == 1 else v for v in values]
        return shared[key]

    identities = []
    for pos, (name, idx, vid, target, new) in enumerate(exchanges):
        new_values = value(members[target], new)
        if corrupt and pos == 0:
            name, new_values = f"{name}:corrupted", [v + 1 for v in new_values]
        identities.append(_entry(name, _exchange_checks(members[idx], vid, value, new_values), show=str))

    # the labels below are k-subsets of [n], read straight from the tables
    tables = [point.matrix.scaled_minors for point in points]
    positroid = positroid_members(necklace)
    for name, lhs, rhs in _minor_identities(necklace, positroid.members):
        # both sides carry scale ** 2: compare integers, show a failure as Fractions
        checks = (
            (f"cell:{pidx}", (_product(dets, lhs), scale**2), (sum(_product(dets, p) for p in rhs), scale**2))
            for pidx, (dets, scale) in enumerate(tables)
        )
        identities.append(_entry(name, checks))

    # the zero sets as column masks; a KSet is built only to show a failure
    every = set(map(sum, itertools.combinations([1 << j for j in range(1, n + 1)], k)))
    expected = every.difference(s.mask for s in positroid.members)
    profiles = ((f"cell:{pidx}", every.difference(dets), expected) for pidx, (dets, _) in enumerate(tables))
    identities.append(
        _entry("vanishing-profile", profiles, show=lambda sets: sorted(KSet.from_mask(c, n).label() for c in sets))
    )
    return {"identities": identities, "passed": all(not e["failures"] for e in identities)}
