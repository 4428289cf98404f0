"""Shared fixtures and helpers for the suite.

Pinned counts that the code does not promise on its own live in
snapshots.json next to this file; tests compare recomputed values
against that file so regressions show up as diffs, not silent drift.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from bisect import bisect
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest

from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    IceQuiver,
    KSet,
    LaurentPoly,
    PlabicGraph,
    alignments,
    bridge_graph_from_permutation,
    connected_components,
    face_labels,
    initial_seed,
    necklace_from_permutation,
    quiver_from_graph,
)
from positroids import cluster, numeric, plabic
from positroids.cluster import closure
from positroids.combinatorics import DimensionError, ValidationError, affine_inversions, cyclic_pos
from positroids.combinatorics import cyclically_ordered, k_subsets, three_term
from positroids.plabic import (
    BLACK,
    WHITE,
    Face,
    FaceLabeling,
    ReducednessError,
    _Disk,
    _assemble,
    _face_orbits,
    _strand_permutation,
    movable_faces,
    square_move,
)

SNAPSHOTS = json.loads((Path(__file__).parent / "snapshots.json").read_text())


def uniform_perm(k: int, n: int) -> DecoratedPermutation:
    """The shift i -> i + k mod n, whose cell is the whole nonnegative Grassmannian piece."""
    return DecoratedPermutation.of(tuple((i + k - 1) % n + 1 for i in range(1, n + 1)))


def named_cells():
    """The cells pinned by name in snapshots.json, as (name, permutation)."""
    yield "uniform(2,4)", uniform_perm(2, 4)
    yield "uniform(2,5)", uniform_perm(2, 5)
    yield "uniform(2,6)", uniform_perm(2, 6)
    yield "uniform(2,7)", uniform_perm(2, 7)
    yield "uniform(2,8)", uniform_perm(2, 8)
    yield "uniform(3,6)", uniform_perm(3, 6)
    yield "uniform(3,7)", uniform_perm(3, 7)
    yield "(135)(264)", DecoratedPermutation.from_cycle_string("(135)(264)")
    yield "disc(3,4,1,2,7,6,5)|6:+", DecoratedPermutation.of((3, 4, 1, 2, 7, 6, 5), {6: 1})
    yield "disc(3,4,1,2,7,8,5,6)", DecoratedPermutation.of((3, 4, 1, 2, 7, 8, 5, 6))


def random_decorated(rng: random.Random, n: int) -> DecoratedPermutation:
    image = rng.sample(range(1, n + 1), n)
    colors = {i: rng.choice((1, -1)) for i, v in enumerate(image, 1) if v == i}
    return DecoratedPermutation.of(tuple(image), colors)


def decorated_permutations(n: int):
    """Every decorated permutation of [n]: each fixed point takes both colors."""
    for image in itertools.permutations(range(1, n + 1)):
        fixed = [i for i, v in enumerate(image, 1) if v == i]
        for signs in itertools.product((1, -1), repeat=len(fixed)):
            yield DecoratedPermutation.of(image, dict(zip(fixed, signs)))


def k2_permutations(n: int):
    """Every decorated permutation of [n] of rank two.

    Rank counts strict anti-exceedances plus minus-colored fixed points, so the
    colorings are chosen to top the strict count up to exactly two.
    """
    for image in itertools.permutations(range(1, n + 1)):
        strict = sum(1 for i, v in enumerate(image, 1) if v < i)
        if strict > 2:
            continue
        fixed = [i for i, v in enumerate(image, 1) if v == i]
        need = 2 - strict
        if need > len(fixed):
            continue
        for minus in itertools.combinations(fixed, need):
            colors = {f: (-1 if f in minus else 1) for f in fixed}
            yield DecoratedPermutation.of(image, colors)


def ks(text: str, n: int) -> KSet:
    return KSet.from_label(text, n)


def diff(a: KSet, b: KSet) -> tuple[int, ...]:
    """The elements of a that b lacks, in increasing order."""
    return tuple(e for e in a.elements if e not in b.elements)


def chords_cross(s, t, n: int) -> bool:
    """Reference crossing test: a chord between two points of s crosses one
    between two points of t, i.e. x, y, z, w lie in cyclic order; the points
    of s and t are distinct."""
    return any(
        cyclically_ordered(x, y, z, w, n)
        for x, z in itertools.combinations(s, 2)
        for y, w in itertools.permutations(t, 2)
    )


def shifted_leq(i: int, a: KSet, b: KSet) -> bool:
    """Gale order at base point i: componentwise <=_i after sorting both by <_i."""
    if a.n != b.n or a.k != b.k:
        raise DimensionError(f"cannot compare {a} and {b} in the Gale order")
    n = a.n
    for x, y in zip(a.sorted_by(i), b.sorted_by(i)):
        if cyclic_pos(i, x, n) > cyclic_pos(i, y, n):
            return False
    return True


def restricted_necklace(necklace: GrassmannNecklace, elements: tuple[int, ...]) -> GrassmannNecklace:
    """Necklace of a component read off by restriction: entry p is I_{s_p} n S, relabeled.

    Independent of the route through the relabeled permutation; the two are
    compared in the test suite.
    """
    relabel = {e: p for p, e in enumerate(elements, start=1)}
    m = len(elements)
    sets = []
    for e in elements:
        inter = [relabel[x] for x in necklace[e] if x in relabel]
        sets.append(KSet.of(inter, m))
    return GrassmannNecklace(tuple(sets))


def reference_trip_sides(disk, trip, dart_face, adjacent, interior) -> dict[int, str]:
    """Side ("L" or "R") of every face reached from one strand's darts.

    The faces beside the strand's darts seed a breadth-first search; the side
    flips across an edge exactly when the strand traverses it once.
    """
    side: dict[int, str] = {}
    conflict = "trip {} assigns both sides to one face".format(trip.source)

    def put(fid: int, s: str) -> None:
        if side.setdefault(fid, s) != s:
            raise ReducednessError(conflict)

    traversals = Counter(d >> 1 for d in trip.darts)
    for d in trip.darts:
        # a cap edge ends in an internal leaf, whose color picks the side
        u, v = disk.ends[d >> 1]
        leaf = u if u > disk.n and disk.deg[u] == 1 else v
        if leaf > disk.n and disk.deg[leaf] == 1:
            put(dart_face[d], "L" if disk.colors[leaf] == WHITE else "R")
        else:
            put(dart_face[d], "L")
            put(dart_face[d ^ 1], "R")

    queue = deque(side)
    while queue:
        fid = queue.popleft()
        for eid, other in adjacent[fid]:
            flip = traversals[eid] == 1
            want = ("R" if side[fid] == "L" else "L") if flip else side[fid]
            if other not in side:
                side[other] = want
                queue.append(other)
            elif side[other] != want:
                raise ReducednessError(conflict)
    if any(fid not in side for fid in interior):
        raise ValidationError("face side propagation did not reach every face")
    return side


def reference_label_faces(g, disk, strands) -> FaceLabeling:
    """Reference face analysis, a drop-in for ``plabic._label_faces``: one
    side propagation per strand, and a face's label collects the targets of
    the strands that have it on their left."""
    n = disk.n
    orbits, dart_face = _face_orbits(disk)
    if n + len(g.colors) - len(disk.ends) + len(orbits) != 2:
        raise ValidationError("graph is not connected and planar in the disk")
    outer = dart_face[disk.dart(disk.arc_of[1], 1)] if n >= 2 else None
    interior = [fid for fid in range(len(orbits)) if fid != outer]
    adjacent: list[list[tuple[int, int]]] = [[] for _ in orbits]
    for eid in range(disk.m):
        fa, fb = dart_face[2 * eid], dart_face[2 * eid + 1]
        if fa != fb:
            adjacent[fa].append((eid, fb))
            adjacent[fb].append((eid, fa))

    sides = [reference_trip_sides(disk, t, dart_face, adjacent, interior) for t in strands]
    labels: dict[int, set[int]] = {fid: set() for fid in interior}
    for trip, side in zip(strands, sides):
        for fid, s in side.items():
            if s == "L":
                labels[fid].add(trip.target)
    sizes = {len(s) for s in labels.values()}
    if len(sizes) > 1:
        raise ReducednessError(f"face label sizes disagree: {sorted(sizes)}")

    marks: dict[int, list[int]] = {fid: [] for fid in interior}
    for i in range(1, n + 1):
        marks[dart_face[strands[i - 2].darts[0]]].append(i)
    faces = tuple(
        Face(fid, KSet.of(labels[fid], n), tuple(marks[fid]), orbits[fid]) for fid in interior
    )
    return FaceLabeling(g, faces, _strand_permutation(disk, strands))


def validate_reduced(g: PlabicGraph) -> bool:
    """Trip-based reducedness test.

    Checks: no strand avoids the boundary; no strand reuses an edge except for
    the immediate bounce at a degree-1 vertex; no two strands share two edges
    in the same order; faces have distinct labels of a common size; the face
    count matches k(n-k) - (alignment count) + 1.
    """
    disk = plabic._Disk(g)
    strands = plabic._trips(disk)
    # trips follow a permutation of the darts; any dart they miss is on a closed strand
    if sum(len(t.darts) for t in strands) != 2 * disk.m:
        return False
    for t in strands:
        eids = t.edge_ids()
        for k, l in itertools.combinations(range(len(eids)), 2):  # repeats only as a leaf bounce
            if eids[k] == eids[l] and (l > k + 1 or disk.deg.get(disk.head(t.darts[k]), 0) != 1):
                return False
    firsts = [
        {e: pos for pos, e in reversed(list(enumerate(t.edge_ids())))} for t in strands
    ]
    for fa, fb in itertools.combinations(firsts, 2):
        shared = fa.keys() & fb.keys()
        if any(fa[e1] < fa[e2] and fb[e1] < fb[e2] for e1, e2 in itertools.permutations(shared, 2)):
            return False
    try:
        labeling = plabic._label_faces(g, disk, strands)
    except ReducednessError:
        return False
    if len(labeling.collection()) != len(labeling.faces):
        return False
    sigma = labeling.permutation
    expected = sigma.k * (sigma.n - sigma.k) - alignments(sigma) + 1
    return len(labeling.faces) == expected


def recoloured_bridge_corpus(max_n: int, recolourings: int, seed: int):
    """The bridge graph of every decorated permutation with n <= max_n, each
    followed by ``recolourings`` copies with every internal vertex recoloured
    at random.  Most recolourings are not reduced, and many are not labelled."""
    rng = random.Random(seed)
    for n in range(1, max_n + 1):
        for sigma in decorated_permutations(n):
            g = bridge_graph_from_permutation(sigma)
            yield g
            for _ in range(recolourings):
                yield recolor(g, {v: rng.choice((WHITE, BLACK)) for v in g.internal_ids()})


def labels_of(seed) -> dict:
    """Each vertex id of the seed's quiver with its label, None when unlabelled."""
    return {v.id: v.label for v in seed.quiver.vertices}


def core_key(quiver, names) -> frozenset:
    """The arrows with a mutable end, their ends renamed by ``names``."""
    return frozenset((names[s], names[t], m) for s, t, m in quiver.core_arrows())


def has_core_two_cycle_or_loop(quiver) -> bool:
    """Whether the arrows with a mutable end hold a loop or an opposing pair.

    ``IceQuiver`` rejects both when it is built, so this is an independent
    probe of that promise.
    """
    seen = set()
    for s, t, _ in quiver.core_arrows():
        if s == t or (t, s) in seen:
            return True
        seen.add((s, t))
    return False


def quiver_b(quiver, i: int, j: int) -> int:
    """Exchange-matrix entry b_ij of an ice quiver: arrows i -> j minus arrows j -> i."""
    total = 0
    for s, t, m in quiver.arrows:
        if (s, t) == (i, j):
            total += m
        elif (s, t) == (j, i):
            total -= m
    return total


def fz_mutate_quiver(quiver, vid: int):
    """The quiver after Fomin-Zelevinsky mutation at ``vid``, by the kernel seeds mutate with."""
    return IceQuiver(quiver.vertices, cluster._mutated_arrows(quiver, vid))


def mutate_seed(seed, vid: int):
    """Mutation at ``vid`` by the class's own step, with an empty expansion
    table, so the exchange binomial is divided on every call."""
    return cluster._mutate(seed, vid, cluster._tropical_step(seed, vid), {})


def fingerprint_key(seed):
    """Seed identity by Laurent expansions, as keyed before g-vectors: each
    variable's sorted terms, plus the core arrows over the vertices ordered by
    (frozen, terms)."""
    prints = {vid: tuple((tuple(sorted(e)), c) for e, c in poly.terms) for vid, poly in seed.variables}
    order = sorted(seed.quiver.vertices, key=lambda v: (not v.frozen, prints[v.id]))
    index = {v.id: p for p, v in enumerate(order)}
    arrows = frozenset((index[s], index[t], m) for s, t, m in seed.quiver.core_arrows())
    return tuple(prints[v.id] for v in order), arrows


def reference_mutation_class(seed, limit=None):
    """Mutation class by the route g-vector keys replaced: every neighbour is
    built by ``mutate_seed`` and keyed by :func:`fingerprint_key`."""

    def moves(member):
        for vid in member.quiver.mutable_ids():
            nxt = mutate_seed(member, vid)
            yield fingerprint_key(nxt), lambda nxt=nxt: nxt

    return closure(seed, moves, fingerprint_key, limit)[:2]


def reference_bridge_graph(sigma: DecoratedPermutation) -> PlabicGraph:
    """Bridge graph by the route the shipped builder replaced: each peel is a
    trial swap kept only if it raises the affine inversion count by one, and
    every wire gets a cap that ``_reference_cleanup`` deletes again.

    Peels one crossing at a time from the bounded affine lift: pick cyclically
    adjacent non-fixed columns a, b with b <= f(a) < f(b) <= a + n whose value
    swap raises the inversion count by exactly one, place a bridge there, and
    repeat until only fixed columns remain.  Earlier bridges sit higher; each
    wire ends in a cap colored white for a -1 column and black for +1.
    """
    n = sigma.n
    f = [0] + list(sigma.affine_lift())

    def trivial(x: int) -> bool:
        return f[x] in (x, x + n)

    bridges: list[tuple[int, int]] = []
    while not all(trivial(x) for x in range(1, n + 1)):
        before = affine_inversions(f[1:])
        progressed = False
        for a in range(1, n + 1):
            if trivial(a):
                continue
            b = a % n + 1
            while trivial(b):
                b = b % n + 1
            pb = b if b > a else b + n
            va, vb = f[a], f[b] + (n if b < a else 0)
            if not (pb <= va < vb <= a + n):
                continue
            f[a], f[b] = vb, va - (n if b < a else 0)
            if affine_inversions(f[1:]) == before + 1:
                bridges.append((a, b))
                progressed = True
                break
            f[a], f[b] = va, vb - (n if b < a else 0)
        if not progressed:
            raise ValidationError(f"no admissible bridge peel for {sigma}")

    wires: dict[int, list[tuple[int, str]]] = {x: [] for x in range(1, n + 1)}
    for t, (a, b) in enumerate(bridges):
        wires[a].append((t, "a"))
        wires[b].append((t, "b"))

    next_id = n + 1
    colors: dict[int, str] = {}
    bridge_vertex: dict[tuple[int, str], int] = {}
    cap: dict[int, int] = {}
    for x in range(1, n + 1):
        for t, role in wires[x]:
            bridge_vertex[(t, role)] = next_id
            colors[next_id] = WHITE if role == "a" else BLACK
            next_id += 1
        cap[x] = next_id
        colors[next_id] = WHITE if f[x] == x + n else BLACK
        next_id += 1

    edges: list[tuple[int, int]] = []
    up_edge: dict[int, int] = {}
    down_edge: dict[int, int] = {}
    leg: dict[int, int] = {}
    for x in range(1, n + 1):
        chain = [x] + [bridge_vertex[key] for key in [(t, r) for t, r in wires[x]]] + [cap[x]]
        for u, v in zip(chain, chain[1:]):
            eid = len(edges)
            edges.append((u, v))
            down_edge[u] = eid
            up_edge[v] = eid
            if u == x:
                leg[x] = eid
    bridge_edge: dict[int, int] = {}
    for t in range(len(bridges)):
        eid = len(edges)
        edges.append((bridge_vertex[(t, "a")], bridge_vertex[(t, "b")]))
        bridge_edge[t] = eid

    rotation: dict[int, tuple[int, ...]] = {}
    for x in range(1, n + 1):
        rotation[x] = (leg[x],)
        rotation[cap[x]] = (up_edge[cap[x]],)
    for (t, role), v in bridge_vertex.items():
        u, d, br = up_edge[v], down_edge[v], bridge_edge[t]
        rotation[v] = (br, u, d) if role == "a" else (u, br, d)

    return _reference_cleanup(n, colors, edges, rotation)


def _reference_cleanup(n: int, colors: dict[int, str], edge_list: list, rotation: dict) -> PlabicGraph:
    """Build the graph with boundary n from its parts, with bounce caps removed
    and degree-2 vertices straightened; ``colors`` is updated in place.

    A degree-1 internal vertex hanging off another internal vertex only makes
    the strand through its neighbor take a detour down and back; deleting it
    and then merging the edges of any resulting degree-2 vertex leaves trips,
    faces and labels unchanged.  Caps attached directly to a boundary vertex
    are genuine lollipops (decorated fixed points) and are kept.
    """
    edges: dict[int, tuple[int, int]] = dict(enumerate(edge_list))
    rot: dict[int, list[int]] = {v: list(rotation[v]) for v in sorted(rotation)}

    def far_end(eid: int, v: int) -> int:
        u, w = edges[eid]
        return w if u == v else u

    changed = True
    while changed:
        changed = False
        for v in list(rot):
            if v not in rot or v <= n or len(rot[v]) != 1:
                continue
            eid = rot[v][0]
            other = far_end(eid, v)
            if other <= n:
                continue
            del rot[v], colors[v], edges[eid]
            rot[other].remove(eid)
            changed = True
        for v in list(rot):
            if v not in rot or v <= n or len(rot[v]) != 2:
                continue
            e1, e2 = rot[v]
            a, b = far_end(e1, v), far_end(e2, v)
            if a == b:
                raise ValidationError("degree-2 straightening would create a loop")
            edges[e1] = (a, b)
            rot[b][rot[b].index(e2)] = e1
            del rot[v], colors[v], edges[e2]
            changed = True

    return _assemble(n, colors, edges, rot)


def reference_graph_mutation_class(g):
    """Square-move closure by the route keyed moves replaced: every neighbour
    is built, validated and face-labelled, and then keyed by its collection."""

    def moves(lab):
        for face in movable_faces(lab):
            nxt = face_labels(square_move(lab, face.label))
            yield nxt.collection(), lambda nxt=nxt: nxt

    labelings, complete, _ = closure(face_labels(g), moves, FaceLabeling.collection)
    return [(lab.graph, lab) for lab in labelings], complete


def _contract_edge(g: PlabicGraph, eid: int) -> PlabicGraph:
    """Merge the two same-colored internal ends of an edge, splicing rotations."""
    u, v = g.edges[eid]
    colors = g.color_map
    if u <= g.boundary or v <= g.boundary or colors[u] != colors[v]:
        raise ValidationError(f"edge {eid} is not contractible")
    rot = g.rotation_map
    ru, rv = list(rot[u]), list(rot[v])
    iu, iv = ru.index(eid), rv.index(eid)
    merged = ru[iu + 1:] + ru[:iu] + rv[iv + 1:] + rv[:iv]
    new_edges: list[tuple[int, int]] = []
    remap: dict[int, int] = {}
    for k, (a, b) in enumerate(g.edges):
        if k == eid:
            continue
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 == b2:
            raise ValidationError("contraction of a parallel edge would create a loop")
        remap[k] = len(new_edges)
        new_edges.append((a2, b2))
    new_rot = {
        w: tuple(remap[e] for e in (merged if w == u else r))
        for w, r in rot.items()
        if w != v
    }
    new_colors = {w: c for w, c in colors.items() if w != v}
    return PlabicGraph.of(g.boundary, new_colors, new_edges, new_rot)


def _split_corner(g: PlabicGraph, corner: int, e_in: int, e_out: int) -> PlabicGraph:
    """Detach all edges of ``corner`` except e_in/e_out onto a fresh same-color
    vertex joined to the corner, leaving the corner trivalent on its face."""
    rot = list(g.rotation_map[corner])
    i_in = rot.index(e_in)
    rot2 = rot[i_in + 1:] + rot[:i_in + 1]
    if rot2[-2] != e_out:
        raise ValidationError("face edges are not adjacent in the corner rotation")
    rest = rot2[:-2]
    new_id = max([g.boundary, *(v for v, _ in g.colors)]) + 1
    new_eid = len(g.edges)
    edges = []
    for k, (a, b) in enumerate(g.edges):
        if k in rest:
            a, b = (new_id if a == corner else a), (new_id if b == corner else b)
        edges.append((a, b))
    edges.append((corner, new_id))
    colors = g.color_map
    colors[new_id] = colors[corner]
    rotation = g.rotation_map
    rotation[corner] = (e_out, e_in, new_eid)
    rotation[new_id] = tuple(rest) + (new_eid,)
    return PlabicGraph.of(g.boundary, colors, edges, rotation)


def recolor(g: PlabicGraph, flips: Mapping[int, str]) -> PlabicGraph:
    colors = g.color_map
    for v, c in flips.items():
        if v not in colors:
            raise ValidationError(f"vertex {v} is not internal")
        colors[v] = c
    return PlabicGraph.of(g.boundary, colors, g.edges, g.rotation_map)


def reference_square_move(g, pivot, labeling):
    """Square move that edits whole graphs, one ``_contract_edge`` or
    ``_split_corner`` at a time, relabels the graph after each and looks the
    pivot face up again by its label."""
    face = labeling.face_with_label(pivot)
    if face not in movable_faces(labeling):
        raise ValidationError(f"face {pivot} is not movable")
    while True:
        disk = _Disk(g)
        face = face_labels(g).face_with_label(pivot)
        cols = [g.color_map[disk.head(d)] for d in face.darts]
        same = next((i for i in range(len(cols)) if cols[i] == cols[i - 1]), None)
        if same is None:
            break
        g = _contract_edge(g, face.darts[same] >> 1)
    for spot in range(4):
        disk = _Disk(g)
        face = face_labels(g).face_with_label(pivot)
        corners = [disk.head(d) for d in face.darts]
        if disk.deg[corners[spot]] > 3:
            e_in = face.darts[spot] >> 1
            e_out = face.darts[(spot + 1) % 4] >> 1
            g = _split_corner(g, corners[spot], e_in, e_out)
    disk = _Disk(g)
    corners = [disk.head(d) for d in face_labels(g).face_with_label(pivot).darts]
    colors = g.color_map
    return recolor(g, {v: ("white" if colors[v] == "black" else "black") for v in corners})


def reference_scaled_table(matrix) -> tuple[dict[tuple[int, ...], int], int]:
    """``numeric._scaled_table`` by the route the integer rows replaced: each
    row of ``matrix.rows``, the reduced Fractions, is scaled to integers by
    the lcm of its denominators, and ``scale`` is the product of those lcms."""
    scale = 1
    level: dict[tuple[int, ...], int] = {(): 1}
    for row in matrix.rows:
        lcm = math.lcm(*(x.denominator for x in row))
        scale *= lcm
        entries = [(j, x.numerator * (lcm // x.denominator)) for j, x in enumerate(row, 1) if x]
        grown: dict[tuple[int, ...], int] = {}
        for cols, det in level.items():
            size = len(cols)
            for j, a in entries:
                p = bisect(cols, j)
                if p and cols[p - 1] == j:
                    continue
                key = cols[:p] + (j,) + cols[p:]
                term = -a * det if (size - p) & 1 else a * det
                grown[key] = grown.get(key, 0) + term
        level = {cols: det for cols, det in grown.items() if det}
    return level, scale


def pluecker_table(matrix) -> dict[tuple[int, ...], Fraction]:
    """Every maximal minor of ``matrix`` through ``numeric.minor``, keyed by column tuple."""
    return {s.elements: numeric.minor(matrix, s) for s in k_subsets(matrix.n, matrix.k)}


def minor_assignment(matrix, labels) -> dict[str, Fraction]:
    """Symbol table mapping each label to its minor, for Laurent evaluation."""
    return {lab.label(): numeric.minor(matrix, lab) for lab in labels}


def pluecker_relation_check(matrix, core: KSet, a: int, b: int, c: int, d: int) -> bool:
    """Exact three-term relation among minors through a common (k-2)-set.

    minor(Lac) * minor(Lbd) == minor(Lab) * minor(Lcd) + minor(Lad) * minor(Lbc)
    for four entries outside the core L in cyclic order, either way round, so
    that the chords {a,c} and {b,d} cross; other quadruples raise DimensionError.
    """
    quad = (a, b, c, d)
    if len(set(quad)) != 4 or set(quad) & set(core.elements):
        raise DimensionError("quadruple must be four distinct entries outside the core")
    if not (cyclically_ordered(a, b, c, d, core.n) or cyclically_ordered(d, c, b, a, core.n)):
        raise DimensionError(f"chords {{{a},{c}}} and {{{b},{d}}} do not cross")
    pairs = three_term(core, a, b, c, d, core.n)
    lhs, *rhs = (numeric.minor(matrix, p) * numeric.minor(matrix, q) for p, q in pairs)
    return lhs == sum(rhs)


def gauge_rescale(point, vertex: int, factor: Fraction):
    """Rescale the edges at one internal vertex compatibly with the
    orientation: incoming weights by ``factor``, outgoing by its inverse.

    Every source-to-sink path through the vertex picks up both factors, so
    the measurement matrix, and hence every minor, is unchanged.
    """
    if type(factor) not in (int, Fraction) or factor <= 0:
        raise ValidationError("gauge factor must be a positive int or Fraction")
    factor = Fraction(factor)
    if vertex <= point.graph.boundary or vertex not in point.graph.rotation_map:
        raise ValidationError(f"{vertex} is not an internal vertex")
    directed = dict(numeric._network(point.graph).orientation)
    weights = dict(point.weights)
    for eid in point.graph.rotation_map[vertex]:
        weights[eid] *= factor if directed[eid][1] == vertex else 1 / factor
    matrix = numeric._measurement_matrix(point.graph, weights)
    return numeric.CellPoint(matrix, tuple(sorted(weights.items())), point.graph)


def reference_values(seed, generic, assignments) -> list[dict]:
    """Every variable of one seed once per matrix, as vertex id -> value: the
    direct minor for a labeled vertex, the Laurent route otherwise."""
    variables = dict(seed.variables)
    return [
        {
            v.id: numeric.minor(m, v.label) if v.label is not None else variables[v.id].evaluate(a)
            for v in seed.quiver.vertices
        }
        for m, a in zip(generic, assignments)
    ]


def reference_exchange_checks(seed, vid, values, new_values):
    """x * x' against the two monomials of the exchange binomial, per matrix,
    read from one value table per matrix."""
    sides = (seed.quiver.arrows_in(vid), seed.quiver.arrows_out(vid))
    for pidx, (here, new_value) in enumerate(zip(values, new_values)):
        rhs = Fraction(0)
        for arrows in sides:
            product = Fraction(1)
            for w, mult in arrows:
                product *= here[w] if mult == 1 else here[w] ** mult
            rhs += product
        yield f"generic:{pidx}", here[vid] * new_value, rhs


def corrupt_seed(seed, vid: int):
    """``seed`` with 1 added to the variable at ``vid`` and that vertex's label
    dropped, so that a route reading labels as minors still reads the broken
    variable; its C- and G-matrices are kept."""
    variables = tuple((v, poly + LaurentPoly.const(1) if v == vid else poly) for v, poly in seed.variables)
    vertices = tuple(dataclasses.replace(v, label=None) if v.id == vid else v for v in seed.quiver.vertices)
    quiver = dataclasses.replace(seed.quiver, vertices=vertices)
    return dataclasses.replace(seed, quiver=quiver, variables=variables)


def reference_verify_identities(necklace, seed, points, generic, corrupt=False) -> dict:
    """``verify_identities`` by the per-seat route that shared values
    replaced: every variable of every member evaluated once per generic
    matrix, and the corrupted member appended to the class for the first
    exchange to read.  The cell-point entries, which both routes share, come
    from ``verify_identities`` on no generic matrix."""
    graph, exchanges = numeric._exchange_identities(seed)
    members = graph.members
    if corrupt:
        name, idx, vid, target, new = exchanges[0]
        members = [*members, corrupt_seed(members[target], new)]
        exchanges[0] = (f"{name}:corrupted", idx, vid, len(members) - 1, new)
    labels = [v.label for v in seed.quiver.vertices]
    assignments = [minor_assignment(matrix, labels) for matrix in generic]
    values = [reference_values(member, generic, assignments) for member in members]
    identities = []
    for name, idx, vid, target, new in exchanges:
        checks = reference_exchange_checks(members[idx], vid, values[idx], [v[new] for v in values[target]])
        identities.append(numeric._entry(name, checks, str))
    cells = numeric.verify_identities(necklace, seed, points, (), corrupt)["identities"]
    identities += cells[len(exchanges):]
    return {"identities": identities, "passed": all(not e["failures"] for e in identities)}


def tropical_reference(seed, vid):
    """(c_vectors, g_vectors) after mutation at ``vid`` by the matrix form of
    the Nakanishi-Zelevinsky recursion, with ε the sign of c-vector k and B
    the exchange matrix on the mutable vertices:
    C' = C(J_k + [εB]₊^{k•}) and G' = G(J_k + [-εB]₊^{•k})."""
    ids = seed.quiver.mutable_ids()
    m, k = len(ids), ids.index(vid)
    b = [[quiver_b(seed.quiver, i, j) for j in ids] for i in ids]
    eps = 1 if max(seed.c_vectors[k]) > 0 else -1
    j_k = [[(i == j) * (-1 if i == k else 1) for j in range(m)] for i in range(m)]
    right_c = [[j_k[i][j] + (i == k) * max(eps * b[k][j], 0) for j in range(m)] for i in range(m)]
    right_g = [[j_k[i][j] + (j == k) * max(-eps * b[i][k], 0) for j in range(m)] for i in range(m)]

    def times(columns, right):
        # the columns of (the matrix with these columns) @ right
        return tuple(
            tuple(sum(columns[l][r] * right[l][j] for l in range(m)) for r in range(m)) for j in range(m)
        )

    return times(seed.c_vectors, right_c), times(seed.g_vectors, right_g)


def matrix_rank(matrix) -> int:
    """Rank of a ``RationalMatrix`` by exact Gaussian elimination."""
    work = [list(row) for row in matrix.rows]
    r = 0
    for col in range(matrix.n):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][col]:
                f = work[i][col] / work[r][col]
                for j in range(col, matrix.n):
                    work[i][j] -= f * work[r][j]
        r += 1
    return r


def assert_frozen_glued(sigma: DecoratedPermutation) -> None:
    """Check the quiver of a disconnected cell against its components.

    Arrows touching a mutable face must split along connected components: each
    component's standalone quiver embeds by adjoining a constant background set
    to every label, every mutable face is owned by exactly one component, and
    the embedded arrows exhaust the ambient core arrows (so nothing joins
    mutable faces of different components).
    """
    neck = necklace_from_permutation(sigma)
    comps = connected_components(neck)
    assert len(comps) > 1
    graph = bridge_graph_from_permutation(sigma)
    quiver = quiver_from_graph(graph)
    labels = {v.id: v.label for v in quiver.vertices}
    mutable = {v.id for v in quiver.vertices if not v.frozen}
    prod_core = {
        (frozenset(labels[s].elements), frozenset(labels[t].elements), m)
        for s, t, m in quiver.core_arrows()
    }
    covered: set = set()
    owned_by_comp: list[set[int]] = []
    for comp in comps:
        cg = bridge_graph_from_permutation(comp.permutation)
        cq = quiver_from_graph(cg)
        clabels = {v.id: v.label for v in cq.vertices}
        cmut = {v.id for v in cq.vertices if not v.frozen}
        if not cmut:
            assert not cq.core_arrows()
            continue
        to_global = dict(enumerate(comp.elements, start=1))
        local_mutable = {
            frozenset(to_global[x] for x in clabels[i].elements) for i in cmut
        }
        owned = {
            i
            for i in mutable
            if frozenset(e for e in labels[i].elements if e in comp.elements)
            in local_mutable
        }
        owned_by_comp.append(owned)
        backgrounds = {
            frozenset(e for e in labels[i].elements if e not in comp.elements)
            for i in owned
        }
        assert len(backgrounds) == 1
        background = next(iter(backgrounds))

        def embed(label):
            return frozenset(to_global[x] for x in label.elements) | background

        for s, t, m in cq.core_arrows():
            arrow = (embed(clabels[s]), embed(clabels[t]), m)
            assert arrow in prod_core
            covered.add(arrow)
    for a, b in itertools.combinations(owned_by_comp, 2):
        assert not a & b
    assert set().union(*owned_by_comp) == mutable if owned_by_comp else not mutable
    assert covered == prod_core


@pytest.fixture(scope="session")
def ex_135264():
    """The running example: (135)(264) on [6], one hexagonal interior face."""
    sigma = DecoratedPermutation.from_cycle_string("(135)(264)")
    graph = bridge_graph_from_permutation(sigma)
    labeling = face_labels(graph)
    quiver = quiver_from_graph(graph)
    return {
        "sigma": sigma,
        "necklace": necklace_from_permutation(sigma),
        "graph": graph,
        "labeling": labeling,
        "quiver": quiver,
        "seed": initial_seed(quiver),
    }
