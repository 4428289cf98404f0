"""Plabic graphs in the disk as combinatorial rotation systems.

A graph is stored as: boundary vertices 1..n (clockwise on the disk, each of
degree exactly 1), colored internal vertices, an edge list, and for every
vertex the counterclockwise cyclic order of its incident edges.  No geometry
is kept; trips, faces and face labels are all computed from the rotation data.

Conventions, fixed once and used consistently:

* trips turn maximally right at black vertices and maximally left at white
  ones; in rotation terms: arriving along edge e, leave along the successor
  of e (black) or the predecessor (white) in the counterclockwise order;
* the face to the left of a dart u->v continues at v along the predecessor
  of the arrived edge, so every face keeps its region on its left;
* the disk is closed up with boundary arcs i -> i+1; the outer face is the
  orbit of the arc dart 1 -> 2, and the face sitting on arc (i-1 -> i) is the
  boundary face that carries the i-th necklace set;
* a trip bouncing off a degree-1 vertex winds clockwise around it if the
  vertex is white and counterclockwise if black.

Face labels use the target convention: the label of a face collects the
targets of all trips that leave the face on their left.  One search over the
faces carries a bit mask with a bit per trip: crossing an edge flips the bit
of each trip that traverses the edge once.  The faces beside each trip's
darts then fix which value of its bit means "left".
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from positroids.cluster import IceQuiver, QuiverVertex, closure, square_move_label
from positroids.combinatorics import (
    DecoratedPermutation,
    GrassmannNecklace,
    KSet,
    ValidationError,
    alignments,
)

WHITE = "white"
BLACK = "black"


class ReducednessError(ValidationError):
    """The graph is structurally fine but its trips misbehave (not reduced)."""


@dataclass(frozen=True)
class PlabicGraph:
    """Disk graph with boundary 1..n and counterclockwise rotations.

    ``colors`` maps internal vertex ids (all > boundary) to "white"/"black".
    ``rotation`` maps every vertex to the cyclic tuple of incident edge ids.
    """

    boundary: int
    colors: tuple[tuple[int, str], ...]
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def of(
        cls,
        boundary: int,
        colors: Mapping[int, str],
        edges: list[tuple[int, int]] | tuple[tuple[int, int], ...],
        rotation: Mapping[int, list[int] | tuple[int, ...]],
    ) -> PlabicGraph:
        return cls(
            boundary,
            tuple(sorted(colors.items())),
            tuple((u, v) for u, v in edges),
            tuple(sorted((v, tuple(r)) for v, r in rotation.items())),
        )

    @property
    def color_map(self) -> dict[int, str]:
        return dict(self.colors)

    @property
    def rotation_map(self) -> dict[int, tuple[int, ...]]:
        return dict(self.rotation)

    def internal_ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.colors)

    def validate(self) -> None:
        n = self.boundary
        if n < 1:
            raise ValidationError("boundary size must be at least 1")
        colors = self.color_map
        if any(v <= n for v in colors):
            raise ValidationError("internal vertex ids must exceed the boundary size")
        if any(c not in (WHITE, BLACK) for c in colors.values()):
            raise ValidationError("vertex colors must be 'white' or 'black'")
        rot = self.rotation_map
        vertices = set(range(1, n + 1)) | set(colors)
        if set(rot) != vertices:
            raise ValidationError("rotation must cover exactly boundary plus internal vertices")
        incident: dict[int, list[int]] = {v: [] for v in vertices}
        for eid, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValidationError(f"loop edge at vertex {u}")
            if u not in vertices or v not in vertices:
                raise ValidationError(f"edge {eid} touches an unknown vertex")
            incident[u].append(eid)
            incident[v].append(eid)
        for v in vertices:
            if sorted(rot[v]) != sorted(incident[v]):
                raise ValidationError(f"rotation at vertex {v} does not list its incident edges")
        for i in range(1, n + 1):
            if len(rot[i]) != 1:
                raise ValidationError(f"boundary vertex {i} must have exactly one leg")

    def to_json(self) -> dict:
        return {
            "boundary": self.boundary,
            "vertices": [{"id": v, "color": c} for v, c in self.colors],
            "edges": [[u, v] for u, v in self.edges],
            "rotation": {str(v): list(r) for v, r in self.rotation},
        }

    @classmethod
    def from_json(cls, data: dict) -> PlabicGraph:
        try:
            # unpacking an edge and int() of a key would raise a bare ValueError
            if any(len(e) != 2 for e in data["edges"]) or not all(
                str(v).removeprefix("-").isdecimal() for v in data["rotation"]
            ):
                raise ValidationError(f"malformed plabic graph JSON: {data!r}")
            return cls.of(
                data["boundary"],
                {v["id"]: v["color"] for v in data["vertices"]},
                [(u, v) for u, v in data["edges"]],
                {int(v): r for v, r in data["rotation"].items()},
            )
        except (AttributeError, KeyError, TypeError):
            raise ValidationError(f"malformed plabic graph JSON: {data!r}") from None

    def to_dot(self, labeling: "FaceLabeling | None" = None) -> str:
        lines = ["graph plabic {"]
        for i in range(1, self.boundary + 1):
            lines.append(f'  b{i} [shape=none, label="{i}"];')
        for v, c in self.colors:
            lines.append(f'  v{v} [shape=circle, style=filled, fillcolor={c}, label=""];')
        for u, v in self.edges:
            a = f"b{u}" if u <= self.boundary else f"v{u}"
            b = f"b{v}" if v <= self.boundary else f"v{v}"
            lines.append(f"  {a} -- {b};")
        if labeling is not None:
            for f in labeling.faces:
                lines.append(f"  // face {f.id}: {f.label}")
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Trip:
    """One strand: enters at ``source``, exits at ``target``.

    ``darts`` are graph darts (2*edge + end) in traversal order."""

    source: int
    target: int
    darts: tuple[int, ...]

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(d >> 1 for d in self.darts)


@dataclass(frozen=True)
class Face:
    id: int
    label: KSet
    boundary_marks: tuple[int, ...]  # positions i whose arc (i-1 -> i) this face touches
    darts: tuple[int, ...]

    @property
    def frozen(self) -> bool:
        return bool(self.boundary_marks)


@dataclass(frozen=True)
class FaceLabeling:
    graph: PlabicGraph
    faces: tuple[Face, ...]
    permutation: DecoratedPermutation

    def collection(self) -> frozenset[KSet]:
        return frozenset(f.label for f in self.faces)

    def boundary_labels(self) -> tuple[KSet, ...]:
        marks = {i: f.label for f in self.faces for i in f.boundary_marks}
        return tuple(marks[i] for i in range(1, self.graph.boundary + 1))

    def necklace(self) -> GrassmannNecklace:
        return GrassmannNecklace(self.boundary_labels())

    def face_with_label(self, label: KSet) -> Face:
        for f in self.faces:
            if f.label == label:
                return f
        raise KeyError(label)


class _Disk:
    """Augmented dart structures: graph edges plus the boundary arcs."""

    def __init__(self, g: PlabicGraph):
        self.n = g.boundary
        self.m = len(g.edges)
        self.ends: list[tuple[int, int]] = list(g.edges)
        self.arc_of: dict[int, int] = {}
        rot = {v: tuple(r) for v, r in g.rotation}
        if self.n >= 2:
            for i in range(1, self.n + 1):
                eid = len(self.ends)
                self.ends.append((i, i % self.n + 1))
                self.arc_of[i] = eid
            for i in range(1, self.n + 1):
                prev = self.arc_of[self.n if i == 1 else i - 1]
                rot[i] = (self.arc_of[i], prev, rot[i][0])
        self.rot = rot
        self.pos = {v: {e: k for k, e in enumerate(r)} for v, r in rot.items()}
        self.colors = g.color_map
        self.deg = {v: len(r) for v, r in g.rotation}

    def head(self, d: int) -> int:
        return self.ends[d >> 1][1 - (d & 1)]

    def dart(self, eid: int, tail: int) -> int:
        u, v = self.ends[eid]
        if tail == u:
            return 2 * eid
        if tail == v:
            return 2 * eid + 1
        raise ValueError(f"vertex {tail} is not an end of edge {eid}")

    def face_next(self, d: int) -> int:
        v = self.head(d)
        r = self.rot[v]
        return self.dart(r[self.pos[v][d >> 1] - 1], v)

    def trip_next(self, d: int) -> int | None:
        v = self.head(d)
        if v <= self.n:
            return None
        r = self.rot[v]
        step = 1 if self.colors[v] == BLACK else -1
        return self.dart(r[(self.pos[v][d >> 1] + step) % len(r)], v)


def trips(g: PlabicGraph) -> list[Trip]:
    """The n boundary-to-boundary strands, one starting at each boundary vertex."""
    return _trips(_Disk(g))


def _trips(disk: _Disk) -> list[Trip]:
    # trip_next is injective and never returns a dart leaving the boundary, so
    # each strand runs without repeats until it reaches the boundary
    out = []
    for i in range(1, disk.n + 1):
        darts = [disk.dart(disk.rot[i][-1], i)]  # the leg, last in the rotation
        nxt = disk.trip_next(darts[-1])
        while nxt is not None:
            darts.append(nxt)
            nxt = disk.trip_next(nxt)
        out.append(Trip(i, disk.head(darts[-1]), tuple(darts)))
    return out


def _face_orbit(disk: _Disk, d0: int) -> tuple[int, ...]:
    """Darts of the face left of d0, starting at the face's smallest dart."""
    orbit = [d0]
    d = disk.face_next(d0)
    while d != d0:
        orbit.append(d)
        d = disk.face_next(d)
    k = orbit.index(min(orbit))
    return tuple(orbit[k:] + orbit[:k])


def _face_orbits(disk: _Disk) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    faces: list[tuple[int, ...]] = []
    dart_face: dict[int, int] = {}
    for d0 in range(2 * len(disk.ends)):
        if d0 not in dart_face:
            orbit = _face_orbit(disk, d0)
            dart_face.update((d, len(faces)) for d in orbit)
            faces.append(orbit)
    return faces, dart_face


def _label_faces(g: PlabicGraph, disk: _Disk, strands: list[Trip]) -> FaceLabeling:
    """The one face analysis of g, from its disk and ``_trips(disk)``."""
    n = disk.n
    orbits, dart_face = _face_orbits(disk)
    if n + len(g.colors) - len(disk.ends) + len(orbits) != 2:  # Euler's formula
        raise ValidationError("graph is not connected and planar in the disk")
    outer = dart_face[disk.dart(disk.arc_of[1], 1)] if n >= 2 else None
    interior = [fid for fid in range(len(orbits)) if fid != outer]

    # faces across each graph edge, as (edge id, neighbouring face)
    adjacent: list[list[tuple[int, int]]] = [[] for _ in orbits]
    for eid in range(disk.m):
        fa, fb = dart_face[2 * eid], dart_face[2 * eid + 1]
        if fa != fb:
            adjacent[fa].append((eid, fb))
            adjacent[fb].append((eid, fa))

    # bit t of a face's mask flips across each edge that the strand ending at t
    # traverses once; no edge has more than two darts, so XOR over darts suffices
    flips = [0] * disk.m
    for t in strands:
        for d in t.darts:
            flips[d >> 1] ^= 1 << t.target
    # masks relative to the first interior face, so each strand's bit may be inverted
    mask: list[int | None] = [None] * len(orbits)
    mask[interior[0]] = 0
    queue = deque([interior[0]])
    while queue:
        fid = queue.popleft()
        for eid, other in adjacent[fid]:
            want = mask[fid] ^ flips[eid]
            if mask[other] is None:
                mask[other] = want
                queue.append(other)
            elif mask[other] != want:
                raise ReducednessError(f"a trip through edge {eid} assigns both sides to one face")
    if any(mask[fid] is None for fid in interior):
        raise ValidationError("face side propagation did not reach every face")

    # each strand's darts fix which value of its bit means "on its left"
    offset = 0
    for t in strands:
        bit, t_offset = 1 << t.target, None
        for d in t.darts:
            # a cap edge ends in an internal leaf, whose color picks the side
            u, v = disk.ends[d >> 1]
            leaf = u if u > n and disk.deg[u] == 1 else v
            if leaf > n and disk.deg[leaf] == 1:
                sides = ((dart_face[d], disk.colors[leaf] == WHITE),)
            else:
                sides = ((dart_face[d], True), (dart_face[d ^ 1], False))
            for fid, left in sides:
                want = (mask[fid] & bit) ^ (bit if left else 0)
                if t_offset is None:
                    t_offset = want
                elif t_offset != want:
                    raise ReducednessError(f"trip {t.source} assigns both sides to one face")
        offset |= t_offset

    labels = {fid: KSet.from_mask(mask[fid] ^ offset, n) for fid in interior}
    sizes = {s.k for s in labels.values()}
    if len(sizes) > 1:
        raise ReducednessError(f"face label sizes disagree: {sorted(sizes)}")

    # the face on arc (i-1 -> i) is left of the leg leaving i-1, where strands[i - 2] starts
    marks: dict[int, list[int]] = {fid: [] for fid in interior}
    for i in range(1, n + 1):
        marks[dart_face[strands[i - 2].darts[0]]].append(i)

    faces = tuple(Face(fid, labels[fid], tuple(marks[fid]), orbits[fid]) for fid in interior)
    return FaceLabeling(g, faces, _strand_permutation(disk, strands))


def _strand_permutation(disk: _Disk, strands: list[Trip]) -> DecoratedPermutation:
    """The decorated permutation of ``_trips(disk)``; a fixed point's strand
    must be its leg and the bounce off a leaf, white for -1 and black for +1."""
    colors = {}
    for t in strands:
        if t.target == t.source:
            leaf = disk.head(t.darts[0])
            if leaf <= disk.n or disk.deg[leaf] != 1:
                raise ReducednessError(f"fixed point {t.source} is not a leaf bounce")
            colors[t.source] = -1 if disk.colors[leaf] == WHITE else 1
    return DecoratedPermutation.of([t.target for t in strands], colors)


def face_labels(g: PlabicGraph) -> FaceLabeling:
    disk = _Disk(g)
    return _label_faces(g, disk, _trips(disk))


def trip_permutation(g: PlabicGraph) -> DecoratedPermutation:
    """The decorated permutation of g's trips, read from the strands alone:
    no face analysis runs."""
    disk = _Disk(g)
    return _strand_permutation(disk, _trips(disk))


def validate_reduced(g: PlabicGraph) -> bool:
    """Trip-based reducedness test.

    Checks: no strand avoids the boundary; no strand reuses an edge except for
    the immediate bounce at a degree-1 vertex; no two strands share two edges
    in the same order; faces have distinct labels of a common size; the face
    count matches k(n-k) - (alignment count) + 1.
    """
    disk = _Disk(g)
    strands = _trips(disk)
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
        labeling = _label_faces(g, disk, strands)
    except ReducednessError:
        return False
    if len(labeling.collection()) != len(labeling.faces):
        return False
    sigma = labeling.permutation
    expected = sigma.k * (sigma.n - sigma.k) - alignments(sigma) + 1
    return len(labeling.faces) == expected


def bridge_graph_from_permutation(sigma: DecoratedPermutation) -> PlabicGraph:
    """Reduced plabic graph for a decorated permutation, built from bridges.

    Peels one crossing at a time from the bounded affine lift f: take the
    first non-fixed column a whose next non-fixed column b (cyclically) has
    b <= f(a) < f(b) <= a + n, swap the two values and place a bridge from a
    white vertex on wire a to a black one on wire b; repeat until only fixed
    columns remain.  The columns strictly between a and b are fixed, so their
    lifted values lie outside (f(a), f(b)) and each swap adds exactly the one
    inversion (a, b): no count is needed.

    Vertex ids run wire by wire: the wire's bridge ends, earliest peel next
    to the boundary, then one id for a cap.  Only a wire without bridges gets
    its cap, a lollipop colored white for a -1 column and black for +1.  On
    any other wire the top vertex, the one farthest from the boundary, keeps
    just its bridge and the edge below it, and one pass in id order merges
    those two edges into one.

    >>> g = bridge_graph_from_permutation(DecoratedPermutation.from_cycle_string("(13)(24)"))
    >>> g.colors
    ((5, 'white'), (8, 'black'), (9, 'white'), (10, 'black'))
    """
    n = sigma.n
    f = [0] + list(sigma.affine_lift())

    def fixed(x: int) -> bool:
        return f[x] in (x, x + n)

    wires: dict[int, list[tuple[int, str]]] = {x: [] for x in range(1, n + 1)}
    peels = 0
    while not all(fixed(x) for x in range(1, n + 1)):
        for a in range(1, n + 1):
            if fixed(a):
                continue
            b = a % n + 1
            while fixed(b):
                b = b % n + 1
            shift = n if b < a else 0
            if b + shift <= f[a] < f[b] + shift <= a + n:
                f[a], f[b] = f[b] + shift, f[a] - shift
                wires[a].append((peels, WHITE))
                wires[b].append((peels, BLACK))
                peels += 1
                break
        else:
            raise ValidationError(f"no admissible bridge peel for {sigma}")

    # chain edges wire by wire, then bridge t as edge ``chain + t``, white end first
    chain = 2 * peels + sum(not w for w in wires.values())
    colors: dict[int, str] = {}
    edges: dict[int, tuple[int, int]] = {}
    rot: dict[int, list[int]] = {}
    ends = [[0, 0] for _ in range(peels)]
    tops = []
    v = n + 1
    for x in range(1, n + 1):
        below, rot[x] = x, []
        for t, color in wires[x]:
            rot[below].append(len(edges))
            rot[v] = [chain + t, len(edges)] if color == WHITE else [len(edges), chain + t]
            edges[len(edges)] = (below, v)
            colors[v], ends[t][color == BLACK] = color, v
            below, v = v, v + 1
        if wires[x]:
            tops.append(below)
        else:
            rot[x], rot[v] = [len(edges)], [len(edges)]
            edges[len(edges)] = (x, v)
            colors[v] = WHITE if f[x] == x + n else BLACK
        v += 1
    for t, (white, black) in enumerate(ends):
        edges[chain + t] = (white, black)

    # a top vertex's rotation is (e1, e2): e1 now joins its two far ends and e2 goes
    for v in tops:
        e1, e2 = rot.pop(v)
        a, b = (sum(edges[e]) - v for e in (e1, e2))  # the end of each edge other than v
        edges[e1] = (a, b)
        rot[b][rot[b].index(e2)] = e1
        del colors[v], edges[e2]
    return _assemble(n, colors, edges, rot)


def _assemble(n: int, colors: dict, edges: dict[int, tuple[int, int]], rot: dict) -> PlabicGraph:
    """The graph with boundary n from its parts, edge ids renumbered in order."""
    remap = {eid: k for k, eid in enumerate(sorted(edges))}
    rotation = {v: tuple(remap[e] for e in r) for v, r in rot.items()}
    return PlabicGraph.of(n, colors, [edges[eid] for eid in sorted(edges)], rotation)


def _corner_runs(g: PlabicGraph, colors: Mapping[int, str], face: Face) -> int | None:
    """Number of cyclic color runs among the face's corners, or None when the
    face revisits a vertex or touches the boundary."""
    corners = [g.edges[d >> 1][1 - (d & 1)] for d in face.darts]
    if any(v <= g.boundary for v in corners) or len(set(corners)) != len(corners):
        return None
    cols = [colors[v] for v in corners]
    changes = sum(cols[i] != cols[i - 1] for i in range(len(cols)))
    return changes if changes else 1


def square_move(labeling: FaceLabeling, pivot: KSet) -> PlabicGraph:
    """Mutate ``labeling.graph`` at the interior face labeled ``pivot``.

    The face is first normalized: face edges joining two same-colored corners
    are contracted, and any remaining corner of degree above three is split so
    that its on-face part is trivalent.  The result must be a quadrilateral
    with alternating corner colors, whose four corners are then flipped.

    All of this edits one copy of the graph's parts, which are built into a
    graph once; no face analysis runs.  The face is followed by its own darts:
    a contraction drops one, and the walk restarts at the smallest.
    """
    g = labeling.graph
    face = labeling.face_with_label(pivot)
    if face.frozen:
        raise ValidationError(f"face {pivot} touches the boundary")
    colors = g.color_map
    if _corner_runs(g, colors, face) != 4:
        raise ValidationError(f"face {pivot} does not normalize to a quadrilateral")
    edges = dict(enumerate(g.edges))
    rot = {v: list(r) for v, r in g.rotation}

    def head(d: int) -> int:
        return edges[d >> 1][1 - (d & 1)]

    darts = list(face.darts)
    while True:
        cols = [colors[head(d)] for d in darts]
        same = next((i for i in range(len(cols)) if cols[i] == cols[i - 1]), None)
        if same is None:
            break
        # merge v into u, splicing v's rotation into u's in place of the edge
        eid = darts[same] >> 1
        u, v = edges.pop(eid)
        ru, rv = rot[u], rot.pop(v)
        iu, iv = ru.index(eid), rv.index(eid)
        moved = rv[iv + 1:] + rv[:iv]
        rot[u] = ru[iu + 1:] + ru[:iu] + moved
        for k in moved:
            a, b = edges[k]
            if u in (a, b):
                raise ValidationError("contraction of a parallel edge would create a loop")
            edges[k] = (u if a == v else a, u if b == v else b)
        del colors[v], darts[same]
        first = darts.index(min(darts))
        darts = darts[first:] + darts[:first]

    corners = [head(d) for d in darts]
    for spot, corner in enumerate(corners):
        if len(rot[corner]) > 3:
            # detach all but the corner's two face edges onto a new vertex of its color
            e_in, e_out = darts[spot] >> 1, darts[(spot + 1) % 4] >> 1
            r = rot[corner]
            i = r.index(e_in)
            rest = (r[i + 1:] + r[:i])[:-1]
            new, new_eid = max([g.boundary, *colors]) + 1, max(edges) + 1
            for k in rest:
                a, b = edges[k]
                edges[k] = (new if a == corner else a, new if b == corner else b)
            edges[new_eid] = (corner, new)
            colors[new] = colors[corner]
            rot[corner], rot[new] = [e_out, e_in, new_eid], rest + [new_eid]
    for v in corners:
        colors[v] = WHITE if colors[v] == BLACK else BLACK
    return _assemble(g.boundary, colors, edges, rot)


def movable_faces(labeling: FaceLabeling) -> tuple[Face, ...]:
    """Interior faces that normalize to an alternating quadrilateral."""
    g = labeling.graph
    colors = g.color_map
    return tuple(f for f in labeling.faces if not f.frozen and _corner_runs(g, colors, f) == 4)


def quiver_from_graph(g: PlabicGraph) -> IceQuiver:
    """Ice quiver on the faces of a reduced graph.

    One vertex per face, frozen iff the face touches the boundary circle.
    Each edge with two internal, oppositely colored, non-leaf endpoints
    contributes an arrow between its two adjacent faces, directed so that the
    edge's white endpoint is on the left when crossing from source to target
    face.  Arrows between two frozen faces are recorded (net of cancellation)
    but ignored by quiver comparisons; a loop or a two-cycle at a mutable face
    means the graph was not reduced and raises.  Runs one face analysis.
    """
    return _quiver(face_labels(g))


def _quiver(labeling: FaceLabeling) -> IceQuiver:
    """:func:`quiver_from_graph` of ``labeling.graph``, read from its labeling."""
    g, faces = labeling.graph, labeling.faces
    dart_face = {d: f.id for f in faces for d in f.darts}
    colors, deg = g.color_map, {v: len(r) for v, r in g.rotation}
    raw: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if min(u, v) <= g.boundary or 1 in (deg[u], deg[v]) or colors[u] == colors[v]:
            continue
        d_wb = 2 * eid + (colors[u] != WHITE)  # the dart leaving the white end
        src = dart_face[d_wb ^ 1]
        dst = dart_face[d_wb]
        if src == dst:
            raise ReducednessError("quiver loop: one face on both sides of an edge")
        raw[(src, dst)] = raw.get((src, dst), 0) + 1

    frozen = {f.id for f in faces if f.frozen}
    arrows = []
    for (s, t), m in sorted(raw.items()):
        back = raw.get((t, s), 0)
        if back:
            if s not in frozen or t not in frozen:
                raise ReducednessError("two-cycle at a mutable face")
            if m > back:
                arrows.append((s, t, m - back))
            continue
        arrows.append((s, t, m))

    vertices = tuple(QuiverVertex(f.id, f.frozen, f.label) for f in faces)
    return IceQuiver(vertices, tuple(arrows))


def graph_mutation_class(g: PlabicGraph) -> tuple[list[tuple[PlabicGraph, FaceLabeling]], bool]:
    """:func:`~positroids.cluster.closure` of a reduced graph under square moves,
    deduplicated by the face label collection.  Returns (members, complete).

    A move is keyed before it is made, by the label Lbd that replaces the pivot's
    Lac (:func:`~positroids.cluster.square_move_label` of its face in the quiver),
    so only an unseen collection is built; each member runs one face analysis."""

    def moves(lab: FaceLabeling):
        q, collection = _quiver(lab), lab.collection()
        for face in movable_faces(lab):
            new = square_move_label(q, face.id)
            if new is None:
                raise ReducednessError(f"face {face.label} is not a three-term exchange")
            yield collection - {face.label} | {new}, lambda p=face.label: face_labels(square_move(lab, p))

    labelings, complete, _ = closure(face_labels(g), moves, FaceLabeling.collection)
    return [(lab.graph, lab) for lab in labelings], complete
