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

from dataclasses import dataclass
from operator import ne
from typing import Mapping

from positroids.cluster import IceQuiver, QuiverVertex, closure, square_move_label
from positroids.combinatorics import (
    DecoratedPermutation,
    GrassmannNecklace,
    KSet,
    ValidationError,
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
            tuple(map(tuple, edges)),
            tuple(sorted(zip(rotation, map(tuple, rotation.values())))),
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
        vertices = set(range(1, n + 1)) | colors.keys()
        if rot.keys() != vertices:
            raise ValidationError("rotation must cover exactly boundary plus internal vertices")
        incident: dict[int, list[int]] = {v: [] for v in vertices}
        try:
            for eid, (u, v) in enumerate(self.edges):
                if u == v:
                    raise ValidationError(f"loop edge at vertex {u}")
                incident[u].append(eid)
                incident[v].append(eid)
        except KeyError:
            raise ValidationError(f"edge {eid} touches an unknown vertex") from None
        for v in vertices:  # each incident list is in increasing edge order
            if sorted(rot[v]) != incident[v]:
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
    """Augmented dart structures: graph edges plus the boundary arcs.

    One pass over the rotations fills two lists indexed by dart, by the rules
    above: ``fnext[d]`` is the next dart around the face left of d, and
    ``tnext[d]`` the next dart of d's trip, -1 where d reaches the boundary.
    ``legs[i - 1]`` is the dart leaving boundary vertex i along its leg."""

    def __init__(self, g: PlabicGraph):
        n = self.n = g.boundary
        self.m = len(g.edges)
        arcs = range(self.m, self.m + n) if n >= 2 else range(0)
        self.ends: list[tuple[int, int]] = [*g.edges, *((i, i % n + 1) for i in range(1, len(arcs) + 1))]
        self.arc_of: dict[int, int] = dict(zip(range(1, n + 1), arcs))
        self.colors = g.color_map
        self.deg = {v: len(r) for v, r in g.rotation}
        self.fnext = fnext = [0] * (2 * len(self.ends))
        self.tnext = tnext = [-1] * len(fnext)
        self.legs = [0] * n
        tails = [u for u, _ in self.ends]
        for v, r in g.rotation:
            if v <= n and arcs:
                r = (arcs[v - 1], arcs[v - 2], *r)  # arc v -> v+1, arc v-1 -> v, the leg
            black = v > n and self.colors[v] == BLACK
            p = 2 * r[-1] + (tails[r[-1]] != v)
            for e in r:  # p and d leave v along consecutive edges
                d = 2 * e + (tails[e] != v)
                fnext[d ^ 1] = p
                if black:
                    tnext[p ^ 1] = d
                elif v > n:
                    tnext[d ^ 1] = p
                p = d
            if v <= n:
                self.legs[v - 1] = p

    def head(self, d: int) -> int:
        return self.ends[d >> 1][1 - (d & 1)]

    def dart(self, eid: int, tail: int) -> int:
        u, v = self.ends[eid]
        if tail == u:
            return 2 * eid
        if tail == v:
            return 2 * eid + 1
        raise ValueError(f"vertex {tail} is not an end of edge {eid}")


def trips(g: PlabicGraph) -> list[Trip]:
    """The n boundary-to-boundary strands, one starting at each boundary vertex."""
    return _trips(_Disk(g))


def _trips(disk: _Disk) -> list[Trip]:
    # tnext is injective and never returns a dart leaving the boundary, so
    # each strand runs without repeats until it reaches the boundary
    out, tnext = [], disk.tnext
    for i, d in enumerate(disk.legs, 1):
        darts = [d]
        while (d := tnext[d]) >= 0:
            darts.append(d)
        out.append(Trip(i, disk.head(darts[-1]), tuple(darts)))
    return out


def _face_orbits(disk: _Disk) -> tuple[list[tuple[int, ...]], list[int]]:
    """The darts of each face, from its smallest, and the face of each dart.
    Each orbit starts at the smallest dart not yet placed, its smallest."""
    fnext = disk.fnext
    faces: list[tuple[int, ...]] = []
    dart_face = [-1] * len(fnext)
    for d0 in range(len(fnext)):
        if dart_face[d0] < 0:
            orbit, d, fid = [d0], fnext[d0], len(faces)
            dart_face[d0] = fid
            while d != d0:
                orbit.append(d)
                dart_face[d] = fid
                d = fnext[d]
            faces.append(tuple(orbit))
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
    for eid, fa, fb in zip(range(disk.m), dart_face[0 : 2 * disk.m : 2], dart_face[1 : 2 * disk.m : 2]):
        if fa != fb:
            adjacent[fa].append((eid, fb))
            adjacent[fb].append((eid, fa))

    # bit t of a face's mask flips across each edge that the strand ending at t
    # traverses once; no edge has more than two darts, so XOR over darts suffices
    flips = [0] * disk.m
    for t in strands:
        bit = 1 << t.target
        for d in t.darts:
            flips[d >> 1] ^= bit
    # masks relative to the first interior face, so each strand's bit may be inverted
    mask: list[int | None] = [None] * len(orbits)
    mask[interior[0]] = 0
    queue = [interior[0]]
    for fid in queue:  # breadth first: faces appended here are visited in turn
        here = mask[fid]
        for eid, other in adjacent[fid]:
            want = here ^ flips[eid]
            if mask[other] is None:
                mask[other] = want
                queue.append(other)
            elif mask[other] != want:
                raise ReducednessError(f"a trip through edge {eid} assigns both sides to one face")
    if any(mask[fid] is None for fid in interior):
        raise ValidationError("face side propagation did not reach every face")

    # each strand's darts fix which value of its bit means "on its left".  A cap
    # edge ends in an internal leaf, whose color picks the side of its one face.
    # Elsewhere the strand's left faces agree across white vertices and its right
    # faces across black ones, so all sides agree with its first dart's when each
    # edge it runs along parts two faces by its bit.
    caps = {r[0]: disk.colors[v] == WHITE for v, r in g.rotation if v > n and len(r) == 1}
    cross = [mask[a] ^ mask[b] for a, b in zip(dart_face[0 : 2 * disk.m : 2], dart_face[1 : 2 * disk.m : 2])]
    for eid in caps:
        cross[eid] = -1

    def side(d: int, bit: int) -> int:
        return (mask[dart_face[d]] & bit) ^ (bit if caps.get(d >> 1, True) else 0)

    offset = 0
    for t in strands:
        bit = 1 << t.target
        want = side(t.darts[0], bit)
        if not all(cross[d >> 1] & bit for d in t.darts) or caps and any(
            side(d, bit) != want for d in t.darts if d >> 1 in caps
        ):
            raise ReducednessError(f"trip {t.source} assigns both sides to one face")
        offset |= want

    labels = [KSet.from_mask(mask[fid] ^ offset, n) for fid in interior]
    sizes = {s.k for s in labels}
    if len(sizes) > 1:
        raise ReducednessError(f"face label sizes disagree: {sorted(sizes)}")

    # the face on arc (i-1 -> i) is left of the leg leaving i-1
    marks: dict[int, tuple[int, ...]] = {}
    for i in range(1, n + 1):
        fid = dart_face[disk.legs[i - 2]]
        marks[fid] = (*marks.get(fid, ()), i)

    faces = tuple(Face(fid, s, marks.get(fid, ()), orbits[fid]) for fid, s in zip(interior, labels))
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
    order = sorted(edges)
    if order != list(range(len(order))):
        remap = {eid: k for k, eid in enumerate(order)}
        rot = {v: tuple(map(remap.__getitem__, r)) for v, r in rot.items()}
    return PlabicGraph.of(n, colors, [edges[eid] for eid in order], rot)


def _corner_runs(g: PlabicGraph, colors: Mapping[int, str], face: Face) -> int | None:
    """Number of cyclic color runs among the face's corners, or None when the
    face revisits a vertex or touches the boundary."""
    corners = [g.edges[d >> 1][1 - (d & 1)] for d in face.darts]
    if min(corners) <= g.boundary or len(set(corners)) != len(corners):
        return None
    cols = [colors[v] for v in corners]
    return sum(map(ne, cols, cols[-1:] + cols[:-1])) or 1


def square_move(labeling: FaceLabeling, pivot: KSet) -> PlabicGraph:
    """Mutate ``labeling.graph`` at the interior face labeled ``pivot``.

    The face is first normalized: face edges joining two same-colored corners
    are contracted, and any remaining corner of degree above three is split so
    that its on-face part is trivalent.  The result must be a quadrilateral
    with alternating corner colors, whose four corners are then flipped.
    """
    face = labeling.face_with_label(pivot)
    if face.frozen:
        raise ValidationError(f"face {pivot} touches the boundary")
    if _corner_runs(labeling.graph, labeling.graph.color_map, face) != 4:
        raise ValidationError(f"face {pivot} does not normalize to a quadrilateral")
    return _square_move(labeling.graph, face)


def _square_move(g: PlabicGraph, face: Face) -> PlabicGraph:
    """:func:`square_move` at a face of g that :func:`movable_faces` returns.

    All of this edits one copy of the graph's parts, which are built into a
    graph once; no face analysis runs.  The face is followed by its own darts:
    a contraction drops one, and the walk restarts at the smallest.
    """
    colors, edges, rot = g.color_map, dict(enumerate(g.edges)), dict(g.rotation)

    darts = list(face.darts)
    while True:
        corners = [edges[d >> 1][1 - (d & 1)] for d in darts]
        cols = [colors[v] for v in corners]
        same = next((i for i, c in enumerate(cols) if c == cols[i - 1]), None)
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
            rot[corner], rot[new] = (e_out, e_in, new_eid), (*rest, new_eid)
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
    dart_face = [0] * (2 * (len(g.edges) + g.boundary))  # no graph edge borders the outer face
    for f in faces:
        for d in f.darts:
            dart_face[d] = f.id
    rot = g.rotation_map
    is_white = {v: c == WHITE for v, c in g.colors if len(rot[v]) > 1}  # internal ends, not leaves
    raw: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u not in is_white or v not in is_white or is_white[u] == is_white[v]:
            continue
        d_wb = 2 * eid + is_white[v]  # the dart leaving the white end
        src, dst = dart_face[d_wb ^ 1], dart_face[d_wb]
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
            yield collection - {face.label} | {new}, lambda face=face: face_labels(_square_move(lab.graph, face))

    labelings, complete, _ = closure(face_labels(g), moves, FaceLabeling.collection)
    return [(lab.graph, lab) for lab in labelings], complete
