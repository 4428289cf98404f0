"""Plabic graphs in a disk: trips, face labels, square moves, quivers."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from positroids import (
    DecoratedPermutation,
    KSet,
    PlabicGraph,
    alignments,
    bridge_graph_from_permutation,
    face_labels,
    graph_mutation_class,
    necklace_from_permutation,
    quiver_from_graph,
    square_move,
    trip_permutation,
    trips,
)
from positroids import plabic
from positroids.cluster import closure
from positroids.combinatorics import ValidationError
from positroids.plabic import BLACK, WHITE, ReducednessError, _Disk, movable_faces

from conftest import (
    SNAPSHOTS,
    assert_frozen_glued,
    decorated_permutations,
    has_core_two_cycle_or_loop,
    ks,
    named_cells,
    random_decorated,
    recoloured_bridge_corpus,
    reference_bridge_graph,
    reference_graph_mutation_class,
    reference_label_faces,
    reference_square_move,
    uniform_perm,
    validate_reduced,
)


def record_work(monkeypatch):
    """Lists that collect the graph of each face analysis, each ``_Disk`` built
    and each ``PlabicGraph.validate`` call, in call order."""
    analysed, disks, validated = [], [], []
    label_faces, validate = plabic._label_faces, PlabicGraph.validate

    class CountingDisk(_Disk):
        def __init__(self, graph):
            disks.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(plabic, "_label_faces", lambda *args: analysed.append(args[0]) or label_faces(*args))
    monkeypatch.setattr(plabic, "_Disk", CountingDisk)
    monkeypatch.setattr(PlabicGraph, "validate", lambda g: validated.append(g) or validate(g))
    return analysed, disks, validated


# --- construction and trips --------------------------------------------


def test_bridge_graph_golden_hexagon(ex_135264):
    g = ex_135264["graph"]
    lab = ex_135264["labeling"]
    assert trip_permutation(g) == ex_135264["sigma"]
    assert len(lab.faces) == 7
    assert [x.label() for x in lab.boundary_labels()] == ["124", "234", "346", "456", "256", "126"]
    interior = {f.label.label() for f in lab.faces if not f.frozen}
    assert interior == {"246"}
    # the interior face is a hexagon, so no square move applies here
    assert movable_faces(lab) == ()
    assert [f.label.label() for f in lab.faces if not f.frozen] == ["246"]


def test_trips_start_and_end_on_the_boundary(ex_135264):
    strands = trips(ex_135264["graph"])
    assert sorted(t.source for t in strands) == [1, 2, 3, 4, 5, 6]
    sigma = ex_135264["sigma"]
    for t in strands:
        assert t.target == sigma(t.source)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_small_cell_round_trips_exhaustively(n):
    for sigma in decorated_permutations(n):
        g = bridge_graph_from_permutation(sigma)
        assert trip_permutation(g) == sigma
        assert validate_reduced(g)
        lab = face_labels(g)
        k = sigma.k
        assert len(lab.faces) == k * (n - k) - alignments(sigma) + 1
        assert lab.necklace() == necklace_from_permutation(sigma)
        assert tuple(x for x in lab.boundary_labels()) == tuple(necklace_from_permutation(sigma))


def test_random_cells_round_trip():
    rng = random.Random(20)
    for _ in range(60):
        sigma = random_decorated(rng, rng.randint(5, 8))
        g = bridge_graph_from_permutation(sigma)
        assert trip_permutation(g) == sigma
        assert validate_reduced(g)


def test_trip_permutation_matches_the_face_analysis_for_n_up_to_6(monkeypatch):
    graphs = [(sigma, bridge_graph_from_permutation(sigma)) for n in range(1, 7) for sigma in decorated_permutations(n)]
    assert all(face_labels(g).permutation == sigma for sigma, g in graphs)
    # the strands alone give the permutation and its decoration
    monkeypatch.setattr(plabic, "_label_faces", None)
    assert all(trip_permutation(g) == sigma for sigma, g in graphs)


def test_bridge_graph_matches_the_trial_swap_and_cleanup_reference():
    # every cell with n <= 6: peeling without a recount and capping only the
    # lollipops builds the same graph, ids and edge order included
    cells = [sigma for n in range(1, 7) for sigma in decorated_permutations(n)]
    assert len(cells) == 2371
    for sigma in cells:
        assert bridge_graph_from_permutation(sigma).to_json() == reference_bridge_graph(sigma).to_json()


def test_bridge_graph_validates_only_the_graph_it_returns(monkeypatch):
    _, _, validated = record_work(monkeypatch)
    g = bridge_graph_from_permutation(uniform_perm(3, 6))
    assert validated == [g]


def labelling_outcome(g):
    """Faces with their ids, labels, marks and darts plus the permutation, or
    the error type; then the reducedness verdict, or its error type."""
    try:
        lab = face_labels(g)
        faces = [(f.id, f.label, f.boundary_marks, f.darts) for f in lab.faces]
        labelled = (faces, lab.permutation)
    except ValidationError as exc:
        labelled = type(exc)
    try:
        reduced = validate_reduced(g)
    except ValidationError as exc:
        reduced = type(exc)
    return labelled, reduced


def reference_successors(g, disk):
    """The face and trip successor of every dart, by the rules of the module
    docstring: arriving at v along e, the face goes on along the predecessor
    of e at v, and the trip along its successor at a black v and its
    predecessor at a white one; no trip goes on from a boundary vertex, whose
    rotation is the arc to i + 1, the arc from i - 1 and the leg."""
    n, rot, colors = g.boundary, dict(g.rotation), g.color_map
    if n >= 2:
        rot.update({i: (disk.arc_of[i], disk.arc_of[(i - 2) % n + 1], rot[i][0]) for i in range(1, n + 1)})
    fnext, tnext = {}, {}
    for v, r in rot.items():
        for k, e in enumerate(r):
            arriving = disk.dart(e, v) ^ 1
            fnext[arriving] = disk.dart(r[k - 1], v)
            step = 1 if v > n and colors[v] == BLACK else -1
            tnext[arriving] = disk.dart(r[(k + step) % len(r)], v) if v > n else -1
    return [fnext[d] for d in range(len(fnext))], [tnext[d] for d in range(len(tnext))]


def test_successor_lists_follow_the_rotation_rules():
    # unreduced and refused graphs too, and every member of the Gr(3,7) class
    graphs = list(recoloured_bridge_corpus(6, 3, seed=12))
    graphs += [m for m, _ in graph_mutation_class(bridge_graph_from_permutation(uniform_perm(3, 7)))[0]]
    for g in graphs:
        disk = _Disk(g)
        assert [disk.fnext, disk.tnext] == list(reference_successors(g, disk))
        assert disk.legs == [disk.dart(r[0], i) for i, r in g.rotation[: g.boundary]]
    assert len(graphs) == 9484 + 259


def test_face_masks_match_the_per_strand_reference(monkeypatch):
    graphs = list(recoloured_bridge_corpus(6, 3, seed=12))
    for k, n in ((2, 7), (3, 6)):
        graphs += [m for m, _ in graph_mutation_class(bridge_graph_from_permutation(uniform_perm(k, n)))[0]]
    fast = [labelling_outcome(g) for g in graphs]
    monkeypatch.setattr(plabic, "_label_faces", reference_label_faces)
    assert fast == [labelling_outcome(g) for g in graphs]
    # the corpus holds reduced graphs, labelled but unreduced ones and refused ones
    kinds = Counter((isinstance(lab, tuple), reduced) for lab, reduced in fast)
    assert kinds[(True, True)] and kinds[(True, False)] and kinds[(False, False)]
    assert {lab for lab, _ in fast if not isinstance(lab, tuple)} == {ReducednessError}


def hang_leaves(g, rng):
    """g with one or two leaves of random colors hung on internal vertices,
    each at a random place in its vertex's rotation."""
    colors, edges, rot = g.color_map, list(g.edges), {v: list(r) for v, r in g.rotation}
    for _ in range(rng.randint(1, 2)):
        v, leaf = rng.choice(sorted(colors)), max(colors) + 1
        colors[leaf] = rng.choice((WHITE, BLACK))
        edges.append((v, leaf))
        rot[v].insert(rng.randrange(len(rot[v]) + 1), len(edges) - 1)
        rot[leaf] = [len(edges) - 1]
    return PlabicGraph.of(g.boundary, colors, edges, rot)


def test_face_masks_match_the_reference_with_leaves_on_internal_vertices(monkeypatch):
    # a leaf's color picks its strand's side of the face around it, which must
    # agree with the side the strand's other edges give that face
    rng = random.Random(29)
    cells = [bridge_graph_from_permutation(sigma) for n in range(2, 6) for sigma in decorated_permutations(n)]
    graphs = [hang_leaves(g, rng) for g in cells if g.colors]
    fast = [labelling_outcome(g) for g in graphs]
    monkeypatch.setattr(plabic, "_label_faces", reference_label_faces)
    assert fast == [labelling_outcome(g) for g in graphs]
    kinds = Counter((isinstance(lab, tuple), reduced) for lab, reduced in fast)
    assert kinds[(True, True)] and kinds[(False, False)]


@pytest.mark.parametrize("color", ["white", "black"])
def test_a_fixed_point_must_bounce_off_a_leaf(color):
    # strand 1 runs out along the leg, bounces off the leaf 3 and comes back
    # through the degree-two vertex 2, so it uses the leg twice
    g = PlabicGraph.of(1, {2: color, 3: "black"}, [(1, 2), (2, 3)], {1: [0], 2: [0, 1], 3: [1]})
    assert [(t.source, t.target) for t in trips(g)] == [(1, 1)]
    with pytest.raises(ReducednessError):
        trip_permutation(g)
    with pytest.raises(ReducednessError):
        face_labels(g)
    assert not validate_reduced(g)


def test_lollipop_cells():
    sigma = DecoratedPermutation.of((1, 2), {1: -1, 2: 1})
    g = bridge_graph_from_permutation(sigma)
    colors = set(g.color_map.values())
    assert colors == {"white", "black"}
    lab = face_labels(g)
    assert len(lab.faces) == 1
    assert lab.faces[0].label.label() == "1"


def test_graph_validation_rejects_bad_structure():
    with pytest.raises(ValidationError):
        PlabicGraph.of(2, {1: "white"}, [], {1: [], 2: []})  # internal id below boundary
    with pytest.raises(ValidationError):
        PlabicGraph.of(2, {5: "green"}, [(1, 5), (2, 5)], {1: [0], 2: [1], 5: [0, 1]})
    with pytest.raises(ValidationError):
        PlabicGraph.of(2, {5: "white"}, [(5, 5)], {1: [], 2: [], 5: [0, 0]})
    with pytest.raises(ValidationError):
        # rotation at 5 out of sync with its incident edges
        PlabicGraph.of(2, {5: "white"}, [(1, 5), (2, 5)], {1: [0], 2: [1], 5: [0]})
    with pytest.raises(ValidationError, match="rotation at vertex 5"):
        # as many edges as it has, but one of them twice
        PlabicGraph.of(2, {5: "white"}, [(1, 5), (2, 5)], {1: [0], 2: [1], 5: [0, 0]})


@pytest.mark.parametrize("color", ["white", "black"])
def test_closed_strand_graph_is_not_reduced(color, monkeypatch):
    # the interior triangle carries a strand that never reaches the boundary
    g = PlabicGraph.of(
        3,
        {4: color, 5: color, 6: color},
        [(1, 4), (2, 5), (3, 6), (4, 5), (5, 6), (6, 4)],
        {1: [0], 2: [1], 3: [2], 4: [0, 5, 3], 5: [1, 3, 4], 6: [2, 4, 5]},
    )
    assert sum(len(t.darts) for t in trips(g)) < 2 * len(g.edges)
    assert not validate_reduced(g)
    # the strands alone reject it, before any face analysis
    monkeypatch.setattr(plabic, "_label_faces", None)
    assert not validate_reduced(g)


def test_bubble_graph_is_not_reduced():
    # parallel edges between opposite colors create a contractible bigon
    g = PlabicGraph.of(
        2,
        {5: "white", 6: "black"},
        [(1, 5), (5, 6), (5, 6), (6, 2)],
        {1: [0], 2: [3], 5: [0, 1, 2], 6: [3, 2, 1]},
    )
    assert not validate_reduced(g)


def test_validate_reduced_builds_one_disk(monkeypatch):
    # the strand checks and the face analysis share one _Disk and its trips
    g = bridge_graph_from_permutation(uniform_perm(3, 6))
    _, built, _ = record_work(monkeypatch)
    assert validate_reduced(g)
    assert built == [g]


# --- square moves -------------------------------------------------------


def test_square_move_swaps_the_interior_label():
    g = bridge_graph_from_permutation(uniform_perm(2, 4))
    lab = face_labels(g)
    assert {f.label.label() for f in lab.faces if not f.frozen} == {"24"}
    moved = square_move(lab, ks("24", 4))
    mlab = face_labels(moved)
    assert {f.label.label() for f in mlab.faces if not f.frozen} == {"13"}
    assert trip_permutation(moved).k == 2
    assert validate_reduced(moved)
    # boundary faces are untouched
    assert mlab.boundary_labels() == lab.boundary_labels()


def test_square_move_is_an_involution_on_collections():
    g = bridge_graph_from_permutation(uniform_perm(2, 4))
    lab = face_labels(g)
    back = square_move(face_labels(square_move(lab, ks("24", 4))), ks("13", 4))
    assert face_labels(back).collection() == lab.collection()


def test_square_move_preserves_the_trip_permutation():
    rng = random.Random(31)
    done = 0
    while done < 12:
        sigma = random_decorated(rng, rng.randint(4, 7))
        g = bridge_graph_from_permutation(sigma)
        lab = face_labels(g)
        for face in movable_faces(lab):
            moved = square_move(lab, face.label)
            assert trip_permutation(moved) == sigma
            assert validate_reduced(moved)
            done += 1


def test_square_move_matches_the_relabelling_reference():
    rng = random.Random(47)
    classes = [graph_mutation_class(bridge_graph_from_permutation(uniform_perm(k, n)))[0] for k, n in ((3, 6), (2, 8))]
    assert [len(c) for c in classes] == [34, 132]
    labs = [lab for c in classes for _, lab in c]
    labs += [face_labels(bridge_graph_from_permutation(random_decorated(rng, rng.randint(4, 7)))) for _ in range(12)]
    moves = 0
    for lab in labs:
        for face in movable_faces(lab):
            fast = json.dumps(square_move(lab, face.label).to_json())
            assert fast == json.dumps(reference_square_move(lab.graph, face.label, lab).to_json())
            moves += 1
    assert moves == 120 + 660 + 1


def test_square_move_with_a_labeling_analyses_nothing(monkeypatch):
    # each move edits one copy of the parts and validates only the graph it returns
    lab = face_labels(bridge_graph_from_permutation(uniform_perm(3, 6)))
    analysed, disks, validated = record_work(monkeypatch)
    moved = [square_move(lab, face.label) for face in movable_faces(lab)]
    assert moved and analysed == disks == []
    assert validated == moved and all(v is m for v, m in zip(validated, moved))
    face_labels(lab.graph)
    assert analysed == disks == [lab.graph]


def test_square_move_rejects_non_movable_faces(ex_135264):
    with pytest.raises(ValidationError):
        square_move(ex_135264["labeling"], ks("246", 6))
    with pytest.raises(ValidationError):
        # frozen faces are never movable
        square_move(ex_135264["labeling"], ks("124", 6))


# --- quivers ------------------------------------------------------------


def test_quiver_golden_single_square():
    g = bridge_graph_from_permutation(uniform_perm(2, 4))
    q = quiver_from_graph(g)
    labels = {v.id: v.label.label() for v in q.vertices}
    assert sorted(labels.values()) == ["12", "14", "23", "24", "34"]
    frozen = {labels[v.id] for v in q.vertices if v.frozen}
    assert frozen == {"12", "23", "34", "14"}
    arrows = {(labels[s], labels[t]) for s, t, m in q.core_arrows()}
    assert arrows == {("12", "24"), ("34", "24"), ("24", "23"), ("24", "14")}
    assert all(m == 1 for _, _, m in q.core_arrows())


def test_quiver_of_hexagon_cell(ex_135264):
    q = ex_135264["quiver"]
    labels = {v.id: v.label.label() for v in q.vertices}
    mutable = [labels[i] for i in q.mutable_ids()]
    assert mutable == ["246"]
    ins = {labels[s] for s, t, m in q.core_arrows() if labels[t] == "246"}
    outs = {labels[t] for s, t, m in q.core_arrows() if labels[s] == "246"}
    assert ins == {"124", "346", "256"}
    assert outs == {"234", "456", "126"}


def test_quivers_have_no_loops_or_core_two_cycles():
    rng = random.Random(41)
    for _ in range(40):
        sigma = random_decorated(rng, rng.randint(3, 8))
        g = bridge_graph_from_permutation(sigma)
        q = quiver_from_graph(g)
        assert not has_core_two_cycle_or_loop(q)


@pytest.mark.parametrize(
    "sigma",
    [
        DecoratedPermutation.of((3, 4, 1, 2, 7, 6, 5), {6: 1}),
        DecoratedPermutation.of((3, 4, 1, 2, 7, 8, 5, 6)),
        DecoratedPermutation.of((2, 1, 4, 3, 5), {5: -1}),
    ],
)
def test_disconnected_cells_glue_along_frozen_faces(sigma):
    assert_frozen_glued(sigma)


# --- serialization and closures ----------------------------------------


def test_graph_json_round_trip(ex_135264):
    g = ex_135264["graph"]
    data = g.to_json()
    assert set(data) == {"boundary", "vertices", "edges", "rotation"}
    assert all(set(v) == {"id", "color"} for v in data["vertices"])
    assert PlabicGraph.from_json(data) == g


def test_dot_output_is_stable(ex_135264):
    g = ex_135264["graph"]
    lab = ex_135264["labeling"]
    assert g.to_dot(lab) == g.to_dot(lab)
    rebuilt = bridge_graph_from_permutation(ex_135264["sigma"])
    assert rebuilt.to_dot(face_labels(rebuilt)) == g.to_dot(lab)
    assert "{2,4,6}" in g.to_dot(lab)


def test_graph_mutation_class_counts():
    g = bridge_graph_from_permutation(uniform_perm(2, 4))
    members, complete = graph_mutation_class(g)
    assert complete and len(members) == 2
    assert all(validate_reduced(m) for m, _ in members)
    g = bridge_graph_from_permutation(uniform_perm(2, 6))
    full, complete = graph_mutation_class(g)
    assert complete and len(full) == 14


def test_keyed_closure_matches_the_build_then_key_reference(monkeypatch):
    # every graph_closures snapshot cell and every cell with n <= 6; a second
    # run builds every move, new or seen, to check its key against the graph
    cells = [sigma for name, sigma in named_cells() if name in SNAPSHOTS["graph_closures"]]
    cells += [sigma for n in range(1, 7) for sigma in decorated_permutations(n)]
    assert len(cells) == 10 + 2371
    keys = []

    def checking(start, moves, key, limit=None):
        def checked(lab):
            for k, build in moves(lab):
                assert build().collection() == k
                keys.append(k)
                yield k, build

        return closure(start, checked, key, limit)

    members = 0
    for sigma in cells:
        g = bridge_graph_from_permutation(sigma)
        shipped, complete = graph_mutation_class(g)
        reference, reference_complete = reference_graph_mutation_class(g)
        assert complete and reference_complete
        assert shipped == reference
        assert [json.dumps(m.to_json()) for m, _ in shipped] == [json.dumps(m.to_json()) for m, _ in reference]
        with monkeypatch.context() as patch:
            patch.setattr(plabic, "closure", checking)
            assert graph_mutation_class(g) == (shipped, True)
        members += len(shipped)
    # more keys were checked than there are members, so seen moves were built too
    assert len(keys) > members > len(cells)


@pytest.mark.parametrize("k, n, members", [(2, 7, 42), (2, 8, 132), (3, 6, 34), (3, 7, 259)])
def test_graph_mutation_class_analyses_each_member_once(monkeypatch, k, n, members):
    # one face analysis and one _Disk per member, one validation per built move
    g = bridge_graph_from_permutation(uniform_perm(k, n))
    analysed, disks, validated = record_work(monkeypatch)
    found, complete = graph_mutation_class(g)
    assert complete and len(found) == members == SNAPSHOTS["graph_closures"][f"uniform({k},{n})"]
    graphs = [m for m, _ in found]
    assert analysed == disks == graphs
    assert len(validated) == members - 1 and all(v is m for v, m in zip(validated, graphs[1:]))


@pytest.mark.parametrize(
    "cell, members, digest",
    [
        ("(1473625)", 259, "129a1c769aa2e3f91e9a831fe2cf24c3cab6eb7ae72a13d4412a45393ffb46f3"),
        ("(1357)(2468)", 132, "e332e2f7048f1a24e24100d08f6f240df4de4ba503f17d915dbfd9b1b5add049"),
    ],
)
def test_closure_members_keep_their_bytes(cell, members, digest):
    # every member graph, and each face's id, label, marks and darts, in member order
    found, complete = graph_mutation_class(bridge_graph_from_permutation(DecoratedPermutation.from_cycle_string(cell)))
    faces = [[[f.id, f.label.label(), list(f.boundary_marks), list(f.darts)] for f in lab.faces] for _, lab in found]
    text = json.dumps([[g.to_json(), fs] for (g, _), fs in zip(found, faces)])
    assert complete and len(found) == members
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_face_labels_are_interned_by_a_bounded_memo():
    found = graph_mutation_class(bridge_graph_from_permutation(uniform_perm(3, 7)))[0]
    labels = [f.label for _, lab in found for f in lab.faces]
    assert len(labels) == 259 * 13 and len({id(s) for s in labels}) == len(set(labels)) == 35
    KSet.from_mask.cache_clear()
    seen = set()
    for n in range(1, 8):
        for sigma in decorated_permutations(n):
            seen.update(f.label for f in face_labels(bridge_graph_from_permutation(sigma)).faces)
    memo = KSet.from_mask.cache_info()
    assert memo.maxsize is not None and memo.currsize == len(seen) == 254 <= memo.maxsize


def test_a_movable_face_without_a_three_term_exchange_raises(monkeypatch):
    # no fallback builds the move to key it
    monkeypatch.setattr(plabic, "square_move_label", lambda *args: None)
    with pytest.raises(ReducednessError, match="three-term exchange"):
        graph_mutation_class(bridge_graph_from_permutation(uniform_perm(2, 4)))
