"""End-to-end acceptance gate.

One test per criterion, each finishing with a single PASS line on stdout.
Runtime bounds are asserted where a criterion carries one.  The closure
family used by criteria 5, 6, 7 and 9 is computed once per module.
"""

from __future__ import annotations

import random
import time

import pytest

from positroids import (
    KSet,
    LaurentPoly,
    alignments,
    bridge_graph_from_permutation,
    connected_components,
    face_labels,
    gp_b_rank_one_list,
    graph_mutation_class,
    in_gp_b,
    initial_seed,
    is_cluster_tilting_collection,
    k2_generator_decomposition,
    maximal_noncrossing_collections,
    minor,
    mutate_seed,
    mutation_class,
    necklace_from_permutation,
    positroid_members,
    quiver_from_graph,
    reverse_necklace,
    sample_cell_point,
    trip_permutation,
)
from positroids import plabic
from positroids.cluster import LaurentDivisionError
from positroids.numeric import minor_assignment

from conftest import (
    SNAPSHOTS,
    assert_frozen_glued,
    has_core_two_cycle_or_loop,
    k2_permutations,
    ks,
    named_cells,
    random_decorated,
)


def _random_family(count=10, dim_cap=10):
    rng = random.Random(77)
    seen = set()
    while len(seen) < count:
        sigma = random_decorated(rng, rng.randint(3, 8))
        if not 0 < sigma.k < sigma.n or sigma in seen:
            continue
        if sigma.k * (sigma.n - sigma.k) - alignments(sigma) > dim_cap:
            continue
        seen.add(sigma)
        yield f"random:{sigma.to_cycle_string()}", sigma


@pytest.fixture(scope="module")
def family():
    out = []
    for name, sigma in list(named_cells()) + list(_random_family()):
        graph = bridge_graph_from_permutation(sigma)
        members, complete = graph_mutation_class(graph)
        assert complete, name
        out.append(
            {
                "name": name,
                "sigma": sigma,
                "necklace": necklace_from_permutation(sigma),
                "graph": graph,
                "members": members,
            }
        )
    return out


def test_criterion_1_worked_example_golden_suite(ex_135264):
    start = time.monotonic()
    sigma = ex_135264["sigma"]
    neck = ex_135264["necklace"]
    assert [x.label() for x in neck] == ["124", "234", "346", "456", "256", "126"]
    assert {x.label() for x in positroid_members(neck).complement()} == {"123", "345", "156"}
    gp = gp_b_rank_one_list(neck)
    assert gp == frozenset(neck.sets) | {ks("246", 6)}
    assert len(gp) == 7

    seeds, complete = mutation_class(ex_135264["seed"])
    assert complete and len(seeds) == 2

    (vid,) = ex_135264["seed"].quiver.mutable_ids()
    mutated = mutate_seed(ex_135264["seed"], vid)
    s = LaurentPoly.symbol
    lhs = mutated.variable(vid) * s("246")
    rhs = s("124") * s("256") * s("346") + s("126") * s("234") * s("456")
    assert lhs == rhs

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS (golden example suite, {elapsed:.3f}s)")


def test_criterion_2_reverse_necklace_golden(ex_135264):
    got = [x.label() for x in reverse_necklace(ex_135264["sigma"])]
    assert got == ["456", "146", "126", "236", "234", "245"]
    print("ACCEPTANCE 2: PASS (reverse necklace golden)")


def test_criterion_3_restricted_identities_on_cell_points(ex_135264):
    start = time.monotonic()
    graph = ex_135264["graph"]
    seed = ex_135264["seed"]
    (vid,) = seed.quiver.mutable_ids()
    psi = mutate_seed(seed, vid).variable(vid)
    labels = [v.label for v in seed.quiver.vertices]

    def d(point, text):
        return minor(point.matrix, ks(text, 6))

    for i in range(50):
        point = sample_cell_point(graph, rng_seed=i)
        assert d(point, "245") * d(point, "346") == d(point, "234") * d(point, "456")
        assert d(point, "146") * d(point, "256") == d(point, "126") * d(point, "456")
        assert d(point, "146") * d(point, "125") == d(point, "126") * d(point, "145")
        value = psi.evaluate(minor_assignment(point.matrix, labels))
        assert d(point, "146") * value == d(point, "126") * d(point, "346") * d(point, "145")

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3: PASS (4 identities x 50 cell points, {elapsed:.2f}s)")


def test_criterion_4_face_count_matches_the_dimension_formula():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(200):
        sigma = random_decorated(rng, rng.randint(1, 8))
        graph = bridge_graph_from_permutation(sigma)
        faces = face_labels(graph).faces
        expected = sigma.k * (sigma.n - sigma.k) - alignments(sigma) + 1
        assert len(faces) == expected, sigma
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4: PASS (200 random cells, faces = k(n-k)-a+1, {elapsed:.2f}s)")


def test_criterion_5_square_move_closures_match_brute_force(family):
    for record in family:
        neck = record["necklace"]
        collections = {lab.collection() for _, lab in record["members"]}
        assert len(collections) == len(record["members"]), record["name"]
        for coll in collections:
            assert is_cluster_tilting_collection(coll, neck), record["name"]
        assert collections == maximal_noncrossing_collections(neck), record["name"]
        pinned = SNAPSHOTS["graph_closures"].get(record["name"])
        if pinned is not None:
            assert len(collections) == pinned, record["name"]
    print(f"ACCEPTANCE 5: PASS (dual-route closures on {len(family)} cells)")


def test_criterion_6_mutation_stays_laurent(family):
    start = time.monotonic()
    total = 0
    for record in family:
        quiver = quiver_from_graph(record["graph"])
        try:
            seeds, complete = mutation_class(initial_seed(quiver), limit=2000)
        except LaurentDivisionError as exc:  # pragma: no cover
            pytest.fail(f"{record['name']}: mutation left the Laurent ring: {exc}")
        assert complete, record["name"]
        assert all(s.variables for s in seeds)
        pinned = SNAPSHOTS["seed_closures"].get(record["name"])
        if pinned is not None:
            assert len(seeds) == pinned, record["name"]
        pure = SNAPSHOTS["pure_seed_closures"].get(record["name"])
        if pure is not None:
            assert sum(1 for s in seeds if s.is_pure_pluecker()) == pure, record["name"]
        total += len(seeds)
    elapsed = time.monotonic() - start
    assert elapsed < 6.0
    print(f"ACCEPTANCE 6: PASS (exact division across {total} seeds, {elapsed:.2f}s)")


def test_criterion_7_quivers_are_clean_and_split_over_components(family):
    graphs = 0
    for record in family:
        for graph, _ in record["members"]:
            quiver = quiver_from_graph(graph)
            assert not has_core_two_cycle_or_loop(quiver), record["name"]
            graphs += 1
    split = 0
    for record in family:
        if len(connected_components(record["necklace"])) > 1:
            assert_frozen_glued(record["sigma"])
            split += 1
    assert split >= 2
    print(f"ACCEPTANCE 7: PASS ({graphs} quivers clean, {split} disconnected cells split)")


def test_closure_graphs_read_their_trip_permutation_from_trips_alone(family, monkeypatch):
    graphs = [(record["sigma"], graph, lab) for record in family for graph, lab in record["members"]]
    assert all(lab.permutation == sigma for sigma, _, lab in graphs)
    monkeypatch.setattr(plabic, "_label_faces", None)
    assert all(trip_permutation(graph) == sigma for sigma, graph, _ in graphs)


def test_criterion_8_every_small_rank_two_cell_resolves():
    cells = 0
    decomposed = 0
    points_checked = 0
    for n in range(2, 9):
        count = 0
        for sigma in k2_permutations(n):
            count += 1
            neck = necklace_from_permutation(sigma)
            members = positroid_members(neck).members
            todo = []
            for label in sorted(members, key=lambda s: s.elements):
                if in_gp_b(label, neck):
                    assert k2_generator_decomposition(label, neck) is None
                    continue
                j_set, l1, l2 = k2_generator_decomposition(label, neck)
                todo.append((label, j_set, l1, l2))
            cells += 1
            if not todo:
                continue
            decomposed += len(todo)
            graph = bridge_graph_from_permutation(sigma)
            for i in range(20):
                point = sample_cell_point(graph, rng_seed=i)
                points_checked += 1
                for label, j_set, l1, l2 in todo:
                    lhs = minor(point.matrix, label) * minor(point.matrix, j_set)
                    rhs = minor(point.matrix, l1) * minor(point.matrix, l2)
                    assert lhs == rhs, (sigma, label)
        assert count == SNAPSHOTS["k2_cells_by_n"][str(n)]
    print(
        "ACCEPTANCE 8: PASS "
        f"({cells} rank-two cells, {decomposed} resolutions, {points_checked} points)"
    )


def test_criterion_9_vanishing_profile_equals_the_complement(family):
    checked = 0
    for record in family:
        neck = record["necklace"]
        complement = positroid_members(neck).complement()
        graph = record["graph"]
        n, k = neck.n, neck.k
        import itertools

        for draw in range(10):
            point = sample_cell_point(graph, rng_seed=draw)
            zero = {
                KSet(c, n)
                for c in itertools.combinations(range(1, n + 1), k)
                if minor(point.matrix, KSet(c, n)) == 0
            }
            assert zero == complement, record["name"]
            checked += 1
    print(f"ACCEPTANCE 9: PASS ({checked} weight draws, profile == complement)")
