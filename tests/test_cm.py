"""Rank-one module predicates over the boundary order and tilting collections."""

from __future__ import annotations

import random

import pytest

from positroids import (
    DecoratedPermutation,
    KSet,
    bridge_graph_from_permutation,
    ext1_vanishes,
    face_labels,
    gp_b_rank_one_list,
    in_cm_b,
    in_gp_b,
    is_cluster_tilting_collection,
    k2_generator_decomposition,
    maximal_noncrossing_collections,
    necklace_from_permutation,
    noncrossing,
    positroid_members,
)
from positroids.combinatorics import DimensionError, ValidationError, in_positroid

from conftest import (
    SNAPSHOTS,
    chords_cross,
    decorated_permutations,
    diff,
    k2_permutations,
    ks,
    random_decorated,
    uniform_perm,
)


def test_ext_vanishing_is_the_chord_test():
    assert not ext1_vanishes(ks("13", 4), ks("24", 4))
    assert ext1_vanishes(ks("12", 4), ks("34", 4))
    assert ext1_vanishes(ks("124", 6), ks("124", 6))
    with pytest.raises(DimensionError):
        ext1_vanishes(ks("12", 4), ks("123", 4))
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 8)
        kk = rng.randint(1, n - 1)
        a = KSet.of(rng.sample(range(1, n + 1), kk), n)
        b = KSet.of(rng.sample(range(1, n + 1), kk), n)
        assert ext1_vanishes(a, b) == noncrossing(a, b)


def test_membership_goldens(ex_135264):
    neck = ex_135264["necklace"]
    assert in_cm_b(ks("245", 6), neck)
    assert not in_gp_b(ks("245", 6), neck)  # crosses the necklace entry 346
    assert in_gp_b(ks("246", 6), neck)
    assert not in_cm_b(ks("123", 6), neck)
    assert not in_gp_b(ks("123", 6), neck)


def test_gp_list_golden(ex_135264):
    got = {x.label() for x in gp_b_rank_one_list(ex_135264["necklace"])}
    assert got == {"124", "234", "346", "456", "256", "126", "246"}


def test_gp_list_of_uniform_small_cell_is_everything():
    neck = necklace_from_permutation(uniform_perm(2, 4))
    assert gp_b_rank_one_list(neck) == positroid_members(neck).members


def test_gp_list_has_no_size_cap():
    # the size cap is the CLI's alone: past it the library still lists GP_B
    neck = necklace_from_permutation(uniform_perm(1, 13))
    assert len(gp_b_rank_one_list(neck)) == 13
    assert gp_b_rank_one_list(neck) == positroid_members(neck).members


def test_gp_membership_implies_cm_membership():
    rng = random.Random(17)
    for _ in range(30):
        sigma = random_decorated(rng, rng.randint(2, 7))
        neck = necklace_from_permutation(sigma)
        for lab in gp_b_rank_one_list(neck):
            assert in_cm_b(lab, neck)
            assert all(noncrossing(lab, entry) for entry in neck)


# --- tilting collections ------------------------------------------------


def test_face_label_collections_are_cluster_tilting(ex_135264):
    lab = ex_135264["labeling"]
    assert is_cluster_tilting_collection(lab.collection(), ex_135264["necklace"])
    rng = random.Random(23)
    for _ in range(15):
        sigma = random_decorated(rng, rng.randint(2, 7))
        g = bridge_graph_from_permutation(sigma)
        assert is_cluster_tilting_collection(
            face_labels(g).collection(), necklace_from_permutation(sigma)
        )


def test_tilting_fails_without_maximality_or_the_necklace(ex_135264):
    neck = ex_135264["necklace"]
    full = set(ex_135264["labeling"].collection())
    assert not is_cluster_tilting_collection(full - {ks("246", 6)}, neck)
    assert not is_cluster_tilting_collection(full - {ks("124", 6)}, neck)
    # a crossing pair can never tilt
    assert not is_cluster_tilting_collection(full | {ks("245", 6)}, neck)
    # noncrossing, but it omits the necklace set 13, which 24 crosses
    neck = necklace_from_permutation(DecoratedPermutation.from_cycle_string("(12)(34)"))
    assert not is_cluster_tilting_collection({ks("14", 4), ks("23", 4), ks("24", 4)}, neck)


def test_maximal_collection_counts_match_snapshots(ex_135264):
    for (kk, nn), key in [
        ((2, 4), "uniform(2,4)"),
        ((2, 5), "uniform(2,5)"),
        ((2, 6), "uniform(2,6)"),
        ((3, 6), "uniform(3,6)"),
    ]:
        neck = necklace_from_permutation(uniform_perm(kk, nn))
        found = maximal_noncrossing_collections(neck)
        assert len(found) == SNAPSHOTS["graph_closures"][key]
        for coll in found:
            assert is_cluster_tilting_collection(coll, neck)
    assert len(maximal_noncrossing_collections(ex_135264["necklace"])) == 1


def test_collection_sizes_match_the_cell_dimension():
    from positroids import alignments

    rng = random.Random(29)
    for _ in range(12):
        sigma = random_decorated(rng, rng.randint(2, 6))
        neck = necklace_from_permutation(sigma)
        expected = sigma.k * (sigma.n - sigma.k) - alignments(sigma) + 1
        for coll in maximal_noncrossing_collections(neck):
            assert len(coll) == expected


# --- k = 2 resolutions --------------------------------------------------


def test_k2_decomposition_goldens():
    neck = necklace_from_permutation(DecoratedPermutation.of((2, 1, 4, 3)))
    got = k2_generator_decomposition(ks("24", 4), neck)
    assert tuple(x.label() for x in got) == ("13", "14", "23")
    # in the uniform cell everything is projective, nothing to resolve
    uni = necklace_from_permutation(uniform_perm(2, 4))
    assert k2_generator_decomposition(ks("24", 4), uni) is None


def test_k2_decomposition_errors(ex_135264):
    neck = necklace_from_permutation(DecoratedPermutation.of((2, 1, 4, 3)))
    with pytest.raises(ValidationError):
        k2_generator_decomposition(ks("12", 4), neck)
    with pytest.raises(DimensionError):
        k2_generator_decomposition(ks("124", 6), ex_135264["necklace"])


def test_k2_decompositions_exist_across_small_cells():
    # every rank-two cell with n <= 5: all non-projective members resolve
    for n in (3, 4, 5):
        for sigma in k2_permutations(n):
            neck = necklace_from_permutation(sigma)
            members = positroid_members(neck).members
            gp = gp_b_rank_one_list(neck)
            for lab in members:
                out = k2_generator_decomposition(lab, neck)
                if lab in gp:
                    assert out is None
                    continue
                j_set, l1, l2 = out
                assert j_set in set(neck.sets)
                assert not noncrossing(lab, j_set)
                assert noncrossing(l1, l2)
                assert in_positroid(neck, l1) and in_positroid(neck, l2)
                # the rerouted pair reassembles the four original endpoints
                assert sorted(lab.elements + j_set.elements) == sorted(l1.elements + l2.elements)


def test_mask_scans_match_the_chord_reference():
    # projectivity and the crossing set a resolution uses, both found by one
    # scan of the necklace masks, against the chord test
    for n in range(1, 7):
        for sigma in decorated_permutations(n):
            neck = necklace_from_permutation(sigma)
            first = {}
            for lab in positroid_members(neck).members:
                crossed = (j for j in neck if chords_cross(diff(lab, j), diff(j, lab), n))
                first[lab] = next(crossed, None)
                assert in_gp_b(lab, neck) == (first[lab] is None)
                if sigma.k == 2:
                    out = k2_generator_decomposition(lab, neck)
                    assert (out is None) if first[lab] is None else (out[0] == first[lab])
            assert gp_b_rank_one_list(neck) == {lab for lab, j in first.items() if j is None}
