"""Combinatorial shadow of the module category over the boundary order.

Rank-one modules correspond to k-subsets; extensions between them vanish
exactly when the subsets are noncrossing, so the interesting membership
predicates (Cohen-Macaulay over the boundary order, Gorenstein-projective)
reduce to Gale-order and chord tests.  Higher-rank indecomposables are out of
scope here: they only show up implicitly, as non-Pluecker cluster variables.
"""

from __future__ import annotations

import itertools

from .combinatorics import (
    DimensionError,
    GrassmannNecklace,
    KSet,
    ValidationError,
    cyclically_ordered,
    in_positroid,
    masks_cross,
    noncrossing,
    positroid_members,
    three_term,
)

__all__ = [
    "ext1_vanishes",
    "in_cm_b",
    "in_gp_b",
    "gp_b_rank_one_list",
    "is_cluster_tilting_collection",
    "maximal_noncrossing_collections",
    "k2_generator_decomposition",
]


def ext1_vanishes(i_set: KSet, j_set: KSet) -> bool:
    """First extensions between two rank-one modules vanish iff the labels are
    noncrossing.  Symmetric; every label is rigid against itself.

    >>> ext1_vanishes(KSet.of([1, 3], 4), KSet.of([2, 4], 4))
    False
    """
    if i_set.k != j_set.k:
        raise DimensionError("rank-one labels must share k")
    return noncrossing(i_set, j_set)


def in_cm_b(label: KSet, necklace: GrassmannNecklace) -> bool:
    """Cohen-Macaulay membership over the boundary order: exactly positroid
    membership, i.e. I_i <=_i label for every i."""
    return in_positroid(necklace, label)


def in_gp_b(label: KSet, necklace: GrassmannNecklace) -> bool:
    """Gorenstein-projective membership at rank one.

    Requires positroid membership plus vanishing extensions against every
    summand of the boundary order, i.e. noncrossing with each necklace set.
    """
    return in_cm_b(label, necklace) and _first_crossing(label, necklace) is None


def _first_crossing(label: KSet, necklace: GrassmannNecklace) -> KSet | None:
    """The first necklace set that crosses ``label``, tested on bit masks."""
    mask = label.mask
    return next((s for s, m in zip(necklace, necklace.masks) if masks_cross(mask, m)), None)


def gp_b_rank_one_list(necklace: GrassmannNecklace) -> frozenset[KSet]:
    """All rank-one Gorenstein-projective labels: the positroid members that
    cross no necklace set.  Materializes :func:`positroid_members`, for any n.

    Rank-two and higher indecomposables are not produced; when they exist they
    appear downstream as non-Pluecker cluster variables.

    >>> from .combinatorics import DecoratedPermutation, necklace_from_permutation
    >>> s = DecoratedPermutation.from_cycle_string("(135)(264)")
    >>> sorted(x.label() for x in gp_b_rank_one_list(necklace_from_permutation(s)))
    ['124', '126', '234', '246', '256', '346', '456']
    """
    members = positroid_members(necklace).members
    return frozenset(lab for lab in members if _first_crossing(lab, necklace) is None)


def is_cluster_tilting_collection(labels, necklace: GrassmannNecklace) -> bool:
    """Whether a set of labels indexes a cluster tilting collection.

    The conditions: contains the necklace, sits inside the positroid, is
    pairwise noncrossing, and no further positroid member can be added while
    staying pairwise noncrossing.
    """
    labels = frozenset(labels)
    if not set(necklace.sets) <= labels:
        return False
    for lab in labels:
        if not in_cm_b(lab, necklace):
            return False
    masks = [lab.mask for lab in labels]
    if any(masks_cross(a, b) for a, b in itertools.combinations(masks, 2)):
        return False
    for cand in _compatible_pool(necklace):
        if cand not in labels and not any(masks_cross(cand.mask, m) for m in masks):
            return False
    return True


def _compatible_pool(necklace: GrassmannNecklace) -> list[KSet]:
    # candidates for extending a collection: must be noncrossing with the
    # whole necklace, which is the rank-one Gorenstein-projective condition
    return sorted(gp_b_rank_one_list(necklace), key=lambda s: s.elements)


def maximal_noncrossing_collections(necklace: GrassmannNecklace) -> frozenset[frozenset[KSet]]:
    """Brute force: every maximal pairwise-noncrossing collection of positroid
    members containing the necklace.

    Maximal cliques of the noncrossing graph on the compatible pool (anything
    crossing a necklace set can never join).  Pools stay small for n <= 8, so
    plain pivoting clique search is enough.
    """
    pool = _compatible_pool(necklace)
    index = {lab: i for i, lab in enumerate(pool)}
    adj: list[set[int]] = [set() for _ in pool]
    for (i, a), (j, b) in itertools.combinations(enumerate(lab.mask for lab in pool), 2):
        if not masks_cross(a, b):
            adj[i].add(j)
            adj[j].add(i)
    base = {index[s] for s in necklace.sets}
    out: list[frozenset[KSet]] = []

    def expand(run: set[int], cand: set[int], seen: set[int]) -> None:
        if not cand and not seen:
            out.append(frozenset(pool[i] for i in run))
            return
        pivot = max(cand | seen, key=lambda v: len(adj[v] & cand))
        for v in sorted(cand - adj[pivot]):
            expand(run | {v}, cand & adj[v], seen & adj[v])
            cand.remove(v)
            seen.add(v)

    start = set(range(len(pool)))
    for i in base:
        start &= adj[i] | {i}
    expand(set(base), start - base, set())
    return frozenset(out)


def k2_generator_decomposition(
    label: KSet, necklace: GrassmannNecklace
) -> tuple[KSet, KSet, KSet] | None:
    """Resolve a k=2 member outside the Gorenstein-projective part.

    Scans the necklace in order for the first set J crossing ``label``; the
    crossing chords {a,c} and {b,d} admit two noncrossing reroutings, and
    exactly one of them lies inside the positroid.  Returns (J, L1, L2) with
    the product identity minor(label)*minor(J) = minor(L1)*minor(L2) on every
    point of the cell.  Returns None when the label is already
    Gorenstein-projective, so no decomposition is needed.

    >>> from .combinatorics import GrassmannNecklace, KSet
    >>> ns = GrassmannNecklace(tuple(KSet.of(s, 4) for s in ([1,3],[2,3],[1,3],[1,4])))
    >>> tuple(x.label() for x in k2_generator_decomposition(KSet.of([2, 4], 4), ns))
    ('13', '14', '23')
    """
    if label.k != 2:
        raise DimensionError("decomposition applies to k=2 only")
    if not in_cm_b(label, necklace):
        raise ValidationError(f"{label} is outside the positroid")
    crossing = _first_crossing(label, necklace)
    if crossing is None:
        return None  # label is Gorenstein-projective
    n = label.n
    # crossing 2-sets are disjoint; pick the cyclic interleaving a, b, c, d
    a, c = label.elements
    x, y = crossing.elements
    b, d = (x, y) if cyclically_ordered(a, x, c, y, n) else (y, x)
    _, first, second = three_term((), a, b, c, d, n)
    first_in = all(in_positroid(necklace, s) for s in first)
    second_in = all(in_positroid(necklace, s) for s in second)
    if first_in == second_in:
        raise ValidationError(
            f"resolution dichotomy failed for {label} against {crossing}"
        )
    pair = first if first_in else second
    l1, l2 = sorted(pair, key=lambda s: s.elements)
    return crossing, l1, l2
