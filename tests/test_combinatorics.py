"""Ground-set combinatorics: k-sets, decorated permutations, necklaces, positroids."""

from __future__ import annotations

import doctest
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    DecoratedPermutation,
    GrassmannNecklace,
    KSet,
    alignments,
    cluster,
    cm,
    combinatorics,
    connected_components,
    in_positroid,
    necklace_from_permutation,
    noncrossing,
    numeric,
    permutation_from_necklace,
    plabic,
    positroid_members,
    reverse_necklace,
    shifted_leq,
)
from positroids.combinatorics import (
    ValidationError,
    cyclic_pos,
    cyclically_ordered,
)

from conftest import (
    chords_cross,
    decorated_permutations,
    diff,
    ks,
    random_decorated,
    restricted_necklace,
    uniform_perm,
)


@pytest.mark.parametrize("module", [combinatorics, plabic, cluster, cm, numeric])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


# --- KSet ---------------------------------------------------------------


def test_kset_rejects_out_of_range_and_unsorted():
    with pytest.raises(ValidationError):
        KSet.of((0, 2), 4)
    with pytest.raises(ValidationError):
        KSet.of((2, 5), 4)
    with pytest.raises(ValidationError):
        KSet((3, 2), 4)
    with pytest.raises(ValidationError):
        KSet((2, 2), 4)


def test_kset_of_sorts_and_label_round_trips():
    s = KSet.of((4, 1, 2), 6)
    assert s.elements == (1, 2, 4)
    assert s.label() == "124"
    assert KSet.from_label("124", 6) == s
    assert KSet.from_label(s.label(), 6) == s
    # two-digit ground sets switch to comma labels
    big = KSet.of((3, 11), 12)
    assert KSet.from_label(big.label(), 12) == big


def test_kset_sorted_by_starts_cyclically_at_i():
    s = KSet.of((1, 4, 6), 7)
    assert s.sorted_by(5) == (6, 1, 4)
    assert s.sorted_by(1) == (1, 4, 6)


def test_kset_json_is_sorted_int_list():
    s = KSet.of((5, 1), 6)
    assert s.to_json() == [1, 5]


def test_kset_rejects_elements_that_are_not_ints():
    # 1.0 and True compare equal to 1, so a set holding them would pass for {1,2}
    for elements, n in (([1.5], 3), ([True, 2], 3), ([1.0, 2], 3), ([1], 3.0), ([], True)):
        with pytest.raises(ValidationError):
            KSet.of(elements, n)
    with pytest.raises(ValidationError):
        GrassmannNecklace.from_json([[1.5, 2], [2, 3], [1, 3]])


def test_from_mask_rejects_bits_outside_the_ground_set():
    for mask in (1 << 9, 1, -1, -2, 2.0, True):
        with pytest.raises(ValidationError):
            KSet.from_mask(mask, 4)
    with pytest.raises(ValidationError):
        KSet.from_mask(2, 4.0)
    s = KSet.from_mask(0b10110, 4)
    assert s == KSet.of([1, 2, 4], 4) and s.mask == 0b10110 and s is KSet.from_mask(0b10110, 4)


def test_kset_hash_is_that_of_its_fields_for_n_up_to_7():
    # hashed once at construction, to the value the dataclass would compute
    for n in range(8):
        for k in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), k):
                for s in (KSet(combo, n), KSet.from_mask(sum(1 << j for j in combo), n)):
                    assert hash(s) == hash((s.elements, s.n)) and s.elements == combo


# --- cyclic order helpers ----------------------------------------------


def test_cyclic_pos_measures_clockwise_distance():
    assert cyclic_pos(3, 3, 6) == 0
    assert cyclic_pos(3, 5, 6) == 2
    assert cyclic_pos(5, 3, 6) == 4


def test_cyclically_ordered_examples():
    assert cyclically_ordered(1, 2, 3, 4, 6)
    assert cyclically_ordered(5, 6, 1, 3, 6)
    assert not cyclically_ordered(1, 3, 2, 4, 6)


def test_shifted_leq_golden_and_is_partial_order():
    # from position 1 this is the plain Gale order
    assert shifted_leq(1, ks("124", 6), ks("356", 6))
    assert not shifted_leq(1, ks("356", 6), ks("124", 6))
    # shifting the base point reverses this particular pair
    assert shifted_leq(5, ks("356", 6), ks("124", 6))

    rng = random.Random(7)
    pool = [KSet.of(rng.sample(range(1, 7), 3), 6) for _ in range(40)]
    for a in pool:
        assert shifted_leq(2, a, a)
    for a, b in itertools.combinations(pool, 2):
        if shifted_leq(2, a, b) and shifted_leq(2, b, a):
            assert a == b
    for a, b, c in itertools.product(pool[:12], repeat=3):
        if shifted_leq(2, a, b) and shifted_leq(2, b, c):
            assert shifted_leq(2, a, c)


# --- decorated permutations --------------------------------------------


def test_permutation_requires_colors_exactly_on_fixed_points():
    with pytest.raises(ValidationError):
        DecoratedPermutation.of((1, 3, 2))  # fixed point 1 uncolored
    with pytest.raises(ValidationError):
        DecoratedPermutation.of((2, 1), {1: 1})  # 1 is not fixed
    with pytest.raises(ValidationError):
        DecoratedPermutation.of((1, 2), {1: 1, 2: 0})
    with pytest.raises(ValidationError):
        DecoratedPermutation.of((1, 1, 3), {3: 1})


def test_cycle_string_forms_parse_to_same_permutation():
    a = DecoratedPermutation.from_cycle_string("(135)(264)")
    assert a.image == (3, 6, 5, 2, 1, 4)
    assert a.k == 3
    b = DecoratedPermutation.from_cycle_string("(1,3,5)(2,6,4)")
    assert a == b
    c = DecoratedPermutation.from_cycle_string("id:+,-,+")
    assert c.image == (1, 2, 3)
    assert c.colors == ((1, 1), (2, -1), (3, 1))


def test_cycle_string_grows_n_to_cover_trailing_colors():
    # two cycles on {1..4} plus two colored fixed points forces n = 6
    s = DecoratedPermutation.from_cycle_string("(12)(34):+,-")
    assert s.n == 6
    assert s.fixed_points() == (5, 6)


@given(st.integers(0, 10**6), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_cycle_string_round_trips(seed, n):
    sigma = random_decorated(random.Random(seed), n)
    assert DecoratedPermutation.from_cycle_string(sigma.to_cycle_string()) == sigma


@given(st.integers(0, 10**6), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_inverse_involution_and_rank_complement(seed, n):
    sigma = random_decorated(random.Random(seed), n)
    assert sigma.inverse().inverse() == sigma
    lift = sigma.affine_lift()
    assert all(i <= f <= i + n for i, f in enumerate(lift, 1))
    # fixed points keep their color under inversion; minus ones count in both ranks
    minus = sum(1 for _, c in sigma.colors if c == -1)
    assert sigma.k + sigma.inverse().k == n - len(sigma.fixed_points()) + 2 * minus


def test_rank_counts_weak_anti_exceedances():
    assert DecoratedPermutation.from_cycle_string("(135)(264)").k == 3
    assert DecoratedPermutation.of((1, 2), {1: 1, 2: -1}).k == 1
    assert uniform_perm(2, 5).k == 2


def test_permutation_json_round_trip():
    sigma = DecoratedPermutation.of((3, 2, 1, 4), {2: -1, 4: 1})
    data = sigma.to_json()
    assert data["image"] == [3, 2, 1, 4]
    assert data["colors"] == {"2": -1, "4": 1}
    assert DecoratedPermutation.from_json(data) == sigma


# --- necklaces ----------------------------------------------------------


def test_forward_necklace_golden():
    sigma = DecoratedPermutation.from_cycle_string("(135)(264)")
    got = [x.label() for x in necklace_from_permutation(sigma)]
    assert got == ["124", "234", "346", "456", "256", "126"]


def test_reverse_necklace_golden():
    sigma = DecoratedPermutation.from_cycle_string("(135)(264)")
    got = [x.label() for x in reverse_necklace(sigma)]
    assert got == ["456", "146", "126", "236", "234", "245"]


def test_necklace_entries_step_by_at_most_one_exchange():
    rng = random.Random(11)
    for _ in range(60):
        sigma = random_decorated(rng, rng.randint(1, 8))
        neck = necklace_from_permutation(sigma)
        n = sigma.n
        for i in range(1, n + 1):
            cur = set(neck[i].elements)
            nxt = set(neck[i % n + 1].elements)
            assert cur - {i} <= nxt
            assert len(nxt - (cur - {i})) <= 1


def necklace_by_definition(sigma):
    # I_i = {j : sigma^-1(j) >_i j} plus the fixed points colored -1
    n = sigma.n
    inv = sigma.inverse()
    loops = {i for i, c in sigma.colors if c == -1}
    sets = []
    for i in range(1, n + 1):
        members = {j for j in range(1, n + 1) if cyclic_pos(i, inv(j), n) > cyclic_pos(i, j, n)}
        sets.append(KSet.of(members | loops, n))
    return GrassmannNecklace(tuple(sets))


def test_necklace_recurrence_matches_the_definition_for_n_up_to_7():
    for n in range(1, 8):
        for sigma in decorated_permutations(n):
            assert necklace_from_permutation(sigma) == necklace_by_definition(sigma), sigma


@given(st.integers(0, 10**6), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_necklace_permutation_bijection(seed, n):
    sigma = random_decorated(random.Random(seed), n)
    assert permutation_from_necklace(necklace_from_permutation(sigma)) == sigma


def test_necklace_json_round_trip_both_senses():
    sigma = DecoratedPermutation.from_cycle_string("(135)(264)")
    fwd = necklace_from_permutation(sigma)
    assert GrassmannNecklace.from_json(fwd.to_json()) == fwd
    rev = reverse_necklace(sigma)
    back = GrassmannNecklace.from_json(rev.to_json(), sense="reverse")
    assert back == rev


def reference_necklace_condition(sets: tuple[KSet, ...], sense: str) -> bool:
    """The necklace condition on element sets, as stated in the class docstring."""
    n = len(sets)
    for i in range(1, n + 1):
        cur, nxt = set(sets[i - 1].elements), set(sets[i % n].elements)
        if sense == "reverse":
            ok = nxt - {i} <= cur  # I_{i+1} is I_i with one element replaced by i
        else:
            ok = len(nxt - (cur - {i})) == 1 if i in cur else nxt == cur
        if not ok:
            return False
    return True


def test_necklace_condition_on_masks_matches_the_set_rules_for_n_up_to_4():
    accepted = 0
    for n in range(1, 5):
        for k in range(n + 1):
            for sets in itertools.product(k_subsets(n, k), repeat=n):
                for sense in ("forward", "reverse"):
                    try:
                        GrassmannNecklace(sets, sense)
                        ok = True
                    except ValidationError:
                        ok = False
                    assert ok == reference_necklace_condition(sets, sense), (sets, sense)
                    accepted += ok
    assert accepted > 0


def test_necklace_rejects_mixed_sizes():
    from positroids.combinatorics import DimensionError

    with pytest.raises(DimensionError):
        GrassmannNecklace.from_json([[1, 2], [2, 3], [3]])


# --- positroid membership ----------------------------------------------


def test_positroid_membership_golden():
    neck = necklace_from_permutation(DecoratedPermutation.from_cycle_string("(135)(264)"))
    p = positroid_members(neck)
    assert len(p.members) == 17
    assert {x.label() for x in p.complement()} == {"123", "345", "156"}
    for entry in neck:
        assert in_positroid(neck, entry)
        assert entry in p.members


@functools.cache
def k_subsets(n: int, k: int) -> tuple[KSet, ...]:
    return tuple(KSet(c, n) for c in itertools.combinations(range(1, n + 1), k))


@functools.cache
def gale_up_set(i: int, base: KSet) -> frozenset[tuple[int, ...]]:
    """Every J with base <=_i J, through shifted_leq, as element tuples;
    cells share most of their necklace sets, so each is built once."""
    return frozenset(j.elements for j in k_subsets(base.n, base.k) if shifted_leq(i, base, j))


def assert_interval_counts_match_gale(necklace: GrassmannNecklace) -> None:
    # the positroid straight from its definition: I_i <=_i J for every i
    expected = frozenset.intersection(*(gale_up_set(i, base) for i, base in enumerate(necklace.sets, 1)))
    every = k_subsets(necklace.n, necklace.k)
    assert {j.elements for j in every if in_positroid(necklace, j)} == expected
    assert {j.elements for j in positroid_members(necklace).members} == expected


def test_interval_counts_match_gale_order_for_n_up_to_7():
    # 16,071 decorated permutations: every k-subset of every cell
    cells = 0
    for n in range(1, 8):
        for sigma in decorated_permutations(n):
            assert_interval_counts_match_gale(necklace_from_permutation(sigma))
            cells += 1
    assert cells == 16071


@given(st.integers(0, 10**6), st.integers(8, 12))
@settings(max_examples=40, deadline=None)
def test_interval_counts_match_gale_order_on_larger_cells(seed, n):
    sigma = random_decorated(random.Random(seed), n)
    assert_interval_counts_match_gale(necklace_from_permutation(sigma))
    # the bounds read the sets alone, whichever recurrence they satisfy
    assert_interval_counts_match_gale(reverse_necklace(sigma))


def test_gale_bounds_drop_the_trivial_counts():
    neck = necklace_from_permutation(uniform_perm(2, 5))
    assert neck.gale_bounds == ()  # the top cell: every 2-subset is a member
    neck = necklace_from_permutation(DecoratedPermutation.from_cycle_string("(135)(264)"))
    assert neck.gale_bounds is neck.gale_bounds  # built once per necklace
    for mask, count in neck.gale_bounds:
        assert count < min(mask.bit_count(), neck.k)


def reference_gale_bounds(necklace: GrassmannNecklace) -> tuple[tuple[int, int], ...]:
    """The bounds by walking each shifted order: after each j outside I_i whose
    successor lies in I_i, the interval so far and its count of I_i."""
    n, bounds = necklace.n, []
    for i, base in enumerate(necklace.sets, 1):
        order = [(i + t - 1) % n + 1 for t in range(n)]  # [n] under <_i
        mask = count = 0
        for t, j in enumerate(order[:-1], 1):
            mask |= 1 << j
            if j in base:
                count += 1
            elif order[t] in base and count < min(t, necklace.k):
                bounds.append((mask, count))
    return tuple(bounds)


def test_gale_bounds_match_the_shifted_order_walk_for_n_up_to_7():
    for n in range(1, 8):
        for sigma in decorated_permutations(n):
            for neck in (necklace_from_permutation(sigma), reverse_necklace(sigma)):
                assert neck.gale_bounds == reference_gale_bounds(neck), neck


def test_uniform_cell_contains_every_subset():
    neck = necklace_from_permutation(uniform_perm(2, 5))
    assert len(positroid_members(neck).members) == 10


def test_positroid_members_match_the_gale_filter_for_n_up_to_6():
    # the memo against the filter it caches, and both against single queries
    for n in range(1, 7):
        for sigma in decorated_permutations(n):
            neck = necklace_from_permutation(sigma)
            members = positroid_members(neck).members
            assert members == {s for s in k_subsets(n, neck.k) if in_positroid(neck, s)}, sigma
            assert members == combinatorics._member_sets.__wrapped__(neck)


def test_a_positroid_wraps_the_necklace_it_was_given():
    # the memo's key compares the sets alone: a necklace of either sense with
    # cached sets reads the members, and the result keeps the caller's object
    sigma = DecoratedPermutation.from_cycle_string("id:-,+,-")
    fwd, rev = necklace_from_permutation(sigma), reverse_necklace(sigma)
    assert fwd == rev and fwd.sense != rev.sense
    first, second = positroid_members(fwd), positroid_members(rev)
    assert second.necklace is rev and second.members is first.members
    rev = reverse_necklace(DecoratedPermutation.from_cycle_string("(135)(264)"))
    same = GrassmannNecklace(rev.sets, sense="reverse")
    first, second = positroid_members(rev), positroid_members(same)
    assert second.necklace is same and second.members is first.members


def test_positroid_memo_stays_bounded():
    combinatorics._member_sets.cache_clear()
    necklaces = {necklace_from_permutation(sigma) for sigma in decorated_permutations(5)}
    assert len(necklaces) > 2 * combinatorics.POSITROID_CACHE_SIZE
    for neck in necklaces:
        positroid_members(neck)
        positroid_members(neck)  # the second call reads the memo
        assert combinatorics._member_sets.cache_info().currsize <= combinatorics.POSITROID_CACHE_SIZE
    memo = combinatorics._member_sets.cache_info()
    assert memo.currsize == combinatorics.POSITROID_CACHE_SIZE and (memo.hits, memo.misses) == (len(necklaces),) * 2


def test_positroid_members_has_no_size_cap():
    # the size cap is the CLI's alone: past it the library still enumerates
    positroid = positroid_members(necklace_from_permutation(uniform_perm(1, 13)))
    assert sorted(s.elements for s in positroid.members) == [(i,) for i in range(1, 14)]
    assert list(positroid.complement()) == []


# --- crossings ----------------------------------------------------------


def test_noncrossing_examples_and_symmetry():
    assert not noncrossing(ks("13", 4), ks("24", 4))
    assert noncrossing(ks("12", 4), ks("34", 4))
    assert noncrossing(ks("124", 6), ks("456", 6))
    assert not noncrossing(ks("246", 6), ks("135", 6))
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 9)
        kk = rng.randint(1, n - 1)
        a = KSet.of(rng.sample(range(1, n + 1), kk), n)
        b = KSet.of(rng.sample(range(1, n + 1), kk), n)
        assert noncrossing(a, b) == noncrossing(b, a)


def test_mask_crossing_matches_the_chord_reference_for_n_up_to_8():
    # noncrossing tests bit masks; the reference tries every pair of chords
    reference = functools.lru_cache(maxsize=None)(chords_cross)
    for n in range(1, 9):
        subsets = [KSet(c, n) for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
        for a, b in itertools.product(subsets, repeat=2):
            assert noncrossing(a, b) == (not reference(diff(a, b), diff(b, a), n)), (a, b)


def test_connected_components_cross_no_chords_between_blocks():
    for n in range(1, 7):
        for sigma in decorated_permutations(n):
            comps = connected_components(necklace_from_permutation(sigma))
            assert sorted(e for c in comps for e in c.elements) == list(range(1, n + 1))
            for a, b in itertools.combinations(comps, 2):
                assert not chords_cross(a.elements, b.elements, n), sigma


def test_noncrossing_is_rotation_invariant():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 9)
        kk = rng.randint(1, n - 1)
        a = KSet.of(rng.sample(range(1, n + 1), kk), n)
        b = KSet.of(rng.sample(range(1, n + 1), kk), n)
        rot = lambda s: KSet.of(tuple(x % n + 1 for x in s.elements), n)
        assert noncrossing(a, b) == noncrossing(rot(a), rot(b))


def test_alignment_count_goldens():
    assert alignments(DecoratedPermutation.from_cycle_string("(135)(264)")) == 3
    assert alignments(uniform_perm(2, 4)) == 0
    assert alignments(DecoratedPermutation.of((1, 2), {1: 1, 2: -1})) == 1


# --- components ---------------------------------------------------------


def test_connected_components_goldens():
    one = connected_components(necklace_from_permutation(DecoratedPermutation.from_cycle_string("(135)(264)")))
    assert [c.elements for c in one] == [(1, 2, 3, 4, 5, 6)]

    two = connected_components(necklace_from_permutation(DecoratedPermutation.of((2, 1, 4, 3))))
    assert [c.elements for c in two] == [(1, 2), (3, 4)]

    fixed = connected_components(necklace_from_permutation(DecoratedPermutation.of((1, 2, 3), {1: 1, 2: -1, 3: 1})))
    assert [c.elements for c in fixed] == [(1,), (2,), (3,)]


def test_crossing_blocks_merge_into_one_component():
    # (13)(24) has interleaved cycles, so the whole ground set is one block
    comps = connected_components(necklace_from_permutation(DecoratedPermutation.of((3, 4, 1, 2))))
    assert [c.elements for c in comps] == [(1, 2, 3, 4)]


def test_component_necklace_agrees_with_restriction():
    # two independent routes: relabel the component permutation, or slice the
    # ambient necklace entry by entry
    sigma = DecoratedPermutation.of((3, 4, 1, 2, 7, 6, 5), {6: 1})
    neck = necklace_from_permutation(sigma)
    for comp in connected_components(neck):
        via_perm = necklace_from_permutation(comp.permutation)
        via_slice = restricted_necklace(neck, comp.elements)
        assert via_perm == via_slice
        assert comp.necklace == via_perm
