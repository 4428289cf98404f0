"""Exact numerics: minors, perfect orientations, cell sampling, identity sweeps."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    DecoratedPermutation,
    KSet,
    LaurentPoly,
    RationalMatrix,
    bridge_graph_from_permutation,
    initial_seed,
    minor,
    mutation_class,
    necklace_from_permutation,
    positroid_members,
    quiver_from_graph,
    sample_cell_point,
    verify_identities,
)
from positroids import cluster, combinatorics, numeric, plabic
from positroids.cm import k2_generator_decomposition
from positroids.combinatorics import DimensionError, ValidationError, three_term
from positroids.numeric import ConstructionError, sample_generic_matrix

from conftest import (
    SNAPSHOTS,
    corrupt_seed,
    decorated_permutations,
    gauge_rescale,
    k2_permutations,
    ks,
    labels_of,
    matrix_rank,
    minor_assignment,
    mutate_seed,
    named_cells,
    pluecker_relation_check,
    pluecker_table,
    random_decorated,
    reference_scaled_table,
    reference_verify_identities,
    uniform_perm,
)


def mask_keyed(table):
    # a reference table's column tuples as the column masks scaled_minors is keyed by
    dets, scale = table
    return {sum(1 << j for j in cols): det for cols, det in dets.items()}, scale


def det_cofactor(rows):
    # slow but independent of the integer expansion behind minor()
    if not rows:
        return Fraction(1)  # the empty determinant
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(len(rows)):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(sub)
        total += term if j % 2 == 0 else -term
    return total


# --- matrices and minors ------------------------------------------------


def test_matrix_construction_and_rank():
    m = RationalMatrix.of([[1, 0, 2], ["1/2", 1, 3]])
    assert m.k == 2 and m.n == 3
    assert matrix_rank(m) == 2
    assert matrix_rank(RationalMatrix.of([[1, 2], [2, 4]])) == 1
    with pytest.raises(DimensionError):
        RationalMatrix.of([[1, 2], [3]])
    with pytest.raises(DimensionError):
        RationalMatrix.of([[1, 2]], 3)
    empty = RationalMatrix.of([], 4)  # Gr(0, 4) keeps its column count
    assert empty.k == 0 and empty.n == 4
    assert minor(empty, KSet((), 4)) == 1
    # only exact entries: ints, Fractions and the strs of the JSON form
    assert RationalMatrix.of([[Fraction(1, 2), "1/3", 2]]) == RationalMatrix.of([["1/2", Fraction(1, 3), "2"]])
    for bad in (0.1, 1.0, True, "abc", "1/0", None, [1]):
        with pytest.raises(ValidationError, match="matrix entries"):
            RationalMatrix.of([[1, bad]])
    with pytest.raises(ValidationError):
        RationalMatrix.of([[0.1, 1.0], [True, 2]])


def test_minor_goldens():
    m = RationalMatrix.of([[1, 0, 2], [0, 1, 3]])
    assert minor(m, ks("12", 3)) == 1
    assert minor(m, ks("13", 3)) == 3
    assert minor(m, ks("23", 3)) == -2
    with pytest.raises(DimensionError):
        minor(m, ks("1", 3))


def test_minor_agrees_with_cofactor_expansion():
    rng = random.Random(47)
    for _ in range(25):
        kk = rng.randint(1, 4)
        nn = rng.randint(kk, 7)
        m = RationalMatrix.of(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(nn)] for _ in range(kk)]
        )
        cols = KSet.of(rng.sample(range(1, nn + 1), kk), nn)
        rows = [[m.rows[i][j - 1] for j in cols.elements] for i in range(kk)]
        assert minor(m, cols) == det_cofactor(rows)


@st.composite
def rational_matrices(draw):
    """Small k x n rational matrices with mixed denominators, biased toward
    zero columns, repeated columns and rank-deficient rows."""
    n = draw(st.integers(0, 6))
    k = draw(st.one_of(st.sampled_from(sorted({0, min(1, n), n})), st.integers(0, n)))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    rows = [[draw(entry) for _ in range(n)] for _ in range(k)]
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = Fraction(0)
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        for row in rows:
            row[b] = row[a]
    if k >= 2 and draw(st.booleans()):
        c, d = draw(entry), draw(entry)
        rows[-1] = [c * x + d * y for x, y in zip(rows[0], rows[1])]
    return RationalMatrix.of(rows, n)


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_pluecker_table_agrees_with_cofactor_expansion(m):
    table = pluecker_table(m)
    assert list(table) == list(itertools.combinations(range(1, m.n + 1), m.k))
    for cols, value in table.items():
        assert type(value) is Fraction
        assert value == det_cofactor([[row[j - 1] for j in cols] for row in m.rows])
        assert minor(m, KSet(cols, m.n)) == value


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_integer_rows_match_the_fraction_rows_reference(m):
    # one form per matrix: each row over the lcm of its reduced denominators
    assert all(math.gcd(d, *row) == 1 for row, d in zip(m.numerators, m.denominators))
    assert RationalMatrix.of(m.rows, m.n) == m
    assert m.scaled_minors == mask_keyed(reference_scaled_table(m))


def test_sampling_builds_each_table_once(monkeypatch, ex_135264):
    built = []
    scaled_table = numeric._scaled_table

    def counting(matrix):
        built.append(matrix)
        return scaled_table(matrix)

    monkeypatch.setattr(numeric, "_scaled_table", counting)
    g = ex_135264["graph"]
    points = tuple(sample_cell_point(g, rng_seed=i) for i in range(3))
    assert built == [p.matrix for p in points]
    generic = (sample_generic_matrix(3, 6, random.Random(4)),)
    del built[:]
    report = verify_identities(ex_135264["necklace"], ex_135264["seed"], points, generic)
    assert report["passed"] and built == []


def test_sampling_a_new_graph_analyses_no_faces_and_divides_no_minors(monkeypatch):
    analysed = []
    label_faces = plabic._label_faces
    monkeypatch.setattr(plabic, "_label_faces", lambda *args: analysed.append(args) or label_faces(*args))
    numeric._network.cache_clear()
    graph = bridge_graph_from_permutation(DecoratedPermutation.from_cycle_string("(14)(263):-"))
    point = sample_cell_point(graph, rng_seed=9)
    assert analysed == []
    # the vanishing check read the integer table, the one table a matrix caches
    assert "scaled_minors" in vars(point.matrix) and not hasattr(point.matrix, "minors")
    dets, scale = point.matrix.scaled_minors
    table = pluecker_table(point.matrix)
    assert table == {c: Fraction(dets.get(KSet(c, 6).mask, 0), scale) for c in table}


@pytest.mark.parametrize("change", ["drop", "add"])
def test_integer_vanishing_check_names_the_fraction_loops_offender(monkeypatch, ex_135264, change):
    graph = ex_135264["graph"]
    table = pluecker_table(sample_cell_point(graph, rng_seed=5).matrix)
    network = numeric._network(graph)
    members = {cols for cols in table if KSet(cols, 6).mask in network.members}
    off = min(members) if change == "drop" else min(set(table) - members)
    wrong = members - {off} if change == "drop" else members | {off}
    expected = None
    for cols, value in table.items():  # the Fraction loop the integer check replaced
        if cols in wrong and value <= 0:
            expected = f"minor {KSet(cols, 6)} should be positive, got {value}"
        elif cols not in wrong and value != 0:
            expected = f"minor {KSet(cols, 6)} should vanish, got {value}"
        if expected:
            break
    assert ("should vanish" if change == "drop" else "should be positive") in expected
    wrong_network = network._replace(members=frozenset(KSet(cols, 6).mask for cols in wrong))
    monkeypatch.setattr(numeric, "_network", lambda g: wrong_network)
    with pytest.raises(ConstructionError) as caught:
        sample_cell_point(graph, rng_seed=5)
    assert str(caught.value) == expected


@pytest.mark.parametrize("spec", ["(135)(264)", "(14)(263):-"])
def test_the_vanishing_check_refuses_negative_minors(monkeypatch, spec):
    # negating one row flips every maximal minor and keeps the zero pattern,
    # so only the sign test can catch it
    measure = numeric._measurement_matrix

    def negated(graph, weights):
        m = measure(graph, weights)
        return dataclasses.replace(m, numerators=(tuple(-a for a in m.numerators[0]), *m.numerators[1:]))

    graph = bridge_graph_from_permutation(DecoratedPermutation.from_cycle_string(spec))
    monkeypatch.setattr(numeric, "_measurement_matrix", negated)
    with pytest.raises(ConstructionError, match=r"^minor \{[\d,]+\} should be positive, got -\d"):
        sample_cell_point(graph, rng_seed=5)


def test_no_successful_path_divides_a_whole_table(ex_135264):
    # sampling, minor reads, generic draws and the sweep divide only the entries they read
    assert not hasattr(RationalMatrix, "minors")
    for spec in ("(135)(264)", "(14)(25)(36)", "(14)(263):-", "(12453)", "(13)(24)"):
        graph = bridge_graph_from_permutation(DecoratedPermutation.from_cycle_string(spec))
        matrix = sample_cell_point(graph).matrix
        for cols in itertools.combinations(range(1, matrix.n + 1), matrix.k):
            expected = det_cofactor([[row[j - 1] for j in cols] for row in matrix.rows])
            assert minor(matrix, KSet(cols, matrix.n)) == expected
    generic = tuple(sample_generic_matrix(3, 6, random.Random(s)) for s in range(2))
    points = tuple(sample_cell_point(ex_135264["graph"], rng_seed=s) for s in range(3))
    assert verify_identities(ex_135264["necklace"], ex_135264["seed"], points, generic)["passed"]


def reference_generic_matrix(k, n, rng):
    # the draw loop that tests every entry of the Fraction table
    while True:
        m = RationalMatrix.of([[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)], n)
        if all(pluecker_table(m).values()):
            return m


@pytest.mark.parametrize("n", range(7))
def test_generic_draws_match_the_full_table_reference(n):
    for k, seed in itertools.product(range(n + 1), range(3)):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        assert sample_generic_matrix(k, n, rng) == reference_generic_matrix(k, n, reference_rng)
        assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("low, high", [(1, 9), (-9, 9)])
def test_randints_replay_randint(low, high):
    for seed in range(200):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        count = seed % 41
        assert numeric._randints(rng, count, low, high) == [reference_rng.randint(low, high) for _ in range(count)]
        assert rng.getstate() == reference_rng.getstate()


def test_cell_point_weights_match_the_randint_reference():
    rng = random.Random(71)
    for _ in range(30):
        graph = bridge_graph_from_permutation(random_decorated(rng, rng.randint(2, 7)))
        rng_seed = rng.randrange(2**63)
        draw = random.Random(rng_seed)
        reference = [Fraction(draw.randint(1, 9), draw.randint(1, 9)) for _ in graph.edges]
        assert sample_cell_point(graph, rng_seed=rng_seed).weights == tuple(enumerate(reference))


def test_matrix_json_round_trip():
    m = RationalMatrix.of([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
    data = m.to_json()
    assert data == [["1/3", "2"], ["0", "-5/7"]]
    assert RationalMatrix.of(data) == m
    empty = RationalMatrix.of([], 4)  # a point of Gr(0, 4): no rows, four columns
    assert empty.to_json() == []
    assert RationalMatrix.of(empty.to_json(), 4) == empty


def test_three_term_relation_holds_for_arbitrary_matrices():
    rng = random.Random(53)
    for _ in range(30):
        kk = rng.randint(2, 4)
        nn = rng.randint(kk + 2, kk + 4)
        m = RationalMatrix.of(
            [[rng.randint(-5, 5) for _ in range(nn)] for _ in range(kk)]
        )
        rest = rng.sample(range(1, nn + 1), 4 + kk - 2)
        quad, core = sorted(rest[:4]), rest[4:]
        assert pluecker_relation_check(m, KSet.of(core, nn), *quad)


@st.composite
def three_term_cases(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k + 2, 9))
    letters = draw(st.permutations(range(1, n + 1)))
    core, quad = sorted(letters[: k - 2]), sorted(letters[k - 2 : k + 2])
    turn = draw(st.integers(0, 3))  # any rotation of a cyclic order is one
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=k, max_size=k))
    return RationalMatrix.of(rows, n), core, quad[turn:] + quad[:turn]


@settings(max_examples=200, deadline=None)
@given(three_term_cases())
def test_three_term_products_satisfy_the_relation(case):
    m, core, (a, b, c, d) = case
    n = m.n
    pairs = three_term(core, a, b, c, d, n)
    for (p, q), letters in zip(pairs, ((a, c, b, d), (a, b, c, d), (a, d, b, c))):
        assert p == KSet.of(core + list(letters[:2]), n)
        assert q == KSet.of(core + list(letters[2:]), n)
    table = pluecker_table(m)
    lhs, first, second = (table[p.elements] * table[q.elements] for p, q in pairs)
    assert lhs == first + second
    assert pluecker_relation_check(m, KSet.of(core, n), a, b, c, d)


def test_three_term_relation_rejects_overlapping_quadruples():
    m = RationalMatrix.of([[1, 0, 2, 1], [0, 1, 3, 1]])
    with pytest.raises(DimensionError):
        pluecker_relation_check(m, KSet.of((), 4), 1, 1, 2, 3)


def test_three_term_relation_needs_crossing_chords():
    m = sample_generic_matrix(3, 6, random.Random(5))
    core = KSet.of([5], 6)
    # either cyclic direction makes {a,c} and {b,d} cross, and the relation holds
    assert pluecker_relation_check(m, core, 1, 2, 3, 4)
    assert pluecker_relation_check(m, core, 4, 3, 2, 1)
    for quad in ((1, 3, 2, 4), (1, 2, 4, 3), (6, 2, 1, 3)):
        with pytest.raises(DimensionError):
            pluecker_relation_check(m, core, *quad)


def test_minor_assignment_feeds_laurent_evaluation():
    m = RationalMatrix.of([[1, 0, 1], [0, 1, 1]])
    table = minor_assignment(m, [ks("12", 3), ks("13", 3)])
    assert table == {"12": Fraction(1), "13": Fraction(1)}
    poly = LaurentPoly.monomial({"12": 2, "13": -1}, 5)
    assert poly.evaluate(table) == 5


# --- perfect orientations ----------------------------------------------


def orientation_is_perfect(graph, directed):
    colors = graph.color_map
    for v, color in colors.items():
        eids = graph.rotation_map[v]
        outs = sum(1 for e in eids if directed[e][0] == v)
        ins = sum(1 for e in eids if directed[e][1] == v)
        if color == "black" and outs != 1:
            return False
        if color == "white" and ins != 1:
            return False
    return True


def acyclic(graph, directed):
    succ = {}
    indeg = {}
    for tail, head in directed.values():
        succ.setdefault(tail, []).append(head)
        indeg[head] = indeg.get(head, 0) + 1
        indeg.setdefault(tail, 0)
    queue = [v for v in indeg if not indeg[v]]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ.get(v, []):
            indeg[w] -= 1
            if not indeg[w]:
                queue.append(w)
    return seen == len(indeg)


def test_perfect_orientations_exist_and_are_acyclic():
    rng = random.Random(59)
    for _ in range(40):
        sigma = random_decorated(rng, rng.randint(2, 8))
        g = bridge_graph_from_permutation(sigma)
        directed = dict(numeric._network(g).orientation)
        assert set(directed) == set(range(len(g.edges)))
        assert orientation_is_perfect(g, directed)
        assert acyclic(g, directed)


def test_orientation_source_count_is_the_rank(ex_135264):
    g = ex_135264["graph"]
    directed = dict(numeric._network(g).orientation)
    point = sample_cell_point(g)
    assert point.sources.k == ex_135264["sigma"].k
    assert orientation_is_perfect(g, directed)


# --- cell sampling ------------------------------------------------------


def test_sampled_points_have_the_exact_vanishing_profile(ex_135264):
    g = ex_135264["graph"]
    neck = ex_135264["necklace"]
    members = positroid_members(neck).members
    point = sample_cell_point(g, rng_seed=5)
    for combo in itertools.combinations(range(1, 7), 3):
        lab = KSet.of(combo, 6)
        value = minor(point.matrix, lab)
        if lab in members:
            assert value > 0
        else:
            assert value == 0


def test_sampling_is_deterministic_per_seed(ex_135264):
    g = ex_135264["graph"]
    assert sample_cell_point(g, rng_seed=3) == sample_cell_point(g, rng_seed=3)
    assert sample_cell_point(g, rng_seed=3) != sample_cell_point(g, rng_seed=4)


def test_graph_caches_stay_bounded():
    rng = random.Random(61)
    graphs = set()
    while len(graphs) < 2 * numeric.GRAPH_CACHE_SIZE + 3:
        graphs.add(bridge_graph_from_permutation(random_decorated(rng, rng.randint(4, 6))))
    cache = numeric._network  # the one per-graph cache: orientation, plan and positroid
    cache.cache_clear()
    for g in graphs:
        info = cache.cache_info()
        sample_cell_point(g, rng_seed=1)
        sample_cell_point(g, rng_seed=2)
        # each draw reads the network twice, once to measure and once to check;
        # the first read on a new graph is the one miss
        assert cache.cache_info()[:2] == (info.hits + 3, info.misses + 1)
        assert cache.cache_info().currsize <= numeric.GRAPH_CACHE_SIZE
    assert cache.cache_info().currsize == numeric.GRAPH_CACHE_SIZE


def test_sampling_and_verify_reuse_the_callers_positroid():
    # the vanishing check and verify read the members the caller built: no second Gale filter
    sigma = DecoratedPermutation.from_cycle_string("(135)(264)")
    numeric._network.cache_clear()
    necklace = necklace_from_permutation(sigma)
    positroid_members(necklace)
    filters = combinatorics._member_sets.cache_info().misses
    graph = bridge_graph_from_permutation(sigma)
    points = [sample_cell_point(graph, rng_seed=draw) for draw in range(3)]
    assert numeric._network.cache_info().misses == 1
    generic = [sample_generic_matrix(3, 6, random.Random(0))]
    assert verify_identities(necklace, initial_seed(quiver_from_graph(graph)), points, generic)["passed"]
    assert combinatorics._member_sets.cache_info().misses == filters


def test_minor_tables_are_mask_keyed_and_the_network_carries_the_positroid(monkeypatch):
    rng = random.Random(71)
    cells = ["(135)(264)", "(14)(263):-", "(1357)(2468)", "(1,13)(2,12)"]
    graphs = [bridge_graph_from_permutation(DecoratedPermutation.from_cycle_string(c)) for c in cells]
    matrices = [sample_cell_point(g, rng_seed=3).matrix for g in graphs]
    matrices += [sample_generic_matrix(k, n, rng) for k, n in ((1, 4), (3, 6), (4, 8), (2, 13))]
    for m in matrices:
        # each key is the int KSet.mask of its columns, holding that cofactor minor times the scale
        dets, scale = m.scaled_minors
        columns = itertools.combinations(range(1, m.n + 1), m.k)
        minors = {KSet(cols, m.n): det_cofactor([[row[j - 1] for j in cols] for row in m.rows]) for cols in columns}
        assert all(type(key) is int for key in dets)
        assert dets == {s.mask: value * scale for s, value in minors.items() if value}
    assert matrices[3].n == matrices[-1].n == 13
    for g in graphs:
        # the one cached network holds the masks of its trip permutation's positroid
        necklace = necklace_from_permutation(plabic.trip_permutation(g))
        assert numeric._network(g).members == {s.mask for s in positroid_members(necklace).members}
    calls = []
    trip = numeric.trip_permutation
    monkeypatch.setattr(numeric, "trip_permutation", lambda g: calls.append(g) or trip(g))
    sample_cell_point(graphs[0], rng_seed=4)
    assert calls == []  # a cached graph reads its positroid from its network
    numeric._network.cache_clear()
    for draw in range(3):
        sample_cell_point(graphs[1], rng_seed=draw)
    assert calls == [graphs[1]]  # a new graph traces its trips once, on its one miss


def test_resampling_a_graph_reuses_its_network(ex_135264, monkeypatch):
    graph = ex_135264["graph"]
    sample_cell_point(graph, rng_seed=1)
    original, calls = numeric._topological_order, []

    def counted(vertices, arcs):
        calls.append(1)
        return original(vertices, arcs)

    monkeypatch.setattr(numeric, "_topological_order", counted)
    point = sample_cell_point(graph, rng_seed=2)
    gauge_rescale(point, graph.internal_ids()[0], Fraction(3))
    assert calls == []


def test_points_read_orientation_and_sources_from_their_graph():
    rng = random.Random(67)
    for _ in range(20):
        graph = bridge_graph_from_permutation(random_decorated(rng, rng.randint(2, 7)))
        point = sample_cell_point(graph, rng_seed=rng.randint(0, 99))
        moved = [gauge_rescale(point, v, Fraction(5, 2)) for v in graph.internal_ids()[:1]]
        legs = {b: eid for eid, ends in enumerate(graph.edges) for b in ends if b <= graph.boundary}
        for p in [point, *moved]:
            directed = dict(numeric._network(p.graph).orientation)
            assert set(directed) == set(range(len(graph.edges)))
            assert orientation_is_perfect(graph, directed) and acyclic(graph, directed)
            cols = p.sources.elements
            assert cols == tuple(b for b in sorted(legs) if directed[legs[b]][0] == b)
            unit = [[int(i == j) for j in range(len(cols))] for i in range(len(cols))]
            assert [[row[c - 1] for c in cols] for row in p.matrix.rows] == unit


def test_explicit_weights_are_validated(ex_135264):
    g = ex_135264["graph"]
    good = {eid: Fraction(1) for eid in range(len(g.edges))}
    point = sample_cell_point(g, weights=good)
    assert dict(point.weights) == good
    with pytest.raises(ValidationError):
        sample_cell_point(g, weights={0: Fraction(1)})
    assert sample_cell_point(g, weights=dict.fromkeys(good, 1)).matrix == point.matrix
    # only exact positive rationals: a float, a str or a bool weight is refused, not coerced
    for weight in (Fraction(0), -1, 1.5, "1", True):
        with pytest.raises(ValidationError):
            sample_cell_point(g, weights={**good, 0: weight})


def test_cell_point_json_shape(ex_135264):
    data = sample_cell_point(ex_135264["graph"]).to_json()
    assert set(data) == {"matrix", "weights", "sources"}
    assert all(isinstance(w, str) for w in data["weights"].values())


def test_gauge_rescaling_fixes_every_minor(ex_135264):
    point = sample_cell_point(ex_135264["graph"], rng_seed=8)
    vertex = ex_135264["graph"].internal_ids()[0]
    moved = gauge_rescale(point, vertex, Fraction(7, 3))
    assert moved.matrix == point.matrix
    assert moved.weights != point.weights
    assert gauge_rescale(point, vertex, 3).matrix == point.matrix
    for factor in (Fraction(0), 0.5, True, "3"):
        with pytest.raises(ValidationError):
            gauge_rescale(point, vertex, factor)
    with pytest.raises(ValidationError):
        gauge_rescale(point, 1, Fraction(2))  # boundary vertex


def fraction_measurement_rows(point):
    """The boundary measurement summed over Fractions, one reach table per
    source over every vertex: the reference for the integer-pair loop."""
    graph = point.graph
    n, rot = graph.boundary, graph.rotation_map
    directed, weights = dict(numeric._network(graph).orientation), dict(point.weights)
    order = numeric._topological_order(rot, directed.values())
    outs = {v: [] for v in rot}
    for eid, (tail, head) in directed.items():
        outs[tail].append((head, eid))
    sources = point.sources.elements
    rows = []
    for i, s in enumerate(sources):
        reach = {v: Fraction(0) for v in rot}
        reach[s] = Fraction(1)
        for v in order:
            if reach[v] == 0:
                continue
            for w, eid in outs[v]:
                reach[w] += reach[v] * weights[eid]
        row = []
        for j in range(1, n + 1):
            if j in sources:
                row.append(Fraction(1) if j == s else Fraction(0))
                continue
            between = sum(1 for t in sources if min(s, j) < t < max(s, j))
            row.append(-reach[j] if between & 1 else reach[j])
        rows.append(tuple(row))
    return tuple(rows)


def test_integer_measurement_matches_the_fraction_loop():
    # every cell with n <= 6, of every rank, and the rank-two cells with n = 7
    cells = [sigma for n in range(1, 7) for sigma in decorated_permutations(n)] + list(k2_permutations(7))
    for sigma in cells:
        graph = bridge_graph_from_permutation(sigma)
        for rng_seed in (0, 17):
            point = sample_cell_point(graph, rng_seed=rng_seed)
            assert point.matrix.scaled_minors == mask_keyed(reference_scaled_table(point.matrix))
            assert point.matrix.rows == fraction_measurement_rows(point)
            assert RationalMatrix.of(point.matrix.rows, sigma.n) == point.matrix
    assert len(cells) == 2371 + 1611
    graph = bridge_graph_from_permutation(DecoratedPermutation.from_cycle_string("(1357)(2468)"))
    point = sample_cell_point(graph, rng_seed=3)
    for vertex in point.graph.internal_ids()[:4]:
        moved = gauge_rescale(point, vertex, Fraction(7, 3))
        assert moved.weights != point.weights
        assert moved.matrix.rows == fraction_measurement_rows(moved) == point.matrix.rows


def test_exchange_checks_raise_each_neighbour_to_its_multiplicity():
    # a double arrow into the pivot: x * x' = x1 ** 2 + x2 on every matrix
    labels = [ks("12", 4), ks("13", 4), ks("14", 4)]
    vertices = tuple(cluster.QuiverVertex(i, i > 0, lab) for i, lab in enumerate(labels))
    seed = initial_seed(cluster.IceQuiver(vertices, ((1, 0, 2), (0, 2, 1))))
    generic = [sample_generic_matrix(2, 4, random.Random(s)) for s in range(3)]
    assignments = [minor_assignment(m, labels) for m in generic]
    reads = []

    def value(member, vid):
        reads.append((member, vid))
        return [member.variable(vid).evaluate(a) for a in assignments]

    checks = list(numeric._exchange_checks(seed, 0, value, value(mutate_seed(seed, 0), 0)))
    assert len(checks) == 3
    assert all(lhs == rhs for _, lhs, rhs in checks)
    assert sorted(vid for member, vid in reads if member is seed) == [0, 1, 2]


def test_exchange_checks_compare_ints(monkeypatch):
    seen = []
    checks = numeric._exchange_checks
    monkeypatch.setattr(numeric, "_exchange_checks", lambda *args: (seen.append(c) or c for c in checks(*args)))
    sigma = uniform_perm(3, 6)
    g = bridge_graph_from_permutation(sigma)
    generic = tuple(sample_generic_matrix(3, 6, random.Random(s)) for s in range(2))
    seed = initial_seed(quiver_from_graph(g))
    for corrupt in (False, True):
        report = verify_identities(necklace_from_permutation(sigma), seed, (sample_cell_point(g),), generic, corrupt)
        assert report["passed"] is not corrupt
    assert len(seen) == 2 * 200 * 2
    assert all(type(lhs) is int and type(rhs) is int for _, lhs, rhs in seen)


@pytest.mark.parametrize("name, sigma", list(named_cells()), ids=[name for name, _ in named_cells()])
def test_cluster_variables_are_ints_at_integer_matrices(name, sigma):
    # the cluster algebra lies in Z[x_ij]: Laurent coefficients are integers
    # and a maximal minor's coefficients are +-1, so Gauss's lemma applies
    seed = initial_seed(quiver_from_graph(bridge_graph_from_permutation(sigma)))
    members, complete, _, _ = cluster.exchange_graph(seed, cluster.SEEDS_LIMIT)
    assert complete and len(members) == SNAPSHOTS["seed_closures"][name]
    variables = {poly for member in members for _, poly in member.variables}
    labels = [v.label for v in seed.quiver.vertices]
    for s in range(3):
        assignment = minor_assignment(sample_generic_matrix(sigma.k, sigma.n, random.Random(s)), labels)
        assert all(poly.evaluate(assignment).denominator == 1 for poly in variables)


def test_a_rational_generic_matrix_is_checked_at_its_integer_rows():
    # exchange relations are homogeneous in the minors, so rescaling a row
    # keeps every verdict
    sigma = uniform_perm(3, 6)
    g = bridge_graph_from_permutation(sigma)
    draw = sample_generic_matrix(3, 6, random.Random(4))
    third = RationalMatrix.of([[Fraction(x, 3) for x in draw.numerators[0]], *draw.numerators[1:]])
    assert third.denominators == (3, 1, 1)
    args = (necklace_from_permutation(sigma), initial_seed(quiver_from_graph(g)), (sample_cell_point(g),), (third,))
    assert verify_identities(*args)["passed"]
    bad = [e["name"] for e in verify_identities(*args, corrupt=True)["identities"] if e["failures"]]
    assert len(bad) == 1 and bad[0].endswith(":corrupted")


def test_generic_matrices_have_no_vanishing_minors():
    m = sample_generic_matrix(3, 6, random.Random(2))
    for combo in itertools.combinations(range(1, 7), 3):
        assert minor(m, KSet.of(combo, 6)) != 0


# --- identity sweeps ----------------------------------------------------


def test_identity_sweep_passes_on_the_hexagon_cell(ex_135264):
    g = ex_135264["graph"]
    points = tuple(sample_cell_point(g, rng_seed=i) for i in range(4))
    generic = tuple(sample_generic_matrix(3, 6, random.Random(i)) for i in range(3))
    report = verify_identities(ex_135264["necklace"], ex_135264["seed"], points, generic)
    assert report["passed"]
    names = {e["name"] for e in report["identities"]}
    assert "exchange:246@0" in names
    assert "restricted:245*346=234*456" in names
    assert "restricted:146*256=126*456" in names
    assert "restricted:125*146=126*145" in names
    assert "vanishing-profile" in names
    for entry in report["identities"]:
        assert not entry["failures"]
        assert entry["points_checked"] in (len(points), len(generic))


def test_identity_sweep_covers_k2_decompositions():
    # k2_generator_decomposition(24) = (13, 14, 23) is checked as a restricted entry
    sigma = DecoratedPermutation.of((2, 1, 4, 3))
    neck = necklace_from_permutation(sigma)
    g = bridge_graph_from_permutation(sigma)
    seed = initial_seed(quiver_from_graph(g))
    points = tuple(sample_cell_point(g, rng_seed=i) for i in range(3))
    generic = (sample_generic_matrix(2, 4, random.Random(0)),)
    report = verify_identities(neck, seed, points, generic)
    assert report["passed"]
    names = {e["name"] for e in report["identities"]}
    assert "restricted:13*24=14*23" in names


def test_restricted_identities_contain_every_k2_decomposition():
    # label and J are members and exactly one rerouting lies in the positroid,
    # so the relation through label * J keeps those two products and drops one
    decompositions = 0
    for n in range(3, 7):
        for sigma in k2_permutations(n):
            neck = necklace_from_permutation(sigma)
            members = positroid_members(neck).members
            restricted = {
                frozenset({frozenset(lhs), frozenset(rhs[0])})
                for _, lhs, rhs in numeric._minor_identities(neck, members)
                if len(rhs) == 1
            }
            for label in members:
                decomposition = k2_generator_decomposition(label, neck)
                if decomposition is not None:
                    j_set, l1, l2 = decomposition
                    assert frozenset({frozenset({label, j_set}), frozenset({l1, l2})}) in restricted
                    decompositions += 1
    assert decompositions == 648


def test_identity_sweep_handles_rank_one_cells():
    # no room for three-term relations when k = 1; the sweep must not choke
    sigma = DecoratedPermutation.of((2, 3, 1))
    neck = necklace_from_permutation(sigma)
    g = bridge_graph_from_permutation(sigma)
    seed = initial_seed(quiver_from_graph(g))
    points = (sample_cell_point(g),)
    generic = (sample_generic_matrix(1, 3, random.Random(0)),)
    report = verify_identities(neck, seed, points, generic)
    assert report["passed"]
    assert {e["name"] for e in report["identities"]} == {"vanishing-profile"}


def test_identity_sweep_rejects_points_of_another_shape(ex_135264):
    other = sample_cell_point(bridge_graph_from_permutation(uniform_perm(3, 7)))
    generic = (sample_generic_matrix(3, 6, random.Random(0)),)
    with pytest.raises(DimensionError):
        verify_identities(ex_135264["necklace"], ex_135264["seed"], (other,), generic)


def off_cell_report():
    # (12453) is a rank-two cell on [5]; the second point carries a generic
    # matrix, which lies off the cell
    sigma = DecoratedPermutation.from_cycle_string("(12453)")
    g = bridge_graph_from_permutation(sigma)
    point = sample_cell_point(g, rng_seed=1)
    generic = sample_generic_matrix(2, 5, random.Random(3))
    points = (point, dataclasses.replace(point, matrix=generic))
    report = verify_identities(
        necklace_from_permutation(sigma), initial_seed(quiver_from_graph(g)), points, (generic,)
    )
    return report, generic


def test_identity_sweep_names_and_order_on_a_rank_two_cell():
    report, _ = off_cell_report()
    assert [e["name"] for e in report["identities"]] == [
        "restricted:13*24=14*23",
        "restricted:13*25=15*23",
        "restricted:14*25=15*24",
        "restricted:14*35=15*34",
        "restricted:24*35=25*34",
        "vanishing-profile",
    ]


def test_identity_sweep_reports_off_cell_points():
    report, generic = off_cell_report()
    assert report["passed"] is False
    for entry in report["identities"]:
        assert entry["points_checked"] == 2
        (failure,) = entry["failures"]  # the cell point passes, the generic one fails
        assert failure["point"] == "cell:1"
        if entry["name"] == "vanishing-profile":
            assert failure == {"point": "cell:1", "lhs": [], "rhs": ["12", "45"]}
            continue
        products = [
            [minor(generic, ks(lab, 5)) for lab in side.split("*")]
            for side in entry["name"].split(":")[1].split("=")
        ]
        lhs, rhs = (x * y for x, y in products)
        assert (failure["lhs"], failure["rhs"]) == (str(lhs), str(rhs))


def test_off_cell_failures_on_a_rational_point_show_fraction_products():
    # the sweep compares integer products; a failure still reports the Fractions
    sigma = DecoratedPermutation.from_cycle_string("(12453)")
    g = bridge_graph_from_permutation(sigma)
    rows = sample_generic_matrix(2, 5, random.Random(3)).rows
    off = RationalMatrix.of([[x / 2 for x in rows[0]], [x / 3 for x in rows[1]]])
    point = dataclasses.replace(sample_cell_point(g, rng_seed=1), matrix=off)
    report = verify_identities(necklace_from_permutation(sigma), initial_seed(quiver_from_graph(g)), (point,), ())
    shown = []
    for entry in report["identities"]:
        if entry["name"].startswith("restricted:"):
            (failure,) = entry["failures"]
            products = [
                [minor(off, ks(lab, 5)) for lab in side.split("*")]
                for side in entry["name"].split(":")[1].split("=")
            ]
            lhs, rhs = (x * y for x, y in products)
            assert (failure["lhs"], failure["rhs"]) == (str(lhs), str(rhs))
            shown += [failure["lhs"], failure["rhs"]]
    assert len(shown) == 10 and any("/" in side for side in shown)


def two_pass_exchanges(seed):
    # the route the keyed sweep replaced: explore the class, then mutate
    # every (member, vertex) pair a second time
    seeds, complete = mutation_class(seed, limit=cluster.SEEDS_LIMIT)
    assert complete
    out = []
    for idx, member in enumerate(seeds):
        for vid in member.quiver.mutable_ids():
            pivot = member.quiver.vertex(vid).label
            name = pivot.label() if pivot is not None else f"v{vid}"
            mutated = mutate_seed(member, vid)
            out.append((f"exchange:{name}@{idx}", vid, member.key(), mutated.key(), mutated.variable(vid)))
    return out


@pytest.mark.parametrize(
    "sigma",
    [DecoratedPermutation.from_cycle_string(c) for c in ("(135)(264)", "(14)(25)(36)", "(1357)(2468)")]
    + [random_decorated(random.Random(s), 7) for s in range(8)],
    ids=str,
)
def test_exchange_sweep_matches_the_two_pass_reference(sigma):
    # the neighbour found by key holds the variable that mutation divides out
    seed = initial_seed(quiver_from_graph(bridge_graph_from_permutation(sigma)))
    (members, *_), exchanges = numeric._exchange_identities(seed)
    swept = [
        (name, vid, members[idx].key(), members[target].key(), members[target].variable(new))
        for name, idx, vid, target, new in exchanges
    ]
    assert swept == two_pass_exchanges(seed)


def tropical_exchanges(seed):
    # the route the facet lookup replaced: each neighbour under its key after
    # one tropical step, x' at the vertex of the neighbour's new g-vector
    members, complete = mutation_class(seed, cluster.SEEDS_LIMIT)
    assert complete
    index = {member.key(): idx for idx, member in enumerate(members)}
    out = []
    for idx, member in enumerate(members):
        for j, vid in enumerate(member.quiver.mutable_ids()):
            g_vectors = cluster._tropical_step(member, vid)[1]
            target = index[frozenset(g_vectors)]
            new = members[target].quiver.mutable_ids()[members[target].g_vectors.index(g_vectors[j])]
            pivot = member.quiver.vertex(vid).label
            name = pivot.label() if pivot is not None else f"v{vid}"
            out.append((f"exchange:{name}@{idx}", idx, vid, target, new))
    return members, out


@pytest.mark.parametrize("name, sigma", list(named_cells()), ids=[name for name, _ in named_cells()])
def test_facet_neighbours_match_the_tropical_route_on_snapshot_cells(name, sigma):
    assert "_tropical_step" not in vars(numeric)
    seed = initial_seed(quiver_from_graph(bridge_graph_from_permutation(sigma)))
    (members, *_), exchanges = numeric._exchange_identities(seed)
    reference_members, reference = tropical_exchanges(seed)
    assert len(members) == SNAPSHOTS["seed_closures"][name]
    assert [m.key() for m in members] == [m.key() for m in reference_members]
    assert exchanges == reference


def test_exchange_sweep_leaves_the_seed_key_to_cluster(monkeypatch):
    # the sweep reads each neighbour and x' from the exchange graph, so the
    # only key() call left is closure's one on the start seed
    calls = []
    key = cluster.Seed.key
    monkeypatch.setattr(cluster.Seed, "key", lambda seed: calls.append(seed) or key(seed))
    seed = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(3, 6))))
    (members, *_), exchanges = numeric._exchange_identities(seed)
    assert len(members) == 50 and len(exchanges) == 200
    assert calls == [seed]


def test_exchange_sweep_mutates_once_per_new_seed(monkeypatch):
    # Gr(3,6) top cell: 50 seeds, so 49 mutations build the class and the 200
    # exchanges read theirs from it; numeric binds no mutation of its own
    assert "mutate_seed" not in vars(numeric) and "closure" not in vars(numeric)
    calls = []
    mutate = cluster._mutate

    def counting(seed, vid, step, expansions):
        calls.append(vid)
        return mutate(seed, vid, step, expansions)

    monkeypatch.setattr(cluster, "_mutate", counting)
    sigma = uniform_perm(3, 6)
    g = bridge_graph_from_permutation(sigma)
    report = verify_identities(
        necklace_from_permutation(sigma),
        initial_seed(quiver_from_graph(g)),
        (sample_cell_point(g),),
        (sample_generic_matrix(3, 6, random.Random(0)),),
    )
    assert report["passed"]
    assert len(calls) == 49
    assert sum(e["name"].startswith("exchange:") for e in report["identities"]) == 200


def test_verify_evaluates_each_distinct_variable_once_per_matrix(monkeypatch):
    # Gr(3,6) top cell: the 50 seeds hold 45 unlabeled variables, but only 7
    # distinct Laurent polynomials, each evaluated once per generic matrix
    calls = []
    evaluate = LaurentPoly.evaluate

    def counting(poly, assignment):
        calls.append(poly)
        return evaluate(poly, assignment)

    monkeypatch.setattr(LaurentPoly, "evaluate", counting)
    sigma = uniform_perm(3, 6)
    g = bridge_graph_from_permutation(sigma)
    seed = initial_seed(quiver_from_graph(g))
    for count in (1, 3):
        calls.clear()
        generic = tuple(sample_generic_matrix(3, 6, random.Random(s)) for s in range(count))
        report = verify_identities(necklace_from_permutation(sigma), seed, (sample_cell_point(g),), generic)
        assert report["passed"]
        assert len(calls) == 7 * count and len(set(calls)) == 7


@pytest.mark.parametrize("name, sigma", list(named_cells()), ids=[name for name, _ in named_cells()])
def test_shared_values_match_the_per_seat_reference_on_snapshot_cells(name, sigma, monkeypatch):
    once = functools.lru_cache(numeric.exchange_graph)

    def exchange_graph(seed, limit):
        # both routes read one mutation class per cell, each from its own list
        graph = once(seed, limit)
        return graph._replace(members=list(graph.members))

    monkeypatch.setattr(numeric, "exchange_graph", exchange_graph)
    g = bridge_graph_from_permutation(sigma)
    args = (
        necklace_from_permutation(sigma),
        initial_seed(quiver_from_graph(g)),
        (sample_cell_point(g, rng_seed=1),),
        tuple(sample_generic_matrix(sigma.k, sigma.n, random.Random(s)) for s in range(2)),
    )
    report = verify_identities(*args)
    assert report == reference_verify_identities(*args)
    assert report["passed"]
    corrupted = verify_identities(*args, corrupt=True)
    assert corrupted == reference_verify_identities(*args, corrupt=True)
    assert not corrupted["passed"]


def test_verify_checks_the_seeds_of_the_mutation_class(monkeypatch):
    # perturb the expansion of the g-vector of one unlabeled seat of a
    # non-initial member: exactly the exchanges that read an unlabeled seat
    # with that g-vector fail, as x, as a neighbour of x, or as x'
    sigma = uniform_perm(3, 6)
    g = bridge_graph_from_permutation(sigma)
    seed = initial_seed(quiver_from_graph(g))
    clean, exchanges = numeric._exchange_identities(seed)

    def g_vector(member, vid):
        # the g-vector of an unlabeled seat, None at a labelled one
        if member.quiver.vertex(vid).label is None:
            return member.g_vectors[member.quiver.mutable_ids().index(vid)]

    perturbed = next(
        g_vector(member, v.id) for member in clean.members[1:] for v in member.quiver.vertices if v.label is None
    )
    reads = set()
    for name, idx, pivot, target, new in exchanges:
        quiver = clean.members[idx].quiver
        seats = (pivot, *(w for w, _ in quiver.arrows_in(pivot) + quiver.arrows_out(pivot)))
        if perturbed in [g_vector(clean.members[idx], w) for w in seats] + [g_vector(clean.members[target], new)]:
            reads.add(name)
    expansions = dict(clean.expansions)
    expansions[perturbed] += LaurentPoly.const(1)
    monkeypatch.setattr(numeric, "exchange_graph", lambda start, limit: clean._replace(expansions=expansions))
    report = verify_identities(
        necklace_from_permutation(sigma),
        seed,
        (sample_cell_point(g),),
        tuple(sample_generic_matrix(3, 6, random.Random(s)) for s in range(2)),
    )
    failed = {e["name"] for e in report["identities"] if e["failures"]}
    assert reads and failed == reads


def test_corrupting_a_variable_is_caught():
    # the control breaks one x', so exactly the one exchange that reads it fails
    for spec, count in (("(135)(264)", 1), ("(14)(25)(36)", 1), ("(1473625)", 5)):
        sigma = DecoratedPermutation.from_cycle_string(spec)
        g = bridge_graph_from_permutation(sigma)
        points = tuple(sample_cell_point(g, rng_seed=s) for s in range(count))
        generic = (sample_generic_matrix(sigma.k, sigma.n, random.Random(1)),)
        seed = initial_seed(quiver_from_graph(g))
        report = verify_identities(necklace_from_permutation(sigma), seed, points, generic, corrupt=True)
        assert not report["passed"]
        bad = [e for e in report["identities"] if e["failures"]]
        assert len(bad) == 1 and bad[0]["name"].endswith(":corrupted"), spec


def test_the_verify_path_builds_no_fraction_rows():
    # sampling, generic draws and the sweep, honest or corrupted, read only
    # the integer rows; the Fraction rows are built for printing
    sigma = uniform_perm(3, 6)
    g = bridge_graph_from_permutation(sigma)
    points = tuple(sample_cell_point(g, rng_seed=s) for s in range(3))
    generic = tuple(sample_generic_matrix(3, 6, random.Random(s)) for s in range(2))
    seed = initial_seed(quiver_from_graph(g))
    for corrupt in (False, True):
        report = verify_identities(necklace_from_permutation(sigma), seed, points, generic, corrupt=corrupt)
        assert report["passed"] is not corrupt
    assert all("rows" not in vars(m) for m in (*(p.matrix for p in points), *generic))


def test_verify_hashes_no_fraction(monkeypatch):
    # the shared value table is keyed by labels and int g-vectors, so it
    # hashes no Fraction
    sigma = uniform_perm(3, 6)
    g = bridge_graph_from_permutation(sigma)
    points = tuple(sample_cell_point(g, rng_seed=s) for s in range(3))
    generic = tuple(sample_generic_matrix(3, 6, random.Random(s)) for s in range(2))
    seed = initial_seed(quiver_from_graph(g))
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(x) or fraction_hash(x))
    assert verify_identities(necklace_from_permutation(sigma), seed, points, generic)["passed"]
    assert calls == []


def test_corrupting_keeps_the_tropical_data(ex_135264):
    seed = ex_135264["seed"]
    (vid,) = seed.quiver.mutable_ids()
    mutated = mutate_seed(seed, vid)
    bad = corrupt_seed(mutated, vid)
    assert (bad.c_vectors, bad.g_vectors) == (mutated.c_vectors, mutated.g_vectors) == (((-1,),), ((-1,),))
    assert bad.variable(vid) == mutated.variable(vid) + LaurentPoly.const(1)
    assert labels_of(bad)[vid] is None
