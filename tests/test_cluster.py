"""Laurent polynomials, ice quivers, and seed mutation."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    DecoratedPermutation,
    IceQuiver,
    KSet,
    LaurentPoly,
    bridge_graph_from_permutation,
    initial_seed,
    mutation_class,
    plabic,
    quiver_from_graph,
)
from positroids import cluster
from positroids.cluster import (
    LaurentDivisionError,
    PoleError,
    QuiverVertex,
    Seed,
    closure,
    exchange_graph,
    square_move_exchange,
    square_move_label,
)
from positroids.combinatorics import ValidationError, cyclically_ordered

from conftest import (
    SNAPSHOTS,
    core_key,
    decorated_permutations,
    fz_mutate_quiver,
    has_core_two_cycle_or_loop,
    ks,
    labels_of,
    mutate_seed,
    named_cells,
    quiver_b,
    reference_mutation_class,
    tropical_reference,
    uniform_perm,
)


def sym(name):
    return LaurentPoly.symbol(name)


def random_laurent(rng, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, 3)):
        e = frozenset(
            (s, rng.randint(-2, 2))
            for s in rng.sample("wxyz", rng.randint(0, 3))
            if rng.random() < 0.9
        )
        e = frozenset((s, x) for s, x in e if x)
        terms[e] = terms.get(e, 0) + rng.randint(-5, 5)
    poly = LaurentPoly.from_dict(terms)
    if nonzero and not poly:
        return LaurentPoly.const(1)
    return poly


# --- Laurent ring -------------------------------------------------------


def test_laurent_basic_arithmetic():
    x, y = sym("x"), sym("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert str(LaurentPoly.monomial({"x": -1, "y": 2}, -3)) == "-3*[x]^-1*[y]^2"
    assert str(LaurentPoly.const(0)) == "0"
    assert not (p - p)
    assert len(LaurentPoly.const(5).terms) == 1
    assert {s for e, _ in (x * y).terms for s, _ in e} == {"x", "y"}


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_laurent_ring_laws(seed):
    rng = random.Random(seed)
    a, b, c = (random_laurent(rng) for _ in range(3))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_exact_division_undoes_multiplication(seed):
    rng = random.Random(seed)
    a = random_laurent(rng)
    b = random_laurent(rng, nonzero=True)
    assert (a * b).divide_exact(b) == a


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_ring_map(seed):
    rng = random.Random(seed)
    a = random_laurent(rng)
    b = random_laurent(rng)
    point = {s: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for s in "wxyz"}
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_division_failures():
    x, y = sym("x"), sym("y")
    # monomials are units here, so failure needs a divisor with two terms
    with pytest.raises(LaurentDivisionError):
        (x + LaurentPoly.const(1)).divide_exact(y + LaurentPoly.const(1))
    with pytest.raises(LaurentDivisionError):
        x.divide_exact(LaurentPoly(()))
    # dividing by a Laurent monomial always works
    q = (x + y).divide_exact(LaurentPoly.monomial({"x": -3}))
    assert q == x * x * x * x + x * x * x * y


def exp_mul_reference(a, b):
    out = dict(a)
    for sym, e in b:
        out[sym] = out.get(sym, 0) + e
        if out[sym] == 0:
            del out[sym]
    return frozenset(out.items())


def mul_reference(p, q):
    # the product over frozenset exponents, as written before the integer kernel
    out = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            e = exp_mul_reference(e1, e2)
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return LaurentPoly.from_dict(out)


def shift_down_reference(poly):
    syms = sorted({s for e, _ in poly.terms for s, _ in e})
    mins = {s: min(dict(e).get(s, 0) for e, _ in poly.terms) for s in syms}
    shifted = []
    for e, c in poly.terms:
        exp = dict(e)
        shifted.append(
            (tuple(sorted((s, exp.get(s, 0) - mins[s]) for s in syms if exp.get(s, 0) != mins[s])), c)
        )
    return mins, shifted


def divide_exact_reference(self, divisor):
    """The division as written before the integer kernel: graded-lex long
    division over frozenset exponents, rescanning the remainder each step."""
    if not divisor:
        raise LaurentDivisionError("division by zero")
    if not self:
        return LaurentPoly(())
    pm, pterms = shift_down_reference(self)
    qm, qterms = shift_down_reference(divisor)
    syms = sorted({s for e, _ in pterms for s, _ in e} | {s for e, _ in qterms for s, _ in e})

    def order_key(exp):
        d = dict(exp)
        vec = tuple(d.get(s, 0) for s in syms)
        return (sum(vec), vec)

    rem = {frozenset(e): c for e, c in pterms}
    qdict = {frozenset(e): c for e, c in qterms}
    qlead = max(qdict, key=order_key)
    qlead_c = qdict[qlead]
    quot = {}
    while rem:
        lead = max(rem, key=order_key)
        diff = dict(lead)
        for s, x in qlead:
            diff[s] = diff.get(s, 0) - x
        if any(x < 0 for x in diff.values()):
            raise LaurentDivisionError("nonzero remainder")
        t_exp = frozenset((s, x) for s, x in diff.items() if x)
        t_coef = Fraction(rem[lead]) / qlead_c  # over Q: the quotient may not be integral
        quot[t_exp] = quot.get(t_exp, Fraction(0)) + t_coef
        for qe, qc in qdict.items():
            e = exp_mul_reference(t_exp, qe)
            rem[e] = rem.get(e, Fraction(0)) - t_coef * qc
            if rem[e] == 0:
                del rem[e]
    shift = dict(pm)
    for s, m in qm.items():
        shift[s] = shift.get(s, 0) - m
    return mul_reference(LaurentPoly.from_dict(quot), LaurentPoly.monomial(shift))


def division_outcome(divide, p, q):
    try:
        return divide(p, q)
    except LaurentDivisionError:
        return "LaurentDivisionError"


def integral_division_outcome(p, q):
    """The Q-reference quotient when it lies in Z[x^+-1].  The quotient over Q
    is unique, so one with a fractional coefficient means none over Z."""
    got = division_outcome(divide_exact_reference, p, q)
    if isinstance(got, LaurentPoly) and any(Fraction(c).denominator != 1 for _, c in got.terms):
        return "LaurentDivisionError"
    return got


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_the_reference_division_and_product(seed):
    rng = random.Random(seed)
    a, b, c, noise = random_laurent(rng), random_laurent(rng, nonzero=True), random_laurent(rng), random_laurent(rng)
    one_term = LaurentPoly.monomial(
        {s: rng.randint(-2, 2) for s in rng.sample("wxyz", rng.randint(0, 3))},
        rng.choice((-1, 1)) * rng.randint(1, 6),
    )
    cases = [
        (a * b, b),
        (a * one_term, one_term),
        (a, one_term),  # a unit over Q, over Z only when its coefficient divides a's
        (a * b + noise, b),  # divisible only when the noise happens to be
        (a, b),
        (a * b, b * LaurentPoly.const(rng.randint(2, 5))),  # Q-quotients that are not integral
        (a * b + c * b, b),
        (a, LaurentPoly(())),
    ]
    for p, q in cases:
        assert p * q == mul_reference(p, q)
        got = division_outcome(LaurentPoly.divide_exact, p, q)
        assert got == integral_division_outcome(p, q)
        for poly in (got, p * q):
            if isinstance(poly, LaurentPoly):
                assert all(type(c) is int for _, c in poly.terms)


def test_kernel_coefficients_are_ints_and_fractional_quotients_raise():
    x = sym("x")
    six_x = LaurentPoly.monomial({"x": 1}, 6)
    assert str(LaurentPoly.const(6).divide_exact(LaurentPoly.const(2))) == "3"
    assert str(six_x.divide_exact(LaurentPoly.const(2))) == "3*[x]"
    assert str((x + x + x) * LaurentPoly.const(1)) == "3*[x]"
    q = (six_x + LaurentPoly.const(4)).divide_exact(LaurentPoly.monomial({"x": 2}, -2))
    assert str(q) == "-2*[x]^-2 + -3*[x]^-1"
    assert all(type(c) is int for _, c in q.terms)
    # exact over Q, so unique there, and not integral: no quotient over Z
    for p, d, over_q in (
        (LaurentPoly.const(3), LaurentPoly.const(2), "3/2"),
        (six_x + LaurentPoly.const(4), LaurentPoly.monomial({"x": 2}, 4), "1*[x]^-2 + 3/2*[x]^-1"),
    ):
        assert str(divide_exact_reference(p, d)) == over_q
        with pytest.raises(LaurentDivisionError):
            p.divide_exact(d)


def test_evaluate_pole():
    p = LaurentPoly.monomial({"x": -1})
    with pytest.raises(PoleError):
        p.evaluate({"x": Fraction(0)})


def test_single_symbol_detection():
    x = sym("x")
    assert x.single_symbol() == "x"
    assert (x * x).single_symbol() is None
    assert (x + LaurentPoly.const(1)).single_symbol() is None
    assert (LaurentPoly.const(2) * x).single_symbol() is None
    assert LaurentPoly.monomial({"x": 1, "y": 1}).single_symbol() is None


def test_laurent_json_round_trip():
    p = LaurentPoly.monomial({"124": 1, "256": -2}, -3) + sym("346")
    data = p.to_json()
    assert all(set(t) == {"exp", "coef"} for t in data["terms"])
    assert all(isinstance(t["coef"], str) for t in data["terms"])
    assert LaurentPoly.from_json(data) == p
    assert all(type(c) is int for _, c in LaurentPoly.from_json(data).terms)


@pytest.mark.parametrize(
    "term",
    [
        {"exp": {"x": 2.5}, "coef": "1"},  # int() would read 1*[x]^2
        {"exp": {"x": "a"}, "coef": "1"},
        {"exp": {"x": True}, "coef": "1"},
        {"exp": {"x": 2.0}, "coef": "1"},
        {"exp": {"x": 1}, "coef": "3/2"},
        {"exp": {"x": 1}, "coef": "a"},
        {"exp": {"x": 1}, "coef": "--1"},
        {"exp": {"x": 1}, "coef": 1},
        {"exp": {"x": 1}, "coef": 1.5},
    ],
)
def test_laurent_json_refuses_what_is_not_an_integer(term):
    with pytest.raises(ValidationError):
        LaurentPoly.from_json({"terms": [term]})


@pytest.mark.parametrize(
    "reader, data",
    [
        (LaurentPoly.from_json, {"terms": [{"exp": [1], "coef": "1"}]}),
        (LaurentPoly.from_json, {"terms": [{"coef": "1"}]}),
        (LaurentPoly.from_json, {}),
        (LaurentPoly.from_json, {"terms": 5}),
        (IceQuiver.from_json, {"vertices": [{"id": 0}], "arrows": []}),
        (IceQuiver.from_json, {"vertices": [], "arrows": [[1, 2]]}),
        (plabic.PlabicGraph.from_json, {"boundary": 1}),
        (plabic.PlabicGraph.from_json, {"boundary": 2, "vertices": [], "edges": [[1, 2, 3]], "rotation": {}}),
        (plabic.PlabicGraph.from_json, {"boundary": 1, "vertices": [], "edges": [], "rotation": {"a": [0]}}),
    ],
    ids=["exp-list", "no-exp", "no-terms", "terms-int", "no-frozen", "arrow-pair", "no-vertices", "edge-triple", "rotation-key"],
)
def test_json_readers_refuse_bad_shapes(reader, data):
    with pytest.raises(ValidationError, match="malformed"):
        reader(data)


def test_json_readers_keep_the_constructors_own_errors():
    # a payload of the right shape that breaks an invariant is not re-worded as malformed
    with pytest.raises(ValidationError, match="unknown vertex"):
        IceQuiver.from_json({"vertices": [], "arrows": [[1, 2, 1]]})


@pytest.mark.parametrize("label", [[1.5, 2], [True, 2], [1.0, 2]])
def test_quiver_json_refuses_labels_that_are_not_ints(label):
    # a label of non-ints would raise a bare TypeError on reading its mask, or pass for {1,2}
    with pytest.raises(ValidationError, match="not a strictly increasing subset"):
        IceQuiver.from_json({"vertices": [{"id": 0, "frozen": True, "label": label}], "n": 3, "arrows": []})


# --- ice quivers --------------------------------------------------------


def small_quiver():
    vs = (
        QuiverVertex(0, False, ks("13", 4)),
        QuiverVertex(1, True, ks("12", 4)),
        QuiverVertex(2, True, ks("23", 4)),
    )
    return IceQuiver(vs, ((1, 0, 1), (0, 2, 1)))


def test_quiver_validation():
    vs = (QuiverVertex(0, False, ks("13", 4)), QuiverVertex(1, True, ks("12", 4)))
    with pytest.raises(ValidationError):
        IceQuiver(vs + (QuiverVertex(0, True, ks("23", 4)),), ())
    with pytest.raises(ValidationError):
        IceQuiver(vs, ((0, 5, 1),))
    with pytest.raises(ValidationError):
        IceQuiver(vs, ((0, 0, 1),))
    with pytest.raises(ValidationError):
        IceQuiver(vs, ((0, 1, 0),))
    with pytest.raises(ValidationError):
        IceQuiver(vs, ((0, 1, 1), (0, 1, 2)))  # same pair twice; use multiplicity


def test_quiver_b_matrix_and_neighbourhoods():
    q = small_quiver()
    assert quiver_b(q, 1, 0) == 1
    assert quiver_b(q, 0, 1) == -1
    assert quiver_b(q, 1, 2) == 0
    assert q.mutable_ids() == (0,)
    assert q.arrows_in(0) == ((1, 1),)
    assert q.arrows_out(0) == ((2, 1),)
    assert not has_core_two_cycle_or_loop(q)


def test_quiver_lookups_match_a_scan_of_the_arrows():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 8)
        vs = tuple(QuiverVertex(i, rng.random() < 0.4) for i in rng.sample(range(20), m))
        ids = [v.id for v in vs]
        arrows = []
        for s, t in itertools.combinations(ids, 2):
            if rng.random() < 0.6:
                mult = rng.randint(1, 3)
                arrows.append((s, t, mult) if rng.random() < 0.5 else (t, s, mult))
        q = IceQuiver(vs, tuple(arrows))
        for v in vs:
            assert q.vertex(v.id) is v
            assert q.arrows_in(v.id) == tuple((s, mult) for s, t, mult in q.arrows if t == v.id)
            assert q.arrows_out(v.id) == tuple((t, mult) for s, t, mult in q.arrows if s == v.id)
        with pytest.raises(KeyError):
            q.vertex(20)


def test_quiver_mutation_is_an_involution():
    rng = random.Random(9)
    for _ in range(60):
        m = rng.randint(2, 6)
        vs = tuple(QuiverVertex(i, rng.random() < 0.4) for i in range(m))
        arrows = []
        for s in range(m):
            for t in range(s + 1, m):
                if rng.random() < 0.5:
                    mult = rng.randint(1, 2)
                    arrows.append((s, t, mult) if rng.random() < 0.5 else (t, s, mult))
        q = IceQuiver(vs, tuple(arrows))
        mutables = q.mutable_ids()
        if not mutables:
            continue
        v = rng.choice(mutables)
        assert fz_mutate_quiver(fz_mutate_quiver(q, v), v) == q


def test_quiver_mutation_reverses_arrows_at_the_vertex():
    q = small_quiver()
    mutated = fz_mutate_quiver(q, 0)
    assert quiver_b(mutated, 1, 0) == -1
    assert quiver_b(mutated, 0, 2) == -1
    # composite path 1 -> 0 -> 2 leaves a frozen-frozen arrow behind
    assert quiver_b(mutated, 1, 2) == 1


def full_matrix_mutation(quiver, vid):
    """Reference: b'_ij = -b_ij at the pivot k, else
    b'_ij = b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2, over every ordered pair."""
    ids = [v.id for v in quiver.vertices]
    b = {(i, j): quiver_b(quiver, i, j) for i in ids for j in ids if i != j}
    new = {}
    for (i, j), bij in b.items():
        if vid in (i, j):
            new[(i, j)] = -bij
        else:
            bik, bkj = b[(i, vid)], b[(vid, j)]
            new[(i, j)] = bij + (abs(bik) * bkj + bik * abs(bkj)) // 2
    return IceQuiver(quiver.vertices, tuple((i, j, m) for (i, j), m in new.items() if m > 0))


def test_quiver_mutation_matches_the_full_matrix_rule_on_random_quivers():
    rng = random.Random(17)
    frozen_frozen = 0
    for _ in range(300):
        m = rng.randint(1, 8)
        vs = tuple(QuiverVertex(i, rng.random() < 0.4) for i in range(m))
        arrows = []
        for s in range(m):
            for t in range(s + 1, m):
                if rng.random() < 0.6:
                    mult = rng.randint(1, 3)
                    arrows.append((s, t, mult) if rng.random() < 0.5 else (t, s, mult))
        q = IceQuiver(vs, tuple(arrows))
        frozen_frozen += len(q.arrows) - len(q.core_arrows())
        for v in q.mutable_ids():
            assert fz_mutate_quiver(q, v) == full_matrix_mutation(q, v)
    assert frozen_frozen > 0


def test_seed_mutation_matches_the_full_matrix_rule_on_gr36():
    g = bridge_graph_from_permutation(uniform_perm(3, 6))
    seeds, complete = mutation_class(initial_seed(quiver_from_graph(g)))
    assert complete
    pairs = 0
    for seed in seeds:
        for v in seed.quiver.mutable_ids():
            expected = full_matrix_mutation(seed.quiver, v)
            assert fz_mutate_quiver(seed.quiver, v) == expected
            assert mutate_seed(seed, v).quiver.arrows == expected.arrows
            pairs += 1
    assert pairs == 4 * len(seeds)


def test_mutation_at_a_frozen_vertex_is_refused():
    q = small_quiver()
    seed = initial_seed(q)
    for v in (1, 2):
        with pytest.raises(ValidationError, match="frozen"):
            fz_mutate_quiver(q, v)
        with pytest.raises(ValidationError, match="frozen"):
            mutate_seed(seed, v)


def test_seed_mutation_builds_one_quiver_and_no_exchange_matrix(monkeypatch):
    g = bridge_graph_from_permutation(uniform_perm(3, 6))
    seed = initial_seed(quiver_from_graph(g))
    built = []
    validate = IceQuiver.__post_init__
    monkeypatch.setattr(IceQuiver, "__post_init__", lambda q: built.append(q) or validate(q))
    for v in seed.quiver.mutable_ids():
        mutate_seed(seed, v)
        fz_mutate_quiver(seed.quiver, v)
    assert len(built) == 2 * len(seed.quiver.mutable_ids())


def test_quiver_json_and_dot_are_stable():
    q = small_quiver()
    assert IceQuiver.from_json(q.to_json()) == q
    assert q.to_dot() == q.to_dot()
    # the empty label of a Gr(0, n) quiver is a label, not a missing one
    empty = quiver_from_graph(bridge_graph_from_permutation(DecoratedPermutation.from_cycle_string("id:+,+")))
    assert empty.to_json()["vertices"] == [{"id": 0, "frozen": True, "label": []}]
    assert empty.to_json()["n"] == 2
    assert IceQuiver.from_json(empty.to_json()) == empty
    assert 'v0 [shape=box, label="-"];' in empty.to_dot()


# --- seeds --------------------------------------------------------------


def test_initial_seed_reads_labels_off_the_quiver():
    g = bridge_graph_from_permutation(uniform_perm(2, 4))
    seed = initial_seed(quiver_from_graph(g))
    assert seed.is_pure_pluecker()
    assert {x.label() for x in seed.collection()} == {"12", "23", "34", "14", "24"}
    for vid in seed.quiver.mutable_ids():
        assert seed.variable(vid).single_symbol() == "24"


def test_mutation_golden_short_exchange():
    g = bridge_graph_from_permutation(uniform_perm(2, 4))
    seed = initial_seed(quiver_from_graph(g))
    (vid,) = seed.quiver.mutable_ids()
    mutated = mutate_seed(seed, vid)
    # x13 * x24 = x12*x34 + x14*x23, checked as Laurent identities
    s = lambda t: LaurentPoly.symbol(t)
    assert mutated.variable(vid) * s("24") == s("12") * s("34") + s("14") * s("23")
    assert labels_of(mutated)[vid] == ks("13", 4)
    assert mutated.is_pure_pluecker()


def test_mutation_is_an_involution_on_seeds():
    g = bridge_graph_from_permutation(uniform_perm(2, 5))
    seed = initial_seed(quiver_from_graph(g))
    for vid in seed.quiver.mutable_ids():
        back = mutate_seed(mutate_seed(seed, vid), vid)
        assert back.key() == seed.key()
        assert labels_of(back) == labels_of(seed)


def test_hexagon_mutation_leaves_the_pluecker_ring(ex_135264):
    seed = ex_135264["seed"]
    (vid,) = seed.quiver.mutable_ids()
    mutated = mutate_seed(seed, vid)
    assert not mutated.is_pure_pluecker()
    assert labels_of(mutated)[vid] is None
    seeds, complete = mutation_class(seed)
    assert complete and len(seeds) == 2
    assert sum(1 for s in seeds if s.is_pure_pluecker()) == 1


def test_mutation_class_respects_limit():
    g = bridge_graph_from_permutation(uniform_perm(2, 6))
    seed = initial_seed(quiver_from_graph(g))
    full, complete = mutation_class(seed)
    assert complete and len(full) == 14
    keys = [s.key() for s in full]
    for limit in range(1, len(full) + 2):
        seeds, complete = mutation_class(seed, limit=limit)
        assert [s.key() for s in seeds] == keys[:limit]
        assert complete == (limit >= len(full))


def mutate_seed_reference(seed, vid):
    # mutation as written before the integer kernel: the exchange binomial is
    # built from public Laurent operations and divided by divide_exact
    arrows = cluster._mutated_arrows(seed.quiver, vid)
    var = dict(seed.variables)
    top = LaurentPoly.const(1)
    for w, m in seed.quiver.arrows_in(vid):
        for _ in range(m):
            top = mul_reference(top, var[w])
    bot = LaurentPoly.const(1)
    for w, m in seed.quiver.arrows_out(vid):
        for _ in range(m):
            bot = mul_reference(bot, var[w])
    new_var = (top + bot).divide_exact(var[vid])
    var[vid] = new_var
    new_label = square_move_label(seed.quiver, vid)
    if new_label is None:
        new_label = cluster._symbol_label(new_var, seed)
    vertices = tuple(
        dataclasses.replace(v, label=new_label) if v.id == vid else v for v in seed.quiver.vertices
    )
    return Seed(IceQuiver(vertices, arrows), tuple(sorted(var.items())), *tropical_reference(seed, vid))


@pytest.mark.parametrize("k, n", [(2, 7), (3, 6)])
def test_mutation_class_matches_the_reference_division(monkeypatch, k, n):
    # mutation divides inside the kernel, so the reference route swaps in the
    # old mutation, with its own tropical step, as well as the old divide_exact
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(k, n))))
    shipped, complete = mutation_class(start)
    monkeypatch.setattr(LaurentPoly, "divide_exact", divide_exact_reference)
    monkeypatch.setattr(cluster, "_mutate", lambda seed, vid, step, expansions: mutate_seed_reference(seed, vid))
    reference, reference_complete = mutation_class(start)
    assert complete and reference_complete
    assert len(shipped) == len(reference) == {7: 42, 6: 50}[n]
    for got, expected in zip(shipped, reference):
        assert got.key() == expected.key()
        assert got.to_json() == expected.to_json()
        assert all(type(c) is int for _, poly in got.variables for _, c in poly.terms)


def test_closure_calls_moves_once_per_member_in_member_order():
    # integers mod 10 under x -> x + 3 and x -> 7x
    visited, built = [], []

    def moves(x, key=lambda y: y):
        visited.append(x)
        for y in ((x + 3) % 10, (7 * x) % 10):
            yield key(y), lambda y=y: built.append(y) or y

    members, complete, neighbours = closure(1, moves, key=lambda x: x)
    assert complete and members == [1, 4, 7, 8, 0, 9, 6, 3, 2, 5]
    assert visited == members and built == members[1:]
    # per member, the index of x + 3 and of 7x, new or seen; 0 is its own 7x
    assert neighbours == [[1, 2], [2, 3], [4, 5], [0, 6], [7, 4], [8, 7], [5, 8], [6, 0], [9, 1], [3, 9]]

    visited.clear()
    built.clear()
    members, complete, neighbours = closure(1, moves, key=lambda x: x, limit=4)
    assert not complete and members == [1, 4, 7, 8]
    assert visited == [1, 4, 7]  # 7 yields 0, the first unseen number past the limit
    assert built == members[1:]
    assert neighbours == [[1, 2], [2, 3], []]  # the lists stop where the exploration stopped

    visited.clear()
    built.clear()
    members, complete, neighbours = closure(1, lambda x: moves(x, key=lambda y: y % 5), key=lambda x: x % 5)
    assert complete and members == [1, 4, 7, 8, 0] and visited == members
    assert built == members[1:]  # a neighbour with a seen key is never built
    # 9 and 6 are never built: they read the members holding 9 % 5 and 6 % 5, 4 and 1
    assert neighbours == [[1, 2], [2, 3], [4, 1], [0, 0], [3, 4]]


# --- g-vector keys -------------------------------------------------------


def test_seeds_start_with_identity_tropical_data(ex_135264):
    seed = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(3, 6))))
    identity = tuple(tuple(int(i == j) for i in range(4)) for j in range(4))
    assert seed.c_vectors == seed.g_vectors == identity
    assert seed.key() == frozenset(identity)
    assert ex_135264["seed"].g_vectors == ((1,),)


@pytest.mark.parametrize("name, sigma", list(named_cells()), ids=[name for name, _ in named_cells()])
def test_g_vector_classes_match_the_laurent_classes_on_snapshot_cells(name, sigma):
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(sigma)))
    shipped, complete = mutation_class(start)
    reference, reference_complete = reference_mutation_class(start)
    assert complete and reference_complete
    assert len(shipped) == SNAPSHOTS["seed_closures"][name]
    assert [s.to_json() for s in shipped] == [s.to_json() for s in reference]


@pytest.mark.parametrize("name, sigma", list(named_cells()), ids=[name for name, _ in named_cells()])
def test_exchange_graph_is_an_involution_on_snapshot_cells(name, sigma):
    # mutating twice at one vertex returns the seed, so each move of member i
    # reaches another member t, and exactly one move of t leads back to i
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(sigma)))
    members, complete, neighbours, _ = exchange_graph(start)
    assert complete and len(members) == len(neighbours) == SNAPSHOTS["seed_closures"][name]
    for i, row in enumerate(neighbours):
        assert len(row) == len(members[i].quiver.mutable_ids())
        for t in row:
            assert t != i and neighbours[t].count(i) == 1
    # one exchange relation per (seed, mutable vertex): rank x seeds in all
    assert sum(map(len, neighbours)) == len(start.quiver.mutable_ids()) * len(members)


@pytest.mark.parametrize("name, sigma", list(named_cells()), ids=[name for name, _ in named_cells()])
def test_every_variable_of_a_snapshot_class_has_positive_int_coefficients(name, sigma):
    # the Laurent phenomenon over Z (Fomin-Zelevinsky) with positivity (Lee-Schiffler)
    members, complete = mutation_class(initial_seed(quiver_from_graph(bridge_graph_from_permutation(sigma))))
    assert complete and len(members) == SNAPSHOTS["seed_closures"][name]
    coefficients = [c for seed in members for _, poly in seed.variables for _, c in poly.terms]
    assert coefficients and all(type(c) is int and c > 0 for c in coefficients)


@pytest.mark.parametrize("n", range(1, 7))
def test_g_vector_classes_match_the_laurent_classes_for_n_up_to_6(n):
    for sigma in decorated_permutations(n):
        start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(sigma)))
        shipped, complete = mutation_class(start, limit=100)
        reference, reference_complete = reference_mutation_class(start, limit=100)
        assert complete and reference_complete, sigma
        assert [s.to_json() for s in shipped] == [s.to_json() for s in reference], sigma


@pytest.mark.parametrize("k, n", [(2, 8), (3, 7)])
def test_c_vectors_are_sign_coherent_and_dual_to_the_g_vectors(k, n):
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(k, n))))
    seeds, complete = mutation_class(start)
    assert complete
    m = len(start.g_vectors)
    identity = [[int(i == j) for j in range(m)] for i in range(m)]
    for seed in seeds:
        assert all(min(c) >= 0 or max(c) <= 0 for c in seed.c_vectors)
        # G^T C = I, entry (i, j) being g_i . c_j
        assert [[sum(map(mul, g, c)) for c in seed.c_vectors] for g in seed.g_vectors] == identity


@pytest.mark.parametrize("k, n", [(2, 7), (3, 6)])
def test_tropical_step_matches_the_matrix_recursion_and_is_an_involution(k, n):
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(k, n))))
    seeds, _ = mutation_class(start)
    for seed in seeds:
        for vid in seed.quiver.mutable_ids():
            once = mutate_seed(seed, vid)
            assert (once.c_vectors, once.g_vectors) == tropical_reference(seed, vid)
            twice = mutate_seed(once, vid)
            assert (twice.c_vectors, twice.g_vectors) == (seed.c_vectors, seed.g_vectors)


def test_a_c_vector_that_is_not_sign_coherent_is_refused():
    seed = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(2, 5))))
    bad = dataclasses.replace(seed, c_vectors=((1, -1), (0, 1)))
    vid = seed.quiver.mutable_ids()[0]
    with pytest.raises(ValidationError, match="sign-coherent"):
        mutate_seed(bad, vid)
    with pytest.raises(ValidationError, match="sign-coherent"):
        mutation_class(bad)


@pytest.mark.parametrize("k, n, divisions", [(3, 7, 36), (2, 7, 10), (2, 8, 15), (3, 6, 12)])
def test_mutation_class_divides_only_for_unseen_keys(monkeypatch, k, n, divisions):
    # one division per g-vector the start seed does not hold: the cluster
    # variables are positive roots plus rank, 42 on Gr(3,7) (E6), 14, 20 and
    # 16 on Gr(2,7), Gr(2,8) and Gr(3,6) (A4, A5, D4), less the rank; building
    # every new seed by its own division took 832 on Gr(3,7)
    calls = []
    kdiv = cluster._kdiv
    monkeypatch.setattr(cluster, "_kdiv", lambda p, q: calls.append(q) or kdiv(p, q))
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(k, n))))
    seeds, complete = mutation_class(start)
    assert complete and len(seeds) == {(3, 7): 833, (2, 7): 42, (2, 8): 132, (3, 6): 50}[k, n]
    assert len(calls) == divisions


def test_mutation_class_takes_one_tropical_step_per_key(monkeypatch):
    # Gr(3,7): one g-vector column keys each of the 833 * 6 neighbours, and
    # only the 832 new ones take a full step, which reads its column the same way
    columns, steps = [], []
    column, step = cluster._g_column, cluster._tropical_step
    monkeypatch.setattr(cluster, "_g_column", lambda seed, vid: columns.append(vid) or column(seed, vid))
    monkeypatch.setattr(cluster, "_tropical_step", lambda seed, vid: steps.append(vid) or step(seed, vid))
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(3, 7))))
    seeds, complete = mutation_class(start)
    assert complete and len(seeds) == 833
    assert len(steps) == 832
    assert len(columns) - len(steps) == 833 * 6 == 4998
    once = mutate_seed(start, start.quiver.mutable_ids()[0])
    assert len(steps) == 833 and once.key() == seeds[1].key()


def test_mutation_class_shares_one_expansion_per_variable():
    # E6: 42 mutable cluster variables and 7 frozen ones, each one object
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(uniform_perm(3, 7))))
    seeds, complete = mutation_class(start)
    assert complete and len(seeds) == 833
    assert len({id(poly) for seed in seeds for _, poly in seed.variables}) == 42 + 7


# (positive roots, rank) of each snapshot cell's cluster type
CLUSTER_TYPES = {
    "uniform(2,4)": (1, 1),  # A1
    "uniform(2,5)": (3, 2),  # A2
    "uniform(2,6)": (6, 3),  # A3
    "uniform(2,7)": (10, 4),  # A4
    "uniform(2,8)": (15, 5),  # A5
    "uniform(3,6)": (12, 4),  # D4
    "uniform(3,7)": (36, 6),  # E6
    "(135)(264)": (1, 1),  # A1
    "disc(3,4,1,2,7,6,5)|6:+": (1, 1),  # A1
    "disc(3,4,1,2,7,8,5,6)": (2, 2),  # A1 x A1
}


@pytest.mark.parametrize("name, sigma", list(named_cells()), ids=[name for name, _ in named_cells()])
def test_g_vectors_name_the_variables_of_the_reference_class(name, sigma):
    # the certificate for one expansion per g-vector: on the route that divides
    # for every seed, mutable g-vector -> polynomial is a bijection, onto as many
    # cluster variables as the type has positive roots plus rank
    start = initial_seed(quiver_from_graph(bridge_graph_from_permutation(sigma)))
    seeds, complete = reference_mutation_class(start)
    assert complete and len(seeds) == SNAPSHOTS["seed_closures"][name]
    roots, rank = CLUSTER_TYPES[name]
    assert len(start.quiver.mutable_ids()) == rank
    polys, gs = {}, {}
    for seed in seeds:
        for g, vid in zip(seed.g_vectors, seed.quiver.mutable_ids()):
            polys.setdefault(g, set()).add(seed.variable(vid))
            gs.setdefault(seed.variable(vid), set()).add(g)
    assert all(len(p) == 1 for p in polys.values()) and all(len(g) == 1 for g in gs.values())
    assert len(polys) == len(gs) == roots + rank
    # the class's shared table is that map, entry for entry in the order met
    assert list(exchange_graph(start).expansions.items()) == [(g, p) for g, (p,) in polys.items()]


# --- square-move detection on seeds ------------------------------------


def test_square_move_exchange_golden():
    got = square_move_exchange(
        ks("24", 4),
        (ks("12", 4), ks("34", 4)),
        (ks("23", 4), ks("14", 4)),
    )
    assert got == ks("13", 4)
    # opposite sides must sit on the same arrow direction
    assert (
        square_move_exchange(
            ks("24", 4), (ks("12", 4), ks("23", 4)), (ks("34", 4), ks("14", 4))
        )
        is None
    )
    assert (
        square_move_exchange(
            ks("246", 6),
            (ks("124", 6), ks("346", 6)),
            (ks("234", 6), ks("456", 6)),
        )
        is None
    )
    # one pair on both sides is no exchange, in either order
    pair = (ks("12", 4), ks("34", 4))
    assert square_move_exchange(ks("13", 4), pair, pair) is None
    assert square_move_exchange(ks("13", 4), pair, pair[::-1]) is None


def square_move_exchange_reference(pivot, ins, outs):
    # the pattern test as written before three_term: per-side size checks,
    # then the four sides spelled out from the core
    n = pivot.n
    sides = (*ins, *outs)
    common = set(pivot.elements)
    for s in sides:
        common &= set(s.elements)
    if len(common) != pivot.k - 2:
        return None
    ac = set(pivot.elements) - common
    if len(ac) != 2:
        return None
    extra = set()
    for s in sides:
        d = set(s.elements) - common
        if len(d) != 2:
            return None
        extra |= d
    bd = extra - ac
    if len(bd) != 2 or len(extra) != 4:
        return None
    a, c = sorted(ac)
    x, y = sorted(bd)
    b, d = (x, y) if cyclically_ordered(a, x, c, y, n) else (y, x)
    if not cyclically_ordered(a, b, c, d, n):
        return None
    core = sorted(common)
    lab = KSet.of(core + [a, b], n)
    lbc = KSet.of(core + [b, c], n)
    lcd = KSet.of(core + [c, d], n)
    lad = KSet.of(core + [a, d], n)
    if {*sides} != {lab, lbc, lcd, lad}:
        return None
    if {frozenset(ins)} - {frozenset((lab, lcd)), frozenset((lbc, lad))}:
        return None
    return KSet.of(core + [b, d], n)


def random_exchange_pattern(rng):
    """A pivot and two neighbor pairs built from a core and four letters in
    random order, sometimes spoiled by a stray set, a swapped side or a
    wrong pivot."""
    n = rng.randint(4, 10)
    k = rng.randint(2, min(5, n - 2))
    letters = rng.sample(range(1, n + 1), k + 2)
    core, (w, x, y, z) = letters[: k - 2], letters[k - 2 :]

    def with_letters(p, q):
        return KSet.of(core + [p, q], n)

    sets = [with_letters(w, y), with_letters(w, x), with_letters(y, z), with_letters(x, y), with_letters(w, z)]
    if rng.random() < 0.3:
        size = rng.randint(max(0, k - 1), min(n, k + 1))
        sets[rng.randrange(5)] = KSet.of(rng.sample(range(1, n + 1), size), n)
    if rng.random() < 0.2:
        i, j = rng.randrange(1, 3), rng.randrange(3, 5)
        sets[i], sets[j] = sets[j], sets[i]
    if rng.random() < 0.2:
        sets[0] = with_letters(*rng.sample((w, x, y, z), 2))
    pivot, first, second = sets[0], (sets[1], sets[2]), (sets[3], sets[4])
    if rng.random() < 0.5:
        first, second = second, first
    if rng.random() < 0.5:
        first = first[::-1]
    return pivot, first, second


def test_square_move_exchange_matches_the_reference_on_seeded_patterns():
    rng = random.Random(2024)
    moves = 0
    for _ in range(12000):
        pivot, ins, outs = random_exchange_pattern(rng)
        got = square_move_exchange(pivot, ins, outs)
        assert got == square_move_exchange_reference(pivot, ins, outs)
        moves += got is not None
    assert moves > 1000


@pytest.mark.parametrize("k, n", [(3, 6), (3, 7)])
def test_square_move_exchange_matches_the_reference_on_top_cell_classes(k, n):
    # every (seed, mutable vertex) with a labeled pivot: each choice of two
    # labeled in-neighbors and two labeled out-neighbors, in both roles
    g = bridge_graph_from_permutation(uniform_perm(k, n))
    seeds, complete = mutation_class(initial_seed(quiver_from_graph(g)))
    assert complete
    results = []
    for seed in seeds:
        q = seed.quiver
        for vid in q.mutable_ids():
            pivot = q.vertex(vid).label
            ins = [q.vertex(w).label for w, _ in q.arrows_in(vid)]
            outs = [q.vertex(w).label for w, _ in q.arrows_out(vid)]
            if pivot is None:
                continue
            for a in itertools.combinations([lab for lab in ins if lab], 2):
                for b in itertools.combinations([lab for lab in outs if lab], 2):
                    for args in ((pivot, a, b), (pivot, b, a)):
                        got = square_move_exchange(*args)
                        assert got == square_move_exchange_reference(*args)
                        results.append(got)
    moves = [got for got in results if got is not None]
    assert (len(results), len(moves)) == {6: (472, 220), 7: (6844, 2802)}[n]


def seeds_match_square_moves(seed, graph):
    """Check, for every square-movable labeled vertex, that matrix mutation of
    the seed's quiver agrees with the quiver of the square-moved graph.

    ``graph`` must be a plabic graph whose face-label collection equals the
    seed's collection.  Comparison is on arrows with at least one mutable end,
    with vertices identified by their labels (the moved vertex by its new
    label).
    """
    labels = labels_of(seed)
    if any(l is None for l in labels.values()):
        raise ValidationError("seed must be fully labeled")
    collection = seed.collection()
    labeling = plabic.face_labels(graph)
    if labeling.collection() != collection:
        raise ValidationError("graph does not realize the seed's collection")
    ok = True
    for vid in seed.quiver.mutable_ids():
        new_label = square_move_label(seed.quiver, vid)
        if new_label is None:
            continue
        moved_graph = plabic.square_move(labeling, labels[vid])
        expected = plabic.quiver_from_graph(moved_graph)
        mutated = fz_mutate_quiver(seed.quiver, vid)
        names = {v.id: (v.label.label() if v.id != vid else new_label.label())
                 for v in seed.quiver.vertices}
        exp_names = {v.id: v.label.label() for v in expected.vertices}
        if core_key(mutated, names) != core_key(expected, exp_names):
            ok = False
    return ok


def test_seed_square_move_matches_graph_moves():
    g = bridge_graph_from_permutation(uniform_perm(2, 4))
    seed = initial_seed(quiver_from_graph(g))
    (vid,) = seed.quiver.mutable_ids()
    assert square_move_label(seed.quiver, vid) == ks("13", 4)
    for kk, nn in [(2, 5), (2, 6)]:
        gg = bridge_graph_from_permutation(uniform_perm(kk, nn))
        assert seeds_match_square_moves(initial_seed(quiver_from_graph(gg)), gg)


def test_hexagon_seed_has_no_square_move(ex_135264):
    seed = ex_135264["seed"]
    (vid,) = seed.quiver.mutable_ids()
    assert square_move_label(seed.quiver, vid) is None
