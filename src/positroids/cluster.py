"""Ice quivers, Laurent polynomials over an initial cluster, and seed mutation.

Cluster variables are stored fully expanded as Laurent polynomials in the
initial cluster's symbols (face labels of a plabic graph), with exact rational
coefficients.  Mutation divides by the departing variable with an explicit
exactness check: a nonzero remainder is a Laurent-phenomenon violation and
raises, it is never truncated or approximated.

Quivers carry a frozen flag and an optional k-subset label per vertex.  Arrows
between two frozen vertices are recorded but flagged, and every comparison made
here ignores them, matching the convention that the quiver of a graph omits
frozen-frozen arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

from positroids.combinatorics import (
    DimensionError,
    KSet,
    ValidationError,
    cyclically_ordered,
    three_term,
)


class LaurentDivisionError(ArithmeticError):
    """Division of cluster variables failed to be exact."""


class PoleError(ZeroDivisionError):
    """Evaluation hit a zero base under a negative exponent."""


T = TypeVar("T")

_Exp = frozenset  # frozenset[tuple[str, int]], omitting zero exponents


def _exp_mul(a: _Exp, b: _Exp) -> _Exp:
    out = dict(a)
    for sym, e in b:
        out[sym] = out.get(sym, 0) + e
        if out[sym] == 0:
            del out[sym]
    return frozenset(out.items())


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial: exponent map -> nonzero rational coefficient."""

    terms: tuple[tuple[_Exp, Fraction], ...]

    @classmethod
    def from_dict(cls, data: Mapping[_Exp, Fraction]) -> LaurentPoly:
        pruned = {e: c for e, c in data.items() if c != 0}
        return cls(tuple(sorted(pruned.items(), key=lambda t: sorted(t[0]))))

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coef: Fraction | int = 1) -> LaurentPoly:
        return cls.from_dict({frozenset((s, e) for s, e in exps.items() if e): Fraction(coef)})

    @classmethod
    def symbol(cls, name: str) -> LaurentPoly:
        return cls.monomial({name: 1})

    @classmethod
    def const(cls, value: Fraction | int) -> LaurentPoly:
        return cls.from_dict({frozenset(): Fraction(value)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPoly.from_dict(out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        out: dict[_Exp, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = _exp_mul(e1, e2)
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly.from_dict(out)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def symbols(self) -> frozenset[str]:
        return frozenset(s for e, _ in self.terms for s, _ in e)

    def _shift_down(self) -> tuple[dict[str, int], list[tuple[tuple[tuple[str, int], ...], Fraction]]]:
        """Factor out the componentwise-minimal monomial, leaving true polynomial terms."""
        syms = sorted(self.symbols())
        mins = {s: min(dict(e).get(s, 0) for e, _ in self.terms) for s in syms}
        shifted = []
        for e, c in self.terms:
            exp = dict(e)
            shifted.append(
                (tuple(sorted((s, exp.get(s, 0) - mins[s]) for s in syms if exp.get(s, 0) != mins[s])), c)
            )
        return mins, shifted

    def divide_exact(self, divisor: LaurentPoly) -> LaurentPoly:
        """Exact division in the Laurent ring; raises LaurentDivisionError otherwise."""
        if not divisor:
            raise LaurentDivisionError("division by zero")
        if not self:
            return LaurentPoly(())
        pm, pterms = self._shift_down()
        qm, qterms = divisor._shift_down()
        syms = sorted({s for e, _ in pterms for s, _ in e} | {s for e, _ in qterms for s, _ in e})

        def order_key(exp: _Exp) -> tuple:
            d = dict(exp)
            vec = tuple(d.get(s, 0) for s in syms)
            return (sum(vec), vec)  # graded lex, a genuine monomial order

        rem = {frozenset(e): c for e, c in pterms}
        qdict = {frozenset(e): c for e, c in qterms}
        qlead = max(qdict, key=order_key)
        qlead_c = qdict[qlead]
        quot: dict[_Exp, Fraction] = {}
        while rem:
            lead = max(rem, key=order_key)
            diff = dict(lead)
            for s, x in qlead:
                diff[s] = diff.get(s, 0) - x
            if any(x < 0 for x in diff.values()):
                raise LaurentDivisionError("nonzero remainder")
            t_exp = frozenset((s, x) for s, x in diff.items() if x)
            t_coef = rem[lead] / qlead_c
            quot[t_exp] = quot.get(t_exp, Fraction(0)) + t_coef
            for qe, qc in qdict.items():
                e = _exp_mul(t_exp, qe)
                rem[e] = rem.get(e, Fraction(0)) - t_coef * qc
                if rem[e] == 0:
                    del rem[e]
        shift = dict(pm)
        for s, m in qm.items():
            shift[s] = shift.get(s, 0) - m
        return LaurentPoly.from_dict(quot) * LaurentPoly.monomial(shift)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms:
            val = c
            for s, x in sorted(e):
                base = assignment[s]
                if base == 0 and x < 0:
                    raise PoleError(f"symbol {s} evaluates to 0 under exponent {x}")
                val *= Fraction(base) ** x
            total += val
        return total

    def fingerprint(self) -> tuple:
        return tuple((tuple(sorted(e)), c) for e, c in self.terms)

    def single_symbol(self) -> str | None:
        """Symbol name when the value is exactly one symbol, else None."""
        if len(self.terms) != 1:
            return None
        e, c = self.terms[0]
        if c != 1 or len(e) != 1:
            return None
        (s, x), = e
        return s if x == 1 else None

    def to_json(self) -> dict:
        return {
            "terms": [
                {"exp": {s: x for s, x in sorted(e)}, "coef": str(c)}
                for e, c in self.terms
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> LaurentPoly:
        out: dict[_Exp, Fraction] = {}
        for t in data["terms"]:
            e = frozenset((s, int(x)) for s, x in t["exp"].items() if int(x))
            out[e] = out.get(e, Fraction(0)) + Fraction(t["coef"])
        return cls.from_dict(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            syms = "*".join(f"[{s}]^{x}" if x != 1 else f"[{s}]" for s, x in sorted(e))
            parts.append(f"{c}" + (f"*{syms}" if syms else ""))
        return " + ".join(parts)


@dataclass(frozen=True)
class QuiverVertex:
    id: int
    frozen: bool
    label: KSet | None = None


@dataclass(frozen=True)
class IceQuiver:
    """Vertices with frozen flags plus net arrow multiplicities i -> j.

    ``arrows`` holds only positive multiplicities; a pair never appears in both
    directions.  Arrows between two frozen vertices are present in ``arrows``
    but are skipped by :meth:`core_arrows` and all derived comparisons.
    """

    vertices: tuple[QuiverVertex, ...]
    arrows: tuple[tuple[int, int, int], ...]  # (source, target, multiplicity)

    def __post_init__(self) -> None:
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate quiver vertex ids")
        known = set(ids)
        seen: set[tuple[int, int]] = set()
        for s, t, m in self.arrows:
            if s not in known or t not in known:
                raise ValidationError(f"arrow {s}->{t} references unknown vertex")
            if s == t:
                raise ValidationError(f"loop at vertex {s}")
            if m <= 0:
                raise ValidationError("arrow multiplicities must be positive")
            if (s, t) in seen or (t, s) in seen:
                raise ValidationError(f"parallel or opposing duplicate arrow {s}->{t}")
            seen.add((s, t))
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows)))

    def vertex(self, vid: int) -> QuiverVertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(vid)

    def mutable_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices if not v.frozen)

    def core_arrows(self) -> frozenset[tuple[int, int, int]]:
        """Arrows with at least one mutable endpoint (the Q-circle part)."""
        frozen = {v.id for v in self.vertices if v.frozen}
        return frozenset((s, t, m) for s, t, m in self.arrows if not (s in frozen and t in frozen))

    def arrows_in(self, vid: int) -> tuple[tuple[int, int], ...]:
        return tuple((s, m) for s, t, m in self.arrows if t == vid)

    def arrows_out(self, vid: int) -> tuple[tuple[int, int], ...]:
        return tuple((t, m) for s, t, m in self.arrows if s == vid)

    def core_key(self, names: Mapping[int, object] | None = None) -> frozenset:
        """Canonical form of the Q-circle part under a vertex naming."""
        names = names or {v.id: (v.label.label() if v.label else v.id) for v in self.vertices}
        return frozenset((names[s], names[t], m) for s, t, m in self.core_arrows())

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "frozen": v.frozen, "label": v.label.to_json() if v.label else None}
                for v in self.vertices
            ],
            "n": next((v.label.n for v in self.vertices if v.label), 0),
            "arrows": [[s, t, m] for s, t, m in self.arrows],
        }

    @classmethod
    def from_json(cls, data: dict) -> IceQuiver:
        n = data.get("n", 0)
        verts = tuple(
            QuiverVertex(v["id"], v["frozen"], KSet.of(v["label"], n) if v.get("label") is not None else None)
            for v in data["vertices"]
        )
        return cls(verts, tuple((s, t, m) for s, t, m in data["arrows"]))

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for v in sorted(self.vertices, key=lambda v: v.id):
            shape = "box" if v.frozen else "ellipse"
            name = v.label.label() if v.label else f"v{v.id}"
            lines.append(f'  v{v.id} [shape={shape}, label="{name}"];')
        for s, t, m in self.arrows:
            attr = f' [label="{m}"]' if m > 1 else ""
            lines.append(f"  v{s} -> v{t}{attr};")
        lines.append("}")
        return "\n".join(lines)


def _mutated_arrows(quiver: IceQuiver, vid: int) -> tuple[tuple[int, int, int], ...]:
    if quiver.vertex(vid).frozen:
        raise ValidationError(f"cannot mutate frozen vertex {vid}")
    net: dict[tuple[int, int], int] = {}
    ins, outs = [], []
    for s, t, m in quiver.arrows:
        if t == vid:
            ins.append((s, m))
            net[(t, s)] = m
        elif s == vid:
            outs.append((t, m))
            net[(t, s)] = m
        else:
            net[(s, t)] = m
    for i, p in ins:
        for j, q in outs:
            total = net.pop((i, j), 0) - net.pop((j, i), 0) + p * q
            if total:
                net[(i, j) if total > 0 else (j, i)] = abs(total)
    return tuple((s, t, m) for (s, t), m in net.items())


def fz_mutate_quiver(quiver: IceQuiver, vid: int) -> IceQuiver:
    """Fomin-Zelevinsky mutation at a mutable vertex k, applied to the arrows.

    Every arrow at k is reversed.  Each path i -> k -> j of multiplicities p
    and q adds p*q arrows i -> j, cancelling opposite arrows j -> i first;
    arrows away from k are unchanged.  Frozen-frozen arrows follow the same
    rule, so they stay recorded.  A frozen k raises ValidationError."""
    return IceQuiver(quiver.vertices, _mutated_arrows(quiver, vid))


@dataclass(frozen=True)
class Seed:
    """An ice quiver together with one Laurent variable per vertex."""

    quiver: IceQuiver
    variables: tuple[tuple[int, LaurentPoly], ...]

    @classmethod
    def of(cls, quiver: IceQuiver, variables: Mapping[int, LaurentPoly]) -> Seed:
        if set(variables) != {v.id for v in quiver.vertices}:
            raise ValidationError("variables must cover exactly the quiver vertices")
        return cls(quiver, tuple(sorted(variables.items())))

    def variable(self, vid: int) -> LaurentPoly:
        return dict(self.variables)[vid]

    def cluster_labels(self) -> dict[int, KSet | None]:
        return {v.id: v.label for v in self.quiver.vertices}

    def is_pure_pluecker(self) -> bool:
        return all(v.label is not None for v in self.quiver.vertices)

    def collection(self) -> frozenset[KSet]:
        labels = [v.label for v in self.quiver.vertices]
        if any(l is None for l in labels):
            raise ValidationError("seed has unlabeled vertices")
        return frozenset(labels)  # type: ignore[arg-type]

    def key(self) -> tuple:
        """Canonical identity: variable fingerprints plus the quiver on vertices
        ordered by (frozen, fingerprint)."""
        var = dict(self.variables)
        order = sorted(
            self.quiver.vertices,
            key=lambda v: (not v.frozen, var[v.id].fingerprint()),
        )
        index = {v.id: p for p, v in enumerate(order)}
        arrows = frozenset((index[s], index[t], m) for s, t, m in self.quiver.core_arrows())
        return (tuple(var[v.id].fingerprint() for v in order), arrows)

    def to_json(self) -> dict:
        data = self.quiver.to_json()
        data["variables"] = {str(vid): poly.to_json() for vid, poly in self.variables}
        return data


def initial_seed(quiver: IceQuiver) -> Seed:
    """Seed whose variables are the single-symbol monomials of the vertex labels."""
    variables = {}
    for v in quiver.vertices:
        if v.label is None:
            raise ValidationError(f"vertex {v.id} carries no label")
        variables[v.id] = LaurentPoly.symbol(v.label.label())
    return Seed.of(quiver, variables)


def _symbol_label(poly: LaurentPoly, seed: Seed) -> KSet | None:
    # recover a label when the variable collapses back to an initial symbol,
    # e.g. after mutating twice at a vertex that had left the Pluecker family
    mono = poly.single_symbol()
    if mono is None:
        return None
    for v in seed.quiver.vertices:
        if v.label is not None:
            return KSet.from_label(mono, v.label.n)
    return None


def mutate_seed(seed: Seed, vid: int) -> Seed:
    """Mutation at a mutable vertex: exchange polynomial divided exactly by the
    departing variable.  The vertex keeps a label only when the mutation is a
    square move in the quiver; otherwise it becomes unlabeled."""
    arrows = _mutated_arrows(seed.quiver, vid)
    var = dict(seed.variables)
    top = LaurentPoly.const(1)
    for w, m in seed.quiver.arrows_in(vid):
        for _ in range(m):
            top = top * var[w]
    bot = LaurentPoly.const(1)
    for w, m in seed.quiver.arrows_out(vid):
        for _ in range(m):
            bot = bot * var[w]
    new_var = (top + bot).divide_exact(var[vid])
    var[vid] = new_var

    new_label = seed_square_move(seed, vid)
    if new_label is None:
        new_label = _symbol_label(new_var, seed)
    vertices = tuple(
        replace(v, label=new_label) if v.id == vid else v for v in seed.quiver.vertices
    )
    return Seed.of(IceQuiver(vertices, arrows), var)


def closure(
    start: T, moves: Callable[[T], Iterable[T]], key: Callable[[T], Hashable], limit: int | None = None
) -> tuple[list[T], bool]:
    """Breadth-first closure of ``start`` under ``moves``, deduplicated by ``key``.

    ``moves(x)`` yields the neighbours of x; it is called once per member, in
    the order the members are returned.  Returns (members, complete): at the
    first unseen neighbour past ``limit`` members the exploration stops and
    ``complete`` is False.
    """
    members = [start]
    seen = {key(start)}
    for cur in members:  # the list is the queue: members appended here are visited in turn
        for nxt in moves(cur):
            k = key(nxt)
            if k in seen:
                continue
            if limit is not None and len(members) >= limit:
                return members, False
            seen.add(k)
            members.append(nxt)
    return members, True


def mutation_class(seed: Seed, limit: int | None = None) -> tuple[list[Seed], bool]:
    """:func:`closure` of a seed under mutation at all mutable vertices."""
    return closure(seed, lambda s: (mutate_seed(s, v) for v in s.quiver.mutable_ids()), Seed.key, limit)


def square_move_exchange(
    pivot: KSet, ins: tuple[KSet, KSet], outs: tuple[KSet, KSet]
) -> KSet | None:
    """Replacement label for a quadrilateral exchange, or None.

    ``ins`` and ``outs`` are the labels of the two incoming and two outgoing
    quiver neighbors of the pivot.  The pattern is a three-term relation
    (:func:`three_term`): a common (k-2)-set L and boundary letters a, b, c, d
    in cyclic order with pivot = Lac, where ``ins`` and ``outs`` are the two
    products {Lab, Lcd} and {Lad, Lbc}; the move replaces the pivot by Lbd.
    Collection membership of the four neighbor sets alone is not enough: a
    hexagonal face can have all four sets present without any square move
    existing, which is why the quiver neighborhood is required here.
    """
    n = pivot.n
    sides = (*ins, *outs)
    common = set(pivot.elements)
    for s in sides:
        common &= set(s.elements)
    ac = set(pivot.elements) - common
    bd = set()
    for s in sides:
        bd |= set(s.elements) - common - ac
    if len(ac) != 2 or len(bd) != 2:
        return None
    a, c = sorted(ac)
    x, y = sorted(bd)
    b, d = (x, y) if cyclically_ordered(a, x, c, y, n) else (y, x)
    if not cyclically_ordered(a, b, c, d, n):
        return None
    (_, lbd), *products = three_term(sorted(common), a, b, c, d, n)
    if {frozenset(ins), frozenset(outs)} != set(map(frozenset, products)):
        return None
    return lbd


def seed_square_move(seed: Seed, vid: int) -> KSet | None:
    """Label produced by mutation at ``vid`` when it is a square move.

    Requires the vertex and all four quiver neighbors to carry labels, with
    exactly two simple arrows in and two out matching the quadrilateral
    exchange pattern.  Returns None otherwise (the mutated variable then lies
    outside the Pluecker family)."""
    q = seed.quiver
    v = q.vertex(vid)
    if v.frozen or v.label is None:
        return None
    ins = q.arrows_in(vid)
    outs = q.arrows_out(vid)
    if len(ins) != 2 or len(outs) != 2 or any(m != 1 for _, m in (*ins, *outs)):
        return None
    labs_in = tuple(q.vertex(w).label for w, _ in ins)
    labs_out = tuple(q.vertex(w).label for w, _ in outs)
    if any(l is None for l in labs_in + labs_out):
        return None
    return square_move_exchange(v.label, labs_in, labs_out)  # type: ignore[arg-type]


def seeds_match_square_moves(seed: Seed, graph) -> bool:
    """Check, for every square-movable labeled vertex, that matrix mutation of
    the seed's quiver agrees with the quiver of the square-moved graph.

    ``graph`` must be a plabic graph whose face-label collection equals the
    seed's collection.  Comparison is on arrows with at least one mutable end,
    with vertices identified by their labels (the moved vertex by its new
    label).
    """
    from positroids import plabic  # deferred: plabic builds on this module

    labels = seed.cluster_labels()
    if any(l is None for l in labels.values()):
        raise ValidationError("seed must be fully labeled")
    collection = seed.collection()
    labeling = plabic.face_labels(graph)
    if labeling.collection() != collection:
        raise ValidationError("graph does not realize the seed's collection")
    ok = True
    for vid in seed.quiver.mutable_ids():
        new_label = seed_square_move(seed, vid)
        if new_label is None:
            continue
        moved_graph = plabic.square_move(graph, labels[vid], labeling)
        expected = plabic.quiver_from_graph(moved_graph)
        mutated = fz_mutate_quiver(seed.quiver, vid)
        names = {v.id: (v.label.label() if v.id != vid else new_label.label())
                 for v in seed.quiver.vertices}
        exp_names = {v.id: v.label.label() for v in expected.vertices}
        if mutated.core_key(names) != expected.core_key(exp_names):
            ok = False
    return ok
