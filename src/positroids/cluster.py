"""Ice quivers, Laurent polynomials over an initial cluster, and seed mutation.

Cluster variables are stored fully expanded as Laurent polynomials in the
initial cluster's symbols (face labels of a plabic graph), with ``int``
coefficients: by the Laurent phenomenon (Fomin-Zelevinsky) every variable that
mutation reaches lies in Z[x^+-1].  Products and divisions run in one integer
kernel over int exponent tuples.  Mutation divides by the departing variable
with an explicit exactness check: a nonzero remainder over Z raises, it is
never truncated or approximated.

Seeds are keyed by integer g-vectors (Nakanishi-Zelevinsky recursion): the mutation
class keys a neighbour by its one new column and divides once per g-vector.

Quivers carry a frozen flag and an optional k-subset label per vertex.  Arrows
between two frozen vertices are recorded but flagged, and every comparison made
here ignores them, matching the convention that the quiver of a graph omits
frozen-frozen arrows.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, lt, neg, sub
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, TypeVar

from positroids.combinatorics import KSet, ValidationError, masks_cross


class LaurentDivisionError(ArithmeticError):
    """Division of cluster variables failed to be exact."""


class PoleError(ZeroDivisionError):
    """Evaluation hit a zero base under a negative exponent."""


T = TypeVar("T")

_Exp = frozenset  # frozenset[tuple[str, int]], omitting zero exponents
_Packed = dict  # dict[tuple[int, ...], int]: exponent vector -> nonzero coefficient


def _pack(*polys: LaurentPoly) -> tuple[tuple[str, ...], list[_Packed]]:
    """Index the symbols of ``polys`` once, sorted by name, and write each
    polynomial over that index."""
    syms = tuple(sorted({s for p in polys for e, _ in p.terms for s, _ in e}))
    pos = {s: i for i, s in enumerate(syms)}
    packed = [{} for _ in polys]
    for p, out in zip(polys, packed):
        for e, c in p.terms:
            vec = [0] * len(syms)
            for s, x in e:
                vec[pos[s]] = x
            out[tuple(vec)] = c
    return syms, packed


def _unpack(syms: tuple[str, ...], data: _Packed) -> LaurentPoly:
    # pairs over sorted symbols come out sorted: the order from_dict gives terms
    rows = sorted(([(s, x) for s, x in zip(syms, vec) if x], c) for vec, c in data.items())
    return LaurentPoly(tuple((frozenset(pairs), c) for pairs, c in rows))


def _kmul(a: _Packed, b: _Packed) -> _Packed:
    out: _Packed = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _kdiv(p: _Packed, q: _Packed) -> _Packed:
    """Exact quotient p / q in Z[x^+-1], or LaurentDivisionError.

    Long division in graded-lex order.  Shifted down by their componentwise
    minima, p and q are polynomials, so a quotient exponent must stay at or
    above ``shift``; each quotient term is final when made, and the quotient
    over Q is unique, so a term that is not integral means none over Z.  Candidate leading terms wait in a heap under negated
    keys; an entry whose term has cancelled since is skipped.
    """
    if not q:
        raise LaurentDivisionError("division by zero")
    if not p:
        return {}
    shift = tuple(map(sub, map(min, zip(*p)), map(min, zip(*q))))
    lead = max(q, key=lambda e: (sum(e), e))
    lead_c = q[lead]
    rest = [(e, c) for e, c in q.items() if e != lead]
    rem = dict(p)
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
    heapq.heapify(heap)
    quot: _Packed = {}
    while heap:
        e = heapq.heappop(heap)[2]
        c = rem.pop(e, 0)
        if not c:
            continue
        t = tuple(map(sub, e, lead))
        tc, r = divmod(c, lead_c)
        if r or any(map(lt, t, shift)):
            raise LaurentDivisionError("nonzero remainder")
        quot[t] = tc
        for qe, qc in rest:
            f = tuple(map(add, t, qe))
            old = rem.get(f)
            new = (old or 0) - tc * qc
            if not new:
                del rem[f]
            else:
                rem[f] = new
                if old is None:
                    heapq.heappush(heap, (-sum(f), tuple(map(neg, f)), f))
    return quot


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse Laurent polynomial: exponent map -> nonzero integer coefficient."""

    terms: tuple[tuple[_Exp, int], ...]

    @classmethod
    def from_dict(cls, data: Mapping[_Exp, int]) -> LaurentPoly:
        return cls(tuple(sorted(((e, c) for e, c in data.items() if c), key=lambda t: sorted(t[0]))))

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coef: int = 1) -> LaurentPoly:
        return cls.from_dict({frozenset((s, e) for s, e in exps.items() if e): coef})

    @classmethod
    def symbol(cls, name: str) -> LaurentPoly:
        return cls.monomial({name: 1})

    @classmethod
    def const(cls, value: int) -> LaurentPoly:
        return cls.from_dict({frozenset(): value})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        syms, (a, b) = _pack(self, other)
        return _unpack(syms, _kmul(a, b))

    def divide_exact(self, divisor: LaurentPoly) -> LaurentPoly:
        """Exact division in the Laurent ring; raises LaurentDivisionError otherwise."""
        syms, (p, q) = _pack(self, divisor)
        return _unpack(syms, _kdiv(p, q))

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
        out: dict[_Exp, int] = {}
        try:
            for t in data["terms"]:
                exp, coef = t["exp"], t["coef"]
                bad_coef = type(coef) is not str or not coef.removeprefix("-").isdecimal()
                if bad_coef or any(type(x) is not int for x in exp.values()):  # JSON true or 2.5 is no exponent
                    raise ValidationError(f"exponents must be integers and coef an integer string, got {t!r}")
                e = frozenset((s, x) for s, x in exp.items() if x)
                out[e] = out.get(e, 0) + int(coef)
        except (AttributeError, KeyError, TypeError):
            raise ValidationError(f"malformed Laurent polynomial JSON: {data!r}") from None
        return cls.from_dict(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            syms = "*".join(f"[{s}]^{x}" if x != 1 else f"[{s}]" for s, x in sorted(e))
            parts.append(f"{c}" + (f"*{syms}" if syms else ""))
        return " + ".join(parts)


_SOURCE, _TARGET = itemgetter(0), itemgetter(1)


def _run(arrows: tuple[tuple[int, int, int], ...], end: Callable, vid: int) -> tuple:
    """The arrows whose ``end`` is ``vid``, from arrows sorted by that end."""
    return arrows[bisect_left(arrows, vid, key=end) : bisect_right(arrows, vid, key=end)]


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

    @cached_property
    def _index(self) -> tuple[dict[int, QuiverVertex], tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        """(id -> vertex, the arrows sorted by target, the mutable ids).  ``arrows`` is
        sorted by source, so a vertex's out- and in-arrows are runs found by bisection."""
        mutable = tuple(v.id for v in self.vertices if not v.frozen)
        return {v.id: v for v in self.vertices}, tuple(sorted(self.arrows, key=_TARGET)), mutable

    def vertex(self, vid: int) -> QuiverVertex:
        return self._index[0][vid]

    def mutable_ids(self) -> tuple[int, ...]:
        return self._index[2]

    def core_arrows(self) -> frozenset[tuple[int, int, int]]:
        """Arrows with at least one mutable endpoint (the Q-circle part)."""
        frozen = {v.id for v in self.vertices if v.frozen}
        return frozenset((s, t, m) for s, t, m in self.arrows if not (s in frozen and t in frozen))

    def arrows_in(self, vid: int) -> tuple[tuple[int, int], ...]:
        return tuple((s, m) for s, _, m in _run(self._index[1], _TARGET, vid))

    def arrows_out(self, vid: int) -> tuple[tuple[int, int], ...]:
        return tuple((t, m) for _, t, m in _run(self.arrows, _SOURCE, vid))

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "frozen": v.frozen, "label": v.label.to_json() if v.label is not None else None}
                for v in self.vertices
            ],
            "n": next((v.label.n for v in self.vertices if v.label is not None), 0),
            "arrows": [[s, t, m] for s, t, m in self.arrows],
        }

    @classmethod
    def from_json(cls, data: dict) -> IceQuiver:
        try:
            n = data.get("n", 0)
            verts = tuple(
                QuiverVertex(v["id"], v["frozen"], KSet.of(v["label"], n) if v.get("label") is not None else None)
                for v in data["vertices"]
            )
            if any(len(arrow) != 3 for arrow in data["arrows"]):  # unpacking would raise a bare ValueError
                raise ValidationError(f"malformed quiver JSON: {data!r}")
            return cls(verts, tuple((s, t, m) for s, t, m in data["arrows"]))
        except (AttributeError, KeyError, TypeError):
            raise ValidationError(f"malformed quiver JSON: {data!r}") from None

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for v in sorted(self.vertices, key=lambda v: v.id):
            shape = "box" if v.frozen else "ellipse"
            name = v.label.label() if v.label is not None else f"v{v.id}"
            lines.append(f'  v{v.id} [shape={shape}, label="{name}"];')
        for s, t, m in self.arrows:
            attr = f' [label="{m}"]' if m > 1 else ""
            lines.append(f"  v{s} -> v{t}{attr};")
        lines.append("}")
        return "\n".join(lines)


def _mutated_arrows(quiver: IceQuiver, vid: int) -> tuple[tuple[int, int, int], ...]:
    """Fomin-Zelevinsky mutation of the arrows at mutable ``vid``: arrows at it reverse,
    each path i -> vid -> j adds p*q arrows i -> j after cancelling j -> i; frozen-frozen
    arrows follow the same rule, so they stay recorded."""
    if quiver.vertex(vid).frozen:
        raise ValidationError(f"cannot mutate frozen vertex {vid}")
    net: dict[tuple[int, int], tuple[int, int, int]] = {}
    for arrow in quiver.arrows:  # an arrow off the pivot keeps its tuple
        s, t, m = arrow
        net[(t, s) if vid in (s, t) else (s, t)] = (t, s, m) if vid in (s, t) else arrow
    for i, p in quiver.arrows_in(vid):
        for j, q in quiver.arrows_out(vid):
            total = p * q + net.pop((i, j), (0, 0, 0))[2] - net.pop((j, i), (0, 0, 0))[2]
            if total:
                arrow = (i, j, total) if total > 0 else (j, i, -total)
                net[arrow[:2]] = arrow
    return tuple(net.values())


@dataclass(frozen=True)
class Seed:
    """An ice quiver, one Laurent variable per vertex, and the C- and G-matrices
    by columns, under principal framing over ``quiver.mutable_ids()``."""

    quiver: IceQuiver
    variables: tuple[tuple[int, LaurentPoly], ...]
    c_vectors: tuple[tuple[int, ...], ...]
    g_vectors: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, quiver: IceQuiver, variables: Mapping[int, LaurentPoly]) -> Seed:
        if set(variables) != {v.id for v in quiver.vertices}:
            raise ValidationError("variables must cover exactly the quiver vertices")
        eye = tuple(tuple(int(i == j) for i in quiver.mutable_ids()) for j in quiver.mutable_ids())
        return cls(quiver, tuple(sorted(variables.items())), eye, eye)

    def variable(self, vid: int) -> LaurentPoly:
        return dict(self.variables)[vid]

    def is_pure_pluecker(self) -> bool:
        return all(v.label is not None for v in self.quiver.vertices)

    def collection(self) -> frozenset[KSet]:
        labels = [v.label for v in self.quiver.vertices]
        if any(l is None for l in labels):
            raise ValidationError("seed has unlabeled vertices")
        return frozenset(labels)  # type: ignore[arg-type]

    def key(self) -> frozenset[tuple[int, ...]]:
        """Canonical identity: the mutable g-vectors, which tell cluster
        variables apart (Fomin-Zelevinsky IV) and so determine the seed."""
        return frozenset(self.g_vectors)

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


def _g_column(seed: Seed, vid: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(k, side, g'_k) for mutation at ``vid``, the k-th mutable vertex.  ``side`` holds (j, m)
    for the mutable j on arrows k -> j if the sign-coherent c-vector c_k is positive,
    j -> k if negative; g'_k = -g_k + Σ m·g_j over it is the one G-column that changes."""
    if seed.quiver.vertex(vid).frozen:
        raise ValidationError(f"cannot mutate frozen vertex {vid}")
    ids, gs = seed.quiver.mutable_ids(), seed.g_vectors
    c = seed.c_vectors[k := ids.index(vid)]
    if min(c) < 0 < max(c):
        raise ValidationError(f"c-vector {c} of vertex {vid} is not sign-coherent")
    arrows = seed.quiver.arrows_out(vid) if max(c) > 0 else seed.quiver.arrows_in(vid)
    side = tuple((ids.index(w), m) for w, m in arrows if w in ids)
    return k, side, tuple(map(sum, zip(map(neg, gs[k]), *([m * x for x in gs[j]] for j, m in side))))


def _tropical_step(seed: Seed, vid: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """C- and G-matrix columns after mutation at mutable ``vid``, by the Nakanishi-Zelevinsky
    recursion C' = C(J_k + [εB]₊^{k•}), G' = G(J_k + [-εB]₊^{•k}), ε the sign of c_k: G changes
    in the :func:`_g_column`, C in column k (negated) and in each column j of its side (+ m·c_k)."""
    k, side, g = _g_column(seed, vid)
    cs, gs = list(seed.c_vectors), list(seed.g_vectors)
    for j, m in side:
        cs[j] = tuple(a + m * b for a, b in zip(cs[j], cs[k]))
    cs[k], gs[k] = tuple(map(neg, cs[k])), g
    return tuple(cs), tuple(gs)


def _mutate(seed: Seed, vid: int, step: tuple, expansions: dict[tuple[int, ...], LaurentPoly]) -> Seed:
    # ``expansions`` maps g-vectors to variables: divide only for a g-vector it lacks.
    # The vertex keeps a label only for a square move or a variable that is one initial symbol.
    arrows = _mutated_arrows(seed.quiver, vid)
    g = step[1][seed.quiver.mutable_ids().index(vid)]
    if g not in expansions:
        var = dict(seed.variables)
        sides = (seed.quiver.arrows_in(vid), seed.quiver.arrows_out(vid))
        ids = [w for side in sides for w, _ in side]
        syms, (old, *near) = _pack(var[vid], *(var[w] for w in ids))
        packed = dict(zip(ids, near))
        binomial: _Packed = {}
        for side in sides:
            product = {(0,) * len(syms): 1}
            for w, m in side:
                for _ in range(m):
                    product = _kmul(product, packed[w])
            for e, c in product.items():
                binomial[e] = binomial.get(e, 0) + c
        expansions[g] = _unpack(syms, _kdiv({e: c for e, c in binomial.items() if c}, old))
    new_var = expansions[g]
    new_label = square_move_label(seed.quiver, vid) or _symbol_label(new_var, seed)
    # every other vertex and (id, variable) pair is shared with ``seed``
    vertices = tuple(
        replace(v, label=new_label) if v.id == vid else v for v in seed.quiver.vertices
    )
    variables = tuple((vid, new_var) if pair[0] == vid else pair for pair in seed.variables)
    return Seed(IceQuiver(vertices, arrows), variables, *step)


def closure(
    start: T, moves: Callable[[T], Iterable[tuple]], key: Callable[[T], Hashable], limit: int | None = None
) -> tuple[list[T], bool, list[list[int]]]:
    """Breadth-first closure of ``start`` under ``moves``, deduplicated by key.

    ``moves(x)`` yields a (key, build) pair per neighbour of x, and ``build()``
    makes the neighbour only for a new key.  ``moves`` is called once per
    member, in member order; ``key(start)`` keys the start.  Returns (members,
    complete, neighbours): ``neighbours[i]`` lists, in move order, the member
    index that each move of member i reaches, new or seen.  Past ``limit`` members,
    the first unseen neighbour stops the exploration and the lists; ``complete`` is False.
    """
    members, neighbours = [start], []
    seen = {key(start): 0}  # key -> index of the member that holds it
    for cur in members:  # the list is the queue: members appended here are visited in turn
        neighbours.append(row := [])
        for k, build in moves(cur):
            if k not in seen:
                if limit is not None and len(members) >= limit:
                    return members, False, neighbours
                seen[k] = len(members)
                members.append(build())
            row.append(seen[k])
    return members, True, neighbours


# Seeds of a class kept before ``seeds`` marks it partial and ``verify``
# refuses it: an infinite class stops, and Gr(3,7)'s 833 seeds fit.
SEEDS_LIMIT = 1000


class ExchangeGraph(NamedTuple):
    """A seed's mutation class: :func:`closure`'s members, completeness and neighbour
    lists, and ``expansions``, in the order met, the one Laurent expansion per
    mutable g-vector, the object that every seat with that g-vector holds."""

    members: list[Seed]
    complete: bool
    neighbours: list[list[int]]
    expansions: dict[tuple[int, ...], LaurentPoly]


def exchange_graph(seed: Seed, limit: int | None = None) -> ExchangeGraph:
    """:func:`closure` of a seed under mutation at each of its ``mutable_ids``, in order, keyed
    by the g-vectors with the one :func:`_g_column` replaced; only a new key is built, by a full
    :func:`_tropical_step`.  Distinct cluster variables have distinct g-vectors (Fomin-Zelevinsky
    IV), so the g-vector names a variable: the class divides once per g-vector."""
    expansions = {g: seed.variable(v) for g, v in zip(seed.g_vectors, seed.quiver.mutable_ids())}

    def moves(s: Seed):
        for v in s.quiver.mutable_ids():
            k, _, g = _g_column(s, v)
            key = frozenset((*s.g_vectors[:k], g, *s.g_vectors[k + 1 :]))
            yield key, lambda v=v: _mutate(s, v, _tropical_step(s, v), expansions)

    return ExchangeGraph(*closure(seed, moves, Seed.key, limit), expansions)


def mutation_class(seed: Seed, limit: int | None = None) -> tuple[list[Seed], bool]:
    """(members, complete) of :func:`exchange_graph`; its readers that need the
    neighbours or the expansions take the graph itself."""
    return exchange_graph(seed, limit)[:2]


def square_move_exchange(
    pivot: KSet, ins: tuple[KSet, KSet], outs: tuple[KSet, KSet]
) -> KSet | None:
    """Replacement label for a quadrilateral exchange, or None.

    ``ins`` and ``outs`` are the labels of the two incoming and two outgoing
    quiver neighbors of the pivot.  The pattern is a three-term relation
    (``three_term``), tested on bit masks: a common (k-2)-set L and boundary
    letters a, b, c, d in cyclic order with pivot = Lac, where ``ins`` and
    ``outs`` are the two products {Lab, Lcd} and {Lad, Lbc}; the move replaces
    the pivot by Lbd.
    Collection membership of the four neighbor sets alone is not enough: a
    hexagonal face can have all four sets present without any square move
    existing, which is why the quiver neighborhood is required here.

    >>> lab = lambda text: KSet.from_label(text, 4)
    >>> square_move_exchange(lab("24"), (lab("12"), lab("34")), (lab("23"), lab("14"))).label()
    '13'
    """
    p = pivot.mask
    (i, j), (o, r) = pairs = [(x.mask, y.mask) for x, y in (ins, outs)]
    low = p & i & j & o & r
    ac, bd = p & ~low, (i | j | o | r) & ~p
    if ac.bit_count() != 2 or bd.bit_count() != 2 or not masks_cross(ac, bd) or {i, j} == {o, r}:
        return None
    for x, y in pairs:  # L plus two of a, b, c, d each, together L plus all four; not Lac with Lbd
        if x | y != low | ac | bd or x & y != low or (x & ~low).bit_count() != 2 or p in (x, y):
            return None
    return KSet.from_mask(low | bd, pivot.n)


def square_move_label(quiver: IceQuiver, vid: int) -> KSet | None:
    """Label produced by mutation at ``vid`` when it is a square move.

    Requires the vertex and all four quiver neighbors to carry labels, with
    exactly two simple arrows in and two out matching the quadrilateral
    exchange pattern.  Returns None otherwise (the mutated variable then lies
    outside the Pluecker family).  Seed mutation and the plabic square-move
    closure both read a label from here."""
    vertex, by_target, _ = quiver._index
    v = vertex[vid]
    if v.frozen or v.label is None:
        return None
    ins, outs = _run(by_target, _TARGET, vid), _run(quiver.arrows, _SOURCE, vid)
    if len(ins) != 2 or len(outs) != 2:
        return None
    (a, _, ma), (b, _, mb), (_, c, mc), (_, d, md) = *ins, *outs
    labs = vertex[a].label, vertex[b].label, vertex[c].label, vertex[d].label
    if (ma, mb, mc, md) != (1, 1, 1, 1) or any(lab is None for lab in labs):
        return None
    return square_move_exchange(v.label, labs[:2], labs[2:])  # type: ignore[arg-type]
