"""Decorated permutations, Grassmann necklaces and positroids on the cyclic ground set [n].

Conventions used throughout the package:

* The ground set is [n] = {1, ..., n} with its cyclic order.  The shifted linear
  order <_i reads  i <_i i+1 <_i ... <_i i-1  (indices mod n).
* A decorated permutation is a bijection sigma of [n] whose fixed points each
  carry a color +1 or -1.
* The Grassmann necklace of sigma is I_i = {j : sigma^-1(j) >_i j} together with
  all fixed points colored -1.  Its sets all have the same size k, the number of
  weak anti-exceedances of sigma.
* k-subsets are compared in the Gale order <=_i: sort both sides by <_i and
  compare componentwise; equivalently, each cyclic interval [i, i+t) holds at
  least as many elements of the left side as of the right.  The positroid of
  a necklace N is {J : I_i <=_i J for every i}: the intersection of n shifted
  Schubert matroids (Oh, arXiv:0803.1018), cut out by the interval counts
  |J n [i, i+t)| <= |I_i n [i, i+t)|, which are tested on bit masks.

Everything here is exact integer combinatorics; no floating point appears
anywhere in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence


class DimensionError(ValueError):
    """Operands live on different ground sets or have different ranks."""


class ValidationError(ValueError):
    """Structured input violates a defining invariant."""


def cyclic_pos(i: int, j: int, n: int) -> int:
    """Position of j in the shifted order <_i, i.e. (j - i) mod n.

    >>> [cyclic_pos(3, j, 4) for j in (3, 4, 1, 2)]
    [0, 1, 2, 3]
    """
    return (j - i) % n


def cyclically_ordered(a: int, b: int, c: int, d: int, n: int) -> bool:
    """True when the four distinct values appear in the order a, b, c, d around the cycle."""
    return cyclic_pos(a, b, n) < cyclic_pos(a, c, n) < cyclic_pos(a, d, n)


@dataclass(frozen=True, order=True)
class KSet:
    """A k-element subset of [n], stored sorted in the natural order.  Its
    hash, that of ``(elements, n)``, is computed once, at construction."""

    elements: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 0:  # JSON true and 2.0 compare equal to 1 and 2
            raise ValidationError(f"ground set size must be a nonnegative integer, got {self.n!r}")
        prev = 0
        for e in self.elements:
            if type(e) is not int or not prev < e <= self.n:
                raise ValidationError(f"{self.elements} is not a strictly increasing subset of [{self.n}]")
            prev = e
        object.__setattr__(self, "_hash", hash((self.elements, self.n)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, elements: Iterable[int], n: int) -> KSet:
        return cls(tuple(sorted(set(elements))), n)

    @property
    def k(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, j: int) -> bool:
        return j in self.elements

    def sorted_by(self, i: int) -> tuple[int, ...]:
        """Elements listed in the shifted order <_i."""
        return tuple(sorted(self.elements, key=lambda j: cyclic_pos(i, j, self.n)))

    @cached_property
    def mask(self) -> int:
        """Bit j set for each element j."""
        return sum(1 << j for j in self.elements)

    @classmethod
    @lru_cache(maxsize=1 << 12, typed=True)
    def from_mask(cls, mask: int, n: int) -> KSet:
        """The j in [n] with bit j of ``mask`` set: the inverse of :attr:`mask`.
        Interned by a bounded memo, so equal masks share one object."""
        if type(mask) is not int or mask < 0 or mask & 1:  # bits past n fail in the constructor
            raise ValidationError(f"mask {mask!r} has a bit outside [{n}]")
        return cls(tuple(j for j in range(1, mask.bit_length()) if mask >> j & 1), n)

    def label(self) -> str:
        """Compact text form: "124" for n <= 9, comma separated above."""
        if self.n <= 9:
            return "".join(str(e) for e in self.elements) or "-"
        return ",".join(str(e) for e in self.elements) or "-"

    @classmethod
    def from_label(cls, text: str, n: int) -> KSet:
        if text in ("", "-"):
            return cls((), n)
        if "," in text or n > 9:
            return cls.of((int(p) for p in text.split(",") if p), n)
        return cls.of((int(ch) for ch in text), n)

    def to_json(self) -> list[int]:
        return list(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"


def k_subsets(n: int, k: int) -> Iterator[KSet]:
    """Every k-subset of [n], in lexicographic order.

    >>> [s.label() for s in k_subsets(4, 2)]
    ['12', '13', '14', '23', '24', '34']
    """
    return (KSet(c, n) for c in itertools.combinations(range(1, n + 1), k))


def three_term(
    core: Iterable[int], a: int, b: int, c: int, d: int, n: int
) -> tuple[tuple[KSet, KSet], tuple[KSet, KSet], tuple[KSet, KSet]]:
    """The six sets of a three-term Pluecker relation through the core L.

    Returns ((Lac, Lbd), (Lab, Lcd), (Lad, Lbc)).  When a, b, c, d lie outside
    L in cyclic order, every point of the Grassmannian satisfies
    D(Lac) D(Lbd) = D(Lab) D(Lcd) + D(Lad) D(Lbc) (Scott, arXiv:math/0311148):
    the crossing pair on the left, the two noncrossing reroutings on the right.

    >>> [tuple(s.label() for s in pair) for pair in three_term([5], 1, 2, 3, 4, 6)]
    [('135', '245'), ('125', '345'), ('145', '235')]
    """
    base = sum(1 << x for x in core)

    def with_letters(x: int, y: int) -> KSet:
        return KSet.from_mask(base | 1 << x | 1 << y, n)

    return (
        (with_letters(a, c), with_letters(b, d)),
        (with_letters(a, b), with_letters(c, d)),
        (with_letters(a, d), with_letters(b, c)),
    )


def shifted_leq(i: int, a: KSet, b: KSet) -> bool:
    """Gale order at base point i: componentwise <=_i after sorting both by <_i.

    >>> shifted_leq(1, KSet.of([1, 2, 4], 6), KSet.of([2, 4, 5], 6))
    True
    """
    if a.n != b.n or a.k != b.k:
        raise DimensionError(f"cannot compare {a} and {b} in the Gale order")
    n = a.n
    for x, y in zip(a.sorted_by(i), b.sorted_by(i)):
        if cyclic_pos(i, x, n) > cyclic_pos(i, y, n):
            return False
    return True


@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation of [n] with fixed points colored +1 or -1.

    ``image[i-1]`` is sigma(i); ``colors`` pairs each fixed point with its color.
    """

    image: tuple[int, ...]
    colors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValidationError(f"{self.image} is not a permutation of [{n}]")
        fixed = {i for i in range(1, n + 1) if self.image[i - 1] == i}
        colored = dict(self.colors)
        if set(colored) != fixed:
            raise ValidationError(f"colors {sorted(colored)} must cover exactly the fixed points {sorted(fixed)}")
        if any(c not in (-1, 1) for c in colored.values()):
            raise ValidationError("fixed-point colors must be +1 or -1")
        object.__setattr__(self, "colors", tuple(sorted(colored.items())))

    @classmethod
    def of(cls, image: Iterable[int], colors: Mapping[int, int] | None = None) -> DecoratedPermutation:
        return cls(tuple(image), tuple((colors or {}).items()))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.colors)

    def inverse(self) -> DecoratedPermutation:
        inv = [0] * self.n
        for i, j in enumerate(self.image, start=1):
            inv[j - 1] = i
        return DecoratedPermutation(tuple(inv), self.colors)

    def affine_lift(self) -> tuple[int, ...]:
        """The bounded affine representative f with i <= f(i) <= i + n.

        Non-fixed i lift to sigma(i) or sigma(i)+n; fixed points lift to i for
        color +1 and to i+n for color -1.
        """
        colored = dict(self.colors)
        out = []
        for i in range(1, self.n + 1):
            j = self(i)
            if j == i:
                out.append(i if colored[i] == 1 else i + self.n)
            else:
                out.append(j if j > i else j + self.n)
        return tuple(out)

    @property
    def k(self) -> int:
        """Rank: the number of weak anti-exceedances."""
        if self.n == 0:
            return 0
        return sum(f - i for i, f in enumerate(self.affine_lift(), start=1)) // self.n

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its least element."""
        seen: set[int] = set()
        out = []
        for i in range(1, self.n + 1):
            if i in seen or self(i) == i:
                continue
            cyc = [i]
            seen.add(i)
            j = self(i)
            while j != i:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return tuple(out)

    def to_cycle_string(self) -> str:
        cycs = self.cycles()
        body = "".join("(" + "".join(str(c) if self.n <= 9 else f"{c}," for c in cyc).rstrip(",") + ")" for cyc in cycs)
        if not body:
            body = "id"
        if self.colors:
            body += ":" + ",".join("+" if c == 1 else "-" for _, c in self.colors)
        return body

    @classmethod
    def from_cycle_string(cls, text: str) -> DecoratedPermutation:
        """Parse "(135)(264)" or "id:+,-,+" style notation.

        Colors after ":" apply to the fixed points in increasing order; n is
        inferred from the largest entry (or the color count for "id").
        """
        text = text.strip()
        body, _, suffix = text.partition(":")
        body = body.strip()
        cycles: list[tuple[int, ...]] = []
        if body not in ("id", "", "()"):
            if not (body.startswith("(") and body.endswith(")")):
                raise ValidationError(f"cannot parse permutation {text!r}")
            for part in body[1:-1].split(")("):
                part = part.strip()
                try:
                    entries = [int(p) for p in part.split(",")] if "," in part else [int(ch) for ch in part]
                except ValueError:
                    raise ValidationError(f"cycle ({part}) has an entry that is not a number") from None
                if len(entries) < 2:
                    raise ValidationError(f"cycle ({part}) is too short; colored fixed points go after ':'")
                cycles.append(tuple(entries))
        in_cycles = [e for cyc in cycles for e in cyc]
        if len(set(in_cycles)) != len(in_cycles):
            raise ValidationError(f"repeated entry in {text!r}")
        colors_list = [s.strip() for s in suffix.split(",") if s.strip()] if suffix else []
        # fixed points past the largest cycle entry are only visible through
        # the color suffix, so grow n until they all fit
        n = max(in_cycles, default=0)
        while n - len(in_cycles) < len(colors_list):
            n += 1
        image = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= n:
                    raise ValidationError(f"entry {a} outside [{n}]")
                image[a - 1] = b
        fixed = [i for i in range(1, n + 1) if image[i - 1] == i]
        if colors_list and len(colors_list) != len(fixed):
            raise ValidationError(f"{len(fixed)} fixed points but {len(colors_list)} colors in {text!r}")
        colors = {i: (1 if s == "+" else -1) for i, s in zip(fixed, colors_list)}
        for i in fixed:
            colors.setdefault(i, 1)
        for s in colors_list:
            if s not in ("+", "-"):
                raise ValidationError(f"bad color {s!r} in {text!r}")
        return cls.of(image, colors)

    def to_json(self) -> dict:
        return {"image": list(self.image), "colors": {str(i): c for i, c in self.colors}}

    @classmethod
    def from_json(cls, data: dict) -> DecoratedPermutation:
        image, colors = list(data["image"]), data.get("colors", {})
        if not isinstance(colors, dict):
            raise ValidationError(f"colors must be an object keyed by fixed point, got {colors!r}")
        try:
            keyed = {int(i): c for i, c in colors.items()}
        except ValueError:
            raise ValidationError(f"colors must be keyed by integer fixed points, got {list(colors)}") from None
        for x in (*image, *keyed.values()):
            if type(x) is not int:  # JSON true and 2.0 compare equal to 1 and 2
                raise ValidationError(f"image entries and colors must be integers, got {x!r}")
        return cls.of(image, keyed)


@dataclass(frozen=True)
class GrassmannNecklace:
    """The cyclic sequence I_1, ..., I_n of k-subsets attached to a positroid.

    ``sense`` records whether the defining condition is the forward one
    (I_{i+1} = I_i, or (I_i \\ {i}) u {j} with i in I_i) or the reverse-path
    variant produced by :func:`reverse_necklace`.
    """

    sets: tuple[KSet, ...]
    sense: str = field(default="forward", compare=False)
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)  # the sets' bit masks

    def __post_init__(self) -> None:
        n = len(self.sets)
        if n == 0:
            raise ValidationError("empty necklace")
        if any(s.n != n for s in self.sets):
            raise DimensionError("necklace sets must live on [n] with n = necklace length")
        masks = tuple(s.mask for s in self.sets)
        if len({m.bit_count() for m in masks}) > 1:
            raise DimensionError("necklace sets must share a common size k")
        object.__setattr__(self, "masks", masks)
        forward = self.sense == "forward"
        for i, cur, nxt in zip(range(1, n + 1), masks, masks[1:] + masks[:1]):
            bit = 1 << i
            if forward:
                ok = (nxt & ~(cur & ~bit)).bit_count() == 1 if cur & bit else nxt == cur
            else:
                # reverse condition: I_{i+1} is I_i with one element replaced by i
                ok = not nxt & ~bit & ~cur
            if not ok:
                raise ValidationError(f"necklace condition fails between I_{i} and I_{i % n + 1}")

    @property
    def n(self) -> int:
        return len(self.sets)

    @property
    def k(self) -> int:
        return self.sets[0].k

    def __getitem__(self, i: int) -> KSet:
        """1-based cyclic indexing."""
        return self.sets[(i - 1) % self.n]

    def __iter__(self) -> Iterator[KSet]:
        return iter(self.sets)

    @cached_property
    def gale_bounds(self) -> tuple[tuple[int, int], ...]:
        """Pairs (m, c): m has bit j for each j in a cyclic interval [i, i+t),
        c = |I_i n [i, i+t)|, and J is a member when |J n [i, i+t)| <= c for all.
        Only the last interval of each run outside I_i is kept, at most k per i;
        the others follow from a neighbour or reach min(t, k), bounding nothing."""
        n, bounds, full = self.n, [], (1 << self.n) - 1
        for i, base in enumerate(self.masks, 1):
            rot = (base >> i | base << n - i) & full  # bit t: whether I_i holds i + t, cyclically
            ends = rot & ~(rot << 1) & full - 1  # the t > 0 with i + t - 1 outside I_i, i + t in it
            while ends:
                low = (ends & -ends) - 1  # [i, i+t), read back onto [n] below
                bounds.append(((low << i | low >> n - i) & full << 1, (rot & low).bit_count()))
                ends &= ends - 1
        return tuple(bounds)

    def to_json(self) -> list[list[int]]:
        return [s.to_json() for s in self.sets]

    @classmethod
    def from_json(cls, data: list[list[int]], sense: str = "forward") -> GrassmannNecklace:
        n = len(data)
        return cls(tuple(KSet.of(s, n) for s in data), sense)


@dataclass(frozen=True)
class Positroid:
    """A necklace together with its materialized member sets."""

    necklace: GrassmannNecklace
    members: frozenset[KSet]

    @property
    def n(self) -> int:
        return self.necklace.n

    @property
    def k(self) -> int:
        return self.necklace.k

    def complement(self) -> frozenset[KSet]:
        return frozenset(k_subsets(self.n, self.k)) - self.members


def necklace_from_permutation(sigma: DecoratedPermutation) -> GrassmannNecklace:
    """Forward Grassmann necklace of a decorated permutation.

    >>> s = DecoratedPermutation.from_cycle_string("(135)(264)")
    >>> [x.label() for x in necklace_from_permutation(s)]
    ['124', '234', '346', '456', '256', '126']
    """
    n = sigma.n
    # I_1 = {j : sigma^-1(j) > j} plus the loops, as a bit mask; I_i loses i to sigma(i)
    current = sum(1 << j for i, j in enumerate(sigma.image, 1) if i > j)
    current |= sum(1 << i for i, c in sigma.colors if c == -1)
    sets = []
    for i in range(1, n + 1):
        sets.append(KSet.from_mask(current, n))
        if current >> i & 1:
            current = current & ~(1 << i) | 1 << sigma(i)
    return GrassmannNecklace(tuple(sets))


def permutation_from_necklace(necklace: GrassmannNecklace) -> DecoratedPermutation:
    """Inverse of :func:`necklace_from_permutation`; colors recovered from fixed sets."""
    n = necklace.n
    image = []
    colors: dict[int, int] = {}
    for i in range(1, n + 1):
        cur, nxt = necklace[i], necklace[i + 1]
        if i not in cur:
            image.append(i)
            colors[i] = 1
        else:
            gained = set(nxt.elements) - (set(cur.elements) - {i})
            (j,) = gained
            image.append(j)
            if j == i:
                colors[i] = -1
    return DecoratedPermutation.of(image, colors)


def reverse_necklace(sigma: DecoratedPermutation) -> GrassmannNecklace:
    """The reverse-path necklace: I_i = {j : sigma(j) <_i j} plus -1 fixed points.

    Satisfies the recurrence I_{j+1} = (I_j \\ {sigma^-1(j)}) u {j} rather than
    the forward necklace condition.
    """
    n = sigma.n
    loops = {i for i, c in sigma.colors if c == -1}
    sets = []
    for i in range(1, n + 1):
        members = {j for j in range(1, n + 1) if cyclic_pos(i, sigma(j), n) < cyclic_pos(i, j, n)}
        sets.append(KSet.of(members | loops, n))
    return GrassmannNecklace(tuple(sets), sense="reverse")


def in_positroid(necklace: GrassmannNecklace, candidate: KSet) -> bool:
    """Membership test J in P(N) without materializing the positroid: I_i <=_i J
    for every i, read as |J n [i, i+t)| <= |I_i n [i, i+t)| (Oh, arXiv:0803.1018)."""
    if candidate.n != necklace.n or candidate.k != necklace.k:
        raise DimensionError(f"{candidate} does not match a ({necklace.k},{necklace.n}) necklace")
    mask = candidate.mask
    for m, c in necklace.gale_bounds:
        if (mask & m).bit_count() > c:
            return False
    return True


def positroid_members(necklace: GrassmannNecklace) -> Positroid:
    """Materialize every member of the positroid, for any n: all C(n, k)
    k-subsets pass through the Gale bounds, so use :func:`in_positroid` for
    single queries on large ground sets.  The members are kept for the last
    POSITROID_CACHE_SIZE necklaces, keyed by their sets alone; the result
    wraps the necklace passed in."""
    return Positroid(necklace, _member_sets(necklace))


POSITROID_CACHE_SIZE = 16


@lru_cache(maxsize=POSITROID_CACHE_SIZE)
def _member_sets(necklace: GrassmannNecklace) -> frozenset[KSet]:
    n = necklace.n
    # the k-subsets' masks, in lexicographic order, each member interned
    alive = list(map(sum, itertools.combinations([1 << j for j in range(1, n + 1)], necklace.k)))
    for m, c in necklace.gale_bounds:
        alive = [x for x in alive if (x & m).bit_count() <= c]
    return frozenset(KSet.from_mask(x, n) for x in alive)


def noncrossing(a: KSet, b: KSet) -> bool:
    """Chord test: no x, z in a-b and y, w in b-a with x, y, z, w cyclically ordered.

    >>> noncrossing(KSet.of([2, 4, 5], 6), KSet.of([3, 4, 6], 6))
    False
    """
    if a.n != b.n:
        raise DimensionError("noncrossing requires a common ground set")
    return not masks_cross(a.mask, b.mask)


def masks_cross(a: int, b: int) -> bool:
    """:func:`noncrossing` negated, on bit masks: whether t = b - a meets two
    cyclic gaps of s = a - b, so that a chord of s crosses one of t."""
    s, t = a & ~b, b & ~a
    y = t & -t  # the least element of t
    above = s & -y
    if not above:
        return False  # t is empty or lies past the last element of s
    z = above & -above  # the element of s after y
    if s & (y - 1):
        return t > z  # y lies in the gap just below z
    return bool(t & ((1 << s.bit_length()) - z))  # y wraps round: t must avoid [z, max s]


def alignments(sigma: DecoratedPermutation) -> int:
    """Number of aligned chord pairs, counted as inversions of the affine lift.

    This equals the codimension of the positroid cell, so every reduced graph
    of type sigma has k(n-k) - alignments(sigma) + 1 faces.
    """
    return affine_inversions(sigma.affine_lift())


def affine_inversions(f: Sequence[int]) -> int:
    """Pairs i < j < i + n with f(i) > f(j) for the affine map with window
    f(1), ..., f(n) and f(j + n) = f(j) + n."""
    n = len(f)
    lift = [*f, *(v + n for v in f)]
    return sum(v > w for i, v in enumerate(f) for w in lift[i + 1:i + n])


@dataclass(frozen=True)
class Component:
    """One connected component: its ground elements and the relabeled data.

    ``elements[p-1]`` is the original name of relabeled point p.
    """

    elements: tuple[int, ...]
    permutation: DecoratedPermutation
    necklace: GrassmannNecklace


def connected_components(necklace: GrassmannNecklace) -> list[Component]:
    """Finest splitting of the necklace into noncrossing sigma-invariant blocks.

    Starts from the cycle partition of the underlying permutation and merges
    blocks until pairwise noncrossing; each fixed point stays its own block.
    Components are returned with ground sets relabeled to [m] preserving the
    cyclic order, ordered by least original element.
    """
    sigma = permutation_from_necklace(necklace)
    blocks: list[set[int]] = [set(cyc) for cyc in sigma.cycles()]
    blocks += [{i} for i in sigma.fixed_points()]
    merged = True
    while merged:
        merged = False
        for i, j in itertools.combinations(range(len(blocks)), 2):
            if masks_cross(sum(1 << x for x in blocks[i]), sum(1 << x for x in blocks[j])):
                blocks[i] |= blocks[j]
                del blocks[j]
                merged = True
                break
    out = []
    for block in sorted(blocks, key=min):
        elems = tuple(sorted(block))
        relabel = {e: p for p, e in enumerate(elems, start=1)}
        image = [relabel[sigma(e)] for e in elems]
        colors = {relabel[i]: c for i, c in sigma.colors if i in block}
        perm = DecoratedPermutation.of(image, colors)
        out.append(Component(elems, perm, necklace_from_permutation(perm)))
    return out

