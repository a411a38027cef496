"""Permutations of small degree, the breadth-first orbit that numbers every
coset table, brute-force subgroup closure, normality, and the pair-partition
quotient S4 -> S3."""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from operator import itemgetter

from .words import _Record, _setattr

# closure returns every element as a Permutation; degree 8 (40,320
# elements) bounds that set, not the orbits that coset tables walk
MAX_CLOSURE_DEGREE = 8

# the coset limit every coset table is built under unless told otherwise
DEFAULT_MAX_COSETS = 100_000


class CosetLimitExceeded(RuntimeError):
    """A coset table passed its coset limit: infinite index or a too-small
    limit."""


class Permutation(_Record):
    """Bijection of {1..n}; composition is diagrammatic (p then q).  Its one
    field is ``mapping``; the degree ``n`` is a slot read off it."""

    __slots__ = ("n", "mapping")
    mapping: tuple[int, ...]

    def __init__(self, mapping: Sequence[int]):
        mapping = tuple(mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {mapping}")
        _setattr(self, "n", n)
        _setattr(self, "mapping", mapping)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        m = list(range(1, n + 1))
        m[i - 1], m[j - 1] = j, i
        return cls(m)

    def __call__(self, point: int) -> int:
        return self.mapping[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.mapping[x - 1] for x in self.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.mapping):
            inv[x - 1] = i + 1
        return Permutation(inv)

    __invert__ = inverse

    def is_identity(self) -> bool:
        return all(self.mapping[i] == i + 1 for i in range(self.n))

    def cycles(self) -> list[tuple[int, ...]]:
        seen, out = set(), []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, n={self.n})"


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like ``(1,2)(3,4)``; ``id`` is the identity."""
    text = text.strip()
    if text in ("id", "()", ""):
        return Permutation.identity(n)
    mapping = list(range(1, n + 1))
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    for chunk in text[1:-1].split(")("):
        points = [int(tok) for tok in chunk.replace(" ", "").split(",") if tok]
        if len(points) < 2 or len(set(points)) != len(points):
            raise ValueError(f"bad cycle: ({chunk})")
        for pt in points:
            if not 1 <= pt <= n:
                raise ValueError(f"point {pt} out of range for degree {n}")
        for a, b in zip(points, points[1:] + points[:1]):
            mapping[a - 1] = b
    return Permutation(mapping)


def format_cycles(p: Permutation) -> str:
    cyc = p.cycles()
    if not cyc:
        return "id"
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cyc)


def orbit(start: Hashable, neighbours: Callable[[Hashable], Sequence[Hashable]],
          limit: int | None = None) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """Breadth-first orbit of ``start``.  ``neighbours(p)`` gives p's image
    under each column, in column order.  Points are numbered in the order
    they are found, so ``start`` is 0; returns the points and, column by
    column, their images' numbers: a column-major coset table in standard
    numbering when the points are cosets and the columns g1, g1^-1, g2, ....
    With a ``limit``, the walk raises CosetLimitExceeded as soon as it finds
    more than ``limit`` points."""
    if limit is not None and limit < 1:  # no room for the start
        raise CosetLimitExceeded(f"orbit exceeded {limit} cosets")
    number = {start: 0}
    points = [start]
    flat = []  # each point's neighbour numbers, point after point
    for p in points:
        for q in neighbours(p):
            k = number.get(q)
            if k is None:
                k = number[q] = len(points)
                if limit is not None and k >= limit:
                    raise CosetLimitExceeded(f"orbit exceeded {limit} cosets")
                points.append(q)
            flat.append(k)
    width = len(flat) // len(points)
    return points, tuple(tuple(flat[x::width]) for x in range(width))


def regular_orbit(gens: Sequence[Permutation], limit: int | None = None
                  ) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """`orbit` of the identity under right multiplication by ``gens``: the
    mapping tuples of the group they generate, and one column of products'
    numbers per generator.  Each point's products are one C-level gather:
    an itemgetter of the point, applied to every generator's mapping.  No
    Permutation is built.  The group is finite, so forward generators reach
    all of it, and a regular table needs no g^-1 walked: its column is the
    inverse permutation of g's."""
    n = gens[0].n
    if n < 2:  # the trivial group, whose one point an itemgetter cannot gather
        return orbit(tuple(range(1, n + 1)), lambda p: [p] * len(gens), limit)
    cols = [(0,) + g.mapping for g in gens]  # 1-based lookup: p * g is g[p[i]]
    return orbit(tuple(range(1, n + 1)), lambda p: map(itemgetter(*p), cols), limit)


def closure(gens: Iterable[Permutation], degree: int | None = None) -> frozenset[Permutation]:
    """Subgroup generated: the orbit of the identity under right
    multiplication by the generators.  An empty generating set needs an
    explicit degree and yields {identity}."""
    gens = list(gens)
    if not gens:
        if degree is None:
            raise ValueError("empty generating set needs an explicit degree")
        return frozenset({Permutation.identity(degree)})
    n = gens[0].n
    if degree is not None and degree != n:
        raise ValueError("degree disagrees with the generators")
    if n > MAX_CLOSURE_DEGREE:
        raise ValueError(f"degree {n} exceeds closure cap {MAX_CLOSURE_DEGREE}")
    for g in gens:
        if g.n != n:
            raise ValueError("degree mismatch among generators")
    return frozenset(map(Permutation, regular_orbit(gens)[0]))


def is_normal(sub: Iterable[Permutation], grp: Iterable[Permutation]) -> bool:
    sub, grp = frozenset(sub), frozenset(grp)
    if not sub <= grp:
        raise ValueError("first argument must be a subset of the second")
    return all(g * h * g.inverse() in sub for g in grp for h in sub)


# the three pair-partitions of {1,2,3,4}, in the fixed labelling order
_PARTITIONS = (
    frozenset({frozenset({1, 2}), frozenset({3, 4})}),
    frozenset({frozenset({1, 3}), frozenset({2, 4})}),
    frozenset({frozenset({1, 4}), frozenset({2, 3})}),
)


def quotient_map_s4_to_s3() -> Callable[[Permutation], Permutation]:
    """The quotient S4 -> S4/V4 = S3, realized on pair-partitions
    (12|34, 13|24, 14|23) so the labelling is deterministic."""

    def act(p: Permutation) -> Permutation:
        if p.n != 4:
            raise ValueError("expected a permutation of degree 4")
        mapping = []
        for part in _PARTITIONS:
            image = frozenset(frozenset(p(x) for x in pair) for pair in part)
            mapping.append(_PARTITIONS.index(image) + 1)
        return Permutation(mapping)

    return act
