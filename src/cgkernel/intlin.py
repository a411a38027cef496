"""Exact integer linear algebra: Smith normal form, abelian-group structure of
cokernels, coinvariant/invariant ranks, and SL(2,Z) word decomposition.

Everything here runs on Python integers, so there is no overflow to guard
against; exactness is the whole point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress, groupby
from math import gcd
from typing import Iterable, Sequence

from .words import FreeHom, Word, parse_word, format_word, SemidirectElement


class IntMatrix:
    """Immutable rectangular matrix over Z."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(map(tuple, data))
        if rows:
            ncols = len(rows[0])
        else:
            ncols = 0 if cols is None else cols
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            # exact type test: bool is an int subclass but no matrix entry
            if not {int}.issuperset(map(type, row)):
                bad = next(entry for entry in row if type(entry) is not int)
                raise ValueError(f"non-integer entry {bad!r}")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)), cols=cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.cols} vs {other.rows}")
        ot = tuple(zip(*other.data)) if other.data else ()
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                  for row in self.data),
            cols=other.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return IntMatrix(tuple(tuple(a - b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.data, other.data)), cols=self.cols)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.data]
        sign, prev = 1, 1
        for k in range(n - 1):
            if m[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if swap is None:
                    return 0
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix({format_matrix(self)})"


def parse_matrix(text: str) -> IntMatrix:
    """Parse a literal like ``[[1,2],[0,1]]``."""
    try:
        data = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"bad matrix literal: {exc}") from None
    if not isinstance(data, (list, tuple)):
        raise ValueError("matrix literal must be a list of rows")
    return IntMatrix(data)


def format_matrix(m: IntMatrix) -> str:
    return "[" + ",".join("[" + ",".join(str(e) for e in row) + "]" for row in m.data) + "]"


@dataclass(frozen=True)
class AbelianStructure:
    """Finitely generated abelian group: Z^free_rank + sum of Z/d with d|d'."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion entries must exceed 1")

    def __repr__(self) -> str:
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with D = U*A*V, U and V unimodular, D diagonal with
    d_1 | d_2 | ... and every d_i >= 0.

    Pivoting always picks the smallest nonzero absolute value in the remaining
    block, which keeps intermediate entries from exploding; correctness over
    arbitrary-precision integers is the priority, not speed.
    """
    m = [list(row) for row in a.data]
    nr, nc = a.rows, a.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_add(dst, src, c):  # row_dst += c * row_src
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, c):
        for row in m:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_negate(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    k = 0
    while k < min(nr, nc):
        # smallest-|nonzero| pivot in the trailing block
        pivot = None
        for i in range(k, nr):
            for j in range(k, nc):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(k, pivot[0])
        col_swap(k, pivot[1])
        if m[k][k] < 0:
            row_negate(k)
        # clear row and column; restart if a remainder creates a smaller entry
        dirty = False
        for i in range(k + 1, nr):
            if m[i][k] != 0:
                q = m[i][k] // m[k][k]
                row_add(i, k, -q)
                if m[i][k] != 0:
                    dirty = True
        for j in range(k + 1, nc):
            if m[k][j] != 0:
                q = m[k][j] // m[k][k]
                col_add(j, k, -q)
                if m[k][j] != 0:
                    dirty = True
        if dirty:
            continue
        k += 1

    # enforce the divisibility chain with the standard 2x2 gcd trick
    changed = True
    while changed:
        changed = False
        for i in range(min(nr, nc) - 1):
            a_, b_ = m[i][i], m[i + 1][i + 1]
            if b_ != 0 and a_ != 0 and b_ % a_ != 0:
                col_add(i, i + 1, 1)  # puts b into column i at row i+1
                # re-clear the 2x2 block via euclid
                while m[i + 1][i] != 0:
                    q = m[i][i] // m[i + 1][i] if m[i + 1][i] != 0 else 0
                    row_add(i, i + 1, -q)
                    row_swap(i, i + 1)
                # column i now has entry only at row i; fix column i+1
                q = m[i][i + 1] // m[i][i]
                col_add(i + 1, i, -q)
                if m[i][i + 1] != 0 or m[i + 1][i] != 0:
                    raise AssertionError("divisibility fix-up failed to reclear block")
                if m[i][i] < 0:
                    row_negate(i)
                if m[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True
            elif a_ == 0 and b_ != 0:
                row_swap(i, i + 1)
                col_swap(i, i + 1)
                changed = True
    d = IntMatrix(m, cols=nc)
    return d, IntMatrix(u, cols=nr), IntMatrix(v, cols=nc)


def cokernel(a: IntMatrix) -> AbelianStructure:
    """Structure of Z^cols / (row space of A): the nonzero entries of each
    row, as sparse rows, go to sparse_cokernel."""
    span = tuple(range(a.cols))  # a tuple hands out its ints without allocating
    return sparse_cokernel({i: {j: row[j] for j in compress(span, row)}
                            for i, row in enumerate(a.data)}, a.cols)


def sparse_cokernel(rows: dict[int, dict[int, int]], ncols: int) -> AbelianStructure:
    """Structure of Z^ncols / (span of the rows), each row given sparse as
    {column: nonzero integer entry} and keyed by any integers; empty rows
    are dropped.  The rows are eliminated in place, so the caller gives them
    up.

    Relation matrices from Reidemeister-Schreier are tall, sparse and full of
    +-1 entries, so unit pivots are eliminated first, each time the one of
    lowest Markowitz cost (row nonzeros - 1) * (column nonzeros - 1).  A
    pivot A[r][c] = +-1 says generator c equals a combination of the others:
    clearing column c from the other rows with row r and then dropping row r
    and column c leaves the quotient unchanged (Havas, Holt and Rees,
    "Recognizing badly presented Z-modules", 1993).  Only the rows left once
    no unit entry remains go to smith_normal_form.
    """
    where: dict[int, set[int]] = {j: set() for j in range(ncols)}  # column -> row keys
    for i, row in list(rows.items()):
        if not row:
            del rows[i]
            continue
        if not where.keys() >= row.keys() or not all(row.values()):
            raise ValueError(f"row {i} has a zero entry or a column outside 0..{ncols - 1}")
        for j in row:
            where[j].add(i)
    # every unit entry as (Markowitz cost, row, column), cheapest on top
    heap = [((len(row) - 1) * (len(where[j]) - 1), i, j)
            for i, row in rows.items() for j, x in row.items() if x == 1 or x == -1]
    heapify(heap)
    while heap:
        cost, r, c = heappop(heap)
        row = rows.get(r)
        x = row.get(c) if row is not None else None
        if x != 1 and x != -1:
            continue  # stale: the row is gone or the entry changed
        now = (len(row) - 1) * (len(where[c]) - 1)
        if now != cost:  # the row or column changed size since the push
            heappush(heap, (now, r, c))
            continue
        del rows[r]
        for j in row:
            where[j].discard(r)
        for i in where.pop(c):
            other = rows[i]
            f = other.pop(c) * x  # other -= f * row clears column c
            for j, y in row.items():
                if j == c:
                    continue
                v = other.get(j, 0) - f * y
                if v:
                    if j not in other:
                        where[j].add(i)
                    other[j] = v
                else:
                    del other[j]
                    where[j].discard(i)
            if not other:
                del rows[i]
        # every column of the pivot row lost entries, so the cost of each
        # unit entry left in those columns may have dropped
        for j in row:
            if j != c:
                rest = len(where[j]) - 1
                for i in where[j]:
                    e = rows[i][j]
                    if e == 1 or e == -1:
                        heappush(heap, ((len(rows[i]) - 1) * rest, i, j))
    live = sorted(j for j, rs in where.items() if rs)
    nonzero: list[int] = []
    if rows:
        d, _, _ = smith_normal_form(
            IntMatrix(tuple(tuple(row.get(j, 0) for j in live) for row in rows.values()),
                      cols=len(live)))
        nonzero = [x for x in (d[i, i] for i in range(min(d.rows, d.cols))) if x]
    return AbelianStructure(len(where) - len(nonzero), tuple(x for x in nonzero if x > 1))


def _stack_differences(mats: Sequence[IntMatrix], r: int) -> IntMatrix:
    rows = []
    for m in mats:
        if m.rows != r or m.cols != r:
            raise ValueError(f"expected {r}x{r} matrices")
        for i, row in enumerate(m.data):
            diff = list(row)
            diff[i] -= 1
            rows.append(tuple(diff))
    return IntMatrix(rows, cols=r)


def coinvariants(mats: Sequence[IntMatrix], r: int) -> AbelianStructure:
    """Quotient of Z^r by the span of { v*M - v }: cokernel of stacked M - I."""
    return cokernel(_stack_differences(mats, r))


def rank_q(a: IntMatrix) -> int:
    """Rank over Q by fraction-free Gaussian elimination: each row below the
    pivot is cross-multiplied with the pivot row, then divided by the gcd of
    its entries.  Shares no code with the SNF path, which it cross-checks."""
    rows = [list(row) for row in a.data if any(row)]
    rank = 0
    for col in range(a.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p, tail = rows[rank][col], rows[rank][col:]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                # rows at or below the pivot are zero left of col
                new = [p * x - f * y for x, y in zip(rows[i][col:], tail)]
                g = gcd(*new)
                rows[i][col:] = [x // g for x in new] if g > 1 else new
        rank += 1
    return rank


def invariants_rank(mats: Sequence[IntMatrix]) -> int:
    """Dimension over Q of the common fixed space of the transposed actions,
    i.e. of { v : M v = v for all M } computed as a kernel intersection."""
    if not mats:
        raise ValueError("need at least one matrix")
    r = mats[0].rows
    return r - rank_q(_stack_differences(mats, r))


def hom_matrix(f: FreeHom) -> IntMatrix:
    """Abelianized action: row i is the exponent vector of the image of
    generator i.  Matrices act on row vectors, so this is functorial for
    diagrammatic composition: M(f * g) = M(f) M(g)."""
    if f.src_rank != f.dst_rank:
        raise ValueError("hom_matrix needs an endomorphism")
    return IntMatrix(tuple(im.abelianize() for im in f.images), cols=f.dst_rank)


def monodromy_matrix(elem: SemidirectElement) -> IntMatrix:
    """Homology action of the induced F_n automorphism, assembled blockwise:
    the base 2x2 block, identity on the x_i, and per-row translation terms
    (right exponents minus left exponents)."""
    n = elem.n
    mu = hom_matrix(elem.base.fwd)
    rows = []
    for i in range(2):
        rows.append((mu[i, 0], mu[i, 1]) + (0,) * (n - 2))
    for k in range(n - 2):
        la, lb = elem.left[k].abelianize()
        ra, rb = elem.right[k].abelianize()
        tail = [0] * (n - 2)
        tail[k] = 1
        rows.append((ra - la, rb - lb) + tuple(tail))
    return IntMatrix(rows, cols=n)


# --- SL(2, Z) in the standard generators -----------------------------------

ST_NAMES = ("s", "t")
S_MAT = IntMatrix(((0, -1), (1, 0)))
T_MAT = IntMatrix(((1, 1), (0, 1)))
# S^k by k mod 4, since S^2 = -I
_S_POWERS = (IntMatrix.identity(2), S_MAT, IntMatrix(((-1, 0), (0, -1))),
             IntMatrix(((0, 1), (-1, 0))))


def eval_st(w: Word) -> IntMatrix:
    """Evaluate a rank-2 word (generator 1 = S, generator 2 = T) by matrix
    product in word order, one product per run of equal letters: a run
    S^k is S^(k mod 4) and a run T^k is [[1, k], [0, 1]]."""
    if w.rank != 2:
        raise ValueError("S/T words have rank 2")
    out = IntMatrix.identity(2)
    for (idx, sign), run in groupby(w.letters):
        k = sign * sum(1 for _ in run)
        out = out * (_S_POWERS[k % 4] if idx == 1 else IntMatrix(((1, k), (0, 1))))
    return out


def parse_st(text: str) -> Word:
    return parse_word(text, 2, ST_NAMES)


def format_st(w: Word) -> str:
    return format_word(w, ST_NAMES)


def sl2_word(m: IntMatrix) -> Word:
    """Express a determinant-1 integer matrix as a word in S and T with exact
    evaluation (S^2 = -I is spelled out in the word, never absorbed as a sign).

    Euclidean reduction on the bottom row: right-multiplying by T^k adds k
    times the first column to the second, right-multiplying by S swaps the
    bottom row to (d, -c); |c| strictly decreases, so this terminates.
    """
    if m.rows != 2 or m.cols != 2:
        raise ValueError("need a 2x2 matrix")
    if m.det() != 1:
        raise ValueError(f"determinant must be 1, got {m.det()}")
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    applied: list[tuple[int, int]] = []  # right multipliers, as (gen, sign)
    while c != 0:
        q = d // c
        if q != 0:
            # (a b; c d) * T^-q
            b, d = b - q * a, d - q * c
            applied.extend([(2, -1 if q > 0 else 1)] * abs(q))
        # (a b; c d) * S
        a, b = b, -a
        c, d = d, -c
        applied.append((1, 1))
    # now c == 0 and a*d == 1
    letters: list[tuple[int, int]] = []
    if a == 1:
        if b != 0:
            letters.extend([(2, 1 if b > 0 else -1)] * abs(b))
    else:  # a == d == -1: matrix is S^2 * T^-b
        letters.extend([(1, 1), (1, 1)])
        if b != 0:
            letters.extend([(2, -1 if b > 0 else 1)] * abs(b))
    letters.extend((g, -s) for g, s in reversed(applied))
    word = Word(2, letters)
    if eval_st(word) != m:
        raise AssertionError("S/T decomposition failed to round-trip")
    return word
