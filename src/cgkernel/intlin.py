"""Exact integer linear algebra: Smith normal form (one pivot loop, with
divisibility enforced at each pivot), abelian-group structure of cokernels,
coinvariant/invariant ranks, and SL(2,Z) word decomposition.

Everything here runs on Python integers, so there is no overflow to guard
against; exactness is the whole point.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from heapq import heapify, heappop, heappush
from itertools import compress, groupby
from math import gcd

from .words import FreeHom, Word, _Record, _setattr, parse_word, format_word


class IntMatrix(_Record):
    """Immutable rectangular matrix over Z.  Its fields are ``cols`` and
    ``data``; the row count ``rows`` is a slot read off ``data``.  A ``cols``
    given with rows must be their length; with no rows it is the width."""

    __slots__ = ("rows", "cols", "data")
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(map(tuple, data))
        if rows:
            ncols = len(rows[0])
            if cols is not None and cols != ncols:
                raise ValueError(f"cols={cols} disagrees with rows of length {ncols}")
        else:
            ncols = 0 if cols is None else cols
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            # exact type test: bool is an int subclass but no matrix entry
            if not {int}.issuperset(map(type, row)):
                bad = next(entry for entry in row if type(entry) is not int)
                raise ValueError(f"non-integer entry {bad!r}")
        _setattr(self, "rows", len(rows))
        _setattr(self, "cols", ncols)
        _setattr(self, "data", rows)

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
        ot = tuple(zip(*other.data)) if other.data else ((),) * other.cols
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

    def __repr__(self) -> str:
        return f"IntMatrix({format_matrix(self)})"


def parse_matrix(text: str) -> IntMatrix:
    """Parse a literal like ``[[1,2],[0,1]]``."""
    import ast  # here, so that importing the package does not load the parser
    try:
        data = ast.literal_eval(text)
    except SyntaxError as exc:
        raise ValueError(f"bad matrix literal: {exc}") from None
    except ValueError:
        # literal_eval names the offending node by its repr, which holds a
        # memory address that changes from run to run
        raise ValueError(f"bad matrix literal: {text!r} is not a list of integer rows") from None
    # a dict or set row would read in key or hash order, an int none at all
    if not isinstance(data, (list, tuple)) or not all(isinstance(row, (list, tuple))
                                                       for row in data):
        raise ValueError("matrix literal must be a list of rows")
    return IntMatrix(data)


def format_matrix(m: IntMatrix) -> str:
    return "[" + ",".join("[" + ",".join(str(e) for e in row) + "]" for row in m.data) + "]"


class AbelianStructure(_Record):
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


def _smith(m: list[list[int]], nr: int, nc: int) -> None:
    """Bring the leading nr x nc block of m to Smith normal form in place:
    diagonal, with d_1 | d_2 | ... and every d_i >= 0.  The search and the
    clearing read that block only, but every row and column operation acts
    on whole rows and whole columns of m, so rows and columns bordering the
    block record the transforms.

    One pivot loop (Cohen 1993, section 2.4): the pivot is the smallest
    nonzero absolute value in the trailing block, and once its row and column
    are clear, a row with an entry it does not divide joins the pivot row, so
    the next pivot is a smaller remainder and divisibility holds at each one.
    """
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
        i, j = pivot
        m[k], m[i] = m[i], m[k]
        for row in m:
            row[k], row[j] = row[j], row[k]
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]
        # clear row and column; restart if a remainder creates a smaller entry
        dirty = False
        for i in range(k + 1, nr):
            if m[i][k] != 0:
                q = m[i][k] // m[k][k]
                m[i] = [x - q * y for x, y in zip(m[i], m[k])]
                if m[i][k] != 0:
                    dirty = True
        for j in range(k + 1, nc):
            if m[k][j] != 0:
                q = m[k][j] // m[k][k]
                for row in m:
                    row[j] -= q * row[k]
                if m[k][j] != 0:
                    dirty = True
        if dirty:
            continue
        # a row with an entry the pivot does not divide joins the pivot row
        p = m[k][k]
        bad = next((i for i in range(k + 1, nr) if any(x % p for x in m[i][k + 1:nc])), None)
        if bad is not None:
            m[k] = [x + y for x, y in zip(m[k], m[bad])]
            continue
        k += 1


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with D = U*A*V, U and V unimodular, D diagonal with
    d_1 | d_2 | ... and every d_i >= 0.

    _smith runs once on the bordered matrix [[A, I_r], [I_c, 0]]: its row
    operations carry I_r along into U, its column operations carry I_c along
    into V, and the zero corner stays zero.
    """
    nr, nc = a.rows, a.cols
    m = [list(row) + [int(i == j) for j in range(nr)] for i, row in enumerate(a.data)]
    m += [[int(i == j) for j in range(nc)] + [0] * nr for i in range(nc)]
    _smith(m, nr, nc)
    return (IntMatrix([row[:nc] for row in m[:nr]], cols=nc),
            IntMatrix([row[nc:] for row in m[:nr]], cols=nr),
            IntMatrix([row[:nc] for row in m[nr:]], cols=nc))


def _sparse_rows(a: IntMatrix) -> Iterator[dict[int, int]]:
    # the nonzero entries of each row as {column: entry}, made as they are read
    span = tuple(range(a.cols))  # a tuple hands out its ints without allocating
    return ({j: row[j] for j in compress(span, row)} for row in a.data)


def cokernel(a: IntMatrix) -> AbelianStructure:
    """Structure of Z^cols / (row space of A), by sparse_cokernel."""
    return sparse_cokernel(_sparse_rows(a), a.cols)


def sparse_cokernel(rows: Iterable[dict[int, int]], ncols: int) -> AbelianStructure:
    """Structure of Z^ncols / (span of the rows), each row given sparse as
    {column: nonzero integer entry}.  The rows are read once, in order, and
    each is checked as it arrives; an empty row is dropped.  The caller's
    dicts are not changed.

    Relation matrices from Reidemeister-Schreier are tall, sparse and full of
    +-1 entries, and about half their rows are the Tietze moves of the
    Schreier tree: one unit entry (a generator is trivial) or two (one
    generator is +- another).  Those rows are applied as they arrive, as a
    union-find over columns with signs (Havas, Holt and Rees, "Recognizing
    badly presented Z-modules", 1993).  Each arriving row is rewritten in
    the root columns; one that rewrites to a single +-1 entry zeroes its
    root, and one that rewrites to a*e_p + b*e_q with a, b = +-1 joins root
    p to root q as e_p = -a*b*e_q.  Each move is a unimodular column
    operation that removes one generator, and its row becomes zero after
    it, so the quotient is unchanged.  Any other row is kept, keyed by its
    arrival position.  Once every row is read, each kept row is rewritten
    once more onto the final roots, since later moves may have merged or
    zeroed its columns, and dropped if it cancels to nothing; that rewrite
    makes no move, so a row it leaves with one or two unit entries goes on
    to the loop below, which pivots it first.

    What is left is eliminated on the live root columns by unit pivots, each
    time the one of lowest Markowitz cost (row nonzeros - 1) * (column
    nonzeros - 1).  A pivot A[r][c] = +-1 says generator c equals a
    combination of the others: clearing column c from the other rows with
    row r and then dropping row r and column c leaves the quotient
    unchanged.  The rows left once no unit entry remains go, as plain lists
    over the live columns, to the Smith pivot loop _smith, which builds no
    transform; only its diagonal is read.

    A heap record is pushed for each unit entry at the start and then only
    when an update makes an entry +-1, so every unit entry keeps a live
    record.  On pop, a record whose row is gone or whose entry is no longer
    +-1 is dropped, and one whose cost has grown is pushed again; one whose
    cost has dropped pivots at once, as it is at least as cheap as recorded.
    Costs that drop are not refreshed, which makes the order less greedy,
    not the answer less exact.
    """
    span = range(ncols)
    # e_j = sign[j] * e_up[j]; a root has up[j] == j, and a zeroed column
    # hangs under the extra node ncols, which stands for 0
    up = list(range(ncols + 1))
    sign = [1] * (ncols + 1)

    def rewrite(row: dict[int, int]) -> dict[int, int]:
        # the row in the root columns, as a new dict without zero entries
        new: dict[int, int] = {}
        for j, x in row.items():
            if up[j] != j:
                path = []
                while up[j] != j:
                    path.append(j)
                    j = up[j]
                s = 1
                for k in reversed(path):  # compress: each on the path points at the root
                    s *= sign[k]
                    up[k], sign[k] = j, s
                if j == ncols:
                    continue
                x *= s
            new[j] = new.get(j, 0) + x
        if not all(new.values()):
            new = {j: x for j, x in new.items() if x}
        return new

    kept: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        if not all(map(span.__contains__, row)) or not all(row.values()):
            raise ValueError(f"row {i} has a zero entry or a column outside 0..{ncols - 1}")
        new = rewrite(row)
        if len(new) > 2 or not all(x == 1 or x == -1 for x in new.values()):
            kept[i] = new
        elif len(new) == 1:  # +-e_p = 0
            (p, _), = new.items()
            up[p] = ncols
        elif new:  # a*e_p + b*e_q = 0
            (p, a), (q, b) = new.items()
            up[p], sign[p] = q, -a * b
    kept = {i: new for i, row in kept.items() if (new := rewrite(row))}
    # live root column -> row keys
    where: dict[int, set[int]] = {j: set() for j in span if up[j] == j}
    for i, row in kept.items():
        for j in row:
            where[j].add(i)
    # every unit entry as (Markowitz cost, row, column), cheapest on top
    heap = [((len(row) - 1) * (len(where[j]) - 1), i, j)
            for i, row in kept.items() for j, x in row.items() if x == 1 or x == -1]
    heapify(heap)
    while heap:
        cost, r, c = heappop(heap)
        row = kept.get(r)
        x = row.get(c) if row is not None else None
        if x != 1 and x != -1:
            continue  # stale: the row is gone or the entry changed
        now = (len(row) - 1) * (len(where[c]) - 1)
        if now > cost:  # the row or column grew since the push
            heappush(heap, (now, r, c))
            continue
        del kept[r]
        for j in row:
            where[j].discard(r)
        for i in where.pop(c):
            other = kept[i]
            f = other.pop(c) * x  # other -= f * row clears column c
            for j, y in row.items():
                if j == c:
                    continue
                v = other.get(j, 0) - f * y
                if v:
                    if j not in other:
                        where[j].add(i)
                    other[j] = v
                    if v == 1 or v == -1:
                        heappush(heap, ((len(other) - 1) * (len(where[j]) - 1), i, j))
                else:
                    del other[j]
                    where[j].discard(i)
            if not other:
                del kept[i]
    live = sorted(j for j, rs in where.items() if rs)
    nonzero: list[int] = []
    if kept:
        m = [[row.get(j, 0) for j in live] for row in kept.values()]
        _smith(m, len(m), len(live))
        nonzero = [x for x in (m[i][i] for i in range(min(len(m), len(live)))) if x]
    return AbelianStructure(len(where) - len(nonzero), tuple(x for x in nonzero if x > 1))


def _difference_rows(mats: Sequence[IntMatrix], r: int) -> Iterator[dict[int, int]]:
    # each row of each M - I, sparse as {column: nonzero entry}; a diagonal
    # entry that becomes 0 is left out, as is every other 0
    span = tuple(range(r))
    for m in mats:
        if m.rows != r or m.cols != r:
            raise ValueError(f"expected {r}x{r} matrices")
        for i, row in enumerate(m.data):
            diff = list(row)
            diff[i] -= 1
            yield {j: diff[j] for j in compress(span, diff)}


def coinvariants(mats: Sequence[IntMatrix], r: int) -> AbelianStructure:
    """Quotient of Z^r by the span of { v*M - v }: the cokernel of the
    stacked M - I, whose rows go to sparse_cokernel as they are made."""
    return sparse_cokernel(_difference_rows(mats, r), r)


def rank_q(a: IntMatrix) -> int:
    """Rank over Q, by `_rank_q` on the nonzero entries of each row."""
    return _rank_q(_sparse_rows(a))


def _rank_q(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of sparse rows {column: nonzero entry}, by sparse
    fraction-free elimination (Bareiss 1968, on sparse rows); the dicts are
    taken over and changed.  Each step pivots on a shortest row, at its
    column held by the fewest rows, and drops that row; every other row
    f*e_c + ... holding the pivot column c becomes (p/g)*row -
    (f/g)*pivot_row, with p the pivot and g = gcd(p, f), and is then
    divided by the gcd of its entries.  Each update scales a row by a
    nonzero integer and adds a multiple of the pivot row, so the row space
    over Q keeps its dimension, and each step removes one pivot column and
    one row from it: the rank is the number of steps.  Shares no
    elimination code with the SNF path, which it cross-checks."""
    kept: dict[int, dict[int, int]] = {}
    where: dict[int, set[int]] = {}  # column -> rows, filled as the rows arrive
    for i, row in enumerate(rows):
        if row:
            kept[i] = row
            for j in row:
                where.setdefault(j, set()).add(i)
    rank = 0
    while kept:
        r = min(kept, key=lambda i: len(kept[i]))
        pivot = kept.pop(r)
        for j in pivot:
            where[j].discard(r)
        c = min(pivot, key=lambda j: len(where[j]))
        p = pivot.pop(c)
        for i in where.pop(c):
            row = kept[i]
            f = row.pop(c)
            g = gcd(p, f)
            s, t = p // g, f // g
            if s != 1:
                for j in row:
                    row[j] *= s
            for j, y in pivot.items():
                v = row.get(j, 0) - t * y
                if v:
                    if j not in row:
                        where[j].add(i)
                    row[j] = v
                else:
                    del row[j]
                    where[j].discard(i)
            if not row:
                del kept[i]
                continue
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        rank += 1
    return rank


def invariants_rank(mats: Sequence[IntMatrix]) -> int:
    """Dimension over Q of the common fixed space of the transposed actions,
    i.e. of { v : M v = v for all M } computed as a kernel intersection."""
    if not mats:
        raise ValueError("need at least one matrix")
    r = mats[0].rows
    return r - _rank_q(_difference_rows(mats, r))


def hom_matrix(f: FreeHom) -> IntMatrix:
    """Abelianized action: row i is the exponent vector of the image of
    generator i.  Matrices act on row vectors, so this is functorial for
    diagrammatic composition: M(f * g) = M(f) M(g)."""
    if f.src_rank != f.dst_rank:
        raise ValueError("hom_matrix needs an endomorphism")
    return IntMatrix(tuple(im.abelianize() for im in f.images), cols=f.dst_rank)


# --- SL(2, Z) in the standard generators -----------------------------------

ST_NAMES = ("s", "t")
S_MAT = IntMatrix(((0, -1), (1, 0)))
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
    if a == -1:  # a == d == -1: matrix is S^2 * T^-b
        letters.extend([(1, 1), (1, 1)])
        b = -b
    letters.extend([(2, 1 if b > 0 else -1)] * abs(b))
    letters.extend((g, -s) for g, s in reversed(applied))
    word = Word(2, letters)
    if eval_st(word) != m:
        raise AssertionError("S/T decomposition failed to round-trip")
    return word
