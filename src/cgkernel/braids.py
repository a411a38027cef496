"""Braid groups B_n for n <= 6.

The word problem is solved by Garside left normal form (permutation-braid
factors behind a power of the half twist); Dehornoy handle reduction is kept
alongside as an independent cross-check oracle.  On top of that sit the
4-strand specifics: Artin generators of the pure braid group, strand deletion,
the epimorphism to B_3 killing s1*s3^-1, and the conjugation action on the
rank-2 normal free subgroup <s1 s3^-1, s2 s1 s3^-1 s2^-1>.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

from .perms import Permutation
from .words import FreeHom, Letter, Word, _reduce, compose, parse_word

MAX_STRANDS = 6


class NonPureBraid(ValueError):
    """Raised when an operation defined on pure braids receives a non-pure word."""


class BraidWord(Word):
    """Word in the Artin generators s1..s(n-1) of B_n: a free-group word of
    rank n-1 whose constructors (``identity`` and ``gen`` included) take the
    strand count n.  Equality is literal; use braid_equal for equality in the
    group."""

    __slots__ = ()

    def __init__(self, n: int, letters: Iterable[Letter] = ()):
        if not 2 <= n <= MAX_STRANDS:
            raise ValueError(f"strand count must be in 2..{MAX_STRANDS}")
        super().__init__(n - 1, letters)

    @property
    def n(self) -> int:
        return self.rank + 1

    def __repr__(self) -> str:
        return f"BraidWord({self.n}, {format_braid(self)!r})"


def braid_perm(w: BraidWord) -> Permutation:
    """Image in S_n: product of the transpositions (i, i+1) in word order."""
    p = Permutation.identity(w.n)
    for idx, _ in w.letters:
        p = p * Permutation.transposition(w.n, idx, idx + 1)
    return p


def pure_gen(p: int, q: int, n: int) -> BraidWord:
    """Artin generator A_pq of the pure braid group:
    s_{q-1} ... s_{p+1} s_p^2 s_{p+1}^-1 ... s_{q-1}^-1."""
    if not 1 <= p < q <= n:
        raise ValueError(f"need 1 <= p < q <= {n}")
    letters = [(j, 1) for j in range(q - 1, p, -1)]
    letters += [(p, 1), (p, 1)]
    letters += [(j, -1) for j in range(p + 1, q)]
    return BraidWord(n, letters)


def delta_word(n: int) -> BraidWord:
    """The half twist: s1 (s2 s1) (s3 s2 s1) ..."""
    letters = []
    for k in range(1, n):
        letters.extend((j, 1) for j in range(k, 0, -1))
    return BraidWord(n, letters)


def ell_word(i: int) -> BraidWord:
    """The three point-pushing braids of B_4 (defined for i = 2, 3, 4)."""
    words = {
        4: "s3 s2 s1 s1 s2 s3",
        3: "s2 s1 s1 s2 s3 s3",
        2: "s1 s1 s2 s3 s3 s2",
    }
    if i not in words:
        raise ValueError("point-pushing words are l2, l3, l4")
    return parse_braid(words[i], 4)


# generators of the rank-2 normal free subgroup of B_4
A_WORD_STR = "s1 s3^-1"
B_WORD_STR = "s2 s1 s3^-1 s2^-1"


def f2_word(n: int = 4) -> tuple[BraidWord, BraidWord]:
    return parse_braid(A_WORD_STR, n), parse_braid(B_WORD_STR, n)


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse ``s1 s2^-1 ...``; also expands the named abbreviations
    A12..A56 (pure generators), l2 l3 l4 (B_4 only), Delta, and center."""
    letters: list[Letter] = []
    for token in text.split():
        base, _, exp_part = token.partition("^")
        exp = 1
        if exp_part:
            try:
                exp = int(exp_part)
            except ValueError:
                raise ValueError(f"bad exponent in {token!r}") from None
        if base == "1":
            continue
        elif base.startswith("s") and base[1:].isdigit():
            i = int(base[1:])
            if not 1 <= i < n:
                raise ValueError(f"generator s{i} out of range for B_{n}")
            piece = BraidWord.gen(n, i)
        elif base.startswith("A") and base[1:].isdigit() and len(base) == 3:
            piece = pure_gen(int(base[1]), int(base[2]), n)
        elif base.startswith("l") and base[1:].isdigit():
            if n != 4:
                raise ValueError("l2/l3/l4 are braids of B_4")
            piece = ell_word(int(base[1:]))
        elif base == "Delta":
            piece = delta_word(n)
        elif base == "center":
            piece = delta_word(n) ** 2
        else:
            raise ValueError(f"unknown braid token {base!r}")
        letters += (piece ** exp).letters
    return BraidWord(n, letters)


def format_braid(w: BraidWord) -> str:
    if not w.letters:
        return "1"
    return " ".join(f"s{i}" if s == 1 else f"s{i}^-1" for i, s in w.letters)


# --- Garside left normal form ------------------------------------------------
#
# Permutation braids (positive braids in which each pair of strands crosses at
# most once) are represented by their permutations.  With diagrammatic
# composition, the starting set of a factor is the descent set of its one-line
# notation and the finishing set is the descent set of the inverse; a pair
# (x, y) is left-weighted exactly when every starting generator of y already
# finishes x.
#
# The computation runs on integer codes of the n! permutation braids (the
# lexicographic rank of the one-line notation, so 0 is the identity and n!-1
# the half twist), looked up in one table per strand count.


class _SimpleTable:
    """Products with the generators and starting/finishing bitmasks (bit i
    for s_i) of the permutation braids of B_n, indexed by code."""

    __slots__ = ("perms", "code", "right", "left", "start", "finish", "delta")

    def __init__(self, n: int):
        perms = list(permutations(range(1, n + 1)))
        code = {p: c for c, p in enumerate(perms)}
        right, left, start, finish = [], [], [], []
        for p in perms:
            pos = [0] * (n + 1)  # pos[v]: 0-based position of value v
            for k, v in enumerate(p):
                pos[v] = k
            x_s, s_x = [0] * n, [0] * n
            for i in range(1, n):
                # x * s_i swaps the values i, i+1; s_i * x swaps positions i, i+1
                m = list(p)
                m[pos[i]], m[pos[i + 1]] = i + 1, i
                x_s[i] = code[tuple(m)]
                m = list(p)
                m[i - 1], m[i] = m[i], m[i - 1]
                s_x[i] = code[tuple(m)]
            right.append(x_s)
            left.append(s_x)
            start.append(sum(1 << i for i in range(1, n) if p[i - 1] > p[i]))
            finish.append(sum(1 << i for i in range(1, n) if pos[i] > pos[i + 1]))
        self.perms, self.code = perms, code
        self.right, self.left = right, left
        self.start, self.finish = start, finish
        self.delta = len(perms) - 1


_SIMPLE_TABLES: dict[int, _SimpleTable] = {}


def _simples(n: int) -> _SimpleTable:
    table = _SIMPLE_TABLES.get(n)
    if table is None:
        table = _SIMPLE_TABLES[n] = _SimpleTable(n)
    return table


class GarsideNormalForm:
    """Canonical form Delta^k * f_1 ... f_m with left-weighted permutation
    braid factors, none of which is trivial or the half twist."""

    __slots__ = ("n", "delta_power", "factors")

    def __init__(self, n: int, delta_power: int, factors: Sequence[Permutation]):
        factors = tuple(factors)
        delta = Permutation(range(n, 0, -1))
        for f in factors:
            if f.n != n:
                raise ValueError("factor degree mismatch")
            if f.is_identity() or f == delta:
                raise ValueError("factors must be proper permutation braids")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta_power", delta_power)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("GarsideNormalForm is immutable")

    def is_trivial(self) -> bool:
        return self.delta_power == 0 and not self.factors

    def __eq__(self, other) -> bool:
        return (isinstance(other, GarsideNormalForm)
                and self.n == other.n
                and self.delta_power == other.delta_power
                and self.factors == other.factors)

    def __hash__(self) -> int:
        return hash((self.n, self.delta_power, self.factors))

    def __repr__(self) -> str:
        return f"GarsideNormalForm(n={self.n}, Delta^{self.delta_power}, {len(self.factors)} factors)"

    def to_braid_word(self) -> BraidWord:
        letters = list((delta_word(self.n) ** self.delta_power).letters)
        for f in self.factors:
            letters += _perm_letters(f)
        return BraidWord(self.n, letters)

    def factor_words(self) -> list[BraidWord]:
        """Each permutation-braid factor as a positive word."""
        return [BraidWord(f.n, _perm_letters(f)) for f in self.factors]


def _perm_letters(p: Permutation) -> list[Letter]:
    # peel off the lowest starting generator until the identity is left
    t = _simples(p.n)
    letters = []
    c = t.code[p.mapping]
    while c:
        start = t.start[c]
        i = (start & -start).bit_length() - 1
        letters.append((i, 1))
        c = t.left[c][i]
    return letters


def normal_form(w: BraidWord) -> GarsideNormalForm:
    """Left-greedy normal form.

    The word is rewritten as Delta^-N times one permutation braid per letter,
    N being the number of negative letters: s_i stays s_i and s_i^-1 becomes
    Delta * s_i^-1, each conjugated by Delta when an odd number of negative
    letters follows it.  The factors are kept left-weighted as they are
    appended: a single right-to-left pass transfers starting generators of
    each factor into its predecessor and stops at the first pair that is
    already left-weighted.  Half twists that reach the front join the power.
    """
    n = w.n
    t = _simples(n)
    right, left, start, finish = t.right, t.left, t.start, t.finish
    delta = t.delta
    after = sum(1 for _, sign in w.letters if sign < 0)  # negative letters still to come
    power = -after
    factors: list[int] = []
    lo = 0  # factors[:lo] are half twists already counted in power
    for idx, sign in w.letters:
        if sign < 0:
            after -= 1
        if after & 1:
            idx = n - idx  # conjugation by Delta swaps s_i and s_(n-i)
        y = left[0][idx] if sign > 0 else right[delta][idx]  # s_idx or Delta * s_idx^-1
        factors.append(y)
        j = len(factors) - 1
        while j > lo:
            x = factors[j - 1]
            todo = start[y] & ~finish[x]
            if not todo:
                break
            while todo:
                i = (todo & -todo).bit_length() - 1
                x, y = right[x][i], left[y][i]
                todo = start[y] & ~finish[x]
            factors[j] = y
            j -= 1
            factors[j] = y = x
        if not factors[-1]:
            factors.pop()
        if lo < len(factors) and factors[lo] == delta:
            lo += 1
            power += 1
    perms = t.perms
    return GarsideNormalForm(n, power, [Permutation(perms[c]) for c in factors[lo:]])


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    """Equality in B_n via identical normal forms."""
    if u.n != v.n:
        raise ValueError("strand count mismatch")
    return normal_form(u) == normal_form(v)


# --- Dehornoy handle reduction (cross-check oracle) --------------------------


def _leftmost_handle(letters: list[Letter]) -> tuple[int, int] | None:
    # a handle is s_i^e ... s_i^-e with only generators of larger index between
    for k2, (i2, e2) in enumerate(letters):
        for k1 in range(k2 - 1, -1, -1):
            i1, e1 = letters[k1]
            if i1 > i2:
                continue
            if i1 == i2 and e1 == -e2:
                return (k1, k2)
            break  # blocked by an index <= i2
    return None


def handle_reduce(w: BraidWord, max_steps: int = 1_000_000) -> BraidWord:
    """Reduce the leftmost handle until none remains.  The result is empty iff
    the braid is trivial (a nonempty handle-free word is sigma-definite)."""
    letters = list(w.letters)
    for _ in range(max_steps):
        h = _leftmost_handle(letters)
        if h is None:
            return BraidWord(w.n, letters)
        k1, k2 = h
        i, e = letters[k1]
        repl: list[Letter] = []
        for j, d in letters[k1 + 1:k2]:
            if j == i + 1:
                repl.extend([(i + 1, -e), (i, d), (i + 1, e)])
            else:
                repl.append((j, d))
        letters = list(_reduce(letters[:k1] + repl + letters[k2 + 1:]))
    raise RuntimeError("handle reduction exceeded the step budget")


def handle_trivial(w: BraidWord) -> bool:
    return len(handle_reduce(w)) == 0


# --- strand deletion and the quartic-to-cubic epimorphism --------------------


def delete_strand(w: BraidWord, i: int) -> BraidWord:
    """Remove strand i from a pure braid of B_n, yielding a braid of B_{n-1}.

    Position tracking: crossings involving the tracked strand are dropped
    (updating its position), crossings above it shift down by one.
    """
    if not 1 <= i <= w.n:
        raise ValueError(f"strand {i} out of range")
    if not braid_perm(w).is_identity():
        raise NonPureBraid("strand deletion is defined on pure braids only")
    pos = i
    out: list[Letter] = []
    for j, s in w.letters:
        if pos == j:
            pos = j + 1
        elif pos == j + 1:
            pos = j
        elif j + 1 < pos:
            out.append((j, s))
        else:
            out.append((j - 1, s))
    return BraidWord(w.n - 1, out)


def cardano_ferrari(w: BraidWord) -> BraidWord:
    """The epimorphism B_4 -> B_3 that adds the relator s1 s3^-1
    (letterwise: s1 -> s1, s2 -> s2, s3 -> s1)."""
    if w.n != 4:
        raise ValueError("defined on B_4")
    return BraidWord(3, tuple((1 if j == 3 else j, s) for j, s in w.letters))


# --- conjugation action on the normal F_2 ------------------------------------
#
# The generators act by conjugation on <a, b> = <s1 s3^-1, s2 s1 s3^-1 s2^-1>.
# Images are words in a (generator 1) and b (generator 2).  The s2^-1 a-row is
# forced by the others: it must be the compositional inverse of the s2 row and
# its exponent vector must land in SL(2,Z).

SIGMA_ACTION_TABLE: dict[tuple[int, int], tuple[str, str]] = {
    (1, 1): ("a", "b a^-1"),
    (2, 1): ("b", "b a^-1 b"),
    (3, 1): ("a", "a^-1 b"),
    (1, -1): ("a", "b a"),
    (2, -1): ("a b^-1 a", "a"),
    (3, -1): ("a", "a b"),
}


def generator_action(i: int, sign: int, table=None) -> FreeHom:
    """Tabulated conjugation action of s_i^sign on the normal F_2 of B_4."""
    table = SIGMA_ACTION_TABLE if table is None else table
    if (i, sign) not in table:
        raise ValueError(f"no action row for (s{i})^{sign}")
    a_img, b_img = table[(i, sign)]
    return FreeHom(2, 2, (parse_word(a_img, 2), parse_word(b_img, 2)))


def braid_action(w: BraidWord, table=None) -> FreeHom:
    """Diagrammatic composition of the per-letter actions over the word."""
    if w.n != 4:
        raise ValueError("the F_2 conjugation action lives on B_4")
    f = FreeHom.identity(2)
    for i, s in w.letters:
        f = compose(f, generator_action(i, s, table))
    return f


def expand_f2(w: Word) -> BraidWord:
    """Substitute the braid words for a and b into a rank-2 free-group word."""
    return BraidWord(4, FreeHom(2, 3, f2_word())(w).letters)


def verify_table_row(i: int, sign: int, row: tuple[str, str] | None = None) -> bool:
    """Check one action-table row against actual conjugation in B_4:
    s_i^sign g s_i^-sign must equal the expanded image for g in {a, b}."""
    f = generator_action(i, sign) if row is None else FreeHom(
        2, 2, (parse_word(row[0], 2), parse_word(row[1], 2)))
    s = BraidWord.gen(4, i, sign)
    for k, g in enumerate(f2_word()):
        lhs = s * g * s.inverse()
        rhs = expand_f2(f.images[k])
        if not braid_equal(lhs, rhs):
            return False
    return True


def braid_to_word(w: BraidWord) -> Word:
    """Reinterpret as a free-group word on n-1 generators (for presentations)."""
    return Word(w.rank, w.letters)
