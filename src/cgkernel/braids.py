"""Braid groups B_n for n <= 6.

The word problem is solved by Garside left normal form (permutation-braid
factors behind a power of the half twist); Dehornoy handle reduction is kept
alongside as an independent cross-check oracle.  On top of that sit the
4-strand specifics: Artin generators of the pure braid group, strand deletion,
the epimorphism to B_3 killing s1*s3^-1, and the conjugation action on the
rank-2 normal free subgroup <s1 s3^-1, s2 s1 s3^-1 s2^-1>.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache
from itertools import permutations

from .perms import Permutation
from .words import FreeHom, Letter, Word, compose

MAX_STRANDS = 6
HANDLE_STEPS = 1_000_000  # handle reductions before handle_reduce gives up


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


@cache
def f2_word() -> tuple[BraidWord, BraidWord]:
    return parse_braid(A_WORD_STR, 4), parse_braid(B_WORD_STR, 4)


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
    """Products with the generators, starting/finishing bitmasks (bit i for
    s_i) and conjugates by the half twist of the permutation braids of B_n,
    indexed by code."""

    __slots__ = ("perms", "code", "right", "left", "start", "finish", "tau", "delta")

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
        # Delta^-1 x Delta: i -> n+1-x(n+1-i), so s_i <-> s_(n-i)
        self.tau = [code[tuple(n + 1 - v for v in reversed(p))] for p in perms]
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
    already left-weighted.  A factor that is or becomes the half twist is
    taken out where it stands, by f * Delta = Delta * tau(f) with tau the
    conjugation by Delta: the factors before it are replaced by their
    conjugates, the power goes up by one and the pass ends, since tau keeps
    pairs left-weighted and (tau(f), g) is the pair the half twist would
    leave behind on its way to the front.
    """
    n = w.n
    t = _simples(n)
    right, left, start, finish, tau = t.right, t.left, t.start, t.finish, t.tau
    delta = t.delta
    after = sum(1 for _, sign in w.letters if sign < 0)  # negative letters still to come
    power = -after
    factors: list[int] = []  # left-weighted, none of them Delta
    for idx, sign in w.letters:
        if sign < 0:
            after -= 1
        if after & 1:
            idx = n - idx  # conjugation by Delta swaps s_i and s_(n-i)
        y = left[0][idx] if sign > 0 else right[delta][idx]  # s_idx or Delta * s_idx^-1
        j = len(factors)
        factors.append(y)
        while j and y != delta:
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
        if y == delta:
            del factors[j]
            factors[:j] = map(tau.__getitem__, factors[:j])
            power += 1
        if factors and not factors[-1]:
            factors.pop()
    perms = t.perms
    return GarsideNormalForm(n, power, [Permutation(perms[c]) for c in factors])


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    """Equality in B_n via identical normal forms."""
    if u.n != v.n:
        raise ValueError("strand count mismatch")
    return normal_form(u) == normal_form(v)


# --- Dehornoy handle reduction (cross-check oracle) --------------------------


def handle_reduce(w: BraidWord) -> BraidWord:
    """Leftmost handle reduction in one left-to-right pass.  The result is
    empty iff the braid is trivial (a nonempty handle-free word is
    sigma-definite).

    A handle is s_i^e v s_i^-e with only generators of index > i in v; an
    adjacent inverse pair is one with v empty, so no separate free reduction
    is needed.  Reducing it replaces each s_(i+1)^d of v by
    s_(i+1)^-e s_i^d s_(i+1)^e, drops the two ends and keeps the other letters.
    Each such step counts against HANDLE_STEPS; a word that needs that many
    raises RuntimeError.
    """
    out: list[Letter] = []  # the letters read so far, never holding a handle
    todo = list(reversed(w.letters))  # the letters still to read, next one last
    steps = HANDLE_STEPS
    while todo:
        i, e = letter = todo.pop()
        k = len(out) - 1
        while k >= 0 and out[k][0] > i:
            k -= 1
        if k < 0 or out[k] != (i, -e):
            out.append(letter)
            continue
        # out[k:] + [letter] is a handle, and the leftmost one since out holds
        # none.  Its reduction goes back onto todo, to be read again: out[:k]
        # is unchanged and handle-free, so the next handle ends at or after
        # the first letter pushed back.  The handle opens with s_i^-e, so each
        # s_(i+1)^d becomes s_(i+1)^e s_i^d s_(i+1)^-e, pushed in reverse.
        steps -= 1
        if not steps:
            raise RuntimeError("handle reduction exceeded the step budget")
        for j, d in reversed(out[k + 1:]):
            if j == i + 1:
                todo += ((j, -e), (i, d), (j, e))
            else:
                todo.append((j, d))
        del out[k:]
    return BraidWord(w.n, out)


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


@cache
def generator_action(i: int, sign: int) -> FreeHom:
    """Tabulated conjugation action of s_i^sign on the normal F_2 of B_4."""
    if (i, sign) not in SIGMA_ACTION_TABLE:
        raise ValueError(f"no action row for (s{i})^{sign}")
    return FreeHom.from_strings(2, 2, SIGMA_ACTION_TABLE[(i, sign)])


def braid_action(w: BraidWord) -> FreeHom:
    """Diagrammatic composition of the per-letter actions over the word.

    The fold runs from the right, ``f = compose(generator_action(i, s), f)``:
    each step applies the action of the rest of the word to the two short
    images of one letter's action, so ``FreeHom.__call__`` joins two or three
    long image blocks instead of mapping a long image letter by letter.
    Reduced images are unique, so this is the same hom as the left fold
    ``compose(compose(id, a_1), a_2)...``."""
    if w.n != 4:
        raise ValueError("the F_2 conjugation action lives on B_4")
    f = FreeHom.identity(2)
    for i, s in reversed(w.letters):
        f = compose(generator_action(i, s), f)
    return f


def expand_f2(w: Word) -> BraidWord:
    """Substitute the braid words for a and b into a rank-2 free-group word."""
    return BraidWord(4, FreeHom(2, 3, f2_word())(w).letters)


def braid_to_word(w: BraidWord) -> Word:
    """Reinterpret as a free-group word on n-1 generators (for presentations)."""
    return Word(w.rank, w.letters)
