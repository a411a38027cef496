"""Finitely presented groups: Todd-Coxeter coset enumeration (Felsch-style
deduction processing), coset tables induced by finite quotients, Reidemeister-
Schreier subgroup presentations, and abelianization.

Coset tables are stored column-major, one tuple per generator and inverse,
interleaved so that column ^ 1 is always the inverse column: columns[x][c] is
coset c times column x.  Both producers fill the columns, `validate` checks
them in place, and `CosetTable.table` derives rows for callers.  Coset 0 is
the subgroup itself.  Every finished table is in standard numbering: cosets
are numbered breadth first from coset 0, trying the columns in the order g1,
g1^-1, g2, ....  One breadth-first walk, `perms.orbit`, gives that numbering
to both producers; `todd_coxeter` needs it only after a coincidence or a
subgroup generator, as it otherwise defines its cosets in that order.  A
subgroup has exactly one such table, so `todd_coxeter` and
`coset_table_from_quotient` give the same table for the same subgroup, and
tables, Schreier generators, and rewritten presentations are reproducible
run to run.  A free group is a presentation without relators, so the same
table is the Schreier coset graph of a finite-index subgroup of a free group.

One walk, `_walk`, reads a word from a coset over the Schreier tree's edge
labels.  Rewriting subgroup words, Reidemeister-Schreier and
`subgroup_abelianization` are views of it; the last streams each walk's
exponent sums to `sparse_cokernel` and builds no `Word` or `Presentation`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import count

from .intlin import AbelianStructure, sparse_cokernel
from .perms import (DEFAULT_MAX_COSETS, CosetLimitExceeded, Permutation, orbit,
                    regular_orbit)
from .words import FreeHom, Word, _Record, _inverse, default_names, format_word, parse_word


class RelatorViolated(ValueError):
    """Quotient images fail to satisfy a relator."""


class NotMember(ValueError):
    """Word does not lie in the subgroup."""


class Presentation(_Record):
    """Group presentation; relators are stored freely and cyclically reduced."""

    ngens: int
    relators: tuple[Word, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.ngens < 1:
            raise ValueError("need at least one generator")
        names = self.names or default_names(self.ngens)
        if len(names) != self.ngens:
            raise ValueError("one name per generator")
        if len(set(names)) != self.ngens:
            raise ValueError("duplicate generator name")
        object.__setattr__(self, "names", tuple(names))
        normalized = []
        for r in self.relators:
            if r.rank != self.ngens:
                raise ValueError("relator rank mismatch")
            normalized.append(r.cyclically_reduced())
        object.__setattr__(self, "relators", tuple(normalized))

    def word(self, text: str) -> Word:
        return parse_word(text, self.ngens, self.names)


def parse_presentation(text: str) -> Presentation:
    """Text format: first line ``gens: a b c``, then ``rel: a b A B`` lines
    (upper-case letters are inverses); blank lines and ``#`` comments allowed."""
    names: tuple[str, ...] | None = None
    rels: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key == "gens":
            if names is not None:
                raise ValueError("duplicate gens line")
            names = tuple(rest.split())
            if not names:
                raise ValueError("empty generator list")
        elif key == "rel":
            rels.append(rest)
        else:
            raise ValueError(f"unrecognized line {raw!r}")
    if names is None:
        raise ValueError("missing gens line")
    ngens = len(names)
    return Presentation(ngens, tuple(parse_word(r, ngens, names) for r in rels), names)


def format_presentation(pres: Presentation) -> str:
    lines = ["gens: " + " ".join(pres.names)]
    lines += ["rel: " + format_word(r, pres.names) for r in pres.relators]
    return "\n".join(lines) + "\n"


def _exponent_rows(words: Iterable[Iterable[tuple[int, int]]]) -> Iterator[dict[int, int]]:
    # each word's exponent sums, as a sparse row {generator - 1: sum}, made
    # as the word is read; a word whose sums all vanish gives no row
    for letters in words:
        row: dict[int, int] = {}
        for g, s in letters:
            row[g - 1] = row.get(g - 1, 0) + s
        if not all(row.values()):
            row = {j: x for j, x in row.items() if x}
        if row:
            yield row


def abelianization(pres: Presentation) -> AbelianStructure:
    """Cokernel of the relator exponent matrix.  Each relator's exponent
    sums are added up straight into a sparse row {generator - 1: sum}, and
    `sparse_cokernel` takes the rows one at a time, in relator order, as
    they are made; a relator whose sums all vanish gives no row, and no
    dense row or matrix is built."""
    return sparse_cokernel(_exponent_rows(r.letters for r in pres.relators), pres.ngens)


def _cols(w: Word) -> tuple[int, ...]:
    # column encoding: generator g -> 2(g-1), inverse -> 2(g-1)+1
    return tuple(2 * (i - 1) + (0 if s == 1 else 1) for i, s in w.letters)


class SchreierTree(_Record):
    """Breadth-first spanning tree of a coset table, all positive edges
    before negative ones at every coset.  Each coset's representative is its
    parent's followed by the letter of the tree edge between them; it is
    spelled only where a caller needs it.  Cosets are numbered breadth
    first, so every coset but 0 is numbered above its parent."""

    parent: tuple[int, ...]              # parent[c]: c's parent coset, 0 for 0
    letter: tuple[tuple[int, int], ...]  # letter[c]: the edge from parent[c]
                                         # to c as (generator, sign); (0, 0) for 0
    labels: tuple[tuple[int, ...], ...]  # labels[c][g-1]: the edge (c, g)'s
                                         # Schreier generator (1-based), 0 on the tree
    nsub: int                            # number of Schreier generators


class CosetTable(_Record):
    """Complete coset table over a finitely presented group, column-major:
    ``columns[x][c]`` is coset c times column x.  Its Schreier tree, basis
    and basis hom are built once, on first use."""

    presentation: Presentation
    subgroup_gens: tuple[Word, ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.columns[0])

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """Row view for callers: ``table[c][x] == columns[x][c]``, built
        afresh on every read."""
        return tuple(zip(*self.columns))

    @cached_property
    def tree(self) -> SchreierTree:
        return _schreier_tree(self)

    @cached_property
    def basis(self) -> tuple[Word, ...]:
        """Schreier generators r_c g r_{c.g}^-1 for the non-tree edges, in
        (coset, generator) order; a free basis of the subgroup when the
        presentation has no relators."""
        # r_c and r_d are paths down the tree, so each is reduced: each step
        # enters a coset not seen before, so no letter steps back along the
        # edge of the letter before it.  The off-tree edge (c, g) between them
        # cancels neither: the letter before it enters c along a tree edge,
        # the letter after it leaves d = c.g along one, and only a letter of
        # the same edge could cancel g
        ngens, tree, columns = self.presentation.ngens, self.tree, self.columns
        reps = [()] * self.index
        for c in range(1, self.index):  # a parent is numbered below its child
            reps[c] = reps[tree.parent[c]] + (tree.letter[c],)
        inverses = [_inverse(r) for r in reps]
        return tuple(
            Word._reduced(ngens, reps[c] + ((g + 1, 1),) + inverses[columns[2 * g][c]])
            for c in range(self.index) for g in range(ngens) if tree.labels[c][g])

    @cached_property
    def basis_hom(self) -> FreeHom:
        """The map sending Schreier generator k to ``basis[k - 1]``: it
        expands a word over the basis letters into the ambient word."""
        return FreeHom(len(self.basis), self.presentation.ngens, self.basis)

    def trace(self, coset: int, w: Word) -> int:
        _check_rank(self, w)
        for x in _cols(w):
            coset = self.columns[x][coset]
        return coset

    def validate(self) -> None:
        """Checks the columns in place: 2 * ngens of one nonzero length, each
        permuting the cosets, column x ^ 1 inverting column x; every relator
        closes at every coset; subgroup generators fix coset 0."""
        columns, ncols = self.columns, 2 * self.presentation.ngens
        if len(columns) != ncols or any(len(col) != len(columns[0]) for col in columns):
            raise AssertionError(f"table is not {ncols} columns of one length")
        n = len(columns[0])
        if not n:
            raise AssertionError("table has no cosets")
        ident = list(range(n))
        # inv . col = id puts every coset among inv's n entries (even where a
        # negative entry of col indexes inv from the end), so inv permutes the
        # cosets; col . inv = id then shows that col does too.  An involution's
        # two columns are one tuple, and col . col = id is the whole proof.
        for x in range(0, ncols, 2):
            col, inv = columns[x], columns[x + 1]
            try:
                ok = ([inv[d] for d in col] == ident
                      and (inv is col or [col[d] for d in inv] == ident))
            except (IndexError, TypeError):  # an entry past the end or not an int
                ok = False
            if not ok:
                raise AssertionError(f"column {x + 1} does not invert column {x}")
        for r in self.presentation.relators:
            # r = u^m for its shortest period u: the permutation of u,
            # raised to the m-th power, maps each coset to its trace by r
            cols = _cols(r)
            k = len(cols)
            if not k:
                continue  # the empty relator closes everywhere
            p = next(p for p in range(1, k + 1) if k % p == 0 and cols[:p] * (k // p) == cols)
            perm = list(columns[cols[0]])  # a list, to compare with ident
            for x in cols[1:p]:
                col = columns[x]
                perm = [col[d] for d in perm]
            image = perm
            for _ in range(k // p - 1):
                image = [perm[d] for d in image]
            if image != ident:
                c = next(c for c in ident if image[c] != c)
                raise AssertionError(f"relator open at coset {c}")
        for w in self.subgroup_gens:
            if self.trace(0, w) != 0:
                raise AssertionError("subgroup generator does not fix coset 0")


def todd_coxeter(pres: Presentation, subgens: Sequence[Word],
                 max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Felsch-style coset enumeration of the subgroup generated by ``subgens``.

    The subgroup generators are traced from coset 0, defining cosets as
    needed.  After that each new coset is defined at the first blank entry
    in (coset, column) order, and every entry that gets filled, by a
    definition, a deduction or a coincidence, is scanned before the next
    definition: each cyclic conjugate of a relator or its inverse that
    starts with the entry's column is traced from the entry's coset without
    defining anything, filling a single missing entry or merging two cosets
    whose loop closes wrongly.  A loop through the entry reads as such a
    conjugate from its coset, so when no blank is left every relator closes
    everywhere.  A generator whose square is a relator is its own inverse,
    so its two columns are one list, and each of its edges is stored and
    scanned once.

    ``max_cosets`` bounds the rows held.  When a definition would pass it,
    the rows of merged cosets are compacted away first; if the live cosets
    alone fill the limit, the enumeration aborts with CosetLimitExceeded.
    The finished table is in standard numbering and is validated.  It is
    renumbered breadth first only when a coincidence or a subgroup
    generator's definitions may have left it out of that order.
    """
    for w in subgens:
        if w.rank != pres.ngens:
            raise ValueError("subgroup generator rank mismatch")
    if max_cosets < 1:  # no room for coset 0
        raise CosetLimitExceeded(f"enumeration exceeded {max_cosets} cosets")
    ncols = 2 * pres.ngens
    involutions = {r.letters[0][0] - 1 for r in pres.relators
                   if len(r) == 2 and r.letters[0] == r.letters[1]}
    table: list[list[int]] = []  # table[x][c]: coset c times column x; -1 blank
    for x in range(ncols):
        table.append(table[x - 1] if x % 2 and x // 2 in involutions else [-1])
    # table[x] is table[canon[x]]
    canon = [x & ~1 if x // 2 in involutions else x for x in range(ncols)]
    xs = sorted(set(canon))  # the distinct columns
    parent = [0]  # union-find over rows; a merged row points at a lower one
    # entries c * width + x whose loops are not yet scanned: column x, or for
    # x >= ncols subgroup generator x - ncols at coset 0, generator 0 on top
    width = ncols + len(subgens)
    deductions = list(range(width - 1, ncols - 1, -1))
    nlive = 1
    standard = True  # no coincidence so far

    # scans[x]: the loops traced through an entry of column x, as their
    # forward columns, the inverse columns, the column numbers and their
    # length.  For x < ncols they are the distinct cyclic conjugates of the
    # relators and their inverses that start with column x; for x >= ncols,
    # subgroup generator x - ncols.
    scans: list[list[tuple]] = [[] for _ in range(width)]

    def add_loop(x: int, cols: tuple[int, ...]) -> None:
        scans[x].append((tuple(table[y] for y in cols), tuple(table[y ^ 1] for y in cols),
                         cols, len(cols)))

    seen = set()
    for r in pres.relators:
        w = tuple(canon[x] for x in _cols(r))
        if len(w) == 2 and w[0] == w[1]:
            continue  # g^2 for a g in involutions: holds by construction
        for word in (w, tuple(canon[x ^ 1] for x in reversed(w))):
            for k in range(len(word)):
                rot = word[k:] + word[:k]
                if rot not in seen:
                    seen.add(rot)
                    add_loop(rot[0], rot)
    for k, w in enumerate(subgens):
        add_loop(ncols + k, tuple(canon[x] for x in _cols(w)))

    def rep(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def merge(k: int, l: int, queue: list[int]) -> None:
        nonlocal nlive
        k, l = rep(k), rep(l)
        if k != l:
            lo, hi = min(k, l), max(k, l)
            parent[hi] = lo
            nlive -= 1
            queue.append(hi)

    def coincidence(a: int, b: int) -> None:
        # move each merged row's entries to its representative, merging
        # further cosets where two entries disagree
        nonlocal standard
        standard = False
        queue: list[int] = []
        merge(a, b, queue)
        for dead in queue:
            for x in xs:
                col = table[x]
                d = col[dead]
                if d < 0:
                    continue
                inv = table[x ^ 1]
                inv[d] = -1
                mu, nu = rep(dead), rep(d)
                if col[mu] >= 0:
                    merge(nu, col[mu], queue)
                elif inv[nu] >= 0:
                    merge(mu, inv[nu], queue)
                else:
                    col[mu] = nu
                    inv[nu] = mu
                    deductions.append(mu * width + x)

    def process() -> None:
        # trace each pending entry's loops from its coset: deduce a loop's
        # entry if exactly one is blank, merge its ends if none is; a
        # subgroup generator with more blanks defines its first one and is
        # traced again once everything that definition implies is scanned
        push = deductions.append
        while deductions:
            c, x = divmod(deductions.pop(), width)
            if parent[c] != c:
                continue  # its entries were pushed again at its representative
            for fwd, bwd, cols, n in scans[x]:
                f, i = c, 0
                while i < n:
                    e = fwd[i][f]
                    if e < 0:
                        break
                    f, i = e, i + 1
                b, j = c, n - 1
                while j >= i:
                    e = bwd[j][b]
                    if e < 0:
                        break
                    b, j = e, j - 1
                if j < i:
                    if f != b:
                        coincidence(f, b)
                        if parent[c] != c:
                            break
                elif j == i:
                    fwd[i][f] = b
                    bwd[i][b] = f
                    push(f * width + cols[i])
                elif x >= ncols:
                    push(x)
                    define(f, cols[i])

    def define(c: int, x: int) -> int:
        # new coset c.x; returns c's number, which compaction may change
        nonlocal nlive
        if len(parent) >= max_cosets:
            if nlive < len(parent):
                c = compact()[c]
            if len(parent) >= max_cosets:
                raise CosetLimitExceeded(f"enumeration exceeded {max_cosets} cosets")
        b = len(parent)
        parent.append(b)
        for y in xs:
            table[y].append(-1)
        table[x][c] = b
        table[x ^ 1][b] = c
        nlive += 1
        deductions.append(c * width + x)
        return c

    def compact() -> list[int]:
        # drop merged rows, keeping the live ones in order; called when the
        # only pending entries are subgroup generators at coset 0, which
        # stays 0, and live rows point only at live rows
        live = [k for k in range(len(parent)) if parent[k] == k]
        new = [-1] * (len(parent) + 1)  # new[-1] keeps blanks blank
        for i, k in enumerate(live):
            new[k] = i
        for x in xs:
            col = table[x]
            col[:] = [new[col[k]] for k in live]
        parent[:] = range(len(live))
        return new

    process()
    if len(parent) > 1:  # the subgroup generators defined cosets
        standard = False
    c, x = 0, 0
    while True:
        while c < len(parent):
            if parent[c] == c:
                while x < ncols and table[x][c] >= 0:
                    x += 1
                if x < ncols:
                    break
            c, x = c + 1, 0
        else:
            break
        c = define(c, x)
        process()

    if standard:
        # Already standard: each coset b was defined at the first blank in
        # row-major order, when every entry before it held a coset below b,
        # and entries never change without a coincidence.  So the cosets
        # first appear in row-major order in increasing order, which is the
        # order a breadth-first walk from coset 0 numbers them in.  The two
        # columns of an involution stay one tuple.
        frozen = {x: tuple(table[x]) for x in xs}
        columns = tuple(frozen[x] for x in canon)
    else:  # standard numbering: breadth first from coset 0, columns in order
        _, columns = orbit(0, lambda c: [col[c] for col in table])
    ct = CosetTable(pres, tuple(subgens), columns)
    ct.validate()
    return ct


def coset_table_from_quotient(pres: Presentation, images: Sequence[Permutation],
                              max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Coset table of the kernel of the homomorphism sending generator i to
    images[i], acting on the image group regularly.  Coset 0 is the identity;
    the elements are in standard numbering.  The regular action is walked
    with the images alone, one gather per point (`regular_orbit`).  Since the
    action is regular, each inverse column is the inverse permutation of its
    forward column, and one `orbit` pass over the integer columns renumbers
    the elements into standard numbering.  The index is the order of the
    image group; when it passes ``max_cosets`` the walk stops there with
    CosetLimitExceeded."""
    if len(images) != pres.ngens:
        raise ValueError("one image per generator")
    forward = regular_orbit(images, max_cosets)[1]
    # g^-1's column is the inverse permutation of g's: the cosets sorted by
    # their images under g.  Sorting one list shares its ints among columns.
    cosets = list(range(len(forward[0])))
    table = []
    for col in forward:
        table += col, sorted(cosets, key=col.__getitem__)
    _, columns = orbit(0, lambda c: [col[c] for col in table])
    ct = CosetTable(pres, (), columns)
    # the action is regular, so a relator closes at coset 0 iff its image is 1
    for r in pres.relators:
        if ct.trace(0, r) != 0:
            raise RelatorViolated(f"relator {format_word(r, pres.names)} not satisfied")
    ct.validate()
    return ct


def _schreier_tree(ct: CosetTable) -> SchreierTree:
    ngens, n = ct.presentation.ngens, ct.index
    parent = [-1] * n
    parent[0] = 0
    letter = [(0, 0)] * n
    on_tree = [[False] * ngens for _ in range(n)]
    # every positive column before every negative one, with its letter
    edges = [(ct.columns[2 * g + k], g, (g + 1, 1 - 2 * k)) for k in (0, 1) for g in range(ngens)]
    queue = [0]
    for c in queue:  # the queue grows as the walk goes
        for col, g, let in edges:
            d = col[c]
            if parent[d] < 0:
                if d < c:
                    raise ValueError("Schreier tree needs every coset numbered above "
                                     "its parent, as standard numbering does")
                parent[d], letter[d] = c, let
                on_tree[c if let[1] == 1 else d][g] = True
                queue.append(d)
    fresh = count(1)  # the off-tree edges' labels, in (coset, generator) order
    labels = tuple(tuple(0 if edge_on_tree else next(fresh) for edge_on_tree in row)
                   for row in on_tree)
    return SchreierTree(tuple(parent), tuple(letter), labels, next(fresh) - 1)


def _check_rank(ct: CosetTable, w: Word) -> None:
    if w.rank != ct.presentation.ngens:
        raise ValueError(f"rank mismatch: word has rank {w.rank}, "
                         f"table has {ct.presentation.ngens} generators")


def _walk(ct: CosetTable, start: int, w: Word) -> tuple[list[tuple[int, int]], int]:
    # The one reading of a word over the tree labels: w read from coset
    # start as Schreier letters (label, sign), and its end coset.  The
    # letters are freely reduced because w is: two adjacent Schreier letters
    # k^s, k^-s cross the off-tree edge of k one way and then back, so the
    # letters of w between them walk the tree from the coset where the first
    # crossing ends to the same coset, where the second starts.  A reduced
    # walk in a tree never returns to where it started, so that walk is
    # empty, and the two letters of w that cross the edge would be adjacent
    # inverses.
    _check_rank(ct, w)
    columns, labels = ct.columns, ct.tree.labels
    letters = []
    c = start
    for i, s in w.letters:
        if s == 1:
            k = labels[c][i - 1]
            c = columns[2 * i - 2][c]
        else:
            c = columns[2 * i - 1][c]
            k = labels[c][i - 1]
        if k:
            letters.append((k, s))
    return letters, c


def _relator_walks(ct: CosetTable) -> Iterator[list[tuple[int, int]]]:
    # each relator read from each coset, in (coset, relator) order
    return (_walk(ct, c, r)[0] for c in range(ct.index) for r in ct.presentation.relators)


def reidemeister_schreier(ct: CosetTable) -> Presentation:
    """Presentation of the subgroup on its Schreier generators: one generator
    per non-tree edge, one relator per (coset, ambient relator) pair.  Tree
    generators are eliminated; no further simplification is attempted."""
    nsub = ct.tree.nsub
    return Presentation(nsub, tuple(Word._reduced(nsub, tuple(letters))
                                    for letters in _relator_walks(ct) if letters))


def subgroup_abelianization(ct: CosetTable) -> AbelianStructure:
    """Abelianization of the table's subgroup, equal to
    ``abelianization(reidemeister_schreier(ct))``: each (coset, relator)
    walk is summed into its row as it is made, and `sparse_cokernel` takes
    the rows in that order, so no `Word` and no `Presentation` is built."""
    return sparse_cokernel(_exponent_rows(_relator_walks(ct)), ct.tree.nsub)


def rewrite_in_subgroup(ct: CosetTable, w: Word) -> Word:
    """Rewrite a word lying in the subgroup over the Schreier generators;
    expanding the result recovers the input exactly."""
    letters, end = _walk(ct, 0, w)
    if end != 0:
        raise NotMember("word does not return to the base state")
    return Word._reduced(ct.tree.nsub, tuple(letters))


# --- stock presentations ------------------------------------------------------


def braid_presentation(n: int) -> Presentation:
    """Artin presentation of B_n on s1..s(n-1)."""
    names = tuple(f"s{i}" for i in range(1, n))
    gens = n - 1
    rels = []
    for i in range(1, gens):
        rels.append(parse_word(f"s{i} s{i+1} s{i} s{i+1}^-1 s{i}^-1 s{i+1}^-1",
                               gens, names))
    for i in range(1, gens + 1):
        for j in range(i + 2, gens + 1):
            rels.append(parse_word(f"s{i} s{j} s{i}^-1 s{j}^-1", gens, names))
    return Presentation(gens, tuple(rels), names)


def braid_mod_center_presentation(n: int) -> Presentation:
    """B_n with the generator of the center, (s1...s(n-1))^n, as a relator.
    For n = 4 this presents the special automorphism group of F_2."""
    base = braid_presentation(n)
    center = Word.identity(base.ngens)
    for i in range(1, n):
        center = center * Word.gen(base.ngens, i)
    return Presentation(base.ngens, base.relators + (center ** n,), base.names)


def sl2z_presentation() -> Presentation:
    """SL(2,Z) = <s, t | s^4, (st)^3 s^-2> with s, t the standard matrices.
    Sanity anchors: abelianization Z/12, mod-2 kernel of index 6."""
    names = ("s", "t")
    rels = (
        parse_word("s^4", 2, names),
        parse_word("s t s t s t s^-2", 2, names),
    )
    return Presentation(2, rels, names)


def pure_braid3_presentation() -> Presentation:
    """P_3 on the three twist generators, with the full twist A12 A13 A23
    central (abelianization Z^3)."""
    names = ("A12", "A13", "A23")
    z = "A12 A13 A23"
    rels = (
        parse_word(f"{z} A12 A23^-1 A13^-1 A12^-1 A12^-1", 3, names),
        parse_word(f"{z} A13 A23^-1 A13^-1 A12^-1 A13^-1", 3, names),
    )
    return Presentation(3, rels, names)


def pure_braid3_mod_center_presentation() -> Presentation:
    """P_3 modulo its center: free of rank 2 on any two of the twists
    (abelianization Z^2)."""
    names = ("A12", "A13", "A23")
    return Presentation(3, (parse_word("A12 A13 A23", 3, names),), names)
