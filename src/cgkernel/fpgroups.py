"""Finitely presented groups: Todd-Coxeter coset enumeration (HLT strategy
with lookahead), coset tables induced by finite quotients, Reidemeister-
Schreier subgroup presentations, and abelianization.

Coset tables use one column per generator and inverse, interleaved so that
column ^ 1 is always the inverse column.  Coset 0 is the subgroup itself.
Enumeration is deterministic: relators are scanned in presentation order and
new cosets are defined at the first blank of each forward scan, so tables,
Schreier generators, and rewritten presentations are reproducible run to run.
A free group is a presentation without relators, so the same table is the
Schreier coset graph of a finite-index subgroup of a free group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .intlin import AbelianStructure, IntMatrix, cokernel
from .perms import Permutation
from .words import Word, default_names, format_word, parse_word


class CosetLimitExceeded(RuntimeError):
    """Enumeration passed max_cosets: infinite index or a too-small limit."""


class RelatorViolated(ValueError):
    """Quotient images fail to satisfy a relator."""


class NotMember(ValueError):
    """Word does not lie in the subgroup."""


@dataclass(frozen=True)
class Presentation:
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


def abelianization(pres: Presentation) -> AbelianStructure:
    """Cokernel of the relator exponent matrix."""
    rows = tuple(r.abelianize() for r in pres.relators)
    return cokernel(IntMatrix(rows, cols=pres.ngens))


def _cols(w: Word) -> tuple[int, ...]:
    # column encoding: generator g -> 2(g-1), inverse -> 2(g-1)+1
    return tuple(2 * (i - 1) + (0 if s == 1 else 1) for i, s in w.letters)


@dataclass(frozen=True)
class SchreierTree:
    """Breadth-first spanning tree of a coset table, all positive edges
    before negative ones at every coset."""

    reps: tuple[Word, ...]               # coset representatives
    labels: tuple[tuple[int, ...], ...]  # labels[c][g-1]: the edge (c, g)'s
                                         # Schreier generator (1-based), 0 on the tree
    nsub: int                            # number of Schreier generators


@dataclass(frozen=True)
class CosetTable:
    """Complete coset table over a finitely presented group.  Its Schreier
    tree and basis are built once, on first use."""

    presentation: Presentation
    subgroup_gens: tuple[Word, ...]
    table: tuple[tuple[int, ...], ...]

    @property
    def ncosets(self) -> int:
        return len(self.table)

    @property
    def index(self) -> int:
        return len(self.table)

    @cached_property
    def tree(self) -> SchreierTree:
        return _schreier_tree(self)

    @cached_property
    def basis(self) -> tuple[Word, ...]:
        """Schreier generators r_c g r_{c.g}^-1 for the non-tree edges, in
        (coset, generator) order; a free basis of the subgroup when the
        presentation has no relators."""
        ngens, tree = self.presentation.ngens, self.tree
        return tuple(
            tree.reps[c] * Word.gen(ngens, g + 1) * tree.reps[self.table[c][2 * g]].inverse()
            for c in range(self.ncosets) for g in range(ngens) if tree.labels[c][g])

    def trace(self, coset: int, w: Word) -> int:
        _check_rank(self, w)
        for c in _cols(w):
            coset = self.table[coset][c]
        return coset

    def validate(self) -> None:
        """Every relator closes at every coset; subgroup generators fix coset 0."""
        for row in self.table:
            if any(e is None for e in row):
                raise AssertionError("incomplete table")
        rel_cols = [_cols(r) for r in self.presentation.relators]
        for c in range(self.ncosets):
            for cols in rel_cols:
                d = c
                for x in cols:
                    d = self.table[d][x]
                if d != c:
                    raise AssertionError(f"relator open at coset {c}")
        for w in self.subgroup_gens:
            if self.trace(0, w) != 0:
                raise AssertionError("subgroup generator does not fix coset 0")


def todd_coxeter(pres: Presentation, subgens: Sequence[Word],
                 max_cosets: int = 100_000) -> CosetTable:
    """HLT coset enumeration of the subgroup generated by ``subgens``.

    When the live-coset count passes ``max_cosets``, one lookahead pass scans
    every relator at every live coset without defining anything, hoping to
    collapse the table; if the count still exceeds the limit the enumeration
    aborts with CosetLimitExceeded.
    """
    for w in subgens:
        if w.rank != pres.ngens:
            raise ValueError("subgroup generator rank mismatch")
    ncols = 2 * pres.ngens
    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]  # union-find over cosets; merged cosets point downward
    state = {"live": 1}

    def rep(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def define(a: int, x: int) -> None:
        b = len(table)
        table.append([None] * ncols)
        parent.append(b)
        state["live"] += 1
        table[a][x] = b
        table[b][x ^ 1] = a

    def merge(k: int, l: int, queue: list[int]) -> None:
        k, l = rep(k), rep(l)
        if k != l:
            lo, hi = min(k, l), max(k, l)
            parent[hi] = lo
            state["live"] -= 1
            queue.append(hi)

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            for x in range(ncols):
                d = table[dead][x]
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = rep(dead), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan(a: int, cols: tuple[int, ...], fill: bool) -> None:
        f, i = a, 0
        b, j = a, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] is not None:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][cols[j] ^ 1] is not None:
                b = table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            if not fill:
                return
            define(f, cols[i])

    rel_cols = [_cols(r) for r in pres.relators]

    def enforce_limit() -> None:
        if state["live"] <= max_cosets:
            return
        for c in range(len(table)):  # lookahead: deduce and collapse, no defines
            if parent[c] == c:
                for cols in rel_cols:
                    scan(c, cols, fill=False)
        if state["live"] > max_cosets:
            raise CosetLimitExceeded(f"enumeration exceeded {max_cosets} cosets")

    for w in subgens:
        scan(0, _cols(w), fill=True)
        enforce_limit()

    alpha = 0
    while alpha < len(table):
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for cols in rel_cols:
            scan(alpha, cols, fill=True)
            if parent[alpha] != alpha:
                break
        if parent[alpha] == alpha:
            for x in range(ncols):
                if table[alpha][x] is None:
                    define(alpha, x)
        enforce_limit()
        alpha += 1

    live = [k for k in range(len(table)) if parent[k] == k]
    renumber = {k: idx for idx, k in enumerate(live)}
    for k in live:
        if any(e is None for e in table[k]):
            raise AssertionError("enumeration finished with an incomplete row")
    final = tuple(
        tuple(renumber[rep(table[k][x])] for x in range(ncols)) for k in live
    )
    ct = CosetTable(pres, tuple(subgens), final)
    ct.validate()
    return ct


def coset_table_from_quotient(pres: Presentation,
                              images: Sequence[Permutation]) -> CosetTable:
    """Coset table of the kernel of the homomorphism sending generator i to
    images[i], acting on the image group regularly.  Coset 0 is the identity;
    elements are numbered in breadth-first order."""
    if len(images) != pres.ngens:
        raise ValueError("one image per generator")
    deg = images[0].n
    for g in images:
        if g.n != deg:
            raise ValueError("image degree mismatch")

    def perm_of(w: Word) -> Permutation:
        p = Permutation.identity(deg)
        for i, s in w.letters:
            p = p * (images[i - 1] if s == 1 else images[i - 1].inverse())
        return p

    for r in pres.relators:
        if not perm_of(r).is_identity():
            raise RelatorViolated(f"relator {format_word(r, pres.names)} not satisfied")

    gens_and_invs = []
    for g in images:
        gens_and_invs.extend([g, g.inverse()])
    ident = Permutation.identity(deg)
    order = {ident: 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens_and_invs:
                q = e * g
                if q not in order:
                    order[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    table = tuple(
        tuple(order[e * g] for g in gens_and_invs) for e in elements
    )
    ct = CosetTable(pres, (), table)
    ct.validate()
    return ct


def _schreier_tree(ct: CosetTable) -> SchreierTree:
    ngens = ct.presentation.ngens
    reps: list[Word | None] = [None] * ct.ncosets
    reps[0] = Word.identity(ngens)
    on_tree = [[False] * ngens for _ in range(ct.ncosets)]
    queue = [0]
    qi = 0
    while qi < len(queue):
        c = queue[qi]
        qi += 1
        for col in list(range(0, 2 * ngens, 2)) + list(range(1, 2 * ngens, 2)):
            d = ct.table[c][col]
            if reps[d] is None:
                g = col // 2
                sign = 1 if col % 2 == 0 else -1
                reps[d] = reps[c] * Word.gen(ngens, g + 1, sign)
                on_tree[c if sign == 1 else d][g] = True
                queue.append(d)
    labels = []
    nsub = 0
    for row in on_tree:
        label = []
        for edge_on_tree in row:
            if not edge_on_tree:
                nsub += 1
            label.append(0 if edge_on_tree else nsub)
        labels.append(tuple(label))
    return SchreierTree(tuple(reps), tuple(labels), nsub)


def schreier_generators(ct: CosetTable) -> tuple[Word, ...]:
    """The Schreier generators of the subgroup, ``ct.basis``."""
    return ct.basis


def _check_rank(ct: CosetTable, w: Word) -> None:
    if w.rank != ct.presentation.ngens:
        raise ValueError(f"rank mismatch: word has rank {w.rank}, "
                         f"table has {ct.presentation.ngens} generators")


def _rewrite_from(ct: CosetTable, start: int, w: Word) -> tuple[Word, int]:
    # w read from coset start over the Schreier generators, and its end coset
    _check_rank(ct, w)
    table, labels = ct.table, ct.tree.labels
    letters = []
    c = start
    for i, s in w.letters:
        if s == 1:
            k = labels[c][i - 1]
            c = table[c][2 * i - 2]
        else:
            c = table[c][2 * i - 1]
            k = labels[c][i - 1]
        if k:
            letters.append((k, s))
    return Word(ct.tree.nsub, letters), c


def reidemeister_schreier(ct: CosetTable) -> Presentation:
    """Presentation of the subgroup on its Schreier generators: one generator
    per non-tree edge, one relator per (coset, ambient relator) pair.  Tree
    generators are eliminated; no further simplification is attempted."""
    relators = []
    for c in range(ct.ncosets):
        for r in ct.presentation.relators:
            rewritten, _ = _rewrite_from(ct, c, r)
            if not rewritten.is_identity():
                relators.append(rewritten)
    return Presentation(ct.tree.nsub, tuple(relators))


def rewrite_in_subgroup(ct: CosetTable, w: Word) -> Word:
    """Rewrite a word lying in the subgroup over the Schreier generators;
    expanding the result recovers the input exactly."""
    rewritten, end = _rewrite_from(ct, 0, w)
    if end != 0:
        raise NotMember("word does not return to the base state")
    return rewritten


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
