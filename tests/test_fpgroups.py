"""Coset enumeration, quotient tables, Reidemeister-Schreier, abelianization."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cgkernel
from cgkernel import fpgroups, intlin
from cgkernel.fpgroups import (CosetLimitExceeded, CosetTable, Presentation, RelatorViolated,
                               abelianization, braid_mod_center_presentation,
                               braid_presentation, coset_table_from_quotient,
                               format_presentation, parse_presentation,
                               pure_braid3_mod_center_presentation,
                               pure_braid3_presentation, reidemeister_schreier,
                               rewrite_in_subgroup, sl2z_presentation,
                               subgroup_abelianization, todd_coxeter)
from cgkernel.intlin import AbelianStructure, IntMatrix, cokernel
from cgkernel.perms import (DEFAULT_MAX_COSETS, Permutation, orbit, parse_cycles,
                            quotient_map_s4_to_s3)
from cgkernel.subgroups import from_quotient
from cgkernel.words import Word, format_word, parse_word


def transpositions():
    return [Permutation.transposition(4, i, i + 1) for i in (1, 2, 3)]


def coxeter(ngens, orders):
    """Coxeter presentation: s_i^2, and (s_i s_j)^m for i < j with m =
    orders[i, j], or 2 where the pair is not listed."""
    letters = [[(i, 1), (i, 1)] for i in range(1, ngens + 1)]
    letters += [[(i, 1), (j, 1)] * orders.get((i, j), 2)
                for i in range(1, ngens + 1) for j in range(i + 1, ngens + 1)]
    return Presentation(ngens, tuple(Word(ngens, w) for w in letters))


def symmetric_coxeter(n):
    """Coxeter presentation of S_n: s_i^2, (s_i s_i+1)^3, (s_i s_j)^2 for
    |i - j| > 1."""
    return coxeter(n - 1, {(i, i + 1): 3 for i in range(1, n - 1)})


def fibonacci(n):
    """F(2,n) = <x1..xn | x_i x_i+1 = x_i+2>, indices mod n."""
    return Presentation(n, tuple(
        Word(n, [(i + 1, 1), ((i + 1) % n + 1, 1), ((i + 2) % n + 1, -1)])
        for i in range(n)))


def pure_braid_table(n):
    """Coset table of P_n = ker(B_n -> S_n), s_i -> (i, i+1), acting on S_n."""
    return coset_table_from_quotient(
        braid_presentation(n), [Permutation.transposition(n, i, i + 1) for i in range(1, n)])


def regular_table(n):
    """Coset table of the regular kernel of S_n's Coxeter presentation."""
    return coset_table_from_quotient(
        symmetric_coxeter(n), [Permutation.transposition(n, i, i + 1) for i in range(1, n)])


def coset_action_table(images, sub_images):
    """Standard table of the right cosets Hx of H = <sub_images> in the
    permutation group generated by images, computed on sets of permutations."""
    n = images[0].n
    subgroup = {Permutation.identity(n)}
    todo = list(subgroup)
    for x in todo:
        for g in sub_images:
            if x * g not in subgroup:
                subgroup.add(x * g)
                todo.append(x * g)
    cols = [q for g in images for q in (g, g.inverse())]
    number = {frozenset(subgroup): 0}
    order = list(number)
    rows = []
    for coset in order:
        row = []
        for g in cols:
            image = frozenset(h * g for h in coset)
            if image not in number:
                number[image] = len(order)
                order.append(image)
            row.append(number[image])
        rows.append(tuple(row))
    return tuple(rows)


def image_of(images, w):
    """The image of w under generator i -> images[i - 1], letter by letter."""
    p = Permutation.identity(images[0].n)
    for i, e in w.letters:
        p = p * (images[i - 1] if e == 1 else images[i - 1].inverse())
    return p


def sl2_mod_images(n):
    """S = [[0,-1],[1,0]] and T = [[1,1],[0,1]] acting on the nonzero row
    vectors of (Z/N)^2 by v -> vM: the quotient SL(2,Z) -> SL(2,Z/N)."""
    vecs = [(x, y) for x in range(n) for y in range(n) if (x, y) != (0, 0)]
    pos = {v: i + 1 for i, v in enumerate(vecs)}

    def perm(m):
        (a, b), (c, d) = m
        return Permutation([pos[((x * a + y * c) % n, (x * b + y * d) % n)] for x, y in vecs])

    return [perm(((0, -1), (1, 0))), perm(((1, 1), (0, 1)))]


def translations(n, rank=2):
    """The generators of F_rank acting on (Z/N)^rank by the unit
    translations: the quotient by the mod-N homology kernel, of index
    N^rank, which every automorphism stabilizes (for rank 2, the Nielsen
    quotient F_2 -> (Z/N)^2)."""
    pts = list(itertools.product(range(n), repeat=rank))
    pos = {v: i + 1 for i, v in enumerate(pts)}
    return [Permutation([pos[v[:k] + ((v[k] + 1) % n,) + v[k + 1:]] for v in pts])
            for k in range(rank)]


def interleaved_walk(images):
    """Columns of the regular action of the image group, walked breadth first
    from the identity with a product by each g and then by g^-1 at every
    point: the standard numbering, with no inverse column built by inversion."""
    gens = [h.mapping for g in images for h in (g, g.inverse())]
    start = tuple(range(1, images[0].n + 1))
    number, points, flat = {start: 0}, [start], []
    for p in points:
        for g in gens:
            q = tuple(g[x - 1] for x in p)
            if q not in number:
                number[q] = len(points)
                points.append(q)
            flat.append(number[q])
    return tuple(tuple(flat[x::len(gens)]) for x in range(len(gens)))


def standardized(table):
    """The table renumbered breadth first from coset 0, columns in order."""
    number = {0: 0}
    order = [0]
    for c in order:
        for d in table[c]:
            if d not in number:
                number[d] = len(order)
                order.append(d)
    return tuple(tuple(number[d] for d in table[c]) for c in order)


class TestAbelianization:
    def test_cyclic_of_order_two(self):
        pres = Presentation(1, (parse_word("a a", 1, ("a",)),), ("a",))
        assert abelianization(pres) == AbelianStructure(0, (2,))

    def test_modular_group_cover(self):
        assert abelianization(sl2z_presentation()) == AbelianStructure(0, (12,))

    def test_stock_presentations(self):
        assert abelianization(pure_braid3_presentation()) == AbelianStructure(3)
        assert abelianization(pure_braid3_mod_center_presentation()) == AbelianStructure(2)

    def test_relator_with_zero_exponent_sums_gives_no_row(self, monkeypatch):
        seen = []
        core = fpgroups.sparse_cokernel
        monkeypatch.setattr(fpgroups, "sparse_cokernel",
                            lambda rows, n: seen.append([dict(r) for r in rows])
                            or core(seen[-1], n))
        pres = parse_presentation("gens: a b\nrel: a b A B\nrel: a a\nrel: b a B A\n")
        assert abelianization(pres) == AbelianStructure(1, (2,))
        assert seen == [[{0: 2}]]

    def test_generator_in_no_relator_stays_free(self):
        pres = parse_presentation("gens: a b c\nrel: a a a\nrel: c c c c c c\n")
        assert abelianization(pres) == AbelianStructure(1, (3, 6))

    def test_no_relators_gives_free_abelian_group(self):
        assert abelianization(Presentation(4, ())) == AbelianStructure(4)

    def test_exponents_accumulate_across_a_relator(self):
        # a a B a is a^3 b^-1: b = a^3, so the group is Z, or Z/6 once b^2 = 1
        pres = parse_presentation("gens: a b\nrel: a a B a\n")
        assert abelianization(pres) == AbelianStructure(1)
        pres = parse_presentation("gens: a b\nrel: a a B a\nrel: b b\n")
        assert abelianization(pres) == AbelianStructure(0, (6,))

    def test_row_and_column_order_do_not_matter(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 4)
            rels = [Word(n, [(rng.randint(1, n), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 8))])
                    for _ in range(rng.randint(0, 5))]
            want = abelianization(Presentation(n, tuple(rels)))
            perm = rng.sample(range(1, n + 1), n)  # rename generator g to perm[g - 1]
            renamed = [Word(n, [(perm[g - 1], s) for g, s in r.letters]) for r in rels]
            rng.shuffle(renamed)
            assert abelianization(Presentation(n, tuple(renamed))) == want
            # the dense route, as an oracle sharing no row construction
            assert want == cokernel(IntMatrix(tuple(r.abelianize() for r in rels), cols=n))

    def test_builds_no_dense_rows(self, monkeypatch):
        # exponent sums go straight into sparse rows, and the remainder goes
        # to the Smith pivot loop as plain lists: no Word.abelianize and no
        # IntMatrix at all
        built, abelianized = [], []

        class CountingMatrix(IntMatrix):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((self.rows, self.cols))

        def counting_abelianize(w):
            abelianized.append(w)
            return original(w)

        original = Word.abelianize
        monkeypatch.setattr(intlin, "IntMatrix", CountingMatrix)
        monkeypatch.setattr(Word, "abelianize", counting_abelianize)
        sub = reidemeister_schreier(pure_braid_table(4))
        assert abelianization(sub) == AbelianStructure(6)
        assert built == [] and abelianized == []
        assert abelianization(sl2z_presentation()) == AbelianStructure(0, (12,))
        assert abelianized == [] and built == []


class TestToddCoxeter:
    def test_whole_group_has_index_one(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("s"), pres.word("t")])
        assert ct.index == 1

    def test_sanov_subgroup_index(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        assert ct.index == 12

    def test_two_twists_generate_free_quotient(self):
        k3 = pure_braid3_mod_center_presentation()
        ct = todd_coxeter(k3, [k3.word("A13"), k3.word("A23")])
        assert ct.index == 1

    def test_image_triple_generates_p3(self):
        p3 = pure_braid3_presentation()
        gens = [p3.word("A23"), p3.word("A23^-1 A13 A23"), p3.word("A12")]
        assert todd_coxeter(p3, gens).index == 1

    def test_limit_exceeded_on_infinite_index(self):
        pres = sl2z_presentation()
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(pres, [pres.word("t")], max_cosets=500)

    def test_two_twists_in_p3_never_close(self):
        # infinite index is never inferred, only reported as a limit
        p3 = pure_braid3_presentation()
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(p3, [p3.word("A13"), p3.word("A23")], max_cosets=300)

    def test_sanov_table_is_in_standard_numbering(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        assert standardized(ct.table) == ct.table

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_symmetric_group_table_equals_regular_quotient_table(self, n):
        # both producers number the cosets breadth first from coset 0, so the
        # enumerated table of S_n is the table of its regular permutation image
        pres = symmetric_coxeter(n)
        images = [Permutation.transposition(n, i, i + 1) for i in range(1, n)]
        assert todd_coxeter(pres, []).table == coset_table_from_quotient(pres, images).table

    @pytest.mark.parametrize("pres, images", [
        (parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: a b a b a b a b a b"),
         [parse_cycles("(1,2)(3,4)", 5), parse_cycles("(1,3,5)", 5)]),         # A_5
        (parse_presentation("gens: a b\nrel: a^5\nrel: b^7\nrel: a b A B"),
         [parse_cycles("(1,2,3,4,5)", 12), parse_cycles("(6,7,8,9,10,11,12)", 12)]),
        (symmetric_coxeter(4), transpositions()),
    ])
    def test_subgroup_tables_equal_permutation_coset_action(self, pres, images):
        # each permutation image is faithful, so a subgroup's table is the
        # action on the right cosets of the subgroup's image
        rng = random.Random(0)
        for _ in range(20):
            gens = [Word(pres.ngens, [(rng.randrange(1, pres.ngens + 1), rng.choice((1, -1)))
                                      for _ in range(rng.randint(1, 8))])
                    for _ in range(rng.randint(1, 2))]
            want = coset_action_table(images, [image_of(images, w) for w in gens])
            assert todd_coxeter(pres, gens).table == want

    def test_limit_bounds_rows_held(self):
        pres = symmetric_coxeter(7)
        # the columns grow in blocks; the limit and the default limit each
        # leave unused blanks that the frozen table must not hold
        for limit in (5040, 5041, DEFAULT_MAX_COSETS):
            ct = todd_coxeter(pres, [], max_cosets=limit)
            assert ct.index == 5040
            assert all(len(col) == ct.index for col in ct.columns)
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(pres, [], max_cosets=5039)
        gens = [Word.gen(6, i) for i in range(1, 7)]
        assert todd_coxeter(pres, gens, max_cosets=1).index == 1
        with pytest.raises(CosetLimitExceeded):
            todd_coxeter(pres, gens, max_cosets=0)

    def test_merged_rows_are_compacted_at_the_limit(self):
        # F(2,7) is cyclic of order 29 (Brunner 1974).  Its
        # enumeration defines 33,239 rows in all, so it fits under a smaller
        # limit only if the rows of merged cosets are reused.
        ct = todd_coxeter(fibonacci(7), [], max_cosets=33_237)
        assert ct.index == 29
        assert all(len(col) == ct.index for col in ct.columns)

    def test_limit_bounds_the_blank_rows_held(self):
        # every generator of this presentation is trivial, so each one's
        # definition is merged away again; with room for two rows the
        # columns may never hold more, whatever the block size
        ngens = 100
        pres = Presentation(ngens, tuple(Word.gen(ngens, i) for i in range(1, ngens + 1)))
        tracemalloc.start()
        try:
            assert todd_coxeter(pres, [], max_cosets=2).index == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000  # 0.11 MB; a block of 512 blanks per column takes 0.8 MB

    def test_index_invariant_under_relator_presentation_changes(self):
        rng = random.Random(0)
        base = sl2z_presentation()
        subgens_text = ["t t", "t s t t s t"]
        for _ in range(10):
            relators = list(base.relators)
            rng.shuffle(relators)
            rotated = []
            for r in relators:
                k = rng.randrange(max(1, len(r)))
                rotated.append(Word(2, r.letters[k:] + r.letters[:k]))
            pres = Presentation(2, tuple(rotated), base.names)
            ct = todd_coxeter(pres, [pres.word(t) for t in subgens_text])
            assert ct.index == 12

    def test_table_closure_invariants(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        ct.validate()
        for c in range(ct.index):
            for r in pres.relators:
                assert ct.trace(c, r) == c


def renumbered(ct):
    """The columns of ct renumbered breadth first from coset 0."""
    return orbit(0, lambda c: [col[c] for col in ct.columns])[1]


class TestRenumbering:
    """A table enumerated with no coincidence and no subgroup generator is
    already in standard numbering and skips the breadth-first renumbering;
    the other tables go through it."""

    @pytest.fixture()
    def orbit_calls(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return orbit(*args)

        monkeypatch.setattr(fpgroups, "orbit", counting)
        return calls

    @pytest.mark.parametrize("pres, order", [
        (coxeter(4, {(1, 2): 3, (2, 3): 4, (3, 4): 3}), 1152),   # F_4
        (coxeter(4, {(1, 2): 5, (2, 3): 3, (3, 4): 3}), 14400),  # H_4
        (symmetric_coxeter(7), 5040),
    ], ids=["F4", "H4", "S7"])
    def test_table_without_coincidence_is_already_standard(self, orbit_calls, pres, order):
        ct = todd_coxeter(pres, [])
        assert ct.index == order and orbit_calls == []
        assert renumbered(ct) == ct.columns

    def test_coincidences_and_subgroup_generators_are_renumbered(self, orbit_calls):
        ct = todd_coxeter(fibonacci(7), [])  # 33,239 rows collapse to 29
        assert ct.index == 29 and len(orbit_calls) == 1
        assert renumbered(ct) == ct.columns
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        assert ct.index == 12 and len(orbit_calls) == 2
        assert renumbered(ct) == ct.columns


def one_generator_table(a):
    """Columns (c.a, c.a^-1) of the permutation c -> a[c]."""
    inv = [0] * len(a)
    for c, d in enumerate(a):
        inv[d] = c
    return tuple(a), tuple(inv)


def shared_columns(col):
    """One tuple object as both columns, as an involution's table holds them
    (two equal literals may or may not be folded into one object)."""
    return col, col


def two_generator_table(a, b):
    return one_generator_table(a) + one_generator_table(b)


class TestValidate:
    def test_power_relator_must_close_on_every_cycle(self):
        # a^6 closes on cycles of length 1, 2, 3 and 6, not on the 4-cycle
        # that starts at coset 6
        pres = Presentation(1, (Word(1, [(1, 1)] * 6),))
        closes = [0, 2, 1, 4, 5, 3, 7, 8, 9, 10, 11, 6]
        CosetTable(pres, (), one_generator_table(closes)).validate()
        opens = [0, 2, 1, 4, 5, 3, 7, 8, 9, 6]
        with pytest.raises(AssertionError, match="relator open at coset 6$"):
            CosetTable(pres, (), one_generator_table(opens)).validate()

    def test_power_of_a_longer_period_must_close_on_every_cycle(self):
        # (ab)^3, where ab has the cycles (0)(1 2 3)(4 5) on cosets 0..5
        a = [1, 2, 0, 4, 5, 3]
        ab = [0, 2, 3, 1, 5, 4]
        b = [0] * 6
        for c in range(6):
            b[a[c]] = ab[c]
        pres = Presentation(2, (Word(2, [(1, 1), (2, 1)] * 3),))
        with pytest.raises(AssertionError, match="relator open at coset 4$"):
            CosetTable(pres, (), two_generator_table(a, b)).validate()
        pres = Presentation(2, (Word(2, [(1, 1), (2, 1)] * 6),))
        CosetTable(pres, (), two_generator_table(a, b)).validate()

    def test_non_periodic_relator_must_close(self):
        # a a b with a = 1 and b = (1 2): open at cosets 1 and 2 only, while
        # a^3 closes everywhere
        pres = Presentation(2, (Word(2, [(1, 1), (1, 1), (2, 1)]),))
        table = two_generator_table([0, 1, 2], [0, 2, 1])
        with pytest.raises(AssertionError, match="relator open at coset 1$"):
            CosetTable(pres, (), table).validate()
        CosetTable(Presentation(2, (Word(2, [(1, 1)] * 3),)), (), table).validate()

    def test_empty_relator_closes_everywhere(self):
        pres = Presentation(1, (Word(1, []), Word(1, [(1, 1)] * 3)))
        CosetTable(pres, (), one_generator_table([1, 2, 0])).validate()
        assert todd_coxeter(pres, []).index == 3

    # each table is a tuple of columns: column 0 is a, column 1 is a^-1
    @pytest.mark.parametrize("pres, table", [
        (Presentation(1, ()), ((0, 0), (1, 1))),              # a sends both to 0
        (Presentation(1, (Word(1, [(1, 1), (1, 1)]),)), ((1, 0), (0, 0))),
        (Presentation(1, ()), ((1, 2, 0), (1, 2, 0))),        # a^-1 = a, a 3-cycle
        (Presentation(1, ()), ((0, 1), (1, 2))),              # coset 2 out of range
        (Presentation(1, ()), ((0, 1), (-1, 0))),
        (Presentation(1, ()), ((1, None), (None, 0))),
        # -1 indexes coset 1 from the end, so inv . col = id holds; the
        # negative entry must not pass col . inv = id
        (Presentation(1, ()), ((-1, 0), (1, 0))),
        (Presentation(1, ()), shared_columns((1, 2, 0))),
        (Presentation(1, ()), shared_columns((-1, 0))),
        # one coset, where a gather of one index must still give a tuple
        (Presentation(1, ()), ((1,), (0,))),
        (Presentation(1, ()), ((0,), (-1,))),
    ])
    def test_columns_must_be_mutually_inverse_permutations(self, pres, table):
        with pytest.raises(AssertionError, match="permutation|invert"):
            CosetTable(pres, (), table).validate()

    @pytest.mark.parametrize("pres, table", [
        (Presentation(1, (Word(1, [(1, 1)] * 2),)), ((0,), (0,))),
        (Presentation(1, (Word(1, [(1, 1)] * 3), Word(1, [(1, -1)] * 5))), ((0,), (0,))),
        (Presentation(1, (Word(1, [(1, 1)] * 2),)), shared_columns((0,))),
        (Presentation(2, (Word(2, [(1, 1), (2, -1)] * 7),)), ((0,),) * 4),
        (Presentation(1, (Word(1, [(1, 1)] * 2),)), shared_columns((1, 0))),
    ])
    def test_closed_tables_pass(self, pres, table):
        CosetTable(pres, (), table).validate()

    @pytest.mark.parametrize("pres, table", [
        # g^2 over a 3-cycle, whose two columns are separate tuples: the
        # column check does not prove it
        (Presentation(1, (Word(1, [(1, 1)] * 2),)), one_generator_table([1, 2, 0])),
        (Presentation(1, (Word(1, [(1, -1)] * 2),)), one_generator_table([1, 2, 0])),
        # b^2 with b a 3-cycle, next to an involution a whose columns are one tuple
        (Presentation(2, (Word(2, [(1, 1)] * 2), Word(2, [(2, 1)] * 2))),
         shared_columns((1, 0, 2)) + one_generator_table([1, 2, 0])),
    ])
    def test_square_of_a_non_involution_is_traced(self, pres, table):
        with pytest.raises(AssertionError, match="^relator open at coset 0$"):
            CosetTable(pres, (), table).validate()

    @pytest.mark.parametrize("columns", [
        ((0,),), ((0,), (0,), (0,)),     # one and three columns for one generator
        ((1, 0), (1,)), ((0,), (0, 1)),  # one column shorter than the other
        ((), ()),                        # no cosets
    ])
    def test_shape_is_two_columns_per_generator_of_one_nonzero_length(self, columns):
        with pytest.raises(AssertionError,
                           match="^table (is not 2 columns of one length|has no cosets)$"):
            CosetTable(Presentation(1, ()), (), columns).validate()

    def test_each_inverse_pair_is_named_by_its_even_column(self):
        # columns 2 and 3 are permutations but both the 3-cycle 0 -> 1 -> 2
        table = ((0, 1, 2), (0, 1, 2), (1, 2, 0), (1, 2, 0))
        with pytest.raises(AssertionError, match=r"^column 3 does not invert column 2$"):
            CosetTable(Presentation(2, ()), (), table).validate()


class TestQuotientTables:
    def test_regular_table_over_s4(self):
        ct = coset_table_from_quotient(braid_mod_center_presentation(4),
                                       transpositions())
        assert ct.index == 24

    def test_quotient_to_s3_gives_six_cosets(self):
        q = quotient_map_s4_to_s3()
        ct = coset_table_from_quotient(braid_mod_center_presentation(4),
                                       [q(t) for t in transpositions()])
        assert ct.index == 6

    def test_trivial_images(self):
        # degrees 1 and 0, where a point has one entry or none
        for n in (1, 0):
            images = [Permutation.identity(n)] * 2
            ct = coset_table_from_quotient(sl2z_presentation(), images)
            assert ct.index == 1 and ct.columns == ((0,),) * 4
            assert from_quotient(2, images).columns == ((0,),) * 4
            with pytest.raises(CosetLimitExceeded):
                coset_table_from_quotient(sl2z_presentation(), images, max_cosets=0)

    @pytest.mark.parametrize("pres, images", [
        *[(sl2z_presentation(), sl2_mod_images(n)) for n in range(3, 8)],
        (braid_mod_center_presentation(4), transpositions()),
        (braid_mod_center_presentation(4),
         [parse_cycles(c, 3) for c in ("(2,3)", "(1,2)", "(2,3)")]),
        (parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: a b a b a b a b a b"),
         [parse_cycles("(1,2)(3,4)", 5), parse_cycles("(1,3,5)", 5)]),
        # the Frobenius group of order 21 has no anti-automorphism fixing
        # both images, so a left action in place of the right one shows here
        (parse_presentation("gens: a b"),
         [parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(2,3,5)(4,7,6)", 7)]),
    ], ids=[*(f"SL2_mod{n}" for n in range(3, 8)), "K4", "GammaPlus", "A5", "F21"])
    def test_regular_action_matches_permutation_products(self, pres, images):
        # the table is the regular action of the image group, so a word
        # returns to coset 0 exactly when its image is the identity
        ct = coset_table_from_quotient(pres, images)
        assert standardized(ct.table) == ct.table
        rng = random.Random(5)

        def random_word(length):
            return Word(pres.ngens, [(rng.randrange(1, pres.ngens + 1), rng.choice((1, -1)))
                                     for _ in range(length)])

        outcomes = set()
        for k in range(200):
            w = random_word(rng.randint(0, 16))
            if k % 2:  # a power of w with trivial image, seldom trivial in the group
                w = w ** math.lcm(*map(len, image_of(images, w).cycles()))
            trivial = image_of(images, w).is_identity()
            assert (ct.trace(0, w) == 0) == trivial
            outcomes.add(trivial)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("pres, images", [
        *[(sl2z_presentation(), sl2_mod_images(n)) for n in range(2, 8)],
        *[(symmetric_coxeter(n), [Permutation.transposition(n, i, i + 1) for i in range(1, n)])
          for n in range(4, 8)],
        (braid_mod_center_presentation(4), transpositions()),
        (braid_mod_center_presentation(4),
         [parse_cycles(c, 3) for c in ("(2,3)", "(1,2)", "(2,3)")]),
        *[(braid_presentation(n), [Permutation.transposition(n, i, i + 1) for i in range(1, n)])
          for n in range(4, 8)],
        *[(Presentation(2, ()), translations(n)) for n in range(2, 9)],
    ], ids=[*(f"Gamma{n}" for n in range(2, 8)), *(f"regular_S{n}" for n in range(4, 8)),
            "K4", "GammaPlus", *(f"P{n}" for n in range(4, 8)),
            *(f"nielsen{n}" for n in range(2, 9))])
    def test_columns_match_the_interleaved_walk(self, pres, images):
        # the forward walk plus inverted columns and a renumbering must give
        # exactly the columns of a walk that multiplies by every g and g^-1
        assert coset_table_from_quotient(pres, images).columns == interleaved_walk(images)

    @pytest.mark.parametrize("pres, images, index", [
        (sl2z_presentation(), sl2_mod_images(3), 24),
        (symmetric_coxeter(5), [Permutation.transposition(5, i, i + 1) for i in range(1, 5)], 120),
    ], ids=["Gamma3", "regular_S5"])
    def test_coset_limit_is_the_index(self, pres, images, index):
        assert coset_table_from_quotient(pres, images, max_cosets=index).index == index
        with pytest.raises(CosetLimitExceeded):
            coset_table_from_quotient(pres, images, max_cosets=index - 1)

    def test_relator_violation_detected(self):
        with pytest.raises(RelatorViolated):
            coset_table_from_quotient(
                braid_mod_center_presentation(4),
                [parse_cycles("(1,2)", 4), parse_cycles("(1,2)", 4),
                 parse_cycles("(1,2,3,4)", 4)])

    def test_every_relator_is_checked(self):
        # s = 1, t = (1,2) satisfies s^4 but not the last relator (st)^3 s^-2
        pres = sl2z_presentation()
        last = format_word(pres.relators[-1], pres.names)
        with pytest.raises(RelatorViolated, match=re.escape(last)):
            coset_table_from_quotient(pres, [Permutation.identity(2),
                                             parse_cycles("(1,2)", 2)])


class TestReidemeisterSchreier:
    def test_generator_count_law(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        gens = ct.basis
        assert len(gens) == ct.index * pres.ngens - (ct.index - 1)

    def test_index_one_recovers_the_presentation(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("s"), pres.word("t")])
        sub = reidemeister_schreier(ct)
        assert sub.ngens == pres.ngens
        assert abelianization(sub) == abelianization(pres)

    def test_central_quotient_of_p4_has_betti_five(self):
        ct = coset_table_from_quotient(braid_mod_center_presentation(4),
                                       transpositions())
        assert abelianization(reidemeister_schreier(ct)) == AbelianStructure(5)

    def test_level_two_congruence_subgroup(self):
        # SL(2, Z/2) regular images of the standard generators
        mats = sorted((a, b, c, d)
                      for a in (0, 1) for b in (0, 1)
                      for c in (0, 1) for d in (0, 1)
                      if (a * d - b * c) % 2 == 1)
        assert len(mats) == 6  # brute-force order of SL(2, Z/2)
        index = {m: i + 1 for i, m in enumerate(mats)}

        def mul(x, y):
            return ((x[0] * y[0] + x[1] * y[2]) % 2, (x[0] * y[1] + x[1] * y[3]) % 2,
                    (x[2] * y[0] + x[3] * y[2]) % 2, (x[2] * y[1] + x[3] * y[3]) % 2)

        images = [Permutation([index[mul(m, g)] for m in mats])
                  for g in ((0, 1, 1, 0), (1, 1, 0, 1))]
        ct = coset_table_from_quotient(sl2z_presentation(), images)
        assert ct.index == 6
        assert abelianization(reidemeister_schreier(ct)) == AbelianStructure(2, (2,))

    def test_index_six_congruence_subgroup_of_special_automorphisms(self):
        q = quotient_map_s4_to_s3()
        ct = coset_table_from_quotient(braid_mod_center_presentation(4),
                                       [q(t) for t in transpositions()])
        assert abelianization(reidemeister_schreier(ct)) == AbelianStructure(2, (2, 2, 2))

    def test_regular_kernel_of_s6_is_trivial(self):
        # the regular kernel's relation matrix is 10800 x 2881
        pres = symmetric_coxeter(6)
        images = [Permutation.transposition(6, i, i + 1) for i in range(1, 6)]
        sub = reidemeister_schreier(coset_table_from_quotient(pres, images))
        assert (len(sub.relators), sub.ngens) == (10800, 2881)
        assert abelianization(sub) == AbelianStructure(0)

    def test_regular_kernel_of_s7_is_trivial(self):
        # a 105840 x 25201 relation matrix; the dense route cannot hold it
        pres = symmetric_coxeter(7)
        images = [Permutation.transposition(7, i, i + 1) for i in range(1, 7)]
        sub = reidemeister_schreier(coset_table_from_quotient(pres, images))
        assert (len(sub.relators), sub.ngens) == (105840, 25201)
        assert abelianization(sub) == AbelianStructure(0)

    # H_1(P_n) = Z^(n(n-1)/2), free on the twists A_ij (Artin 1925; Arnold
    # 1969): an answer from the literature, not from this program
    @pytest.mark.parametrize("n, index", [(4, 24), (5, 120)])
    def test_pure_braid_group_through_both_routes(self, n, index):
        ct = pure_braid_table(n)
        sub = reidemeister_schreier(ct)
        dense = cokernel(IntMatrix(tuple(r.abelianize() for r in sub.relators), cols=sub.ngens))
        assert ct.index == index
        assert abelianization(sub) == dense == AbelianStructure(n * (n - 1) // 2)

    def test_pure_braid_group_p6(self):
        ct = pure_braid_table(6)
        assert ct.index == 720
        assert abelianization(reidemeister_schreier(ct)) == AbelianStructure(15)

    def test_pure_braid_group_p7(self):
        # index 5040, a 75600 x 25201 relation matrix
        ct = pure_braid_table(7)
        assert ct.index == 5040
        assert abelianization(reidemeister_schreier(ct)) == AbelianStructure(21)

    def test_congruence_subgroup_gamma23_is_free_of_rank_1013(self):
        # Gamma(N), N >= 3, is free of rank 1 + index/12 (Serre, Trees,
        # II.1.5), and its index is |SL(2,Z/23)| = 23 * (23^2 - 1) = 12144
        ct = coset_table_from_quotient(sl2z_presentation(), sl2_mod_images(23))
        assert ct.index == 12144
        assert abelianization(reidemeister_schreier(ct)) == AbelianStructure(1 + 12144 // 12)

    def test_rewrite_round_trip_through_schreier_generators(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        gens = ct.basis
        rng = random.Random(1)
        for _ in range(100):
            word = Word.identity(pres.ngens)
            pieces = []
            for _ in range(rng.randint(0, 5)):
                k = rng.randrange(len(gens))
                sign = rng.choice((1, -1))
                pieces.append((k, sign))
                word = word * (gens[k] if sign == 1 else gens[k].inverse())
            rewritten = rewrite_in_subgroup(ct, word)
            back = Word.identity(pres.ngens)
            for i, s in rewritten.letters:
                back = back * (gens[i - 1] if s == 1 else gens[i - 1].inverse())
            assert back == word

    def test_rewrite_rejects_non_members(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        with pytest.raises(ValueError):
            rewrite_in_subgroup(ct, pres.word("t"))

    @pytest.mark.parametrize("word", [Word(1, [(1, 1)] * 4),   # a^4, rank 1
                                      Word(3, [(1, 1)] * 4),   # a^4, rank 3
                                      Word(3, [(3, 1)])])
    def test_rank_mismatch_is_rejected(self, word):
        # the letters of a word of another rank name other generators
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        with pytest.raises(ValueError, match="rank"):
            rewrite_in_subgroup(ct, word)
        with pytest.raises(ValueError, match="rank"):
            ct.trace(0, word)


def trusted_word_tables():
    """SL(2,Z) subgroups, regular S_4/S_5 kernels and free-group tables."""
    sl2 = sl2z_presentation()
    yield todd_coxeter(sl2, [sl2.word("t t"), sl2.word("t s t t s t")])
    yield todd_coxeter(sl2, [sl2.word("s s"), sl2.word("t t t"), sl2.word("s t s^-1")])
    for n in (2, 3, 4):
        yield coset_table_from_quotient(sl2, sl2_mod_images(n))
    for n in (4, 5):
        yield regular_table(n)
    rng = random.Random(14)
    for rank, degree in ((2, 4), (2, 5), (3, 4), (3, 5)):
        images = []
        for _ in range(rank):
            points = list(range(1, degree + 1))
            rng.shuffle(points)
            images.append(Permutation(points))
        yield from_quotient(rank, images)


class TestTrustedWords:
    def test_trusted_words_are_reduced(self):
        # representatives, Schreier generators and the walk's Schreier
        # letters skip Word's reduction and checks; each must equal the
        # checked word
        def checked(w):
            return type(w) is Word and w == Word(w.rank, w.letters)

        rng = random.Random(15)
        for ct in trusted_word_tables():
            ngens, nsub = ct.presentation.ngens, ct.tree.nsub
            # each representative, its parent's and one more letter, is
            # reduced and reaches its coset; the basis spells it so
            reps = [()]
            for c in range(1, ct.index):
                assert ct.tree.parent[c] < c
                reps.append(reps[ct.tree.parent[c]] + (ct.tree.letter[c],))
                assert Word(ngens, reps[c]).letters == reps[c]
                assert ct.trace(0, Word(ngens, reps[c])) == c
            assert all(checked(g) for g in ct.basis)
            for c in range(ct.index):
                for r in ct.presentation.relators:
                    letters, end = fpgroups._walk(ct, c, r)
                    assert Word(nsub, letters).letters == tuple(letters) and end == c
            for _ in range(200):
                w = Word(ngens, [(rng.randint(1, ngens), rng.choice((1, -1)))
                                 for _ in range(rng.randint(0, 12))])
                letters, _ = fpgroups._walk(ct, rng.randrange(ct.index), w)
                assert Word(nsub, letters).letters == tuple(letters)
            for g in ct.basis:  # a basis word rewrites to its own single letter
                rewritten = rewrite_in_subgroup(ct, g)
                assert checked(rewritten) and len(rewritten) == 1

    def test_tree_rejects_a_child_numbered_below_its_parent(self):
        # a 4-cycle 0 -> 3 -> 1 -> 2 -> 0: the tree reaches 1 from 3
        ct = CosetTable(Presentation(1, ()), (), one_generator_table([3, 2, 0, 1]))
        ct.validate()
        with pytest.raises(ValueError, match="numbered above its parent"):
            ct.tree


def random_word(rng, rank):
    """A word of 1-6 random letters."""
    return Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                       for _ in range(rng.randint(1, 6))])


def random_quotient(rng, degrees=(4, 6)):
    """The coset table of the kernel of a random quotient: 2 or 3 random
    permutations of a degree in the range ``degrees`` (4-6 by default), and
    1-4 relators, each a random word raised to the order of its image."""
    degree, rank = rng.randint(*degrees), rng.randint(2, 3)
    images = [Permutation(rng.sample(range(1, degree + 1), degree)) for _ in range(rank)]
    relators = []
    for _ in range(rng.randint(1, 4)):
        w = random_word(rng, rank)
        relators.append(w ** math.lcm(*map(len, image_of(images, w).cycles())))
    return coset_table_from_quotient(Presentation(rank, tuple(relators)), images)


# Gamma(2)-Gamma(7), K_4, Gamma+, P_4-P_6 and the regular kernels of S_5, S_6
QUOTIENT_TABLES = {
    **{f"gamma{n}": (lambda n=n: coset_table_from_quotient(sl2z_presentation(),
                                                           sl2_mod_images(n)))
       for n in range(2, 8)},
    "k4": lambda: coset_table_from_quotient(braid_mod_center_presentation(4), transpositions()),
    "gammaplus": lambda: coset_table_from_quotient(
        braid_mod_center_presentation(4), [quotient_map_s4_to_s3()(t) for t in transpositions()]),
    **{f"p{n}": (lambda n=n: pure_braid_table(n)) for n in (4, 5, 6)},
    **{f"s{n}_regular": (lambda n=n: regular_table(n)) for n in (5, 6)},
}


class TestSubgroupAbelianization:
    @pytest.mark.parametrize("name", list(QUOTIENT_TABLES))
    def test_matches_the_reidemeister_schreier_presentation(self, name):
        ct = QUOTIENT_TABLES[name]()
        assert subgroup_abelianization(ct) == abelianization(reidemeister_schreier(ct))

    def test_matches_on_random_quotients(self):
        rng = random.Random(25)
        indexes = set()
        for _ in range(24):
            ct = random_quotient(rng)
            indexes.add(ct.index)
            assert subgroup_abelianization(ct) == abelianization(reidemeister_schreier(ct))
        assert len(indexes) >= 8  # the draws are not one group over and over

    @pytest.mark.slow
    def test_matches_where_unit_pivots_leave_a_dense_remainder(self):
        # seed 24's first draw, of index 720: sparse_cokernel's unit pivots
        # leave a dense 338 x 722 matrix, with entries up to 1.4e7, to the
        # Smith loop, which takes over 30 s on each side
        ct = random_quotient(random.Random(24))
        assert ct.index == 720
        assert subgroup_abelianization(ct) == abelianization(reidemeister_schreier(ct)) \
            == AbelianStructure(662)


def shared_walk_tables():
    """trusted_word_tables() (regular S_4/S_5 kernels among them) and the
    quotient tables of Gamma(2)-Gamma(7), K_4 and Gamma+."""
    yield from trusted_word_tables()
    for name in [f"gamma{n}" for n in range(2, 8)] + ["k4", "gammaplus"]:
        yield QUOTIENT_TABLES[name]()


class TestSharedWalk:
    """Each view of the walk against `_walk` read one word at a time, and
    `_walk` against the words its letters expand to."""

    def test_relators_are_the_walks_in_coset_relator_order(self):
        for ct in shared_walk_tables():
            nsub = ct.tree.nsub
            walks = []
            for c in range(ct.index):
                for r in ct.presentation.relators:
                    letters, end = fpgroups._walk(ct, c, r)
                    assert end == c
                    if letters:
                        walks.append(Word(nsub, letters).cyclically_reduced())
            rs = reidemeister_schreier(ct)
            assert rs.ngens == nsub and rs.relators == tuple(walks)
            assert subgroup_abelianization(ct) == abelianization(rs)

    def test_walk_letters_expand_to_the_path_they_read(self):
        # w read from coset c to coset d gives Schreier letters that expand
        # to r_c w r_d^-1, the representatives being spelled down the tree
        rng = random.Random(33)
        for ct in shared_walk_tables():
            ngens, nsub = ct.presentation.ngens, ct.tree.nsub
            reps = [Word.identity(ngens)]
            for c in range(1, ct.index):
                reps.append(reps[ct.tree.parent[c]] * Word(ngens, [ct.tree.letter[c]]))
            for _ in range(40):
                w = Word(ngens, [(rng.randint(1, ngens), rng.choice((1, -1)))
                                 for _ in range(rng.randint(0, 10))])
                c = rng.randrange(ct.index)
                letters, d = fpgroups._walk(ct, c, w)
                assert d == ct.trace(c, w)
                assert ct.basis_hom(Word(nsub, letters)) == reps[c] * w * reps[d].inverse()


class TestToddCoxeterAgainstTheRegularAction:
    # two producers of one table: standard numbering is unique, so Todd-Coxeter
    # on the kernel's whole Schreier basis must give the quotient table column
    # for column.  The basis words define cosets as they are traced, so the
    # enumeration goes through coincidences and the renumbering.  One more
    # word x outside the kernel generates the preimage of <x's image>, whose
    # index is the image's order over x's order there; x's order is read off
    # the regular action, where x^m fixes coset 0 exactly when x^m is in the kernel
    def test_random_quotients(self):
        rng = random.Random(27)
        indexes = set()
        for k in range(31):
            ct = random_quotient(rng, degrees=(7, 7) if k == 30 else (4, 6))
            indexes.add(ct.index)
            pres, rank = ct.presentation, ct.presentation.ngens
            assert todd_coxeter(pres, ct.basis).columns == ct.columns
            x = random_word(rng, rank)
            while ct.trace(0, x) == 0:
                x = random_word(rng, rank)
            order, coset = 1, ct.trace(0, x)
            while coset:
                order, coset = order + 1, ct.trace(coset, x)
            larger = todd_coxeter(pres, ct.basis + (x,))
            larger.validate()
            assert larger.index * order == ct.index
        assert 5040 in indexes and len(indexes) >= 8


# run in a child process, so that its maximum RSS is that of one table and
# its abelianization.  The child reports its peak RSS in kB as VmHWM, which
# exec resets; ru_maxrss survives exec on Linux and would report the peak of
# the pytest process that started it, so it is read only where /proc is
# absent.
SCALE_CHILD = """
import resource, sys
from cgkernel.fpgroups import coset_table_from_quotient, parse_presentation, subgroup_abelianization
from cgkernel.perms import Permutation
ct = coset_table_from_quotient(parse_presentation(sys.stdin.read()),
                               [Permutation.transposition(8, i, i + 1) for i in range(1, 8)])
ab = subgroup_abelianization(ct)
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(ct.index, ab, peak_kb)
"""


@pytest.mark.slow
@pytest.mark.parametrize("pres, want", [
    (braid_presentation(8), "Z^28"),  # P_8, free abelian on the 28 twists A_ij
    (symmetric_coxeter(8), "0"),      # the regular kernel of S_8
], ids=["p8", "s8_regular"])
def test_index_40320_kernels_in_under_150_mb(pres, want):
    env = {**os.environ, "PYTHONPATH": str(Path(cgkernel.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", SCALE_CHILD], input=format_presentation(pres),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    index, ab, maxrss_kb = proc.stdout.split()
    assert (index, ab) == ("40320", want)
    assert int(maxrss_kb) < 150 * 1024


class TestPresentationIO:
    def test_round_trip(self):
        pres = sl2z_presentation()
        again = parse_presentation(format_presentation(pres))
        assert again == pres

    def test_uppercase_inverses_and_comments(self):
        pres = parse_presentation(
            "# modular-like toy\ngens: a b\nrel: a b A B\n")
        assert pres.relators[0] == parse_word("a b a^-1 b^-1", 2)

    def test_missing_gens_line(self):
        with pytest.raises(ValueError):
            parse_presentation("rel: a a\n")

    def test_duplicate_generator_names(self):
        # "gens: a a" would name generator 2 by a, leaving generator 1 free
        with pytest.raises(ValueError, match="duplicate generator name"):
            parse_presentation("gens: a a\nrel: a\n")
        with pytest.raises(ValueError, match="duplicate generator name"):
            Presentation(3, (), ("a", "b", "a"))

    def test_braid_presentation_shape(self):
        pres = braid_presentation(4)
        assert pres.ngens == 3 and len(pres.relators) == 3
        assert len(braid_mod_center_presentation(4).relators) == 4
