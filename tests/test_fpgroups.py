"""Coset enumeration, quotient tables, Reidemeister-Schreier, abelianization."""

import random

import pytest

from cgkernel.fpgroups import (CosetLimitExceeded, Presentation, RelatorViolated,
                               abelianization, braid_mod_center_presentation,
                               braid_presentation, coset_table_from_quotient,
                               format_presentation, parse_presentation,
                               pure_braid3_mod_center_presentation,
                               pure_braid3_presentation, reidemeister_schreier,
                               rewrite_in_subgroup, schreier_generators,
                               sl2z_presentation, todd_coxeter)
from cgkernel.intlin import AbelianStructure
from cgkernel.perms import Permutation, parse_cycles, quotient_map_s4_to_s3
from cgkernel.words import Word, parse_word


def transpositions():
    return [Permutation.transposition(4, i, i + 1) for i in (1, 2, 3)]


class TestAbelianization:
    def test_cyclic_of_order_two(self):
        pres = Presentation(1, (parse_word("a a", 1, ("a",)),), ("a",))
        assert abelianization(pres) == AbelianStructure(0, (2,))

    def test_modular_group_cover(self):
        assert abelianization(sl2z_presentation()) == AbelianStructure(0, (12,))

    def test_stock_presentations(self):
        assert abelianization(pure_braid3_presentation()) == AbelianStructure(3)
        assert abelianization(pure_braid3_mod_center_presentation()) == AbelianStructure(2)


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
        for c in range(ct.ncosets):
            for r in pres.relators:
                assert ct.trace(c, r) == c


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
        ct = coset_table_from_quotient(sl2z_presentation(),
                                       [Permutation.identity(1)] * 2)
        assert ct.index == 1

    def test_relator_violation_detected(self):
        with pytest.raises(RelatorViolated):
            coset_table_from_quotient(
                braid_mod_center_presentation(4),
                [parse_cycles("(1,2)", 4), parse_cycles("(1,2)", 4),
                 parse_cycles("(1,2,3,4)", 4)])


class TestReidemeisterSchreier:
    def test_generator_count_law(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        gens = schreier_generators(ct)
        assert len(gens) == ct.ncosets * pres.ngens - (ct.ncosets - 1)

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
        # Coxeter presentation of S_6: s_i^2, (s_i s_i+1)^3, (s_i s_j)^2 for
        # |i - j| > 1; the regular kernel's relation matrix is 10800 x 2881
        letters = [[(i, 1), (i, 1)] for i in range(1, 6)]
        letters += [[(i, 1), (j, 1)] * (3 if j == i + 1 else 2)
                    for i in range(1, 6) for j in range(i + 1, 6)]
        pres = Presentation(5, tuple(Word(5, w) for w in letters))
        images = [Permutation.transposition(6, i, i + 1) for i in range(1, 6)]
        sub = reidemeister_schreier(coset_table_from_quotient(pres, images))
        assert (len(sub.relators), sub.ngens) == (10800, 2881)
        assert abelianization(sub) == AbelianStructure(0)

    def test_rewrite_round_trip_through_schreier_generators(self):
        pres = sl2z_presentation()
        ct = todd_coxeter(pres, [pres.word("t t"), pres.word("t s t t s t")])
        gens = schreier_generators(ct)
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

    def test_braid_presentation_shape(self):
        pres = braid_presentation(4)
        assert pres.ngens == 3 and len(pres.relators) == 3
        assert len(braid_mod_center_presentation(4).relators) == 4
