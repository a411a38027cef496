"""Acceptance gate: one test per criterion, printing a pass/fail line each.

All comparisons are exact (integer arithmetic throughout).  Randomized suites
are seeded and run at least 10^3 cases; nothing is tolerance-calibrated later.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random

import pytest

from cgkernel.braids import BraidWord, braid_equal, handle_trivial
from cgkernel.checks import (APQ_ACTION_TABLE, APQ_MATRIX_TABLE, CF_IMAGE_TABLE,
                             CHECK_IDS, ELL_IDENTITY_TABLE, ELL_PSI_TABLE,
                             ELL_THETA4_TABLE, ST_WORD_TABLE, THETA_IMAGE_TABLE,
                             XI_IMAGE_TABLE, Config, run_all, run_check)
from cgkernel.fpgroups import rewrite_in_subgroup
from cgkernel import intlin
from cgkernel.intlin import (AbelianStructure, IntMatrix, cokernel, eval_st, hom_matrix,
                             rank_q, sl2_word)
from cgkernel.perms import Permutation, parse_cycles
from cgkernel.subgroups import expand, from_quotient
from cgkernel.words import FreeHom, Word, compose

from test_braids import rand_braid, rand_relator_product, reduced_braid, relation_rewrite
from test_intlin import (assert_valid_snf, rand_matrix, rand_sparse_matrix, rank_mod_p,
                         sparse_rows)
from test_words import rand_semidirect


@pytest.fixture(scope="module")
def results():
    res = {r.id: r for r in run_all(Config())}
    assert set(res) == set(CHECK_IDS)
    return res


def report(number, label, ok):
    print(f"criterion {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_1_action_tables(results):
    ids = ("appendix.sigma_actions", "appendix.apq_actions",
           "appendix.apq_matrices", "appendix.st_words")
    ok = all(results[i].passed for i in ids)
    ok = ok and len(results["appendix.sigma_actions"].actual) == 12
    ok = ok and len(results["appendix.apq_actions"].actual) == 6
    ok = ok and len(results["appendix.apq_matrices"].actual) == 6
    ok = ok and len(ST_WORD_TABLE) >= 6
    report(1, "conjugation/matrix/S-T tables reproduce exactly", ok)


def test_criterion_2_index_claims(results):
    ok = results["sl2.S_index3"].actual == {"index": 3}
    ok = ok and results["sl2.sanov_index12"].actual == {"index": 12}
    ok = ok and results["gammaplus.index3_gl09"].actual["index"] == 3
    ok = ok and results["k4.b1_5"].actual["cosets"] == 24
    ok = ok and results["sl2.gamma2_ab"].actual["index"] == 6
    ok = ok and all(results[i].passed for i in
                    ("sl2.S_index3", "sl2.sanov_index12", "gammaplus.index3_gl09",
                     "k4.b1_5", "sl2.gamma2_ab"))
    report(2, "coset-enumeration indexes 3 / 12 / 3 / 24 / 6", ok)


def test_criterion_3_homology_claims(results):
    ok = results["k4.b1_5"].actual["abelianization"] == {"free_rank": 5, "torsion": []}
    ok = ok and results["sl2.gamma2_ab"].actual["abelianization"] == \
        {"free_rank": 2, "torsion": [2]}
    ok = ok and results["gammaplus.ab"].actual["abelianization"] == \
        {"free_rank": 2, "torsion": [2, 2, 2]}
    parity = from_quotient(2, [Permutation.identity(2), Permutation((2, 1))])
    mod2 = from_quotient(2, [parse_cycles("(1,2)(3,4)", 4),
                             parse_cycles("(1,3)(2,4)", 4)])
    ok = ok and len(parity.basis) == 3 and len(mod2.basis) == 5
    ok = ok and results["j.rank5"].passed
    report(3, "abelianizations Z^5 / Z^2+Z2 / Z^2+Z2^3 and Schreier ranks 3, 5", ok)


def test_criterion_4_coinvariant_ranks(results):
    ok = results["homology.H_coinvariants_rank1"].passed
    ok = ok and results["homology.H_invariants_rank1"].passed
    ok = ok and results["phi.monodromy_coinvariants"].actual == \
        {"n=3": 1, "n=4": 2, "n=5": 3, "n=6": 4}
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(3, 6)
        m = hom_matrix(rand_semidirect(rng, n).to_hom())
        if rank_q(m - IntMatrix.identity(n)) > 2:
            ok = False
            break
    report(4, "coinvariant rank 1 on H, n-2 for the F_n action, rank(M-I) <= 2", ok)


def test_criterion_5_braid_word_identities(results):
    ids = ("ell.braid_identities", "cf.generator_table", "cf.center_square",
           "theta.kernel_gens", "ell.psi_minus_identity", "ell.theta4_images",
           "ell.perm_trivial")
    ok = all(results[i].passed for i in ids)
    ok = ok and len(results["theta.kernel_gens"].actual) == 24
    ok = ok and len(results["cf.generator_table"].actual) == 6
    ok = ok and len(results["ell.braid_identities"].actual) == 3
    report(5, "all stated braid-word identities hold in normal form", ok)


def test_criterion_6_surjectivity_claims(results):
    ok = results["thmsec.theta_pairs_surjective"].passed
    ok = ok and len(results["thmsec.theta_pairs_surjective"].actual) == 12
    ok = ok and results["thmsec.ell_surjective"].actual == {"index": 1}
    ok = ok and results["prosec.cf_frobenius"].actual == {"index": 1}
    ok = ok and results["prosec.theta_pair_infinite"].actual == \
        {"image_rank": 2, "b1": 3}
    report(6, "12 deletion pairs + point-pushing + quartic images generate; "
              "one pair certified infinite index", ok)


class TestCriterion7PropertySuites:
    """Seeded randomized suites, >= 10^3 cases each, zero failures allowed."""

    def test_word_and_hom_algebra(self):
        rng = random.Random(100)
        for _ in range(1000):
            rank = rng.randint(1, 4)
            u, v, z = (Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                                   for _ in range(rng.randint(0, 8))])
                       for _ in range(3))
            assert (u * v) * z == u * (v * z)
            assert u * u.inverse() == Word.identity(rank)
            f = FreeHom(rank, rank, tuple(
                Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                            for _ in range(rng.randint(0, 5))])
                for _ in range(rank)))
            assert f(u * v) == f(u) * f(v)
        report(7.1, "word/hom algebra laws (1000 cases)", True)

    def test_hom_matrix_functoriality(self):
        rng = random.Random(101)
        for _ in range(1000):
            rank = rng.randint(1, 3)
            def rand_hom():
                return FreeHom(rank, rank, tuple(
                    Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                                for _ in range(rng.randint(0, 8))])
                    for _ in range(rank)))
            f, g = rand_hom(), rand_hom()
            assert hom_matrix(compose(f, g)) == hom_matrix(f) * hom_matrix(g)
        report(7.2, "abelianized-action functoriality (1000 cases)", True)

    def test_garside_dehornoy_agreement(self):
        rng = random.Random(102)
        agreements = 0
        for _ in range(1000):
            n = rng.choice((3, 4))
            u = rand_braid(rng, n, 16)
            if rng.random() < 0.4:
                v = u * rand_relator_product(rng, n)
            else:
                v = rand_braid(rng, n, 16)
            assert braid_equal(u, v) == handle_trivial(u * v.inverse())
            agreements += 1
        # long words, where a left-weighting slip has room to show
        equal = 0
        for _ in range(30):
            n = rng.choice((5, 6))
            u = rand_braid(rng, n, 200, 100)
            if rng.random() < 0.4:
                v = u * rand_relator_product(rng, n)
            else:
                v = rand_braid(rng, n, 200, 100)
            same = braid_equal(u, v)
            assert same == handle_trivial(u * v.inverse())
            equal += same
            agreements += 1
        assert equal >= 5
        # 1,000-letter pairs, half of them equal by braid-relation rewrites;
        # flipping one letter's sign changes the exponent sum, so each equal
        # pair gives a negative control that both oracles must call unequal
        controls = 0
        for k in range(6):
            n = 5 + k % 2
            u = reduced_braid(rng, n, 1000)
            v = relation_rewrite(rng, u, len(u)) if k < 3 else reduced_braid(rng, n, 1000)
            same = braid_equal(u, v)
            assert same == handle_trivial(u * v.inverse()) == (k < 3)
            if same:
                j = rng.randrange(len(v))
                i, e = v.letters[j]
                flipped = BraidWord(n, v.letters[:j] + ((i, -e),) + v.letters[j + 1:])
                assert not braid_equal(u, flipped) and not handle_trivial(u * flipped.inverse())
                controls += 1
            agreements += 1
        report(7.3, f"Garside vs handle-reduction agreement ({agreements} pairs, "
                    f"30 of 100-200 letters in B_5/B_6, {equal} of them equal, and 6 of "
                    f"1000 letters with {controls} sign-flip controls)", True)

    def test_smith_normal_form_properties(self, monkeypatch):
        rng = random.Random(103)
        cases = [rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)) for _ in range(1000)]
        cases += [rand_matrix(rng, size, size) for size in (15, 20)]
        sparse = [rand_sparse_matrix(rng, rng.randint(55, 65), rng.randint(27, 33))
                  for _ in range(20)]
        remainders = []
        smith = intlin._smith

        def recording_smith(m, nr, nc):
            remainders.append(IntMatrix([row[:nc] for row in m[:nr]], cols=nc))
            smith(m, nr, nc)

        monkeypatch.setattr(intlin, "_smith", recording_smith)
        both_phases = 0
        for a in cases + sparse:
            d = assert_valid_snf(a)
            diag = [x for x in (d[i, i] for i in range(min(d.rows, d.cols))) if x]
            remainders.clear()
            ab = cokernel(a)
            assert ab == AbelianStructure(a.cols - len(diag), tuple(x for x in diag if x > 1))
            both_phases += a in sparse and any(0 < m.cols < a.cols for m in remainders)
            # the mod-p oracle, sharing no code with cokernel's D-only path:
            # dim over F_p of the quotient is free rank + #{d : p | d}
            for p in (2, 3, 5):
                assert (a.cols - rank_mod_p(sparse_rows(a), p)
                        == ab.free_rank + sum(d % p == 0 for d in ab.torsion))
        # unit pivots shrank every tall sparse case, leaving a dense remainder
        assert both_phases == len(sparse)
        report(7.4, "SNF factorization, divisibility, cokernel and its dimension "
                    "mod 2, 3 and 5 (1000+ cases)", True)

    def test_sl2_word_round_trip(self):
        rng = random.Random(104)
        from cgkernel.intlin import parse_st
        for _ in range(1000):
            word = parse_st(" ".join(rng.choice(["s", "t", "s^-1", "t^-1"])
                                     for _ in range(rng.randint(0, 30))))
            m = eval_st(word)
            assert eval_st(sl2_word(m)) == m
        report(7.5, "S/T decomposition round trip (1000 cases)", True)

    def test_subgroup_rewrite_round_trip(self):
        rng = random.Random(105)
        automata = (
            from_quotient(2, [Permutation.identity(2), Permutation((2, 1))]),
            from_quotient(2, [parse_cycles("(1,2)(3,4)", 4),
                              parse_cycles("(1,3)(2,4)", 4)]),
        )
        for _ in range(1000):
            aut = automata[rng.randrange(2)]
            member = Word.identity(2)
            for _ in range(rng.randint(0, 8)):
                g = aut.basis[rng.randrange(len(aut.basis))]
                member = member * (g if rng.random() < 0.5 else g.inverse())
            assert expand(aut, rewrite_in_subgroup(aut, member)) == member
        report(7.6, "Schreier rewrite round trip (1000 cases)", True)

    def test_semidirect_homomorphism_law(self):
        rng = random.Random(106)
        for _ in range(1000):
            n = rng.randint(3, 5)
            k1, k2 = rand_semidirect(rng, n), rand_semidirect(rng, n)
            assert (k1 * k2).to_hom() == compose(k1.to_hom(), k2.to_hom())
        report(7.7, "semidirect-action homomorphism law (1000 cases)", True)


def corrupted(table, key, value):
    bad = dict(table)
    bad[key] = value
    return bad


def test_criterion_8_negative_controls():
    from cgkernel.braids import SIGMA_ACTION_TABLE
    cases = [
        ("appendix.sigma_actions",
         corrupted(SIGMA_ACTION_TABLE, (1, 1), ("a", "b a"))),
        ("appendix.apq_actions",
         corrupted(APQ_ACTION_TABLE, (2, 4), ("a b^2", "b a"))),
        ("appendix.apq_matrices",
         corrupted(APQ_MATRIX_TABLE, (2, 4), ((1, 2), (1, 1)))),
        ("appendix.st_words",
         corrupted(ST_WORD_TABLE, "A24", ("t^2", ((1, 1), (0, 1))))),
        ("cf.generator_table",
         corrupted(CF_IMAGE_TABLE, (1, 4), "A13")),
        ("theta.kernel_gens",
         corrupted(THETA_IMAGE_TABLE, (4, 1, 3), "A23")),
        ("ell.braid_identities",
         corrupted(ELL_IDENTITY_TABLE, 4, ("s3 s2 s1 s1 s2 s3", "A14 A24"))),
        ("ell.psi_minus_identity",
         corrupted(ELL_PSI_TABLE, 3, ((1, 0), (0, 1)))),
        ("ell.theta4_images",
         corrupted(ELL_THETA4_TABLE, 2, "A13 A23")),
        ("perm.xi_images",
         corrupted(XI_IMAGE_TABLE, "a", "(1,3)(2,4)")),
    ]
    ok = True
    for cid, bad_table in cases:
        clean = run_check(cid)
        broken = run_check(cid, table=bad_table)
        # exactly the corrupted row's label changes its evidence
        labels = {*clean.expected, *clean.actual, *broken.expected, *broken.actual}
        changed = [k for k in labels
                   if (clean.expected.get(k), clean.actual.get(k))
                   != (broken.expected.get(k), broken.actual.get(k))]
        if not clean.passed or broken.passed or len(changed) != 1:
            ok = False
            print(f"negative control failed for {cid}")
    report(8, "every table-driven check fails under a corrupted row", ok)
