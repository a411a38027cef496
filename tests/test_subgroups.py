"""Finite-index subgroups of F_2 on their coset tables."""

import random

import pytest

from cgkernel.intlin import hom_matrix
from cgkernel.perms import Permutation, parse_cycles
from cgkernel.fpgroups import NotMember, rewrite_in_subgroup
from cgkernel.subgroups import NotStabilized, expand, from_quotient, restrict_hom
from cgkernel.words import (Aut, FreeHom, Word, compose, parse_word, transvection,
                            verify_automorphism)

from test_fpgroups import shared_walk_tables, translations
from test_intlin import RESTRICTED_STABILIZER_MATS


def parity_automaton():
    """Kernel of F_2 -> Z/2 with a -> 0, b -> 1."""
    return from_quotient(2, [Permutation.identity(2), Permutation((2, 1))])


def mod2_automaton():
    """Kernel of F_2 -> (Z/2)^2, both generators mapping to involutions."""
    return from_quotient(2, [parse_cycles("(1,2)(3,4)", 4),
                             parse_cycles("(1,3)(2,4)", 4)])


def stabilizer_generators():
    lam = transvection(2, 1, 2)
    rho = transvection(2, 2, 1)
    return (lam * lam, rho, lam ** -1 * rho ** 2 * lam,
            lam ** -1 * rho ** -1 * lam * rho * lam)


def test_parity_kernel_basis():
    aut = parity_automaton()
    assert aut.index == 2
    assert set(aut.basis) == {parse_word("a", 2), parse_word("b^2", 2),
                              parse_word("b a b^-1", 2)}


def test_mod2_kernel_rank():
    aut = mod2_automaton()
    assert aut.index == 4 and len(aut.basis) == 5


def test_trivial_quotient():
    aut = from_quotient(2, [Permutation.identity(1)] * 2)
    assert aut.index == 1
    assert list(aut.basis) == [parse_word("a", 2), parse_word("b", 2)]


def test_nielsen_schreier_count():
    for aut in (parity_automaton(), mod2_automaton()):
        assert len(aut.basis) == 1 + aut.index * (aut.presentation.ngens - 1)


def test_membership():
    aut = parity_automaton()
    assert aut.trace(0, parse_word("b a b^-1", 2)) == 0
    assert aut.trace(0, parse_word("b", 2)) != 0
    assert aut.trace(0, Word.identity(2)) == 0
    with pytest.raises(ValueError):
        aut.trace(0, parse_word("a", 3))


def test_rewrite_of_basis_words_is_single_letter():
    aut = parity_automaton()
    for text in ("a", "b^2", "b a b^-1"):
        word = parse_word(text, 2)
        rewritten = rewrite_in_subgroup(aut, word)
        assert len(rewritten) == 1
        assert expand(aut, rewritten) == word


def test_rewrite_round_trip_random_members():
    rng = random.Random(0)
    for aut in (parity_automaton(), mod2_automaton()):
        nbasis = len(aut.basis)
        for _ in range(300):
            member = Word.identity(2)
            for _ in range(rng.randint(0, 8)):
                g = aut.basis[rng.randrange(nbasis)]
                member = member * (g if rng.random() < 0.5 else g.inverse())
            assert expand(aut, rewrite_in_subgroup(aut, member)) == member


def test_expand_builds_one_hom_per_table(monkeypatch):
    # the basis hom, with its rank check over every basis word, is built on
    # the first expansion only; later ones reuse it and its inverse images
    built = []
    post_init = FreeHom.__post_init__
    monkeypatch.setattr(FreeHom, "__post_init__", lambda hom: (built.append(hom), post_init(hom)))
    aut = from_quotient(2, [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)])
    rng = random.Random(3)
    for _ in range(100):
        member = Word.identity(2)
        for _ in range(rng.randint(0, 6)):
            g = aut.basis[rng.randrange(len(aut.basis))]
            member = member * (g if rng.random() < 0.5 else g.inverse())
        rewritten = rewrite_in_subgroup(aut, member)
        assert expand(aut, rewritten) == expand(aut, rewritten) == member
    assert len(built) == 1 and built[0] is aut.basis_hom


def test_rewrite_rejects_non_member():
    with pytest.raises(NotMember):
        rewrite_in_subgroup(parity_automaton(), parse_word("b", 2))


@pytest.mark.parametrize("rank", [1, 3])
def test_rank_mismatch_rejected(rank):
    aut = mod2_automaton()
    word = Word(rank, [(1, 1), (1, 1)])  # a^2 lies in the subgroup at rank 2
    for op in (lambda ct, w: ct.trace(0, w) == 0, rewrite_in_subgroup):
        with pytest.raises(ValueError, match="rank"):
            op(aut, word)


def test_restriction_of_identity():
    aut = parity_automaton()
    from cgkernel.words import Aut, FreeHom
    assert restrict_hom(aut, Aut.identity(2)) == FreeHom.identity(3)


def test_restriction_values():
    aut = parity_automaton()
    rho = transvection(2, 2, 1)
    restricted = restrict_hom(aut, rho)
    # rho fixes a, which is the first basis letter
    assert restricted.images[0] == Word.gen(3, 1)
    lam2 = transvection(2, 1, 2) ** 2
    res2 = restrict_hom(aut, lam2)
    # a maps to a b^2: one letter for a, one for b^2
    assert expand(aut, res2.images[0]) == parse_word("a b^2", 2)


def test_restricted_homology_matrices_match_frozen_values():
    aut = parity_automaton()
    mats = [hom_matrix(restrict_hom(aut, g)) for g in stabilizer_generators()]
    assert mats == RESTRICTED_STABILIZER_MATS


def test_stabilizer_generators_and_inverses_restrict():
    aut = parity_automaton()
    for g in stabilizer_generators():
        restrict_hom(aut, g)
        restrict_hom(aut, g.inverse())


def test_restriction_is_functorial():
    aut = parity_automaton()
    gens = stabilizer_generators()
    for f in gens[:2]:
        for g in gens[2:]:
            lhs = restrict_hom(aut, f * g)
            rhs = compose(restrict_hom(aut, f), restrict_hom(aut, g))
            assert lhs == rhs


def test_non_stabilizing_automorphism_rejected():
    aut = parity_automaton()
    lam = transvection(2, 1, 2)  # a -> ab has odd parity image
    with pytest.raises(NotStabilized):
        restrict_hom(aut, lam)


def test_restriction_determinants_are_one():
    assert all(m.det() == 1 for m in RESTRICTED_STABILIZER_MATS)


def restrict_hom_by_whole_words(ct, f):
    """restrict_hom's earlier definition: rewrite each whole word f(u) of a
    basis element u, and trace each whole word f^-1(u) from coset 0."""
    try:
        images = tuple(rewrite_in_subgroup(ct, f.fwd(u)) for u in ct.basis)
    except NotMember:
        raise NotStabilized("automorphism does not stabilize the subgroup") from None
    if any(ct.trace(0, f.inv(u)) != 0 for u in ct.basis):
        raise NotStabilized("automorphism does not stabilize the subgroup")
    return FreeHom(len(ct.basis), len(ct.basis), images)


def random_nielsen_product(rng, rank):
    f = Aut.identity(rank)
    for _ in range(rng.randint(1, 6)):
        t = transvection(rank, *rng.sample(range(1, rank + 1), 2))
        f = f * (t if rng.random() < 0.5 else t.inverse())
    return f


def test_restriction_matches_rewriting_whole_images():
    # kernels of F_2 and F_3 onto (Z/n)^rank, which every automorphism
    # stabilizes, and onto random permutation groups, which most do not
    rng = random.Random(26)
    stabilized = rejected = 0
    for trial in range(40):
        rank = 2 + trial % 2
        if trial % 4 < 2:
            images = translations(rng.randint(2, 4 if rank == 2 else 3), rank)
        else:
            degree = rng.randint(3, 5)
            images = [Permutation(rng.sample(range(1, degree + 1), degree)) for _ in range(rank)]
        ct = from_quotient(rank, images)
        for _ in range(3):
            f = random_nielsen_product(rng, rank)
            try:
                want = restrict_hom_by_whole_words(ct, f)
            except NotStabilized:
                with pytest.raises(NotStabilized):
                    restrict_hom(ct, f)
                rejected += 1
            else:
                got = restrict_hom(ct, f)
                assert got == want
                # f(H) <= H at finite index gives f(H) = H: f^-1 restricts
                # too, to the inverse of the restriction of f
                assert verify_automorphism(got, restrict_hom(ct, f.inverse()))
                assert all(type(im) is Word and Word(im.rank, im.letters) == im
                           for im in got.images)
                stabilized += 1
    assert stabilized >= 40 and rejected >= 20


def conjugation(u):
    """The inner automorphism x -> u x u^-1, with its inverse."""
    rank = u.rank
    gens = [Word.gen(rank, i) for i in range(1, rank + 1)]
    return Aut(FreeHom(rank, rank, tuple(g.conjugate(u) for g in gens)),
               FreeHom(rank, rank, tuple(g.conjugate(u.inverse()) for g in gens)))


def test_restriction_matches_rewriting_whole_images_on_the_walk_tables():
    # the tables of the shared-walk differential, read as subgroups of the
    # free group on their generators: conjugation by a basis element and
    # the identity stabilize each, random Nielsen products mostly do not
    rng = random.Random(34)
    stabilized = rejected = 0
    for ct in shared_walk_tables():
        rank = ct.presentation.ngens
        auts = [Aut.identity(rank), conjugation(ct.basis[-1])]
        auts += [random_nielsen_product(rng, rank) for _ in range(2)]
        for f in auts:
            try:
                want = restrict_hom_by_whole_words(ct, f)
            except NotStabilized:
                with pytest.raises(NotStabilized):
                    restrict_hom(ct, f)
                rejected += 1
            else:
                assert restrict_hom(ct, f) == want
                stabilized += 1
    assert stabilized >= 2 * 19 and rejected >= 10
