"""Free-group words, homomorphisms, automorphisms, semidirect elements."""

import random

import pytest

from cgkernel.words import (Aut, FreeHom, SemidirectElement, Word, compose,
                            format_word, parse_word, transvection,
                            verify_automorphism)
from cgkernel.intlin import IntMatrix, hom_matrix, monodromy_matrix, rank_q


def w(text, rank=2):
    return parse_word(text, rank)


def lam():
    return transvection(2, 1, 2)  # a -> ab


def rho():
    return transvection(2, 2, 1)  # b -> ba


class TestWord:
    def test_free_cancellation(self):
        assert w("a") * w("a^-1") == Word.identity(2)

    def test_single_cancellation(self):
        assert w("a b") * w("b^-1 a") == w("a a")

    def test_reduction_on_construction(self):
        word = Word(2, [(1, 1), (1, -1), (2, 1)])
        assert word == w("b")

    def test_associativity_and_inverse_laws(self):
        rng = random.Random(0)
        for _ in range(10_000):
            rank = rng.randint(1, 4)
            u, v, z = (Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                                   for _ in range(rng.randint(0, 6))])
                       for _ in range(3))
            assert (u * v) * z == u * (v * z)
            assert u * u.inverse() == Word.identity(rank)
            assert u.inverse().inverse() == u

    def test_power_equals_repeated_product(self):
        rng = random.Random(1)
        for _ in range(100):
            rank = rng.randint(1, 3)
            u = Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                            for _ in range(rng.randint(0, 8))])
            for k in range(-3, 6):
                expected = Word.identity(rank)
                for _ in range(abs(k)):
                    expected = expected * (u if k > 0 else u.inverse())
                assert u ** k == expected

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            w("a") * parse_word("a", 3)

    def test_abelianize(self):
        assert w("b a^-2").abelianize() == (-2, 1)
        assert Word.identity(2).abelianize() == (0, 0)
        assert w("b a^-1 b").abelianize() == (-1, 2)

    def test_parse_format_roundtrip(self):
        rng = random.Random(1)
        for _ in range(500):
            rank = rng.randint(1, 5)
            word = Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                               for _ in range(rng.randint(0, 10))])
            assert parse_word(format_word(word), rank) == word

    def test_parse_uppercase_and_gn(self):
        assert parse_word("B a", 2) == w("b^-1 a")
        assert parse_word("g1 G2", 2) == w("a b^-1")
        assert parse_word("x3 X3", 3) == Word.identity(3)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_word("c", 2)
        with pytest.raises(ValueError):
            parse_word("a^x", 2)

    def test_cyclic_reduction(self):
        assert w("a b a^-1").cyclically_reduced() == w("b")
        assert w("a b x3 b^-1 a^-1", 3).cyclically_reduced() == w("x3", 3)
        assert w("a b a^-1 b^-1").cyclically_reduced() == w("a b a^-1 b^-1")

    def test_cyclically_reduced_word_is_returned_as_is(self):
        for text in ("a b a^-1 b^-1", "a", "1", "a b a"):
            word = w(text)
            assert word.cyclically_reduced() is word


class TestHom:
    def test_left_to_right_composition(self):
        # a -> ab under the first map, then b appended images: aba
        f = compose(lam().fwd, rho().fwd)
        assert f(w("a")) == w("a b a")

    def test_identity_application(self):
        assert FreeHom.identity(2)(w("a b a^-1")) == w("a b a^-1")

    def test_hom_is_multiplicative(self):
        rng = random.Random(2)
        for _ in range(10_000):
            images = tuple(Word(2, [(rng.randint(1, 2), rng.choice((1, -1)))
                                    for _ in range(rng.randint(0, 4))])
                           for _ in range(2))
            f = FreeHom(2, 2, images)
            u, v = (Word(2, [(rng.randint(1, 2), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 6))]) for _ in range(2))
            assert f(u * v) == f(u) * f(v)

    def test_compose_with_identity(self):
        f = lam().fwd
        assert compose(f, FreeHom.identity(2)) == f
        assert compose(FreeHom.identity(2), f) == f

    def test_verify_automorphism(self):
        assert verify_automorphism(lam().fwd, lam().inv)
        assert not verify_automorphism(lam().fwd, lam().fwd)  # lam^2(a) = ab^2
        ident = FreeHom.identity(2)
        assert verify_automorphism(ident, ident)

    def test_aut_certification_rejects_bad_inverse(self):
        with pytest.raises(ValueError):
            Aut(lam().fwd, rho().fwd)

    def test_hom_matrix_values(self):
        assert hom_matrix(FreeHom.identity(2)) == IntMatrix.identity(2)
        twist = FreeHom.from_strings(2, 2, ["a b^2", "b"])
        assert hom_matrix(twist) == IntMatrix(((1, 2), (0, 1)))
        assert hom_matrix(lam().fwd) == IntMatrix(((1, 1), (0, 1)))

    def test_hom_matrix_functorial(self):
        rng = random.Random(3)
        for _ in range(1000):
            rank = rng.randint(1, 3)
            def rand_hom():
                return FreeHom(rank, rank, tuple(
                    Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                                for _ in range(rng.randint(0, 8))])
                    for _ in range(rank)))
            f, g = rand_hom(), rand_hom()
            assert hom_matrix(compose(f, g)) == hom_matrix(f) * hom_matrix(g)


# the base twists rand_semidirect draws from, built once: building them draws
# nothing from the rng, so the random stream is the same as building per call
MUS = (lam() * lam(), rho() * rho(), (lam() * lam()) ** -1, (rho() * rho()) ** -1)


def rand_semidirect(rng, n, max_len=4):
    def rand_word():
        return Word(2, [(rng.randint(1, 2), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, max_len))])

    return SemidirectElement(n, tuple(rand_word() for _ in range(n - 2)),
                             tuple(rand_word() for _ in range(n - 2)),
                             rng.choice(MUS))


class TestSemidirectElement:
    def test_identity_element_gives_identity_hom(self):
        assert SemidirectElement.identity(4).to_hom() == FreeHom.identity(4)

    def test_single_left_translation(self):
        k = SemidirectElement(3, (w("a"),), (Word.identity(2),), Aut.identity(2))
        assert k.to_hom()(parse_word("x3", 3)) == parse_word("a^-1 x3", 3)

    def test_composition_closed_form(self):
        # first element's words get twisted by the second element's base map
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(3, 5)
            k1, k2 = rand_semidirect(rng, n), rand_semidirect(rng, n)
            f = compose(k1.to_hom(), k2.to_hom())
            mu2 = k2.base.fwd
            for i in range(n - 2):
                left = (k2.left[i] * mu2(k1.left[i])).promote(n)
                right = (k2.right[i] * mu2(k1.right[i])).promote(n)
                xi = Word.gen(n, i + 3)
                assert f(xi) == left.inverse() * xi * right

    def test_product_matches_composition(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(3, 5)
            k1, k2 = rand_semidirect(rng, n), rand_semidirect(rng, n)
            assert (k1 * k2).to_hom() == compose(k1.to_hom(), k2.to_hom())

    def test_group_laws(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(3, 5)
            k = rand_semidirect(rng, n)
            e = SemidirectElement.identity(n)
            assert (k * k.inverse()).to_hom().is_identity()
            assert (k * e).to_hom() == k.to_hom()
            assert k.to_aut()(Word.gen(n, 3)) == k.to_hom()(Word.gen(n, 3))

    def test_monodromy_matrix_examples(self):
        assert monodromy_matrix(SemidirectElement.identity(4)) == IntMatrix.identity(4)
        k = SemidirectElement(3, (w("a"),), (Word.identity(2),), Aut.identity(2))
        assert monodromy_matrix(k) == IntMatrix(((1, 0, 0), (0, 1, 0), (-1, 0, 1)))

    def test_monodromy_matches_abelianized_hom(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(3, 6)
            k = rand_semidirect(rng, n)
            assert monodromy_matrix(k) == hom_matrix(k.to_hom())

    def test_monodromy_translation_block_has_rank_at_most_two(self):
        rng = random.Random(8)
        for _ in range(500):
            n = rng.randint(3, 6)
            m = monodromy_matrix(rand_semidirect(rng, n))
            assert rank_q(m - IntMatrix.identity(n)) <= 2

    def test_malformed_elements_rejected(self):
        with pytest.raises(ValueError):
            SemidirectElement(2, (), (), Aut.identity(2))
        with pytest.raises(ValueError):
            SemidirectElement(3, (Word.identity(3),), (Word.identity(3),),
                              Aut.identity(2))
