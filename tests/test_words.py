"""Free-group words, homomorphisms, automorphisms, semidirect elements."""

import random

import pytest

from cgkernel.words import (Aut, FreeHom, SemidirectElement, Word, _reduce,
                            compose, format_word, parse_word, transvection,
                            verify_automorphism)
from cgkernel.braids import MAX_STRANDS, BraidWord, parse_braid
from cgkernel.fpgroups import parse_presentation
from cgkernel.intlin import IntMatrix, hom_matrix, parse_st, rank_q


def w(text, rank=2):
    return parse_word(text, rank)


def lam():
    return transvection(2, 1, 2)  # a -> ab


def reduced_letters(rng, rank, length):
    """`length` random letters of the given rank, freely reduced."""
    letters = []
    while len(letters) < length:
        letter = (rng.randint(1, rank), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return letters


def apply_letter_by_letter(f, word):
    """The oracle for FreeHom.__call__: the images of the word's letters
    spelled out one letter at a time, each inverse image reversed with its
    signs flipped, then one free reduction of the whole concatenation."""
    letters = []
    for idx, sign in word.letters:
        image = f.images[idx - 1].letters
        if sign == 1:
            letters.extend(image)
        else:
            letters.extend((i, -s) for i, s in reversed(image))
    return _reduce(letters)


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

    def test_product_matches_reducing_the_concatenation(self):
        # the product cancels only at the junction; the oracle reduces the
        # whole concatenation, so cancelling too little or too much shows
        rng = random.Random(19)
        shapes = {"none": 0, "partial": 0, "complete": 0}
        for case in range(3000):
            rank = rng.randint(1, 4)
            a, b = (Word(rank, [(rng.randint(1, rank), rng.choice((1, -1)))
                                for _ in range(rng.randint(0, 12))]) for _ in range(2))
            head = a.inverse().letters[:rng.randint(1, max(1, len(a)))]
            if case % 3 == 1:  # b opens with the inverse of a tail of a, then goes on
                b = Word(rank, head + b.letters + ((rng.randint(1, rank), 1),))
            elif case % 3 == 2:  # b is the inverse of a tail of a: all of b cancels
                b = Word(rank, head)
            product = a * b
            want = Word(rank, a.letters + b.letters)
            assert product == want and type(product) is Word
            cancelled = (len(a) + len(b) - len(want)) // 2
            shapes["none" if not cancelled else
                   "complete" if cancelled == min(len(a), len(b)) else "partial"] += 1
        assert min(shapes.values()) >= 300

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

    def test_one_to_any_power_is_the_empty_word(self):
        assert parse_word("1^3 a^2", 2) == parse_word("a a", 2)
        assert parse_word("1^-2 1 1^0", 2) == Word.identity(2)
        assert parse_braid("1^2 s1", 3) == parse_braid("s1", 3)


class TestOneGrammar:
    """Every word parser reads its tokens through one reader."""

    PARSERS = {
        "word": lambda text: parse_word(text, 2),
        "braid": lambda text: parse_braid(text, 3),
        "st": parse_st,
        "relator": lambda text: parse_presentation(f"gens: a b\nrel: {text}"),
    }

    @pytest.mark.parametrize("kind, token", [
        ("word", "a^x"), ("braid", "s1^x"), ("st", "t^1.5"), ("relator", "b^-"),
        ("word", "1^x"), ("braid", "1^x"),
    ])
    def test_a_bad_exponent_gives_one_message(self, kind, token):
        with pytest.raises(ValueError) as err:
            self.PARSERS[kind](f"1 {token}")
        assert str(err.value) == f"bad exponent in {token!r}"

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

    def test_application_matches_reducing_the_letter_by_letter_image(self):
        # the call joins whole image blocks and cancels only where the output
        # meets the next block.  Images here are often inverses, conjugates or
        # pieces of earlier images (a -> x y, b -> y^-1 x^-1), so a junction
        # can eat a whole block and then cancel the next block into the output
        rng = random.Random(23)
        shapes = {"several letters cancel": 0, "a whole block cancels": 0,
                  "cancels past a whole block": 0, "no cancellation": 0}
        for case in range(2000):
            if case % 4 == 0:
                src, dst = rng.randint(1, 4), rng.randint(1, 4)
                images = []
                for _ in range(src):
                    kind = rng.randrange(4) if images else 0
                    if kind == 0:
                        im = Word(dst, reduced_letters(rng, dst, rng.randint(0, 12)))
                    elif kind == 1:
                        im = rng.choice(images).inverse()
                    elif kind == 2:
                        c = Word(dst, reduced_letters(rng, dst, rng.randint(1, 3)))
                        im = c * rng.choice(images) * c.inverse()
                    else:
                        ls = rng.choice(images + [im.inverse() for im in images]).letters
                        lo = rng.randint(0, len(ls))
                        im = Word(dst, ls[lo:rng.randint(lo, len(ls))])
                    images.append(Word(dst, im.letters[:12]))
                # the same hom serves four words, so inverse images built for
                # one word are reused by the next
                f = FreeHom(src, dst, tuple(images))
            word = Word(src, reduced_letters(rng, src, rng.randint(0, 40)))
            got = f(word)
            assert type(got) is Word and got.rank == dst
            assert got.letters == apply_letter_by_letter(f, word)
            out, consumed = (), False
            for letter in word.letters:
                block = apply_letter_by_letter(f, Word(src, (letter,)))
                joined = _reduce(out + block)
                cancelled = (len(out) + len(block) - len(joined)) // 2
                shapes["several letters cancel"] += cancelled >= 2
                shapes["cancels past a whole block"] += consumed and cancelled > 0
                consumed = len(block) > 0 and cancelled == len(block)
                shapes["a whole block cancels"] += consumed
                out = joined
            shapes["no cancellation"] += len(got) == sum(
                len(f.images[idx - 1]) for idx, _ in word.letters)
        assert min(shapes.values()) >= 200

    def test_whole_blocks_cancel_at_a_junction(self):
        # a -> a b, b -> b^-1, x3 -> a^-1: b's block cancels whole, then
        # x3's cancels into a's
        f = FreeHom.from_strings(3, 2, ["a b", "b^-1", "a^-1"])
        assert f(parse_word("a b x3", 3)) == Word.identity(2)
        assert f(parse_word("a b b x3", 3)) == w("a b^-1 a^-1")
        # a -> x y, b -> y^-1 x^-1: the images are inverses of each other
        g = FreeHom.from_strings(2, 2, ["a b", "b^-1 a^-1"])
        assert g(w("a b a b")) == Word.identity(2)
        assert g(w("a^3 b^2")) == w("a b")  # two whole blocks cancel
        assert g(w("b^-1 a^-2 b^3")) == w("a b a b") ** -2

    def test_inverse_images_are_not_part_of_the_value(self):
        # the inverse images a call builds are kept on the hom for later
        # calls, but equality, hashing and repr see only the images
        f = FreeHom.from_strings(2, 2, ["a b", "b a^-1"])
        fresh = FreeHom.from_strings(2, 2, ["a b", "b a^-1"])
        assert f(w("a^-1 b^-1 a^-1")) == w("b^-3 a^-1")  # (b^-1 a^-1)(a b^-1)(b^-1 a^-1)
        assert f(w("b^-1 a")) == w("a b^-1 a b")
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)

    def test_compose_with_identity(self):
        f = lam().fwd
        assert compose(f, FreeHom.identity(2)) == f
        assert compose(FreeHom.identity(2), f) == f

    def test_verify_automorphism(self):
        assert verify_automorphism(lam().fwd, lam().inv)
        assert not verify_automorphism(lam().fwd, lam().fwd)  # lam^2(a) = ab^2
        ident = FreeHom.identity(2)
        assert verify_automorphism(ident, ident)

    def test_is_identity_equals_comparison_with_the_identity(self):
        # homs near the identity: some images swapped for short random words
        # or rebuilt as BraidWords with the same letters, and some homs
        # into another rank
        rng = random.Random(12)
        seen = {"identity": 0, "not identity": 0, "braid image": 0, "rank change": 0}
        for _ in range(3000):
            src = rng.randint(0, 4)
            dst = src if rng.random() < 0.7 else rng.randint(0, 5)
            images = []
            for k in range(1, src + 1):
                if k <= dst and rng.random() < 0.9:
                    letters = ((k, 1),)
                else:
                    letters = [(rng.randint(1, dst), rng.choice((1, -1)))
                               for _ in range(rng.randint(0, 2) if dst else 0)]
                if rng.random() < 0.05 and 1 <= dst <= MAX_STRANDS - 1:
                    images.append(BraidWord(dst + 1, letters))
                    seen["braid image"] += 1
                else:
                    images.append(Word(dst, letters))
            f = FreeHom(src, dst, tuple(images))
            expected = f == FreeHom.identity(src)
            assert f.is_identity() == expected
            seen["identity" if expected else "not identity"] += 1
            seen["rank change"] += src != dst
        assert min(seen.values()) >= 300
        # the edges, named: a BraidWord of the right letters, and a
        # generator-to-generator map into a larger rank
        assert not FreeHom(2, 2, (BraidWord(3, [(1, 1)]), Word.gen(2, 2))).is_identity()
        assert not FreeHom(1, 2, (Word.gen(2, 1),)).is_identity()
        assert FreeHom(0, 0, ()).is_identity()

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
        assert hom_matrix(SemidirectElement.identity(4).to_hom()) == IntMatrix.identity(4)
        k = SemidirectElement(3, (w("a"),), (Word.identity(2),), Aut.identity(2))
        assert hom_matrix(k.to_hom()) == IntMatrix(((1, 0, 0), (0, 1, 0), (-1, 0, 1)))

    def test_monodromy_translation_block_has_rank_at_most_two(self):
        rng = random.Random(8)
        for _ in range(500):
            n = rng.randint(3, 6)
            m = hom_matrix(rand_semidirect(rng, n).to_hom())
            assert rank_q(m - IntMatrix.identity(n)) <= 2

    def test_malformed_elements_rejected(self):
        with pytest.raises(ValueError):
            SemidirectElement(2, (), (), Aut.identity(2))
        with pytest.raises(ValueError):
            SemidirectElement(3, (Word.identity(3),), (Word.identity(3),),
                              Aut.identity(2))
