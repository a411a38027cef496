"""The package's immutable records: FreeHom, Aut, SemidirectElement,
AbelianStructure, Presentation, SchreierTree, CosetTable, Config,
CheckResult and GarsideNormalForm.  Their reprs are pinned as the classes
they replace printed them (the frozen dataclasses, and GarsideNormalForm's
own), and each record equals, and hashes as, its field tuple.  The value
types Word, BraidWord, Permutation and IntMatrix share the records' base,
and keep the equality, hashes and slot layout they had before it."""

import sys

import pytest

from cgkernel.braids import BraidWord, GarsideNormalForm, normal_form, parse_braid
from cgkernel.checks import CheckResult, Config
from cgkernel.fpgroups import Presentation, parse_presentation, todd_coxeter
from cgkernel.intlin import AbelianStructure, IntMatrix
from cgkernel.perms import DEFAULT_MAX_COSETS, Permutation
from cgkernel.words import Aut, FreeHom, SemidirectElement, Word, _Record, transvection

a, b = Word.gen(2, 1), Word.gen(2, 2)


def coset_table():
    pres = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: a b a b")
    return todd_coxeter(pres, [pres.word("a")])


# (build, field names in order, repr)
RECORDS = {
    "FreeHom": (lambda: FreeHom(2, 2, (a * b, b)), ("src_rank", "dst_rank", "images"),
                "FreeHom(src_rank=2, dst_rank=2, images=(Word(2, 'a b'), Word(2, 'b')))"),
    "Aut": (lambda: transvection(2, 1, 2), ("fwd", "inv"),
            "Aut(fwd=FreeHom(src_rank=2, dst_rank=2, images=(Word(2, 'a b'), Word(2, 'b'))), "
            "inv=FreeHom(src_rank=2, dst_rank=2, images=(Word(2, 'a b^-1'), Word(2, 'b'))))"),
    "SemidirectElement": (
        lambda: SemidirectElement(3, (a,), (b.inverse(),), Aut.identity(2)),
        ("n", "left", "right", "base"),
        "SemidirectElement(n=3, left=(Word(2, 'a'),), right=(Word(2, 'b^-1'),), "
        "base=Aut(fwd=FreeHom(src_rank=2, dst_rank=2, images=(Word(2, 'a'), Word(2, 'b'))), "
        "inv=FreeHom(src_rank=2, dst_rank=2, images=(Word(2, 'a'), Word(2, 'b')))))"),
    "AbelianStructure": (lambda: AbelianStructure(1, (2, 6)), ("free_rank", "torsion"),
                         "Z^1 + Z/2 + Z/6"),
    "Presentation": (lambda: Presentation(2, (a ** 2, b * a * b.inverse())),
                     ("ngens", "relators", "names"),
                     "Presentation(ngens=2, relators=(Word(2, 'a^2'), Word(2, 'a')), "
                     "names=('a', 'b'))"),
    "SchreierTree": (lambda: coset_table().tree, ("parent", "letter", "labels", "nsub"),
                     "SchreierTree(parent=(0, 0, 0), letter=((0, 0), (2, 1), (2, -1)), "
                     "labels=((1, 0), (2, 3), (4, 0)), nsub=4)"),
    "CosetTable": (coset_table, ("presentation", "subgroup_gens", "columns"),
                   "CosetTable(presentation=Presentation(ngens=2, relators=(Word(2, 'a^2'), "
                   "Word(2, 'b^3'), Word(2, 'a b a b')), names=('a', 'b')), "
                   "subgroup_gens=(Word(2, 'a'),), "
                   "columns=((0, 2, 1), (0, 2, 1), (1, 2, 0), (2, 0, 1)))"),
    "Config": (Config, ("max_cosets", "check_filter", "seed"),
               "Config(max_cosets=100000, check_filter=('*',), seed=0)"),
    "Config with keywords": (
        lambda: Config(max_cosets=50, check_filter=("k4.*",), seed=3),
        ("max_cosets", "check_filter", "seed"),
        "Config(max_cosets=50, check_filter=('k4.*',), seed=3)"),
    "CheckResult": (lambda: CheckResult("k4.b1_5", True, 5, 5, "Prop. 4.1", 0.25),
                    ("id", "passed", "expected", "actual", "paper_anchor", "elapsed"),
                    "CheckResult(id='k4.b1_5', passed=True, expected=5, actual=5, "
                    "paper_anchor='Prop. 4.1', elapsed=0.25)"),
    "GarsideNormalForm": (lambda: normal_form(parse_braid("s1 s2 s1^-1 s3", 4)),
                          ("n", "delta_power", "factors"),
                          "GarsideNormalForm(n=4, Delta^-1, 2 factors)"),
}


@pytest.mark.parametrize("name", list(RECORDS))
class TestEveryRecord:
    def test_repr(self, name):
        build, _, text = RECORDS[name]
        assert repr(build()) == text

    def test_equal_and_hashed_as_the_field_tuple(self, name):
        build, fields, _ = RECORDS[name]
        one, two = build(), build()
        values = tuple(getattr(one, f) for f in fields)
        assert one == two and not one != two
        assert hash(one) == hash(two) == hash(values)
        assert one != values and values != one  # a record is not a tuple

    def test_rebuilt_from_its_fields(self, name):
        build, fields, _ = RECORDS[name]
        record = build()
        values = [getattr(record, f) for f in fields]
        assert type(record)(*values) == record
        assert type(record)(**dict(zip(fields, values))) == record

    def test_immutable(self, name):
        build, fields, _ = RECORDS[name]
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)
        with pytest.raises(AttributeError):
            setattr(record, "unrelated", None)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])


LETTERS = ((1, 1), (3, -1), (2, 1))

# (build, the message that assignment and deletion raise)
VALUES = {
    "Word": (lambda: Word(3, LETTERS), "Word is immutable"),
    "BraidWord": (lambda: BraidWord(4, LETTERS), "BraidWord is immutable"),
    "Permutation": (lambda: Permutation((2, 3, 1)), "Permutation is immutable"),
    "IntMatrix": (lambda: IntMatrix(((1, 2, 0), (0, 1, 5))), "IntMatrix is immutable"),
}


def slots(value):
    return [name for cls in type(value).__mro__ for name in cls.__dict__.get("__slots__", ())]


@pytest.mark.parametrize("name", list(VALUES))
class TestEveryValueType:
    def test_assignment_and_deletion_are_refused(self, name):
        build, message = VALUES[name]
        value = build()
        for attr in slots(value) + ["unrelated"]:
            with pytest.raises(AttributeError, match=f"^{message}$"):
                setattr(value, attr, None)
            with pytest.raises(AttributeError, match=f"^{message}$"):
                delattr(value, attr)
        assert value == build() and repr(value) == repr(build())

    def test_slots_alone(self, name):
        # no __dict__ and no __weakref__: as large as a plain object with
        # the same slots
        value = VALUES[name][0]()
        plain = type("Plain", (), {"__slots__": tuple(slots(value))})()
        assert not hasattr(value, "__dict__")
        assert sys.getsizeof(value) == sys.getsizeof(plain)


class TestValueTypeEqualityAndHashes:
    def test_hashes(self):
        w, bw = Word(3, LETTERS), BraidWord(4, LETTERS)
        p, m = VALUES["Permutation"][0](), VALUES["IntMatrix"][0]()
        assert hash(w) == hash((w.rank, w.letters)) == hash((3, LETTERS))
        assert hash(bw) == hash((bw.rank, bw.letters)) == hash(w)
        assert hash(p) == hash(p.mapping) == hash((2, 3, 1))
        assert hash(m) == hash((m.cols, m.data)) == hash((3, ((1, 2, 0), (0, 1, 5))))

    def test_every_field_counts(self):
        # an empty matrix differs by its column count alone
        assert IntMatrix((), cols=2) == IntMatrix((), cols=2) != IntMatrix((), cols=3)
        assert Word(3, LETTERS) != Word(4, LETTERS)

    def test_values_of_other_classes_are_unequal(self):
        word, braid = Word(3, LETTERS), BraidWord(4, LETTERS)
        assert word.letters == braid.letters and word.rank == braid.rank
        assert word != braid and braid != word and not word == braid
        assert Permutation((2, 1)) != (2, 1) and (2, 1) != Permutation((2, 1))
        assert Word(2, ()) != (2, ()) and IntMatrix(((1,),)) != (1, ((1,),))


class Pair(_Record):
    x: int
    y: int = 0


class Couple(_Record):
    x: int
    y: int = 0


class SlottedPair(_Record):
    __slots__ = ("x", "y")
    x: int
    y: int


class TestTheBase:
    def test_records_of_two_classes_with_equal_fields_are_unequal(self):
        assert Pair(1, 2) == Pair(1, 2) and Couple(1, 2) == Couple(1, 2)
        assert Pair(1, 2) != Couple(1, 2) and not Pair(1, 2) == Couple(1, 2)

    def test_a_slot_is_no_default(self):
        with pytest.raises(TypeError, match="missing argument 'y'"):
            SlottedPair(1)
        assert SlottedPair(1, 2) == SlottedPair(y=2, x=1)
        assert not hasattr(SlottedPair(1, 2), "__dict__")

    def test_a_subclass_that_annotates_nothing_keeps_its_base_fields(self):
        class PairAgain(Pair):
            pass

        assert PairAgain(1) == PairAgain(x=1, y=0) != Pair(1)
        assert hash(PairAgain(1, 2)) == hash((1, 2))
        assert repr(PairAgain(1)).endswith("PairAgain(x=1, y=0)")

    def test_binding(self):
        assert Pair(1) == Pair(x=1) == Pair(1, 0) == Pair(y=0, x=1)
        assert (Pair(1).x, Pair(1).y) == (1, 0)
        assert Pair.y == 0  # the default stays a class attribute

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "missing argument 'x'"),
        ((1,), {"z": 2}, "unexpected or repeated argument 'z'"),
        ((1,), {"x": 2}, "unexpected or repeated argument 'x'"),
        ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
    ])
    def test_bad_arguments(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Pair(*args, **kwargs)


class TestConfig:
    def test_defaults_and_keywords(self):
        assert (Config().max_cosets, Config().check_filter, Config().seed) == (
            DEFAULT_MAX_COSETS, ("*",), 0)
        cfg = Config(seed=7, max_cosets=12)
        assert (cfg.max_cosets, cfg.check_filter, cfg.seed) == (12, ("*",), 7)
        assert Config(max_cosets=12, seed=7) == cfg != Config()

    def test_rejects_a_limit_below_one(self):
        with pytest.raises(ValueError, match="max_cosets must be at least 1"):
            Config(max_cosets=0)


class TestPostInit:
    def test_every_validation_error(self):
        ident = Aut.identity(2)
        cases = [
            (lambda: FreeHom(2, 2, (a,)), "need one image per source generator"),
            (lambda: FreeHom(1, 3, (a,)), "image rank mismatch"),
            (lambda: Aut(FreeHom(2, 2, (a * b, b)), FreeHom.identity(2)),
             "maps are not mutually inverse automorphisms"),
            (lambda: SemidirectElement(2, (), (), ident), r"need n >= 3"),
            (lambda: SemidirectElement(3, (a, a), (b,), ident), "need 1 left and right words"),
            (lambda: SemidirectElement(3, (Word.gen(3, 3),), (b,), ident),
             "coordinate words must have rank 2"),
            (lambda: SemidirectElement(3, (a,), (b,), Aut.identity(3)),
             "base automorphism must have rank 2"),
            (lambda: AbelianStructure(-1), "negative free rank"),
            (lambda: AbelianStructure(0, (2, 3)), "divisibility chain"),
            (lambda: AbelianStructure(0, (1, 2)), "torsion entries must exceed 1"),
            (lambda: Presentation(0, ()), "need at least one generator"),
            (lambda: Presentation(2, (), ("a",)), "one name per generator"),
            (lambda: Presentation(2, (), ("a", "a")), "duplicate generator name"),
            (lambda: Presentation(2, (Word.gen(3, 1),)), "relator rank mismatch"),
            (lambda: Config(max_cosets=-5), "max_cosets must be at least 1"),
            (lambda: GarsideNormalForm(3, 0, [Permutation((2, 1))]), "factor degree mismatch"),
            (lambda: GarsideNormalForm(3, 0, [Permutation((3, 2, 1))]),
             "factors must be proper permutation braids"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=message):
                build()

    def test_post_init_may_still_normalise_a_field(self):
        pres = Presentation(2, (b * a * b.inverse(),))
        assert pres.names == ("a", "b") and pres.relators == (a,)
        assert pres == Presentation(2, (a,), ("a", "b"))
        factors = [Permutation((2, 1, 3))]
        nf = GarsideNormalForm(3, 1, factors)
        assert nf.factors == (Permutation((2, 1, 3)),) and nf == GarsideNormalForm(3, 1, factors)

    def test_values_cached_on_first_need_stay_out_of_equality(self):
        f = FreeHom(2, 2, (a * b, b))
        g = FreeHom(2, 2, (a * b, b))
        assert f(a.inverse()) == (a * b).inverse() and f._inverses is not None
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
        ct = coset_table()
        assert ct.tree is ct.tree and ct == coset_table()
