"""Free-group words, homomorphisms, and certified automorphisms.

Composition throughout this package is diagrammatic: ``compose(f, g)`` applies
``f`` first and ``g`` second.  This matters -- most computer algebra systems
use the opposite order, and every table in :mod:`cgkernel.braids` and every
matrix identity in :mod:`cgkernel.intlin` is calibrated to this convention.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import groupby
from operator import attrgetter

Letter = tuple[int, int]  # (1-based generator index, +1 or -1)


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for let in letters:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def _inverse(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    return tuple((i, -s) for i, s in reversed(letters))


def _junction(left: Sequence[Letter], right: Sequence[Letter]) -> int:
    """How many letters cancel where two freely reduced letter sequences meet:
    the last n of ``left`` against the first n of ``right``.  Since both are
    reduced, nothing else in ``left + right`` can cancel."""
    n, most = 0, min(len(left), len(right))
    while n < most and left[-1 - n][0] == right[n][0] and left[-1 - n][1] == -right[n][1]:
        n += 1
    return n


def _join(left: Sequence[Letter], right: Sequence[Letter]) -> tuple[Letter, ...]:
    """The free reduction of ``left + right`` for two reduced letter tuples."""
    n = _junction(left, right)
    return left[:len(left) - n] + right[n:]


_setattr = object.__setattr__


class _Record:
    """Base of the package's immutable records and values.

    A record's fields are the names annotated in its own class body, in
    order; a class that annotates none keeps its base's fields.  A class
    attribute of a field's name, other than the field's slot, is that
    field's default (the rule of a dataclass).  The base binds fields from
    positional and keyword arguments and then calls ``__post_init__``; a
    value type with a checking ``__init__`` of its own sets them itself.
    Records are equal when they are of one class with equal field values,
    hash as those values, print as ``Name(field=value, ...)``, and refuse
    assignment and deletion; ``object.__setattr__`` still sets an
    attribute, for a value type's ``__init__``, a ``__post_init__`` that
    normalises a field, or a value cached on first need.  A slot that no
    annotation names is no field.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        namespace = cls.__dict__
        if "__annotations__" not in namespace:
            return  # no fields of its own: the base's fields stand
        cls._fields = fields = tuple(namespace["__annotations__"])
        slots = namespace.get("__slots__", ())
        cls._defaults = {f: namespace[f] for f in fields if f in namespace and f not in slots}
        # the field values: attrgetter gives a tuple for two or more names,
        # and the value itself for one
        cls._values = staticmethod(attrgetter(*fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # field by field, as assignments in __init__ would: filling __dict__
        # at once would make CPython keep a real dict per instance, and every
        # attribute read slower
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in given:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
        values = {**cls._defaults, **given, **kwargs}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing argument {missing[0]!r}")
        return [values[f] for f in fields]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Word(_Record):
    """A freely reduced word in the free group of the given rank.

    Words are immutable values: equality is structural, and free reduction
    happens eagerly on construction.  Products, inverses, powers and cyclic
    reductions keep the class of the word they start from, and words of
    different classes never compare equal.
    """

    __slots__ = ("rank", "letters")
    rank: int
    letters: tuple[Letter, ...]

    def __init__(self, rank: int, letters: Iterable[Letter] = ()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        reduced = _reduce(letters)
        for idx, sign in reduced:
            if not 1 <= idx <= rank:
                raise ValueError(f"generator index {idx} out of range for rank {rank}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        _setattr(self, "rank", rank)
        _setattr(self, "letters", reduced)

    @classmethod
    def _reduced(cls, rank: int, letters: tuple[Letter, ...]) -> "Word":
        # a word from a letter tuple its caller has proved freely reduced,
        # with every generator in 1..rank and every sign +-1: no checks
        word = object.__new__(cls)
        _setattr(word, "rank", rank)
        _setattr(word, "letters", letters)
        return word

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls(rank, ())

    @classmethod
    def gen(cls, rank: int, idx: int, sign: int = 1) -> "Word":
        return cls(rank, ((idx, sign),))

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")
        return self._reduced(self.rank, _join(self.letters, other.letters))

    def inverse(self) -> "Word":
        return self._reduced(self.rank, _inverse(self.letters))

    __invert__ = inverse

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return self._reduced(self.rank, _reduce(self.letters * n))

    def conjugate(self, by: "Word") -> "Word":
        """by * self * by^-1."""
        return by * self * by.inverse()

    def promote(self, rank: int) -> "Word":
        """Reinterpret in a larger free group (same letters)."""
        if rank < self.rank:
            raise ValueError("cannot demote a word to smaller rank")
        # reduced with letters in 1..self.rank, so reduced and in range here
        return Word._reduced(rank, self.letters)

    def abelianize(self) -> tuple[int, ...]:
        """Signed exponent count of each generator."""
        counts = [0] * self.rank
        for idx, sign in self.letters:
            counts[idx - 1] += sign
        return tuple(counts)

    def is_identity(self) -> bool:
        return not self.letters

    def cyclically_reduced(self) -> "Word":
        ls = self.letters
        lo, hi = 0, len(ls) - 1
        while lo < hi and ls[lo][0] == ls[hi][0] and ls[lo][1] == -ls[hi][1]:
            lo, hi = lo + 1, hi - 1
        return self if lo == 0 else self._reduced(self.rank, ls[lo:hi + 1])

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.rank}, {format_word(self)!r})"


def default_names(rank: int) -> tuple[str, ...]:
    """Canonical generator names: a, b, x3, x4, ..."""
    base = ["a", "b"][:rank]
    return tuple(base + [f"x{i}" for i in range(3, rank + 1)])


def parse_word(text: str, rank: int, names: Sequence[str] | None = None) -> Word:
    """Parse whitespace-separated letters like ``b a^-1 b`` or ``B a^2``.

    Upper-case tokens denote inverses; ``gN`` / ``GN`` address generators by
    number; ``1`` denotes the empty word.
    """
    if names is None:
        names = default_names(rank)
    lookup = {nm: i + 1 for i, nm in enumerate(names)}
    letters: list[Letter] = []
    for token in text.split():
        if token == "1":
            continue
        base, _, exp_part = token.partition("^")
        exp = 1
        if exp_part:
            try:
                exp = int(exp_part)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
        idx = lookup.get(base)
        sign = 1
        if idx is None and base.lower() in lookup and base != base.lower():
            idx = lookup[base.lower()]
            sign = -1
        if idx is None and len(base) >= 2 and base[0] in "gG" and base[1:].isdigit():
            idx = int(base[1:])
            sign = -1 if base[0] == "G" else 1
            if not 1 <= idx <= rank:
                raise ValueError(f"generator {base!r} out of range for rank {rank}")
        if idx is None:
            raise ValueError(f"unknown generator {base!r}")
        letters.extend([(idx, sign)] * exp if exp >= 0 else [(idx, -sign)] * (-exp))
    return Word(rank, letters)


def format_word(w: Word, names: Sequence[str] | None = None) -> str:
    """Inverse of parse_word; runs are collapsed to ``a^k``."""
    if names is None:
        names = default_names(w.rank)
    if not w.letters:
        return "1"
    parts: list[str] = []
    for (idx, sign), run in groupby(w.letters):
        exp = sign * sum(1 for _ in run)
        parts.append(names[idx - 1] + (f"^{exp}" if exp != 1 else ""))
    return " ".join(parts)


class FreeHom(_Record):
    """Homomorphism of free groups given by generator images."""

    src_rank: int
    dst_rank: int
    images: tuple[Word, ...]
    # the letters of each image's inverse, a list that __call__ makes and
    # fills on first need; not a field, so equality, hashing and repr ignore it
    _inverses = None

    def __post_init__(self):
        if len(self.images) != self.src_rank:
            raise ValueError("need one image per source generator")
        for im in self.images:
            if im.rank != self.dst_rank:
                raise ValueError("image rank mismatch")

    @classmethod
    def identity(cls, rank: int) -> "FreeHom":
        return cls(rank, rank, tuple(Word.gen(rank, i) for i in range(1, rank + 1)))

    @classmethod
    def from_strings(cls, src_rank: int, dst_rank: int, images: Sequence[str],
                     names: Sequence[str] | None = None) -> "FreeHom":
        return cls(src_rank, dst_rank,
                   tuple(parse_word(s, dst_rank, names) for s in images))

    def __call__(self, w: Word) -> Word:
        """The image of w, built by joining the images of its letters as whole
        blocks.  Each image is freely reduced and so is the output so far, so
        letters cancel only where the output meets the next block (the rule
        of ``Word.__mul__``); the rest of the block is copied in one extend.
        The result is therefore reduced, and every letter is in range because
        ``__post_init__`` checked each image's rank."""
        if w.rank != self.src_rank:
            raise ValueError(f"rank mismatch: word has rank {w.rank}, hom expects {self.src_rank}")
        images, inverses = self.images, self._inverses
        out: list[Letter] = []
        for idx, sign in w.letters:
            if sign == 1:
                block = images[idx - 1].letters
            else:
                if inverses is None:
                    inverses = [None] * self.src_rank
                    object.__setattr__(self, "_inverses", inverses)
                block = inverses[idx - 1]
                if block is None:
                    block = inverses[idx - 1] = _inverse(images[idx - 1].letters)
            n = _junction(out, block)
            if n:
                del out[-n:]
                block = block[n:]
            out.extend(block)
        return Word._reduced(self.dst_rank, tuple(out))

    def is_identity(self) -> bool:
        """self == FreeHom.identity(self.src_rank), without building it: each
        image is the plain Word of its generator alone."""
        return self.src_rank == self.dst_rank and all(
            type(im) is Word and im.letters == ((k, 1),)
            for k, im in enumerate(self.images, 1))


def compose(f: FreeHom, g: FreeHom) -> FreeHom:
    """Diagrammatic composition: f first, then g."""
    if f.dst_rank != g.src_rank:
        raise ValueError("rank mismatch in composition")
    return FreeHom(f.src_rank, g.dst_rank, tuple(g(im) for im in f.images))


def verify_automorphism(f: FreeHom, g: FreeHom) -> bool:
    """True iff f and g are mutually inverse endomorphisms of the same rank."""
    if not (f.src_rank == f.dst_rank == g.src_rank == g.dst_rank):
        return False
    return compose(f, g).is_identity() and compose(g, f).is_identity()


class Aut(_Record):
    """An automorphism certified by an explicit inverse.

    Surjectivity of a free-group endomorphism is not decidable by local
    inspection, so automorphisms always travel as (map, inverse) pairs and the
    pair is checked on construction.
    """

    fwd: FreeHom
    inv: FreeHom

    def __post_init__(self):
        if not verify_automorphism(self.fwd, self.inv):
            raise ValueError("maps are not mutually inverse automorphisms")

    @classmethod
    def identity(cls, rank: int) -> "Aut":
        f = FreeHom.identity(rank)
        return cls(f, f)

    @property
    def rank(self) -> int:
        return self.fwd.src_rank

    def __call__(self, w: Word) -> Word:
        return self.fwd(w)

    def __mul__(self, other: "Aut") -> "Aut":
        """Diagrammatic: self first, then other."""
        return Aut(compose(self.fwd, other.fwd), compose(other.inv, self.inv))

    def inverse(self) -> "Aut":
        return Aut(self.inv, self.fwd)

    __invert__ = inverse

    def __pow__(self, n: int) -> "Aut":
        if n < 0:
            return self.inverse() ** (-n)
        out = Aut.identity(self.rank)
        for _ in range(n):
            out = out * self
        return out


def transvection(rank: int, i: int, j: int) -> Aut:
    """The Nielsen automorphism x_i -> x_i x_j (others fixed)."""
    if i == j:
        raise ValueError("transvection needs distinct generators")
    fwd_images = [Word.gen(rank, k) for k in range(1, rank + 1)]
    inv_images = list(fwd_images)
    fwd_images[i - 1] = Word.gen(rank, i) * Word.gen(rank, j)
    inv_images[i - 1] = Word.gen(rank, i) * Word.gen(rank, j, -1)
    return Aut(FreeHom(rank, rank, tuple(fwd_images)),
               FreeHom(rank, rank, tuple(inv_images)))


class SemidirectElement(_Record):
    """Element of F_2^(2n-4) x| F_2 acting on F_n = <a, b, x_3, ..., x_n>.

    ``left[k]``/``right[k]`` (rank-2 words) conjugate-translate x_{k+3}, and
    ``base`` is a rank-2 automorphism twisting <a, b>.  The induced map sends
    x_i -> left_i^-1 x_i right_i and (a, b) through ``base``.
    """

    n: int
    left: tuple[Word, ...]
    right: tuple[Word, ...]
    base: Aut

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if len(self.left) != self.n - 2 or len(self.right) != self.n - 2:
            raise ValueError(f"need {self.n - 2} left and right words")
        for w in self.left + self.right:
            if w.rank != 2:
                raise ValueError("coordinate words must have rank 2")
        if self.base.rank != 2:
            raise ValueError("base automorphism must have rank 2")

    @classmethod
    def identity(cls, n: int) -> "SemidirectElement":
        e = Word.identity(2)
        return cls(n, (e,) * (n - 2), (e,) * (n - 2), Aut.identity(2))

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        """Diagrammatic product: to_hom(self * other) is self's map followed
        by other's, so other's base automorphism twists self's words."""
        if self.n != other.n:
            raise ValueError("mismatched n")
        mu = other.base.fwd
        left = tuple(l2 * mu(l1) for l1, l2 in zip(self.left, other.left))
        right = tuple(r2 * mu(r1) for r1, r2 in zip(self.right, other.right))
        return SemidirectElement(self.n, left, right, self.base * other.base)

    def inverse(self) -> "SemidirectElement":
        mu_inv = self.base.inv
        left = tuple(mu_inv(l.inverse()) for l in self.left)
        right = tuple(mu_inv(r.inverse()) for r in self.right)
        return SemidirectElement(self.n, left, right, self.base.inverse())

    def to_hom(self) -> FreeHom:
        """The induced automorphism of F_n (as a plain homomorphism)."""
        n = self.n
        images = [self.base.fwd.images[0].promote(n), self.base.fwd.images[1].promote(n)]
        for k in range(n - 2):
            # left[k] and right[k] are reduced words in a, b only, so the
            # letter x_(k+3) between them cancels with neither
            images.append(Word._reduced(n, _inverse(self.left[k].letters) + ((k + 3, 1),)
                                        + self.right[k].letters))
        return FreeHom(n, n, tuple(images))

    def to_aut(self) -> Aut:
        return Aut(self.to_hom(), self.inverse().to_hom())
