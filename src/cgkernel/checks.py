"""Named verification registry.

Each check is a pure function returning (passed, expected, actual) with
JSON-serializable evidence, registered under a stable public id and its paper
anchor by `_check` where it is defined.  Table-driven checks take their
expected-value table as a default argument, so the test suite can pass a
corrupted one and confirm the comparator actually bites.

Most checks give their evidence in one of four shapes, each built by one
helper: named verdicts that must all hold (`_verdicts`), named matrices
against tabulated rows (`_matrices`), a subgroup index (`_index`), and the
index and abelianization of a finite quotient's kernel (`_kernel`).
"""

from __future__ import annotations

import fnmatch
import random
import time
from collections.abc import Callable
from functools import cache

from . import braids, perms, subgroups
from .braids import (BraidWord, braid_action, braid_equal, braid_perm,
                     braid_to_word, cardano_ferrari, delete_strand, delta_word,
                     ell_word, f2_word, parse_braid, pure_gen)
from .intlin import (AbelianStructure, IntMatrix, coinvariants, eval_st,
                     hom_matrix, invariants_rank, parse_st, rank_q, sl2_word)
from .fpgroups import (CosetLimitExceeded, CosetTable, Presentation,
                       abelianization, braid_mod_center_presentation,
                       coset_table_from_quotient,
                       pure_braid3_mod_center_presentation,
                       pure_braid3_presentation, sl2z_presentation,
                       subgroup_abelianization, todd_coxeter)
from .perms import (DEFAULT_MAX_COSETS, Permutation, closure, is_normal,
                    parse_cycles, quotient_map_s4_to_s3)
from .subgroups import from_quotient, restrict_hom
from .words import (Aut, FreeHom, SemidirectElement, Word, _Record, compose,
                    format_word, transvection)


class UnknownCheck(KeyError):
    """No check registered under the requested id."""


class Config(_Record):
    """Runtime knobs shared by all checks."""

    max_cosets: int = DEFAULT_MAX_COSETS
    check_filter: tuple[str, ...] = ("*",)
    seed: int = 0

    def __post_init__(self):
        if self.max_cosets < 1:
            raise ValueError("max_cosets must be at least 1")


class CheckResult(_Record):
    id: str
    passed: bool
    expected: object
    actual: object
    paper_anchor: str
    elapsed: float

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "passed": self.passed,
            "expected": self.expected,
            "actual": self.actual,
            "paper_anchor": self.paper_anchor,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


def _mat(m: IntMatrix) -> list[list[int]]:
    return [list(row) for row in m.data]


def _ab(a: AbelianStructure) -> dict:
    return {"free_rank": a.free_rank, "torsion": list(a.torsion)}


# --- the four evidence shapes --------------------------------------------------


def _verdicts(verdicts: dict[str, bool]):
    """Named verdicts that must all hold."""
    return all(verdicts.values()), {k: True for k in verdicts}, verdicts


def _matrices(triples):
    """Named matrices against tabulated rows: (label, rows, computed) triples."""
    expected, actual = {}, {}
    ok = True
    for label, rows, got in triples:
        expected[label] = [list(r) for r in rows]
        actual[label] = _mat(got)
        ok = ok and got == IntMatrix(rows)
    return ok, expected, actual


def _index(pres: Presentation, subgens, want: int, cfg: Config):
    """The index of the subgroup generated by ``subgens``, by Todd-Coxeter."""
    ct = todd_coxeter(pres, subgens, cfg.max_cosets)
    return ct.index == want, {"index": want}, {"index": ct.index}


def _kernel(key: str, index: int, want: AbelianStructure, got: tuple[int, AbelianStructure]):
    """A kernel's index, under ``key``, and its abelianization: ``got`` as
    `_kernel_abelianization` gives them, against ``index`` and ``want``."""
    return got == (index, want), {key: index, "abelianization": _ab(want)}, \
        {key: got[0], "abelianization": _ab(got[1])}


# --- expected-value tables ---------------------------------------------------

APQ_ACTION_TABLE: dict[tuple[int, int], tuple[str, str]] = {
    (1, 2): ("a", "b a^-2"),
    (1, 3): ("b a^-2 b a^-1", "b a^-2 b a^-2 b a^-1 b a^-2 b a^-1"),
    (1, 4): ("a b a^-1 b a^-1", "b^2 a^-1 b a^-1"),
    (2, 3): ("b a^-1 b", "b a^-1 b a^-1 b"),
    (2, 4): ("a b^2", "b"),
    (3, 4): ("a", "a^-2 b"),
}

APQ_MATRIX_TABLE: dict[tuple[int, int], tuple[tuple[int, int], tuple[int, int]]] = {
    (1, 2): ((1, 0), (-2, 1)),
    (1, 3): ((-3, 2), (-8, 5)),
    (1, 4): ((-1, 2), (-2, 3)),
    (2, 3): ((-1, 2), (-2, 3)),
    (2, 4): ((1, 2), (0, 1)),
    (3, 4): ((1, 0), (-2, 1)),
}

# label -> (S/T word, matrix it must evaluate to)
ST_WORD_TABLE: dict[str, tuple[str, tuple[tuple[int, int], tuple[int, int]]]] = {
    "A12": ("t^-1 s^-1 t^-2 s^-1 t^-1", APQ_MATRIX_TABLE[(1, 2)]),
    "A13": ("s^-1 t^-2 s^-1 t s^-1 t^-2 s t^-1", APQ_MATRIX_TABLE[(1, 3)]),
    "A14": ("s^-1 t^-2 s^-1 t^-2", APQ_MATRIX_TABLE[(1, 4)]),
    "A23": ("s^-1 t^-2 s^-1 t^-2", APQ_MATRIX_TABLE[(2, 3)]),
    "A24": ("t^2", APQ_MATRIX_TABLE[(2, 4)]),
    "A34": ("t^-1 s^-1 t^-2 s^-1 t^-1", APQ_MATRIX_TABLE[(3, 4)]),
    "(TST)^2": ("t s t t s t", ((1, 0), (2, 1))),
    "T^2": ("t t", ((1, 2), (0, 1))),
}

CF_IMAGE_TABLE: dict[tuple[int, int], str] = {
    (1, 2): "A12",
    (1, 3): "A13",
    (2, 3): "A23",
    (1, 4): "A23",
    (2, 4): "A23^-1 A13 A23",
    (3, 4): "A12",
}


def _relabel(p: int, q: int, i: int) -> tuple[int, int]:
    return (p if p < i else p - 1, q if q < i else q - 1)


def _default_theta_table() -> dict[tuple[int, int, int], str]:
    table = {}
    for i in range(1, 5):
        for (p, q) in APQ_ACTION_TABLE:
            if i in (p, q):
                table[(i, p, q)] = "1"
            else:
                pp, qq = _relabel(p, q, i)
                table[(i, p, q)] = f"A{pp}{qq}"
    return table


THETA_IMAGE_TABLE: dict[tuple[int, int, int], str] = _default_theta_table()

ELL_IDENTITY_TABLE: dict[int, tuple[str, str]] = {
    2: ("s1 s1 s2 s3 s3 s2", "A12 A23 A24"),
    3: ("s2 s1 s1 s2 s3 s3", "A13 A23 A34"),
    4: ("s3 s2 s1 s1 s2 s3", "A14 A24 A34"),
}

ELL_PSI_TABLE: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {
    2: ((-1, 0), (0, -1)),
    3: ((-1, 0), (0, -1)),
    4: ((-1, 0), (0, -1)),
}

ELL_THETA4_TABLE: dict[int, str] = {2: "A12 A23", 3: "A13 A23", 4: "1"}

XI_IMAGE_TABLE: dict[str, str] = {"a": "(1,2)(3,4)", "b": "(1,3)(2,4)"}


# --- shared constructions ----------------------------------------------------
#
# The @cache'd constructions are built once per `run_all` (each run starts
# them cold, as a fresh `verify` process does) and shared by every check
# that reads them, so each returns an immutable value and is keyed by the
# inputs it reads (nothing, the coset limit, or a quotient and the limit).


def nielsen_generators() -> tuple[Aut, Aut]:
    """The two elementary automorphisms of F_2: a -> ab and b -> ba."""
    return transvection(2, 1, 2), transvection(2, 2, 1)


@cache
def parity_stabilizer_generators() -> tuple[Aut, ...]:
    """Four special automorphisms of F_2 that stabilize the kernel of the
    parity map (a -> 0, b -> 1) and, with the inner automorphisms, generate
    its index-3 congruence subgroup."""
    lam, rho = nielsen_generators()
    return (
        lam * lam,
        rho,
        lam ** -1 * rho ** 2 * lam,
        lam ** -1 * rho ** -1 * lam * rho * lam,
    )


def parity_subgroup(max_cosets: int) -> CosetTable:
    """H = kernel of F_2 -> Z/2 sending a to 0 and b to 1 (index 2, rank 3)."""
    return from_quotient(2, [Permutation.identity(2), Permutation((2, 1))], max_cosets)


def mod2_homology_subgroup(max_cosets: int) -> CosetTable:
    """J = kernel of F_2 -> (Z/2)^2, the mod-2 homology quotient (index 4)."""
    return from_quotient(2, [parse_cycles("(1,2)(3,4)", 4), parse_cycles("(1,3)(2,4)", 4)],
                         max_cosets)


@cache
def restricted_stabilizer_matrices(max_cosets: int) -> tuple[IntMatrix, ...]:
    sub = parity_subgroup(max_cosets)
    return tuple(hom_matrix(restrict_hom(sub, g)) for g in parity_stabilizer_generators())


def strand_transpositions() -> tuple[Permutation, ...]:
    return tuple(Permutation.transposition(4, i, i + 1) for i in range(1, 4))


def sl2z2_images() -> tuple[Permutation, ...]:
    """Images of S and T in SL(2, Z/2), acting on the right on the nonzero
    vectors (1,0), (0,1), (1,1) of (Z/2)^2.  The quotient table numbers the
    group's elements breadth first, whatever faithful action it is given."""
    return parse_cycles("(1,2)", 3), parse_cycles("(1,3)", 3)


@cache
def _kernel_abelianization(pres: Presentation, images: tuple[Permutation, ...],
                           max_cosets: int) -> tuple[int, AbelianStructure]:
    """Index and abelianization of the kernel of the quotient pres -> <images>."""
    ct = coset_table_from_quotient(pres, images, max_cosets)
    return ct.index, subgroup_abelianization(ct)


# braid words mapping onto the standard SL(2,Z) generators under the
# homology action (checked by the checks that use them)
BETA_T_STR = "s1 s2 s1^-1"
BETA_S_STR = "s1 s2^-1 s1^-1 s2^-1 s1^-1"


def braid_lift(m: IntMatrix) -> BraidWord:
    """Some braid of B_4 whose homology action is exactly m (det 1)."""
    beta_s = parse_braid(BETA_S_STR, 4)
    beta_t = parse_braid(BETA_T_STR, 4)
    out = BraidWord.identity(4)
    for i, s in sl2_word(m).letters:
        beta = beta_s if i == 1 else beta_t
        out = out * (beta if s == 1 else beta.inverse())
    return out


def _monodromy_generator_matrices(n: int) -> list[IntMatrix]:
    lam, rho = nielsen_generators()
    e = Word.identity(2)
    mats = []
    for k in range(n - 2):
        for letter in (Word.gen(2, 1), Word.gen(2, 2)):
            for side in ("left", "right"):
                left = [e] * (n - 2)
                right = [e] * (n - 2)
                (left if side == "left" else right)[k] = letter
                elem = SemidirectElement(n, tuple(left), tuple(right), Aut.identity(2))
                mats.append(hom_matrix(elem.to_hom()))
    for mu in (lam * lam, rho * rho):
        mats.append(hom_matrix(
            SemidirectElement(n, (e,) * (n - 2), (e,) * (n - 2), mu).to_hom()))
    return mats


@cache
def semidirect_twists() -> tuple[Aut, ...]:
    """The base twists of random semidirect elements: lambda^2, rho^2 and
    their inverses, in the order `random_semidirect_element` draws from."""
    lam, rho = nielsen_generators()
    return lam * lam, rho * rho, (lam * lam) ** -1, (rho * rho) ** -1


def random_semidirect_element(rng: random.Random, n: int) -> SemidirectElement:
    """A random element with words of up to 4 letters and its base drawn
    from `semidirect_twists()`."""
    def rand_word() -> Word:
        letters = [(rng.randint(1, 2), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 4))]
        return Word(2, letters)

    left = tuple(rand_word() for _ in range(n - 2))
    right = tuple(rand_word() for _ in range(n - 2))
    return SemidirectElement(n, left, right, rng.choice(semidirect_twists()))


# --- the checks ---------------------------------------------------------------


REGISTRY: dict[str, tuple[str, Callable]] = {}


def _check(check_id: str, anchor: str):
    """Register the decorated function as check ``check_id``, stating the
    paper's claim ``anchor``; registry order is definition order."""
    def register(func: Callable) -> Callable:
        if check_id in REGISTRY:
            raise ValueError(f"check id {check_id!r} is already registered")
        REGISTRY[check_id] = (anchor, func)
        return func
    return register


@_check("appendix.sigma_actions",
        "conjugation of the braid generators on the normal rank-2 free subgroup of B_4")
def _chk_sigma_actions(cfg: Config, table=braids.SIGMA_ACTION_TABLE):
    """12 rows: both generator images for each of the six braid letters,
    checked against actual conjugation in B_4."""
    rows = {}
    for (i, sign), row in sorted(table.items()):
        f = FreeHom.from_strings(2, 2, row)
        s = BraidWord.gen(4, i, sign)
        for k, name in enumerate("ab"):
            lhs = s * f2_word()[k] * s.inverse()
            rhs = braids.expand_f2(f.images[k])
            rows[f"s{i}^{sign}:{name}"] = braid_equal(lhs, rhs)
    return _verdicts(rows)


@_check("appendix.apq_actions",
        "conjugation of the six pure-braid twist generators on the normal rank-2 subgroup")
def _chk_apq_actions(cfg: Config, table=APQ_ACTION_TABLE):
    expected, actual = {}, {}
    ok = True
    for (p, q), row in sorted(table.items()):
        got = braid_action(pure_gen(p, q, 4))
        expected[f"A{p}{q}"] = list(row)
        actual[f"A{p}{q}"] = [format_word(got.images[0]), format_word(got.images[1])]
        ok = ok and got == FreeHom.from_strings(2, 2, row)
    return ok, expected, actual


@_check("appendix.apq_matrices", "homology matrices in SL(2,Z) of the twist-generator actions")
def _chk_apq_matrices(cfg: Config, table=APQ_MATRIX_TABLE):
    return _matrices((f"A{p}{q}", rows, hom_matrix(braid_action(pure_gen(p, q, 4))))
                     for (p, q), rows in sorted(table.items()))


@_check("appendix.st_words",
        "S/T-word expressions for the twist matrices, including A24 = T^2 and A12 = (TST)^-2")
def _chk_st_words(cfg: Config, table=ST_WORD_TABLE):
    return _matrices((label, rows, eval_st(parse_st(st_text)))
                     for label, (st_text, rows) in sorted(table.items()))


@_check("braid.center_trivial_action",
        "the center of B_4 acts trivially on the normal rank-2 subgroup")
def _chk_center_trivial(cfg: Config):
    act = braid_action(delta_word(4) ** 2)
    return act.is_identity(), "identity action", \
        {"a": format_word(act.images[0]), "b": format_word(act.images[1])}


@_check("perm.xi_images",
        "strand permutations of the rank-2 subgroup generators generate the normal Klein subgroup of S_4")
def _chk_xi_images(cfg: Config, table=XI_IMAGE_TABLE):
    a, b = f2_word()
    got = {"a": perms.format_cycles(braid_perm(a)), "b": perms.format_cycles(braid_perm(b))}
    klein = closure([braid_perm(a), braid_perm(b)])
    s4 = closure([Permutation.transposition(4, i, i + 1) for i in (1, 2, 3)])
    facts = {"order": len(klein), "normal_in_S4": is_normal(klein, s4)}
    ok = (got == dict(table) and facts["order"] == 4 and facts["normal_in_S4"])
    return ok, {**dict(table), "order": 4, "normal_in_S4": True}, {**got, **facts}


@_check("sl2.S_index3",
        "homology images of the four parity-stabilizer automorphisms generate an index-3 subgroup of SL(2,Z)")
def _chk_s_index3(cfg: Config):
    gens = [sl2_word(hom_matrix(g.fwd)) for g in parity_stabilizer_generators()]
    return _index(sl2z_presentation(), gens, 3, cfg)


@_check("sl2.sanov_index12", "the Sanov subgroup <T^2, (TST)^2> has index 12 in SL(2,Z)")
def _chk_sanov_index12(cfg: Config):
    pres = sl2z_presentation()
    return _index(pres, [pres.word("t t"), pres.word("t s t t s t")], 12, cfg)


def _gamma2_abelianization(max_cosets: int) -> tuple[int, AbelianStructure]:
    return _kernel_abelianization(sl2z_presentation(), sl2z2_images(), max_cosets)


def _k4_abelianization(max_cosets: int) -> tuple[int, AbelianStructure]:
    return _kernel_abelianization(braid_mod_center_presentation(4),
                                  strand_transpositions(), max_cosets)


@_check("sl2.gamma2_ab", "the level-2 congruence subgroup (index 6) abelianizes to Z^2 + Z/2")
def _chk_gamma2_ab(cfg: Config):
    return _kernel("index", 6, AbelianStructure(2, (2,)), _gamma2_abelianization(cfg.max_cosets))


@_check("sl2.gamma2_b1", "first Betti number of the level-2 congruence subgroup is 2")
def _chk_gamma2_b1(cfg: Config):
    _, ab = _gamma2_abelianization(cfg.max_cosets)
    return ab.free_rank == 2, {"b1": 2}, {"b1": ab.free_rank}


@_check("stab.fourgen_in_stabH",
        "the four parity-stabilizer automorphisms and inverses preserve the parity kernel")
def _chk_fourgen_in_stab(cfg: Config):
    sub = parity_subgroup(cfg.max_cosets)
    verdicts = {}
    for k, g in enumerate(parity_stabilizer_generators()):
        for tag, a in (("", g), ("^-1", g.inverse())):
            try:
                restrict_hom(sub, a)
                verdicts[f"g{k + 1}{tag}"] = True
            except subgroups.NotStabilized:
                verdicts[f"g{k + 1}{tag}"] = False
    return _verdicts(verdicts)


@_check("homology.H_coinvariants_rank1",
        "coinvariants of the parity kernel's homology under the restricted actions have rank one")
def _chk_h_coinvariants(cfg: Config):
    mats = restricted_stabilizer_matrices(cfg.max_cosets)
    structure = coinvariants(mats, 3)
    return structure.free_rank == 1, \
        {"free_rank": 1}, \
        {"structure": _ab(structure), "matrices": [_mat(m) for m in mats]}


@_check("homology.H_invariants_rank1",
        "the common fixed space of the restricted actions has dimension one")
def _chk_h_invariants(cfg: Config):
    mats = restricted_stabilizer_matrices(cfg.max_cosets)
    rank = invariants_rank(mats)
    return rank == 1, {"invariants_rank": 1}, {"invariants_rank": rank}


@_check("k4.b1_5", "the central quotient of the 4-strand pure braid group has first Betti number 5")
def _chk_k4_b1(cfg: Config):
    return _kernel("cosets", 24, AbelianStructure(5, ()), _k4_abelianization(cfg.max_cosets))


@_check("k4.excessive", "fiber-side first Betti number exceeds the base: 5 > 2")
def _chk_k4_excessive(cfg: Config):
    _, k4_ab = _k4_abelianization(cfg.max_cosets)
    _, g2_ab = _gamma2_abelianization(cfg.max_cosets)
    ok = k4_ab.free_rank > g2_ab.free_rank and (k4_ab.free_rank, g2_ab.free_rank) == (5, 2)
    return ok, {"fiber_b1": 5, "base_b1": 2}, \
        {"fiber_b1": k4_ab.free_rank, "base_b1": g2_ab.free_rank}


@_check("gammaplus.ab",
        "the index-6 congruence subgroup of the special automorphism group abelianizes to Z^2 + (Z/2)^3")
def _chk_gammaplus_ab(cfg: Config):
    q = quotient_map_s4_to_s3()
    return _kernel("cosets", 6, AbelianStructure(2, (2, 2, 2)),
                   _kernel_abelianization(braid_mod_center_presentation(4),
                                          tuple(q(t) for t in strand_transpositions()),
                                          cfg.max_cosets))


@_check("gammaplus.index3_gl09",
        "the parity-stabilizer lifts together with the inner generators have index 3")
def _chk_gammaplus_index3(cfg: Config):
    pres = braid_mod_center_presentation(4)
    lifts = {}
    subgens = []
    for k, g in enumerate(parity_stabilizer_generators()):
        target = hom_matrix(g.fwd)
        lift = braid_lift(target)
        lifts[f"g{k + 1}_lift_ok"] = hom_matrix(braid_action(lift)) == target
        subgens.append(braid_to_word(lift))
    a, b = f2_word()
    subgens += [braid_to_word(a), braid_to_word(b)]
    ok, expected, actual = _index(pres, subgens, 3, cfg)
    lifts_ok, lifts_expected, _ = _verdicts(lifts)
    return lifts_ok and ok, {**expected, **lifts_expected}, {**actual, **lifts}


@_check("cf.generator_table",
        "twist-generator images under the epimorphism of B_4 onto B_3 killing s1 s3^-1")
def _chk_cf_generator_table(cfg: Config, table=CF_IMAGE_TABLE):
    return _verdicts({f"A{p}{q}": braid_equal(cardano_ferrari(pure_gen(p, q, 4)),
                                              parse_braid(image_text, 3))
                      for (p, q), image_text in sorted(table.items())})


@_check("cf.center_square",
        "that epimorphism sends the center generator of B_4 to the square of the center generator of B_3")
def _chk_cf_center_square(cfg: Config):
    lhs = cardano_ferrari(delta_word(4) ** 2)
    rhs = (parse_braid("s1 s2", 3) ** 3) ** 2
    ok = braid_equal(lhs, rhs)
    return ok, "center of B_4 -> (center generator of B_3)^2", {"equal": ok}


@_check("theta.kernel_gens",
        "strand deletion kills twists meeting the deleted strand and relabels the remaining three")
def _chk_theta_kernel_gens(cfg: Config, table=THETA_IMAGE_TABLE):
    return _verdicts({f"Theta{i}(A{p}{q})": braid_equal(delete_strand(pure_gen(p, q, 4), i),
                                                        parse_braid(image_text, 3))
                      for (i, p, q), image_text in sorted(table.items())})


@_check("ell.braid_identities",
        "the three point-pushing braids equal their twist-generator products")
def _chk_ell_identities(cfg: Config, table=ELL_IDENTITY_TABLE):
    return _verdicts({f"l{i}": braid_equal(parse_braid(sigma_text, 4), parse_braid(a_text, 4))
                      for i, (sigma_text, a_text) in sorted(table.items())})


@_check("ell.perm_trivial", "point-pushing braids are pure")
def _chk_ell_perm_trivial(cfg: Config):
    return _verdicts({f"l{i}": braid_perm(ell_word(i)).is_identity() for i in (2, 3, 4)})


@_check("ell.psi_minus_identity", "each point-pushing braid acts on homology as -I")
def _chk_ell_psi(cfg: Config, table=ELL_PSI_TABLE):
    return _matrices((f"l{i}", rows, hom_matrix(braid_action(ell_word(i))))
                     for i, rows in sorted(table.items()))


@_check("ell.theta4_images",
        "deleting the fourth strand sends the point-pushing braids to A12 A23, A13 A23, and 1")
def _chk_ell_theta4(cfg: Config, table=ELL_THETA4_TABLE):
    return _verdicts({f"Theta4(l{i})": braid_equal(delete_strand(ell_word(i), 4),
                                                   parse_braid(image_text, 3))
                      for i, image_text in sorted(table.items())})


@_check("thmsec.theta_pairs_surjective",
        "for each ordered pair of deletions, the image of one kernel generates the whole central quotient of P_3")
def _chk_theta_pairs_surjective(cfg: Config):
    k3 = pure_braid3_mod_center_presentation()
    indexes = {}
    ok = True
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            subgens = []
            for (p, q) in sorted(APQ_ACTION_TABLE):
                if j not in (p, q):
                    continue
                img = delete_strand(pure_gen(p, q, 4), i)
                if i in (p, q):
                    ok = ok and braid_equal(img, BraidWord.identity(3))
                else:
                    pp, qq = _relabel(p, q, i)
                    ok = ok and braid_equal(img, pure_gen(pp, qq, 3))
                    subgens.append(k3.word(f"A{pp}{qq}"))
            indexes[f"Theta{i}(ker Theta{j})"] = todd_coxeter(k3, subgens,
                                                               cfg.max_cosets).index
    return ok and all(v == 1 for v in indexes.values()), {k: 1 for k in indexes}, indexes


@_check("thmsec.ell_surjective",
        "the point-pushing images under fourth-strand deletion generate the central quotient of P_3")
def _chk_ell_surjective(cfg: Config):
    k3 = pure_braid3_mod_center_presentation()
    for i, image_text in ELL_THETA4_TABLE.items():
        if not braid_equal(delete_strand(ell_word(i), 4), parse_braid(image_text, 3)):
            return False, {"index": 1}, {"error": f"theta4 image of l{i} mismatch"}
    return _index(k3, [k3.word("A12 A23"), k3.word("A13 A23")], 1, cfg)


@_check("prosec.cf_frobenius",
        "the B_4 -> B_3 epimorphism maps the fourth-strand-deletion kernel onto all of P_3")
def _chk_cf_frobenius(cfg: Config):
    p3 = pure_braid3_presentation()
    for (p, q) in ((1, 4), (2, 4), (3, 4)):
        got = cardano_ferrari(pure_gen(p, q, 4))
        if not braid_equal(got, parse_braid(CF_IMAGE_TABLE[(p, q)], 3)):
            return False, {"index": 1}, {"error": f"image of A{p}{q} mismatch"}
    subgens = [p3.word(CF_IMAGE_TABLE[(p, q)]) for (p, q) in ((1, 4), (2, 4), (3, 4))]
    return _index(p3, subgens, 1, cfg)


@_check("prosec.theta_pair_infinite",
        "one deletion kernel maps into another with abelianized rank 2 < 3, hence infinite index")
def _chk_theta_pair_infinite(cfg: Config):
    p3 = pure_braid3_presentation()
    rel_rows = [r.abelianize() for r in p3.relators]
    sub_rows = [p3.word("A13").abelianize(), p3.word("A23").abelianize()]
    rank_rel = rank_q(IntMatrix(rel_rows, cols=3))
    rank_all = rank_q(IntMatrix(rel_rows + sub_rows, cols=3))
    image_rank = rank_all - rank_rel
    b1 = abelianization(p3).free_rank
    ok = image_rank == 2 and b1 == 3 and image_rank < b1
    return ok, {"image_rank": 2, "b1": 3}, {"image_rank": image_rank, "b1": b1}


@_check("j.rank5", "the kernel of F_2 -> (Z/2)^2 has index 4 and Schreier rank 5")
def _chk_j_rank5(cfg: Config):
    sub = mod2_homology_subgroup(cfg.max_cosets)
    ok = sub.index == 4 and len(sub.basis) == 5
    return ok, {"index": 4, "basis_size": 5}, \
        {"index": sub.index, "basis_size": len(sub.basis)}


@_check("phi.hom_property", "the twisted-tuple assignment into Aut(F_n) is a group homomorphism")
def _chk_phi_hom_property(cfg: Config):
    rng = random.Random(cfg.seed)
    cases, failures = 200, 0
    for _ in range(cases):
        n = rng.randint(3, 5)
        k1 = random_semidirect_element(rng, n)
        k2 = random_semidirect_element(rng, n)
        lhs = compose(k1.to_hom(), k2.to_hom())
        rhs = (k1 * k2).to_hom()
        if lhs != rhs:
            failures += 1
    return failures == 0, {"failures": 0, "cases": cases}, \
        {"failures": failures, "cases": cases}


@_check("phi.monodromy_coinvariants",
        "coinvariants of H_1(F_n) under the standard twisted-tuple generators have rank n-2")
def _chk_phi_monodromy_coinvariants(cfg: Config):
    expected, actual = {}, {}
    ok = True
    for n in range(3, 7):
        mats = _monodromy_generator_matrices(n)
        structure = coinvariants(mats, n)
        expected[f"n={n}"] = n - 2
        actual[f"n={n}"] = structure.free_rank
        ok = ok and structure.free_rank == n - 2
    return ok, expected, actual


@_check("presentation.sanity", "stock presentations abelianize as expected (Z/12, Z^3, Z^2)")
def _chk_presentation_sanity(cfg: Config):
    got = {
        "sl2z": _ab(abelianization(sl2z_presentation())),
        "pure_braid3": _ab(abelianization(pure_braid3_presentation())),
        "pure_braid3_mod_center": _ab(abelianization(pure_braid3_mod_center_presentation())),
    }
    want = {
        "sl2z": {"free_rank": 0, "torsion": [12]},
        "pure_braid3": {"free_rank": 3, "torsion": []},
        "pure_braid3_mod_center": {"free_rank": 2, "torsion": []},
    }
    return got == want, want, got


CHECK_IDS: tuple[str, ...] = tuple(REGISTRY)


# every @cache'd shared construction above, and the imported f2_word
_CACHED = (parity_stabilizer_generators, restricted_stabilizer_matrices,
           semidirect_twists, _kernel_abelianization, f2_word)


def run_check(check_id: str, config: Config | None = None, **overrides) -> CheckResult:
    """Run one registered check.  Raises UnknownCheck for unknown ids and lets
    CosetLimitExceeded escape, annotated with the check id."""
    if check_id not in REGISTRY:
        raise UnknownCheck(check_id)
    cfg = config or Config()
    anchor, func = REGISTRY[check_id]
    start = time.perf_counter()
    try:
        passed, expected, actual = func(cfg, **overrides)
    except CosetLimitExceeded as exc:
        raise CosetLimitExceeded(f"{check_id}: {exc}") from exc
    elapsed = time.perf_counter() - start
    return CheckResult(check_id, bool(passed), expected, actual, anchor, elapsed)


def run_all(config: Config | None = None) -> list[CheckResult]:
    """Run every registered check matching the config filter, in registry
    order.  A check that exceeds its coset limit (CosetLimitExceeded) is
    recorded as a failed result carrying the error; any other exception
    propagates.  The shared constructions are built afresh in every run."""
    for construction in _CACHED:
        construction.cache_clear()
    cfg = config or Config()
    results = []
    for cid in CHECK_IDS:
        if not any(fnmatch.fnmatch(cid, pat) for pat in cfg.check_filter):
            continue
        anchor, _ = REGISTRY[cid]
        start = time.perf_counter()
        try:
            results.append(run_check(cid, cfg))
        except CosetLimitExceeded as exc:
            elapsed = time.perf_counter() - start
            results.append(CheckResult(cid, False, "completed enumeration",
                                       {"error": str(exc)}, anchor, elapsed))
    return results
