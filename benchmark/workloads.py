"""The four workloads: their inputs, their jobs, and the checks on each job.

A job is one call chain into cgkernel with a plain-data answer.  Its check
compares that answer with a value computed here, apart from the program:
group orders and indexes from the literature, closed-form formulas, and
invariants recomputed from the answer itself (permutation images, exponent
sums, descent sets, 2x2 matrix products).  Each check returns None when the
answer is right and a one-line reason when it is wrong.

Every call into the program goes through the `cgkernel` package namespace
(`cg.todd_coxeter`, ...), so the tracer in tracing.py sees the calls that the
benchmark itself makes as well as the nested ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import cgkernel as cg
from cgkernel import cli

Answer = dict
Check = Callable[[Answer, dict], "str | None"]

# The inputs of coset_enum, subgroup_homology and braid_words are fixed, and
# so is the order of their jobs; only paper_verify uses the seed, for the
# `--seed` values it passes to `cgkernel verify`, which vary the 200 random
# cases of phi.hom_property without changing their number.  Measured on one
# host: one random braid word of 200 letters costs 20-25% more or less than
# the next (coefficient of variation over 12 words), so seeded words would
# move solve_s with the seed by more than its bound; and shuffling the
# coset_enum jobs moved peak_rss_mb between 73 and 85 MB, through heap
# fragmentation left by the jobs run before the largest one.
BRAID_WORD_SEED = 2311


@dataclass
class Job:
    kind: str          # input class, used to split per-layer times
    label: str         # unique within a workload
    run: Callable[[], Answer]
    check: Check       # (answer, all answers of the round by label) -> reason


# --- shared pieces --------------------------------------------------------


def letter_cols(letters) -> list[int]:
    """Coset-table columns of a word's letters: generator g at 2(g-1), its
    inverse at 2(g-1)+1, as documented in cgkernel.fpgroups."""
    return [2 * (g - 1) + (0 if s == 1 else 1) for g, s in letters]


def coxeter_relators(orders: dict[tuple[int, int], int], ngens: int):
    """Letters of the Coxeter relators: every s_i^2 and (s_i s_j)^m_ij, with
    m_ij = 2 for pairs not listed."""
    rels = [[(i, 1), (i, 1)] for i in range(1, ngens + 1)]
    for i in range(1, ngens + 1):
        for j in range(i + 1, ngens + 1):
            rels.append([(i, 1), (j, 1)] * orders.get((i, j), 2))
    return rels


def symmetric_orders(n: int) -> dict[tuple[int, int], int]:
    """Coxeter diagram A_{n-1}, the Coxeter presentation of S_n."""
    return {(i, i + 1): 3 for i in range(1, n - 1)}


def presentation(ngens: int, rels) -> "cg.Presentation":
    return cg.Presentation(ngens, tuple(cg.Word(ngens, r) for r in rels))


def check_table(table, relators) -> str | None:
    """Every column is a permutation of the cosets, column x^1 inverts
    column x, and every relator closes at every coset."""
    n = len(table)
    cols = [[row[x] for row in table] for x in range(len(table[0]))]
    ident = list(range(n))
    for x, col in enumerate(cols):
        if sorted(col) != ident:
            return f"column {x} is not a permutation of the cosets"
        inv = cols[x ^ 1]
        if any(inv[col[c]] != c for c in ident):
            return f"column {x ^ 1} does not invert column {x}"
    for r, rel in enumerate(relators):
        cur = ident
        for x in letter_cols(rel):
            col = cols[x]
            cur = [col[c] for c in cur]
        if cur != ident:
            return f"relator {r} does not close at every coset"
    return None


def expect(answer: Answer, **want) -> str | None:
    for key, value in want.items():
        if answer.get(key) != value:
            return f"{key} = {answer.get(key)!r}, want {value!r}"
    return None


# --- paper_verify ---------------------------------------------------------

VERIFY_SCHEMA = {"id", "passed", "expected", "actual", "paper_anchor", "elapsed_ms"}
VERIFY_JOBS_PER_ROUND = 4

# Literature values that selected claims must reproduce, as
# (check id, key path into `actual`, value, source).
VERIFY_LITERATURE = (
    ("presentation.sanity", ("sl2z",), {"free_rank": 0, "torsion": [12]},
     "SL(2,Z)^ab = Z/12 (Serre, Trees, I.4.2)"),
    ("presentation.sanity", ("pure_braid3",), {"free_rank": 3, "torsion": []},
     "P_3^ab = Z^3 (Artin; one generator per strand pair)"),
    ("sl2.sanov_index12", ("index",), 12,
     "Sanov (1947): T^2 and (TST)^2 generate a free subgroup of index 12"),
    ("sl2.gamma2_ab", ("index",), 6, "[SL(2,Z):Gamma(2)] = |SL(2,Z/2)| = 6"),
    ("sl2.gamma2_ab", ("abelianization",), {"free_rank": 2, "torsion": [2]},
     "Gamma(2) = F_2 x {+-I}, so Gamma(2)^ab = Z^2 + Z/2"),
    ("k4.b1_5", ("cosets",), 24, "|S_4| = 24"),
    ("k4.b1_5", ("abelianization",), {"free_rank": 5, "torsion": []},
     "the paper: P_4/Z has first Betti number 5"),
)


def _dig(obj, path):
    for key in path:
        obj = obj.get(key) if isinstance(obj, dict) else None
    return obj


def check_verify(answer: Answer, ids: tuple[str, ...]) -> str | None:
    if answer["code"] != 0:
        return f"exit code {answer['code']}"
    try:
        results = json.loads(answer["stdout"])
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(results, list) or len(results) != 32:
        return "expected a list of 32 results"
    for r in results:
        if not isinstance(r, dict) or set(r) != VERIFY_SCHEMA:
            return f"result keys differ from the schema: {sorted(r) if isinstance(r, dict) else r!r}"
    if tuple(r["id"] for r in results) != ids:
        return "result ids differ from `verify --list`"
    failed = [r["id"] for r in results if r["passed"] is not True]
    if failed:
        return f"checks not passed: {failed}"
    by_id = {r["id"]: r for r in results}
    for cid, path, value, _source in VERIFY_LITERATURE:
        got = _dig(by_id[cid]["actual"], path)
        if got != value:
            return f"{cid} {'.'.join(path)} = {got!r}, literature says {value!r}"
    return None


class PaperVerify:
    """Fresh `cgkernel verify --all --json` processes, one per job; in
    process (cli.main) when traced, so the wrappers see the calls."""

    name = "paper_verify"

    def __init__(self, root, seed: int, in_process: bool):
        self.root = root
        self.in_process = in_process
        # the default coset limit, in process and in the child processes alike
        os.environ.pop("CGKERNEL_MAX_COSETS", None)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2 ** 31) for _ in range(VERIFY_JOBS_PER_ROUND)]
        self.ids: tuple[str, ...] = ()

    def run_cli(self, *argv: str) -> Answer:
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            return {"code": code, "stdout": buf.getvalue()}
        proc = subprocess.run([sys.executable, "-m", "cgkernel", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return {"code": proc.returncode, "stdout": proc.stdout}

    def setup(self) -> None:
        listing = self.run_cli("verify", "--list")
        self.ids = tuple(listing["stdout"].split())
        if listing["code"] != 0 or len(self.ids) != 32:
            raise RuntimeError(f"`verify --list` gave {len(self.ids)} ids, exit {listing['code']}")
        warm = self.run_cli("verify", "--check", "presentation.sanity", "--json")
        if warm["code"] != 0:
            raise RuntimeError("warm-up `verify --check presentation.sanity` failed")

    def jobs(self) -> list[Job]:
        return [Job("verify", f"verify-seed{s}",
                    lambda s=s: self.run_cli("verify", "--all", "--json", "--seed", str(s)),
                    lambda a, _all: check_verify(a, self.ids))
                for s in self.seeds]


# --- coset_enum -----------------------------------------------------------

# (label, input class, relators, number of generators, group order).  The
# orders of the Coxeter groups and of (2,3,7;8) are those tabulated in Coxeter
# & Moser, Generators and Relations for Discrete Groups.
def _coset_inputs():
    a, b = 1, 2
    ab7 = [(a, 1), (b, 1)] * 7
    comm8 = [(a, 1), (b, 1), (a, -1), (b, -1)] * 8
    fib7 = [[(i + 1, 1), ((i + 1) % 7 + 1, 1), ((i + 2) % 7 + 1, -1)] for i in range(7)]
    return [
        ("S7", "fill", coxeter_relators(symmetric_orders(7), 6), 6, 5040),
        ("S8", "fill", coxeter_relators(symmetric_orders(8), 7), 7, 40320),
        ("F4", "fill", coxeter_relators({(1, 2): 3, (2, 3): 4, (3, 4): 3}, 4), 4, 1152),
        ("H4", "fill", coxeter_relators({(1, 2): 5, (2, 3): 3, (3, 4): 3}, 4), 4, 14400),
        # The Fibonacci group F(2,7) = <x1..x7 | x_i x_{i+1} = x_{i+2}> is
        # cyclic of order 29; its table grows to tens of megabytes before
        # coincidences collapse it.
        ("Fib7", "collapse", fib7, 7, 29),
        # (2,3,7;8) = <a, b | a^2, b^3, (ab)^7, [a,b]^8>, order 10752.
        ("G2378", "collapse", [[(a, 1)] * 2, [(b, 1)] * 3, ab7, comm8], 2, 10752),
    ]


def _coset_job(label, kind, rels, ngens, order, max_cosets=100_000) -> Job:
    pres = presentation(ngens, rels)

    def run():
        ct = cg.todd_coxeter(pres, [], max_cosets)
        return {"index": ct.index, "table": ct.table}

    def check(ans, _all):
        return expect(ans, index=order) or check_table(ans["table"], rels)

    return Job(kind, label, run, check)


class CosetEnum:
    name = "coset_enum"

    def __init__(self, root, seed: int, in_process: bool):
        self.inputs = [_coset_job(*spec) for spec in _coset_inputs()]

    def setup(self) -> None:
        # S_5 over its Coxeter generators, one small enumeration
        job = _coset_job("S5", "fill", coxeter_relators(symmetric_orders(5), 4), 4, 120)
        reason = job.check(job.run(), {})
        if reason:
            raise RuntimeError(f"warm-up enumeration: {reason}")

    def jobs(self) -> list[Job]:
        return self.inputs


# --- subgroup_homology ----------------------------------------------------


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out


def congruence_index(n: int) -> int:
    """[SL(2,Z):Gamma(N)] = |SL(2,Z/N)| = N^3 prod_{p|N} (1 - p^-2)."""
    index = n ** 3
    for p in prime_factors(n):
        index = index * (p * p - 1) // (p * p)
    return index


def congruence_ab(n: int) -> tuple[int, tuple[int, ...]]:
    """Gamma(2) = F_2 x {+-I}; for N >= 3, Gamma(N) is free of rank
    1 + index/12 because chi(SL(2,Z)) = -1/12 (Serre, Trees, II.1.5)."""
    if n == 2:
        return 2, (2,)
    return 1 + congruence_index(n) // 12, ()


def sl2_mod_images(n: int) -> list["cg.Permutation"]:
    """S = [[0,-1],[1,0]] and T = [[1,1],[0,1]] acting on the nonzero row
    vectors of (Z/N)^2 by v -> vM; this action of SL(2,Z/N) is faithful, so
    its kernel in SL(2,Z) is Gamma(N) (Gamma(2) contains -I)."""
    vecs = [(x, y) for x in range(n) for y in range(n) if (x, y) != (0, 0)]
    pos = {v: i + 1 for i, v in enumerate(vecs)}

    def perm(m):
        (a, b), (c, d) = m
        return cg.Permutation([pos[((x * a + y * c) % n, (x * b + y * d) % n)] for x, y in vecs])

    return [perm(((0, -1), (1, 0))), perm(((1, 1), (0, 1)))]


def transpositions(n: int) -> list["cg.Permutation"]:
    return [cg.Permutation.transposition(n, i, i + 1) for i in range(1, n)]


def translations(n: int) -> list["cg.Permutation"]:
    """a and b acting on (Z/N)^2 by the two unit translations: the kernel of
    F_2 -> (Z/N)^2, the mod-N homology kernel, has index N^2."""
    pts = [(x, y) for x in range(n) for y in range(n)]
    pos = {v: i + 1 for i, v in enumerate(pts)}
    return [cg.Permutation([pos[((x + 1) % n, y)] for x, y in pts]),
            cg.Permutation([pos[(x, (y + 1) % n)] for x, y in pts])]


def _quotient_job(label, pres, images, index, ab) -> Job:
    def run():
        ct = cg.coset_table_from_quotient(pres, images)
        a = cg.abelianization(cg.reidemeister_schreier(ct))
        return {"index": ct.index, "ab": (a.free_rank, tuple(a.torsion))}

    return Job("rs", label, run, lambda ans, _all: expect(ans, index=index, ab=ab))


def _nielsen_job(n: int, auts) -> Job:
    images = translations(n)

    def run():
        sub = cg.from_quotient(2, images)
        restricted = [cg.restrict_hom(sub, f) for f in auts]
        mats = [cg.hom_matrix(h) for h in restricted]
        r = len(sub.basis)
        coinv = cg.coinvariants(mats, r)
        return {"index": sub.index, "basis": r, "coinv_rank": coinv.free_rank,
                "inv_rank": cg.invariants_rank(mats), "sub": sub, "restricted": restricted}

    def check(ans, _all):
        # Nielsen-Schreier: a subgroup of index k in F_2 is free of rank 1 + k
        reason = expect(ans, index=n * n, basis=1 + n * n)
        if reason:
            return reason
        if ans["coinv_rank"] != ans["inv_rank"]:
            return f"coinvariant rank {ans['coinv_rank']} (SNF) != invariant rank {ans['inv_rank']} (rank_q)"
        sub = ans["sub"]
        for f, h in zip(auts, ans["restricted"]):
            for u, img in zip(sub.basis, h.images):
                if cg.expand(sub, img) != f.fwd(u):
                    return "expand(rewrite(f(u))) does not recover f(u)"
        return None

    return Job("coinvariants", f"nielsen{n}", run, check)


class SubgroupHomology:
    name = "subgroup_homology"

    def __init__(self, root, seed: int, in_process: bool):
        sl2z = cg.sl2z_presentation()
        jobs = [_quotient_job(f"Gamma{n}", sl2z, sl2_mod_images(n), congruence_index(n),
                              congruence_ab(n)) for n in range(2, 8)]
        for n in (4, 5):
            pres = presentation(n - 1, coxeter_relators(symmetric_orders(n), n - 1))
            jobs.append(_quotient_job(f"regular_S{n}", pres, transpositions(n),
                                      math.factorial(n), (0, ())))
        b4z = cg.braid_mod_center_presentation(4)
        # the paper: K_4 = kernel of B_4/Z -> S_4 has 24 cosets and b_1 = 5
        jobs.append(_quotient_job("K4", b4z, transpositions(4), 24, (5, ())))
        # Gamma+ = kernel of B_4/Z -> S_4 -> S_3, the S_3 acting on the three
        # pair-partitions 12|34, 13|24, 14|23: s1, s3 swap the last two, s2
        # swaps the first two.  The paper: Z^2 + (Z/2)^3 at 6 cosets.
        s3_images = [cg.parse_cycles(c, 3) for c in ("(2,3)", "(1,2)", "(2,3)")]
        jobs.append(_quotient_job("GammaPlus", b4z, s3_images, 6, (2, (2, 2, 2))))
        self.nielsen = (cg.transvection(2, 1, 2), cg.transvection(2, 2, 1))
        jobs += [_nielsen_job(n, self.nielsen) for n in range(2, 9)]
        self.inputs = jobs

    def setup(self) -> None:
        for job in (self.inputs[0], _nielsen_job(2, self.nielsen)):
            reason = job.check(job.run(), {})
            if reason:
                raise RuntimeError(f"warm-up {job.label}: {reason}")

    def jobs(self) -> list[Job]:
        return self.inputs


# --- braid_words ----------------------------------------------------------

# Homology matrices of the conjugation action of s_i^e on the normal F_2 =
# <a, b> = <s1 s3^-1, s2 s1 s3^-1 s2^-1> of B_4, rows acting on row vectors:
# s1 and s3 fix a and send b to b a^-1 (resp. a^-1 b); s2 sends a to b and b
# to b a^-1 b.  The inverses are the inverse matrices.
ACTION_MATRICES = {
    (1, 1): ((1, 0), (-1, 1)), (1, -1): ((1, 0), (1, 1)),
    (2, 1): ((0, 1), (-1, 2)), (2, -1): ((2, -1), (1, 0)),
    (3, 1): ((1, 0), (-1, 1)), (3, -1): ((1, 0), (1, 1)),
}


def mat_mul(x, y):
    return ((x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]))


def random_letters(rng: random.Random, n: int, length: int, negatives: int):
    """A freely reduced word of exactly `length` letters, `negatives` of
    them inverse letters at random positions."""
    neg = set(rng.sample(range(length), negatives))
    out = []
    for k in range(length):
        sign = -1 if k in neg else 1
        choices = [i for i in range(1, n) if not (out and out[-1] == (i, -sign))]
        out.append((rng.choice(choices), sign))
    return out


def relation_rewrite(rng: random.Random, letters, n: int, moves: int, insert: bool):
    """Apply random braid-relation moves: s_i^e s_j^f = s_j^f s_i^e for
    |i-j| >= 2, s_i^e s_j^e s_i^e = s_j^e s_i^e s_j^e for |i-j| = 1 and, when
    `insert`, insertion of a commutator [s_i, s_j] with |i-j| >= 2.  The
    result is the same braid; without insertion a positive word stays
    positive."""
    ls = list(letters)
    for _ in range(moves):
        k = rng.randrange(len(ls) - 2)
        (i, e), (j, f), (h, g) = ls[k], ls[k + 1], ls[k + 2]
        if abs(i - j) >= 2:
            ls[k], ls[k + 1] = ls[k + 1], ls[k]
        elif abs(i - j) == 1 and h == i and e == f == g:
            ls[k:k + 3] = [(j, e), (i, e), (j, e)]
        elif insert and n >= 4 and rng.random() < 0.1:
            p = rng.randint(1, n - 3)
            q = rng.randint(p + 2, n - 1)
            ls[k + 1:k + 1] = [(p, 1), (q, 1), (p, -1), (q, -1)]
    return ls


def inverse_letters(letters):
    return [(i, -s) for i, s in reversed(letters)]


def perm_of_letters(n: int, letters) -> tuple[int, ...]:
    """Image in S_n, composing transpositions left to right (diagrammatic)."""
    m = list(range(1, n + 1))
    for i, _ in letters:
        m = [i + 1 if x == i else i if x == i + 1 else x for x in m]
    return tuple(m)


def compose_perm(p, q):  # p then q
    return tuple(q[x - 1] for x in p)


def descents(p) -> set[int]:
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def inverse_perm(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x - 1] = i + 1
    return tuple(inv)


def inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def check_normal_form(n: int, letters, ans) -> str | None:
    """Delta^k f_1 ... f_m: every f_i a permutation braid other than 1 and
    Delta, each pair (f_i, f_i+1) left-weighted (the starting set of f_i+1,
    the descents of its one-line notation, lies in the finishing set of f_i,
    the descents of its inverse), and the same exponent sum and permutation
    as the input word."""
    k, factors = ans["delta"], ans["factors"]
    ident, delta = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    for f in factors:
        if sorted(f) != list(ident):
            return f"factor {f} is not a permutation of 1..{n}"
        if f in (ident, delta):
            return "a factor is trivial or the half twist"
    for x, y in zip(factors, factors[1:]):
        if not descents(y) <= descents(inverse_perm(x)):
            return f"factors {x}, {y} are not left-weighted"
    exp = k * n * (n - 1) // 2 + sum(inversions(f) for f in factors)
    if exp != sum(s for _, s in letters):
        return f"exponent sum {exp}, input has {sum(s for _, s in letters)}"
    perm = delta if k % 2 else ident
    for f in factors:
        perm = compose_perm(perm, f)
    if perm != perm_of_letters(n, letters):
        return "permutation image differs from the input word's"
    return None


def _nf_answer(nf) -> Answer:
    return {"delta": nf.delta_power, "factors": [f.mapping for f in nf.factors]}


def _nf_job(kind, label, n, letters, twin_of=None, trivial=False) -> Job:
    w = cg.BraidWord(n, letters)
    reduced = list(w.letters)

    def check(ans, answers):
        reason = check_normal_form(n, reduced, ans)
        if reason:
            return reason
        if trivial and (ans["delta"], ans["factors"]) != (0, []):
            return "a trivial braid has a nontrivial normal form"
        if twin_of is not None and ans != answers.get(twin_of):
            return f"a braid-relation rewrite of {twin_of} has another normal form"
        return None

    return Job(kind, label, lambda: _nf_answer(cg.normal_form(w)), check)


def _action_job(label, letters) -> Job:
    w = cg.BraidWord(4, letters)
    want = ((1, 0), (0, 1))
    for let in w.letters:
        want = mat_mul(want, ACTION_MATRICES[let])

    def run():
        return {"matrix": cg.hom_matrix(cg.braid_action(w)).data}

    return Job("action", label, run, lambda ans, _all: expect(ans, matrix=want))


BRAID_LENGTHS = (100, 200, 300)
ACTION_WORDS, ACTION_LENGTH = 6, 24


def braid_jobs() -> list[Job]:
    """Fixed words (drawn from BRAID_WORD_SEED) in B_4, B_5 and B_6."""
    rng = random.Random(BRAID_WORD_SEED)
    jobs = []
    for n in (4, 5, 6):
        for kind, negatives in (("positive", 0), ("mixed", 1)):
            for length in BRAID_LENGTHS:
                letters = random_letters(rng, n, length, negatives * length // 2)
                label = f"B{n}-{kind}-{length}"
                jobs.append(_nf_job(kind, label, n, letters))
                if length == BRAID_LENGTHS[0]:
                    twin = relation_rewrite(rng, letters, n, length, kind == "mixed")
                    jobs.append(_nf_job(kind, label + "-rewrite", n, twin, twin_of=label))
        for length in BRAID_LENGTHS:
            half = random_letters(rng, n, length // 2, length // 4)
            other = relation_rewrite(rng, half, n, length // 2, True)
            jobs.append(_nf_job("trivial", f"B{n}-trivial-{length}", n,
                                half + inverse_letters(other), trivial=True))
    # The F_2 images of braid_action grow exponentially with word length
    # (about 2000 letters at 40 letters in), so the action runs on short words.
    for k in range(ACTION_WORDS):
        jobs.append(_action_job(f"B4-action-{k}", random_letters(rng, 4, ACTION_LENGTH,
                                                                 ACTION_LENGTH // 2)))
    return jobs


class BraidWords:
    name = "braid_words"

    def __init__(self, root, seed: int, in_process: bool):
        self.inputs = braid_jobs()

    def setup(self) -> None:
        rng = random.Random(0)
        for job in (_nf_job("mixed", "warm", 5, random_letters(rng, 5, 30, 15)),
                    _action_job("warm-action", random_letters(rng, 4, 12, 6))):
            reason = job.check(job.run(), {})
            if reason:
                raise RuntimeError(f"warm-up {job.label}: {reason}")

    def jobs(self) -> list[Job]:
        return self.inputs


WORKLOADS = {w.name: w for w in (PaperVerify, CosetEnum, SubgroupHomology, BraidWords)}
