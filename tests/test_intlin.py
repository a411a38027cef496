"""Smith normal form, cokernels, coinvariants, and SL(2,Z) words."""

import hashlib
import random
from itertools import chain, combinations
from math import gcd

import pytest

from cgkernel import intlin
from cgkernel.intlin import (AbelianStructure, IntMatrix, coinvariants,
                             cokernel, eval_st, format_matrix, format_st,
                             hom_matrix, invariants_rank, parse_matrix, parse_st,
                             rank_q, sl2_word, smith_normal_form, sparse_cokernel)
from cgkernel.checks import sl2z2_images, strand_transpositions
from cgkernel.fpgroups import (abelianization, braid_mod_center_presentation,
                               coset_table_from_quotient, reidemeister_schreier,
                               sl2z_presentation)
from cgkernel.perms import quotient_map_s4_to_s3
from cgkernel.subgroups import from_quotient, restrict_hom
from cgkernel.words import Word, transvection

from test_fpgroups import pure_braid_table, regular_table, sl2_mod_images, translations

# homology actions of the four parity-stabilizer automorphisms restricted to
# the index-2 kernel, in the Schreier basis (a, b a b^-1, b^2); frozen from an
# independent hand computation via Schreier rewriting
RESTRICTED_STABILIZER_MATS = [
    IntMatrix(((1, 0, 1), (0, 1, 1), (0, 0, 1))),
    IntMatrix(((1, 0, 0), (0, 1, 0), (1, 1, 1))),
    IntMatrix(((0, -1, -1), (-1, 0, -1), (2, 2, 3))),
    IntMatrix(((2, 1, 2), (1, 2, 2), (-1, -1, -1))),
]


def rand_matrix(rng, rows, cols, bound=9):
    return IntMatrix(tuple(tuple(rng.randint(-bound, bound) for _ in range(cols))
                           for _ in range(rows)))


def rand_sparse_matrix(rng, rows, cols, bound=3):
    """Tall sparse relation matrices like Reidemeister-Schreier's: 2-6 nonzero
    entries per row, drawn from [-bound, bound]."""
    data = []
    for _ in range(rows):
        row = [0] * cols
        for j in rng.sample(range(cols), rng.randint(2, 6)):
            row[j] = rng.choice([x for x in range(-bound, bound + 1) if x])
        data.append(tuple(row))
    return IntMatrix(data, cols=cols)


def determinantal_divisors(a):
    """[D_0, D_1, ...]: D_k is the gcd of all k x k minors of A."""
    out = [1]
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rs in combinations(range(a.rows), k):
            for cs in combinations(range(a.cols), k):
                g = gcd(g, IntMatrix(tuple(tuple(a[i, j] for j in cs) for i in rs)).det())
        out.append(g)
    return out


def assert_valid_snf(a):
    d, u, v = smith_normal_form(a)
    assert u * a * v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    return d


class TestSmithNormalForm:
    def test_coprime_diagonal(self):
        d, _, _ = smith_normal_form(IntMatrix(((2, 0), (0, 3))))
        assert [d[0, 0], d[1, 1]] == [1, 6]

    def test_zero_matrix(self):
        d, u, v = smith_normal_form(IntMatrix.zero(2, 3))
        assert d == IntMatrix.zero(2, 3)
        assert u * IntMatrix.zero(2, 3) * v == d

    def test_empty_matrix(self):
        d, _, _ = smith_normal_form(IntMatrix((), cols=4))
        assert d.rows == 0 and d.cols == 4

    # each needs the divisibility step: the diagonal the row and column
    # clearing leaves is not a divisibility chain
    @pytest.mark.parametrize("a, expected", [
        (((2, 0), (0, 3)), (1, 6)),
        (((4, 0), (0, 6)), (2, 12)),
        (((2, 0, 0), (0, 3, 0), (0, 0, 5)), (1, 1, 30)),
        (((2, 4, 4), (-6, 6, 12), (10, 4, 16)), (2, 2, 156)),
    ])
    def test_divisibility_step(self, a, expected):
        d = assert_valid_snf(IntMatrix(a))
        assert d == IntMatrix(tuple(tuple(x if i == j else 0 for j in range(len(expected)))
                                    for i, x in enumerate(expected)))

    def test_random_matrices(self):
        rng = random.Random(0)
        for _ in range(400):
            a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert_valid_snf(a)

    def test_transforms_match_the_recorded_digest(self):
        # D, U and V of 1500 seeded matrices, hashed; the digest was recorded
        # from the loop that kept U and V as lists of their own, so a changed
        # operation, or the same ones in another order, shows here
        rng = random.Random(19)
        digest = hashlib.sha256()
        for _ in range(1500):
            bound = rng.choice((2, 5, 30))
            a = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), bound)
            digest.update(" ".join(map(format_matrix, smith_normal_form(a))).encode() + b"\n")
        assert digest.hexdigest() == (
            "fb6dffd6c03cffc35f40e0f965ea0c1d212f60016b6ae3ed01a0325246291f5f")

    def test_larger_matrices(self):
        rng = random.Random(1)
        for size in (12, 16, 20):
            assert_valid_snf(rand_matrix(rng, size, size))
        assert_valid_snf(rand_matrix(rng, 20, 7))
        assert_valid_snf(rand_matrix(rng, 7, 20))


class TestCokernel:
    def test_no_relations(self):
        assert cokernel(IntMatrix((), cols=3)) == AbelianStructure(3)

    def test_pure_torsion(self):
        assert cokernel(IntMatrix(((2, 0), (0, 2)))) == AbelianStructure(0, (2, 2))

    def test_negated_identity_action(self):
        m = IntMatrix(((-1, 0), (0, -1)))
        assert cokernel(m - IntMatrix.identity(2)) == AbelianStructure(0, (2, 2))

    def test_torsion_chain_order(self):
        structure = cokernel(IntMatrix(((4, 0), (0, 6))))
        assert structure == AbelianStructure(0, (2, 12))

    def test_determinantal_divisors(self):
        # invariant factors are D_k / D_(k-1), and the rank over Q is the
        # largest k with D_k != 0: an oracle sharing no code with
        # cokernel, smith_normal_form or rank_q
        rng = random.Random(6)
        for _ in range(150):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            bound = rng.choice((1, 2, 5))
            if rng.random() < 0.5:
                a = rand_matrix(rng, rows, cols, bound)
            else:  # product through an inner size <= min(rows, cols): often rank deficient
                inner = rng.randint(1, min(rows, cols))
                a = rand_matrix(rng, rows, inner, bound) * rand_matrix(rng, inner, cols, bound)
            dk = determinantal_divisors(a)
            rank = max(k for k, x in enumerate(dk) if x)
            factors = tuple(dk[k] // dk[k - 1] for k in range(1, rank + 1))
            assert rank_q(a) == rank
            assert cokernel(a) == AbelianStructure(cols - rank, tuple(f for f in factors if f > 1))


def snf_structure(a):
    """Z^cols / (row space of A) read off the diagonal of the dense SNF alone."""
    d, _, _ = smith_normal_form(a)
    diag = [x for x in (d[i, i] for i in range(min(d.rows, d.cols))) if x]
    return AbelianStructure(a.cols - len(diag), tuple(x for x in diag if x > 1))


def sparse_cases():
    """The 1000 random sparse cases as (rows, m): m an IntMatrix and rows a
    list of its nonzero entries, row by row in shuffled order, with the
    entries in shuffled column order and all-zero rows left in.  Each third
    of the cases adds zero rows, unused columns or repeated rows."""
    rng = random.Random(11)
    for case in range(1000):
        a = rand_sparse_matrix(rng, rng.randint(1, 9), rng.randint(6, 8))
        data = [list(row) for row in a.data]
        if case % 3 == 0:
            data += [[0] * a.cols for _ in range(rng.randint(1, 3))]
        if case % 3 == 1:
            extra = rng.randint(1, 3)
            data = [row + [0] * extra for row in data]
        if case % 3 == 2:
            data += [list(rng.choice(data)) for _ in range(rng.randint(1, 4))]
        rng.shuffle(data)
        m = IntMatrix(data)
        # a draw that nothing reads: without it the seeded stream, and so
        # every later case, would change
        rng.sample(range(-100, 1000), len(data))
        rows = []
        for row in data:
            cols = [j for j, x in enumerate(row) if x]
            rng.shuffle(cols)
            rows.append({j: row[j] for j in cols})
        yield rows, m


def sparse_rows(m):
    """The nonzero entries of each row of m, as a list of sparse rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in m.data]


# Hand-made inputs for the Tietze moves sparse_cokernel applies at ingest,
# each with its quotient worked out by hand
INGEST_CASES = [
    # a chain e0 = -e1, e1 = e2 with mixed signs, then e0 - e2 + 3 e3
    # rewrites to -2 e2 + 3 e3: Z^4 / <...> = Z
    (IntMatrix(((1, 1, 0, 0), (0, -1, 1, 0), (1, 0, -1, 3))), AbelianStructure(1)),
    # e0 = e1, so e0 + e1 becomes 2 e1 (Z/2) and a second e0 - e1 cancels
    (IntMatrix(((1, -1, 0), (1, 1, 0), (1, -1, 0))), AbelianStructure(1, (2,))),
    # e1 = -e0, so -e0 - e1 cancels to an empty row
    (IntMatrix(((1, 1, 0), (-1, -1, 0), (0, 1, 2))), AbelianStructure(1)),
    # -e1 = 0 kills a column two longer rows use, leaving 2 e0 and 4 e2
    (IntMatrix(((0, -1, 0), (2, 5, 0), (0, 3, 4))), AbelianStructure(0, (2, 4))),
    # duplicate rows, short and long
    (IntMatrix(((1, 1, 0), (1, 1, 0), (0, 2, 3), (0, 2, 3))), AbelianStructure(1)),
    # consumed entirely at ingest: e0 = -e1 = -e2 = 0 and e3 = 0, and the last
    # row cancels; e4 is untouched
    (IntMatrix(((1, 1, 0, 0, 0), (0, 1, -1, 0, 0), (0, 0, -1, 0, 0), (0, 0, 0, 1, 0),
                (1, 0, 0, -1, 0))), AbelianStructure(1)),
    # e0 + e1 + e2 is kept, as it arrives before e2 = 0; rewritten after it,
    # it is the unit row e0 + e1, which the Markowitz loop pivots on to turn
    # 2 e0 - 2 e1 into -4 e1: Z/4
    (IntMatrix(((1, 1, 1), (0, 0, 1), (2, -2, 0))), AbelianStructure(0, (4,))),
]


def unit_rich_cases():
    """Seeded tall sparse matrices, most of whose rows are short unit rows
    (one or two +-1 entries, the Tietze moves), the rest longer rows with
    entries up to 3 in absolute value."""
    rng = random.Random(15)
    for _ in range(300):
        cols = rng.randint(4, 10)
        data = []
        for _ in range(rng.randint(cols // 2, 2 * cols)):
            row = [0] * cols
            k = rng.choice((1, 2, 2, 2, 3, 4))
            for j in rng.sample(range(cols), k):
                row[j] = rng.choice((1, -1) if k <= 2 else (1, -1, 2, -2, 3, -3))
            data.append(row)
        yield IntMatrix(data, cols=cols)


def ingest_cases():
    """INGEST_CASES and unit_rich_cases as (rows, m), like sparse_cases."""
    for m, _ in INGEST_CASES:
        yield sparse_rows(m), m
    for m in unit_rich_cases():
        yield sparse_rows(m), m


@pytest.fixture
def heaps(monkeypatch):
    """The size of every heap sparse_cokernel builds."""
    seen = []
    build = intlin.heapify

    def recording_heapify(heap):
        seen.append(len(heap))
        build(heap)

    monkeypatch.setattr(intlin, "heapify", recording_heapify)
    return seen


@pytest.fixture
def remainders(monkeypatch):
    """Every matrix sparse_cokernel hands to the Smith pivot loop, as an
    IntMatrix; each must come bare, with no rows or columns for U or V."""
    seen = []
    smith = intlin._smith

    def recording_smith(m, nr, nc):
        assert len(m) == nr and all(len(row) == nc for row in m)
        seen.append(IntMatrix(m, cols=nc))
        smith(m, nr, nc)

    monkeypatch.setattr(intlin, "_smith", recording_smith)
    return seen


class TestSparseCokernel:
    def test_agrees_with_the_matrix_wrapper_and_dense_snf(self):
        shapes = {"zero rows": 0, "unused columns": 0, "repeated rows": 0}
        for rows, m in chain(sparse_cases(), ingest_cases()):
            data = m.data
            shapes["zero rows"] += not all(any(row) for row in data)
            shapes["unused columns"] += not all(any(col) for col in zip(*data))
            shapes["repeated rows"] += len(set(data)) < len(data)
            assert sparse_cokernel(rows, m.cols) == cokernel(m) == snf_structure(m)
        assert min(shapes.values()) >= 333
        assert [snf_structure(m) for m, _ in INGEST_CASES] == [ab for _, ab in INGEST_CASES]

    def test_every_unit_entry_is_eliminated_before_snf(self, remainders):
        # each unit entry keeps a live heap record until it is pivoted on or
        # changes, so the remainder holds no +-1 entry
        for rows, m in sparse_cases():
            sparse_cokernel(rows, m.cols)
        assert len(remainders) >= 500
        assert all(x not in (1, -1) for a in remainders for row in a.data for x in row)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("table, free_rank", [
        (pure_braid_table, lambda n: n * (n - 1) // 2),
        (regular_table, lambda n: 0)], ids=["pure_braid", "regular_kernel"])
    def test_subgroup_relation_matrices_leave_no_unit_entry(self, remainders, heaps, table,
                                                             free_rank, n):
        # P_4..P_6 and the regular kernels of S_4..S_6: the Tietze moves at
        # ingest consume every row, so no heap record is made and nothing is
        # left for the Smith pivot loop, let alone a unit entry
        assert abelianization(reidemeister_schreier(table(n))) == AbelianStructure(free_rank(n))
        assert heaps == [0] and remainders == []

    def test_a_row_made_unit_by_a_later_move_reaches_the_markowitz_loop(self, heaps,
                                                                       remainders):
        m, ab = INGEST_CASES[-1]
        assert sparse_cokernel(sparse_rows(m), m.cols) == ab
        # the unit entries of e0 + e1; the remainder is the row -4 e1
        assert heaps == [2] and remainders == [IntMatrix(((-4,),))]

    def test_reads_a_one_shot_stream_once_and_changes_no_row(self):
        # a generator can be read only once, so a second pass over it would
        # see no rows; each row dict, entries and their order, stays as given
        for rows, m in chain(sparse_cases(), ingest_cases()):
            before = [list(row.items()) for row in rows]
            read = []

            def stream():
                for row in rows:
                    read.append(row)
                    yield row

            assert sparse_cokernel(stream(), m.cols) == snf_structure(m)
            assert read == rows
            assert [list(row.items()) for row in rows] == before

    def test_no_rows(self):
        assert sparse_cokernel([], 4) == AbelianStructure(4)
        assert sparse_cokernel([{}], 0) == AbelianStructure(0)

    @pytest.mark.parametrize("row", [{0: 1, 1: 0}, {3: 1}, {-1: 2}])
    def test_rejects_zero_entries_and_columns_out_of_range(self, row):
        with pytest.raises(ValueError):
            sparse_cokernel([row], 3)
        # late in the stream, after rows that make moves and rows that are kept
        good = [{0: 1, 1: -1}, {0: 2, 1: 3, 2: 1}, {}, {2: 1}, {1: 4}]
        with pytest.raises(ValueError, match="row 5 "):
            sparse_cokernel(iter(good + [row, {0: 1}]), 3)

    def test_matrix_wrapper_hands_every_row_to_the_core(self, monkeypatch):
        seen = []

        def recording_core(rows, ncols):
            seen.append(([dict(r) for r in rows], ncols))
            return AbelianStructure(0)

        monkeypatch.setattr(intlin, "sparse_cokernel", recording_core)
        cokernel(IntMatrix(((0, 2, 0), (0, 0, 0), (-1, 0, 3))))
        assert seen == [([{1: 2}, {}, {0: -1, 2: 3}], 3)]


# chain factors: 2^61 - 1 and 2^89 - 1 are primes, so a chain that takes
# either passes 64 bits
CHAIN_FACTORS = (1, 2, 3, 6, 2 ** 61 - 1, 2 ** 89 - 1)


def planted_module(seed, k, extra):
    """A badly presented Z^r + Z/d_1 + ... + Z/d_s, with d_1 | d_2 | ...:
    sparse relation rows whose cokernel is that module by construction, so
    the answer is known at any size (Havas, Holt and Rees, "Recognizing
    badly presented Z-modules", 1993).  Returns (rows, ncols, answer).

    The first generators are r free ones and one of order d_i for each
    d_i, or two where d_i has an even and an odd part: of orders its power
    of 2 and its odd part, a pair that is no divisibility chain.  Random
    elementary column operations change their basis.  Each of k new
    generators x is defined by a row x - sum c_j y_j over zero to three
    generators made before it, with c_j in {+-1, +-2}, so it adds nothing;
    each of ``extra`` rows is an integer combination of two to four rows
    before it, so it lies in their span.  Then the columns and the rows are
    shuffled."""
    rng = random.Random(seed)
    free_rank = rng.randint(0, 3)
    torsion, d = [], rng.choice((2, 3, 4, 6))
    for _ in range(rng.randint(1, 4)):
        torsion.append(d)
        d *= rng.choice(CHAIN_FACTORS)
    orders = []
    for d in torsion:
        two = d & -d
        orders += [two, d // two] if 1 < two < d else [d]
    base = free_rank + len(orders)
    rows = [{free_rank + i: d} for i, d in enumerate(orders)]
    for _ in range(2 * base if base > 1 else 0):  # column q += c * column p
        p, q = rng.sample(range(base), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in rows:
            if p in row:
                row[q] = row.get(q, 0) + c * row[p]
                if not row[q]:
                    del row[q]
    for x in range(base, base + k):
        terms = rng.sample(range(x), min(x, rng.randint(0, 3)))
        rows.append({**{j: rng.choice((-2, -1, 1, 2)) for j in terms}, x: 1})
    for _ in range(extra):
        combo = {}
        for row in rng.sample(rows, rng.randint(2, 4)):
            a = rng.choice((-3, -2, -1, 1, 2, 3))
            for j, y in row.items():
                combo[j] = combo.get(j, 0) + a * y
        rows.append({j: y for j, y in combo.items() if y})
    ncols = base + k
    relabel = rng.sample(range(ncols), ncols)
    rows = [{relabel[j]: y for j, y in row.items()} for row in rows]
    rng.shuffle(rows)
    return rows, ncols, AbelianStructure(free_rank, tuple(torsion))


def planted_case(seed):
    """Tier-1's planted modules: 17 to 177 rows for seeds 0 to 23."""
    return planted_module(seed, k=5 + 2 * seed, extra=10 + 5 * seed)


class TestPlantedModules:
    @pytest.mark.parametrize("seed", range(24))
    def test_the_planted_module_comes_back(self, seed):
        rows, ncols, answer = planted_case(seed)
        assert sparse_cokernel(rows, ncols) == answer

    def test_the_cases_reach_every_stage(self, heaps, remainders):
        # the Markowitz heap; a Smith remainder far taller than its rank, as
        # the index-720 quotients leave one; torsion past 64 bits
        answers = []
        for rows, ncols, answer in map(planted_case, range(24)):
            sparse_cokernel(rows, ncols)
            answers.append(answer)
        assert sum(1 for size in heaps if size) >= 20
        assert sum(1 for a in remainders if a.rows >= 10 * rank_q(a)) >= 5
        assert sum(1 for answer in answers if answer.torsion[-1] >= 2 ** 64) >= 5

    @pytest.mark.slow
    def test_a_planted_module_of_100000_rows(self):
        # the seed's module: Z^2 + Z/d_1 + ... + Z/d_4, three d_i past 64 bits
        rows, ncols, answer = planted_module(100_001, k=50_000, extra=50_000)
        assert len(rows) > 100_000 and answer.free_rank == 2
        assert sum(d >= 2 ** 64 for d in answer.torsion) == 3
        assert sparse_cokernel(rows, ncols) == answer


def rank_mod_p(rows, p):
    """Rank over F_p of sparse integer rows {column: entry}.  Its own short
    loop, sharing no code with sparse_cokernel (no heap, no union-find, no
    Markowitz order): each row, shortest first, is reduced by the pivot rows
    stored so far at its smallest column, until that column has no pivot row
    and the row becomes one, scaled to 1 there."""
    pivots = {}  # column -> row whose smallest column it is, with entry 1 there
    for row in sorted(rows, key=len):
        row = {j: x % p for j, x in row.items() if x % p}
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in row.items()}
                break
            f = row[c]
            for j, y in pivots[c].items():
                v = (row.get(j, 0) - f * y) % p
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
    return len(pivots)


def relator_rows(pres):
    """Exponent sums of each relator, as sparse rows."""
    rows = []
    for r in pres.relators:
        row = {}
        for g, s in r.letters:
            row[g - 1] = row.get(g - 1, 0) + s
        rows.append(row)
    return rows


def quotient_kernel(pres, images):
    return reidemeister_schreier(coset_table_from_quotient(pres, images))


class TestModPOracle:
    # By universal coefficients dim H_1(H; F_p) = free rank + #{d : p | d},
    # and H_1(H; F_p) is F_p^ngens over the relation rows mod p.  SL(2,Z),
    # Gamma(2) and Gamma+ carry torsion (Z/12, Z^2 + Z/2, Z^2 + (Z/2)^3),
    # which a rank over Q would not see.  Gamma(5), Gamma(7) and Gamma(13)
    # are the subgroup inputs whose rows still reach the Markowitz loop
    @pytest.mark.parametrize("pres", [
        sl2z_presentation,
        lambda: quotient_kernel(sl2z_presentation(), sl2z2_images()),
        lambda: quotient_kernel(braid_mod_center_presentation(4), strand_transpositions()),
        lambda: quotient_kernel(braid_mod_center_presentation(4),
                                tuple(map(quotient_map_s4_to_s3(), strand_transpositions()))),
        lambda: reidemeister_schreier(pure_braid_table(4)),
        lambda: reidemeister_schreier(pure_braid_table(5)),
        lambda: reidemeister_schreier(pure_braid_table(6)),
        lambda: reidemeister_schreier(regular_table(5)),
        lambda: reidemeister_schreier(regular_table(6)),
        lambda: quotient_kernel(sl2z_presentation(), sl2_mod_images(5)),
        lambda: quotient_kernel(sl2z_presentation(), sl2_mod_images(7)),
        lambda: quotient_kernel(sl2z_presentation(), sl2_mod_images(13)),
    ], ids=["sl2z", "gamma2", "k4", "gammaplus", "p4", "p5", "p6", "s5_regular", "s6_regular",
            "gamma5", "gamma7", "gamma13"])
    def test_dimension_mod_p_matches_the_cokernel(self, pres):
        pres = pres()
        ab = abelianization(pres)
        for p in (2, 3, 5):
            dim = pres.ngens - rank_mod_p(relator_rows(pres), p)
            assert dim == ab.free_rank + sum(d % p == 0 for d in ab.torsion)


class TestCoinvariantsAndInvariants:
    def test_restricted_stabilizer_coinvariants_rank_one(self):
        assert coinvariants(RESTRICTED_STABILIZER_MATS, 3).free_rank == 1

    def test_empty_action(self):
        assert coinvariants([], 5) == AbelianStructure(5)

    def test_identity_only(self):
        assert invariants_rank([IntMatrix.identity(4)]) == 4

    def test_restricted_stabilizer_invariants(self):
        assert invariants_rank(RESTRICTED_STABILIZER_MATS) == 1

    def test_swap_matrix_has_fixed_line(self):
        assert invariants_rank([IntMatrix(((0, 1), (1, 0)))]) == 1

    def test_duality_on_random_unimodular_actions(self):
        rng = random.Random(2)
        for _ in range(300):
            r = rng.randint(1, 4)
            mats = []
            for _ in range(rng.randint(1, 3)):
                m = IntMatrix.identity(r)
                for _ in range(rng.randint(0, 6)):  # random elementary products
                    i, j = rng.randint(0, r - 1), rng.randint(0, r - 1)
                    if i == j:
                        continue
                    e = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
                    e[i][j] = rng.choice((-2, -1, 1, 2))
                    m = m * IntMatrix(e)
                mats.append(m)
            assert invariants_rank(mats) == coinvariants(mats, r).free_rank

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            coinvariants([IntMatrix.identity(2), IntMatrix.identity(3)], 2)

    def test_stacked_differences_match_entrywise_m_minus_identity(self):
        rng = random.Random(12)
        for _ in range(100):
            r = rng.randint(1, 5)
            mats = [rand_matrix(rng, r, r, bound=4) for _ in range(rng.randint(1, 3))]
            rows = list(intlin._difference_rows(mats, r))
            dense = [[m[i, j] - (1 if i == j else 0) for j in range(r)]
                     for m in mats for i in range(r)]
            assert len(rows) == len(dense)
            for row, want in zip(rows, dense):
                assert 0 not in row.values() and set(row) <= set(range(r))
                assert [row.get(j, 0) for j in range(r)] == want

    def test_free_rank_complements_stacked_rank(self):
        rng = random.Random(5)
        for _ in range(200):
            r = rng.randint(1, 4)
            mats = [rand_matrix(rng, r, r, bound=3) for _ in range(rng.randint(1, 3))]
            stacked = IntMatrix(
                tuple(tuple(m[i, j] - (1 if i == j else 0) for j in range(r))
                      for m in mats for i in range(r)), cols=r)
            assert coinvariants(mats, r).free_rank + rank_q(stacked) == r


def transpose(a):
    return IntMatrix(tuple(zip(*a.data)), cols=a.rows)


def low_rank(rng, rows, cols, k, bound):
    """A random rows x cols product of a rows x k and a k x cols factor: rank
    at most k, with entries far from +-1 once bound is large."""
    return rand_matrix(rng, rows, k, bound) * rand_matrix(rng, k, cols, bound)


def nielsen_stacked_differences(n):
    """The stacked M - I of the two Nielsen transvections restricted to the
    kernel of F_2 -> (Z/n)^2, from the sparse rows invariants_rank reads."""
    sub = from_quotient(2, translations(n))
    mats = [hom_matrix(restrict_hom(sub, transvection(2, i, j))) for i, j in ((1, 2), (2, 1))]
    r = sub.tree.nsub
    return IntMatrix([[row.get(j, 0) for j in range(r)]
                      for row in intlin._difference_rows(mats, r)], cols=r)


def rank_q_cases():
    rng = random.Random(26)
    for _ in range(30):  # dense, square and not, of full rank or not
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        yield rand_matrix(rng, rows, cols, bound=rng.choice((1, 4, 30)))
        yield low_rank(rng, rows, cols, rng.randint(1, 4), bound=rng.choice((2, 9)))
    for _ in range(15):  # sparse relation rows, and sparse rows of rank at most 6
        rows, cols = rng.randint(8, 20), rng.randint(8, 14)
        yield rand_sparse_matrix(rng, rows, cols)
        yield rand_sparse_matrix(rng, rows, 6) * rand_sparse_matrix(rng, 6, cols)
    for n in range(2, 9):
        yield nielsen_stacked_differences(n)
    # entries past 64 bits: a rank-3 product of 40-bit factors
    big = low_rank(rng, 6, 5, 3, bound=2 ** 40)
    assert max(abs(x) for row in big.data for x in row) >= 2 ** 64
    yield big


class TestRankQ:
    """rank_q against the SNF path, which it shares no code with: over Q the
    rank is the number of columns the row space leaves out of the free part
    of the cokernel, and it is the same for the transpose."""

    def test_matches_the_cokernel_and_the_transpose(self):
        for a in rank_q_cases():
            r = rank_q(a)
            assert r == a.cols - cokernel(a).free_rank, format_matrix(a)
            assert r == rank_q(transpose(a)), format_matrix(a)

    def test_shares_no_code_with_the_snf_path(self):
        names = set(intlin.rank_q.__code__.co_names) | set(intlin._rank_q.__code__.co_names)
        assert not names & {"_smith", "sparse_cokernel", "cokernel", "smith_normal_form"}

    def test_does_not_change_its_matrix(self):
        a = rand_matrix(random.Random(3), 5, 4)
        data = a.data
        rank_q(a)
        assert a.data is data and a == IntMatrix(data)


class TestSL2Words:
    def test_eval_t_squared(self):
        assert eval_st(parse_st("t t")) == IntMatrix(((1, 2), (0, 1)))

    def test_eval_empty(self):
        assert eval_st(parse_st("")) == IntMatrix.identity(2)

    def test_eval_tst_squared(self):
        assert eval_st(parse_st("t s t t s t")) == IntMatrix(((1, 0), (2, 1)))

    def test_s_squared_is_minus_identity(self):
        assert eval_st(parse_st("s s")) == IntMatrix(((-1, 0), (0, -1)))

    def test_word_for_translation_power(self):
        assert format_st(sl2_word(IntMatrix(((1, 2), (0, 1))))) == "t^2"

    def test_word_for_minus_identity(self):
        assert format_st(sl2_word(IntMatrix(((-1, 0), (0, -1))))) == "s^2"

    @pytest.mark.parametrize("a, b, text", [
        (1, 3, "t^3"), (1, -3, "t^-3"), (-1, 3, "s^2 t^-3"), (-1, -3, "s^2 t^3")])
    def test_word_for_upper_triangular(self, a, b, text):
        m = IntMatrix(((a, b), (0, a)))
        assert format_st(sl2_word(m)) == text and eval_st(parse_st(text)) == m

    def test_word_for_lower_triangular(self):
        m = IntMatrix(((1, 0), (-2, 1)))
        assert eval_st(sl2_word(m)) == m
        # the same matrix in another published form
        assert eval_st(parse_st("t^-1 s^-1 t^-2 s^-1 t^-1")) == m

    def test_round_trip_random_words(self):
        rng = random.Random(3)
        for _ in range(1000):
            word = parse_st(" ".join(
                rng.choice(["s", "t", "s^-1", "t^-1"])
                for _ in range(rng.randint(0, 30))))
            m = eval_st(word)
            assert eval_st(sl2_word(m)) == m

    def test_runs_match_letter_by_letter_product(self):
        # eval_st multiplies one closed form per run; the reference multiplies
        # one generator matrix per letter
        letter_mats = {(1, 1): IntMatrix(((0, -1), (1, 0))),
                       (1, -1): IntMatrix(((0, 1), (-1, 0))),
                       (2, 1): IntMatrix(((1, 1), (0, 1))),
                       (2, -1): IntMatrix(((1, -1), (0, 1)))}
        rng = random.Random(11)
        long_runs = 0
        for _ in range(500):
            letters = []
            for _ in range(rng.randint(0, 6)):
                run = rng.randint(1, 12)
                letters += [(rng.randint(1, 2), rng.choice((1, -1)))] * run
                long_runs += run > 4
            word = Word(2, letters)
            want = IntMatrix.identity(2)
            for letter in word.letters:
                want = want * letter_mats[letter]
            assert eval_st(word) == want
        assert long_runs > 500

    def test_long_translation_power(self, monkeypatch):
        # one run of 300000 letters: a closed form, not 300000 products
        m = IntMatrix(((1, 300000), (0, 1)))
        products = []
        real = IntMatrix.__mul__

        def counting(a, b):
            products.append(1)
            return real(a, b)

        monkeypatch.setattr(IntMatrix, "__mul__", counting)
        word = sl2_word(m)
        monkeypatch.undo()
        assert len(products) == 1
        assert format_st(word) == "t^300000"
        # s^-7 = s and s^5 = s, and s t^-k s = -(s t^-k s^-1)
        assert eval_st(parse_st("s^-7 t^-300000 s^5")) == IntMatrix(((-1, 0), (-300000, -1)))

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            sl2_word(IntMatrix(((1, 0), (0, -1))))


class TestMatrixBasics:
    def test_parse_format_roundtrip(self):
        m = parse_matrix("[[1,2],[0,1]]")
        assert parse_matrix(format_matrix(m)) == m

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            parse_matrix("[[1.5,0],[0,1]]")
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))

    def test_a_column_count_must_agree_with_the_rows(self):
        with pytest.raises(ValueError, match=r"^cols=3 disagrees with rows of length 2$"):
            IntMatrix([[1, 2]], cols=3)
        assert IntMatrix([[1, 2]], cols=2) == IntMatrix([[1, 2]])
        assert IntMatrix((), cols=3).cols == 3

    def test_a_product_through_zero_dimensions_is_zero(self):
        # a 2x0 matrix times a 0x3 matrix is the 2x3 zero matrix
        assert IntMatrix.zero(2, 0) * IntMatrix((), cols=3) == IntMatrix.zero(2, 3)
        assert IntMatrix((), cols=0) * IntMatrix((), cols=2) == IntMatrix((), cols=2)

    def test_determinant(self):
        rng = random.Random(4)
        for _ in range(100):
            a = rand_matrix(rng, 3, 3, bound=5)
            b = rand_matrix(rng, 3, 3, bound=5)
            assert (a * b).det() == a.det() * b.det()

    def test_rank_q(self):
        assert rank_q(IntMatrix(((1, 2), (2, 4)))) == 1
        assert rank_q(IntMatrix.identity(3)) == 3
        assert rank_q(IntMatrix.zero(2, 2)) == 0
