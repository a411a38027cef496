"""Smith normal form, cokernels, coinvariants, and SL(2,Z) words."""

import random
from itertools import combinations
from math import gcd

import pytest

from cgkernel import intlin
from cgkernel.intlin import (AbelianStructure, IntMatrix, coinvariants,
                             cokernel, eval_st, format_matrix, format_st,
                             invariants_rank, parse_matrix, parse_st, rank_q,
                             sl2_word, smith_normal_form, sparse_cokernel)
from cgkernel.words import Word

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

    def test_random_matrices(self):
        rng = random.Random(0)
        for _ in range(400):
            a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert_valid_snf(a)

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


class TestSparseCokernel:
    def test_agrees_with_the_matrix_wrapper_and_dense_snf(self):
        # rows reach the core under scattered keys, in shuffled order, with
        # their entries in shuffled column order and all-zero rows left in
        rng = random.Random(11)
        shapes = {"zero rows": 0, "unused columns": 0, "repeated rows": 0}
        for case in range(1000):
            a = rand_sparse_matrix(rng, rng.randint(1, 9), rng.randint(6, 8))
            data = [list(row) for row in a.data]
            if case % 3 == 0:
                data += [[0] * a.cols for _ in range(rng.randint(1, 3))]
                shapes["zero rows"] += 1
            if case % 3 == 1:
                extra = rng.randint(1, 3)
                data = [row + [0] * extra for row in data]
                shapes["unused columns"] += 1
            if case % 3 == 2:
                data += [list(rng.choice(data)) for _ in range(rng.randint(1, 4))]
                shapes["repeated rows"] += 1
            rng.shuffle(data)
            m = IntMatrix(data)
            rows = {}
            for key, row in zip(rng.sample(range(-100, 1000), len(data)), data):
                cols = [j for j, x in enumerate(row) if x]
                rng.shuffle(cols)
                rows[key] = {j: row[j] for j in cols}
            assert sparse_cokernel(rows, m.cols) == cokernel(m) == snf_structure(m)
        assert min(shapes.values()) >= 333

    def test_no_rows(self):
        assert sparse_cokernel({}, 4) == AbelianStructure(4)
        assert sparse_cokernel({7: {}}, 0) == AbelianStructure(0)

    @pytest.mark.parametrize("row", [{0: 1, 1: 0}, {3: 1}, {-1: 2}])
    def test_rejects_zero_entries_and_columns_out_of_range(self, row):
        with pytest.raises(ValueError):
            sparse_cokernel({0: row}, 3)

    def test_matrix_wrapper_hands_every_row_to_the_core(self, monkeypatch):
        seen = []

        def recording_core(rows, ncols):
            seen.append(({i: dict(r) for i, r in rows.items()}, ncols))
            return AbelianStructure(0)

        monkeypatch.setattr(intlin, "sparse_cokernel", recording_core)
        cokernel(IntMatrix(((0, 2, 0), (0, 0, 0), (-1, 0, 3))))
        assert seen == [({0: {1: 2}, 1: {}, 2: {0: -1, 2: 3}}, 3)]


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
            assert intlin._stack_differences(mats, r) == IntMatrix(
                tuple(tuple(m[i, j] - (1 if i == j else 0) for j in range(r))
                      for m in mats for i in range(r)), cols=r)

    def test_free_rank_complements_stacked_rank(self):
        rng = random.Random(5)
        for _ in range(200):
            r = rng.randint(1, 4)
            mats = [rand_matrix(rng, r, r, bound=3) for _ in range(rng.randint(1, 3))]
            stacked = IntMatrix(
                tuple(tuple(m[i, j] - (1 if i == j else 0) for j in range(r))
                      for m in mats for i in range(r)), cols=r)
            assert coinvariants(mats, r).free_rank + rank_q(stacked) == r


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
