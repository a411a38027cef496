"""End-to-end CLI contract: subcommands, output shapes, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cgkernel
from cgkernel import cli, perms
from cgkernel.braids import BraidWord, format_braid, normal_form
from cgkernel.cli import main
from cgkernel.fpgroups import format_presentation, sl2z_presentation
from cgkernel.intlin import parse_matrix

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def sl2_file(tmp_path):
    path = tmp_path / "sl2z.pres"
    path.write_text(format_presentation(sl2z_presentation()), encoding="utf-8")
    return str(path)


def symmetric_coxeter_file(tmp_path, n):
    """A file holding the Coxeter presentation of S_n on s1..s(n-1)."""
    path = tmp_path / f"s{n}.pres"
    rels = [f"s{i} s{i}" for i in range(1, n)]
    rels += [f"s{i} s{j} " * (3 if j == i + 1 else 2)
             for i in range(1, n) for j in range(i + 1, n)]
    path.write_text("gens: " + " ".join(f"s{i}" for i in range(1, n)) + "\n"
                    + "".join(f"rel: {r}\n" for r in rels), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_malformed_env_var_limit_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CGKERNEL_MAX_COSETS", "abc")
        code, _, err = run_cli(capsys, "verify", "--check", "sl2.sanov_index12")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_nonpositive_limit_is_usage_error(self, capsys, limit):
        code, _, err = run_cli(capsys, "verify", "--check", "sl2.sanov_index12",
                               "--max-cosets", limit)
        assert code == 2 and err.startswith("error:")

    def test_single_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "k4.b1_5")
        assert code == 0
        assert "k4.b1_5" in out and "pass" in out
        assert "expected" in out and "free_rank" in out

    def test_env_var_limit(self, capsys, sl2_file, monkeypatch):
        monkeypatch.setenv("CGKERNEL_MAX_COSETS", "400")
        code, _, err = run_cli(capsys, "tc", sl2_file, "t")
        assert code == 3 and "exceeded" in err

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--check", "bogus")
        assert code == 2
        assert "unknown" in err

    def test_all_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(entry["passed"] for entry in payload)
        assert set(payload[0]) == {"id", "passed", "expected", "actual",
                                   "paper_anchor", "elapsed_ms"}

    def test_all_json_evidence_golden(self, capsys):
        # every check's evidence, byte for byte, with the timings dropped;
        # a refactor that changes an exact answer or its order fails here
        code, out, _ = run_cli(capsys, "verify", "--all", "--json")
        payload = json.loads(out)
        for entry in payload:
            del entry["elapsed_ms"]
        golden = (GOLDEN / "verify_all.json").read_text(encoding="utf-8")
        assert code == 0 and json.dumps(payload, indent=2) + "\n" == golden

    def test_failing_check_sets_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "sl2.*",
                               "--max-cosets", "2")
        assert code == 1
        assert "FAIL" in out

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--list")
        assert code == 0
        assert "appendix.sigma_actions" in out.split()

    def test_requires_selection(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and "verify" in err

    def test_seed_reproduces_json_output(self, capsys):
        def snapshot():
            code, out, _ = run_cli(capsys, "verify", "--check", "phi.hom_property",
                                   "--json", "--seed", "7")
            assert code == 0
            payload = json.loads(out)
            for entry in payload:
                entry.pop("elapsed_ms")
            return payload

        assert snapshot() == snapshot()


# `braid nf` output pinned byte for byte; the left normal form is unique, so
# any change of algorithm must reproduce it exactly.
WORD_60 = ('s2^-1 s2^-1 s3^-1 s5 s4^-1 s3 s1^-1 s5 s5 s4 s3 s5^-1 s2 s5^-1 s3^-1 '
           's4 s5^-1 s5^-1 s4 s2 s2 s3 s5^-1 s3 s2 s4^-1 s2 s5^-1 s3 s4^-1 s4^-1 '
           's2 s3^-1 s1 s1 s4 s3 s1 s3 s4 s5^-1 s4^-1 s1 s4^-1 s2^-1 s5^-1 s4 s2 '
           's3^-1 s4 s1^-1 s1^-1 s3 s5 s2 s5 s2 s3^-1 s1 s5')
NF_GOLDEN = [
    (6, WORD_60,
     ('Delta^-10 · s1 s2 s3 s2 s1 s4 s3 s2 s1 s5 s4 s3 s2 s1 · s1 s2 s1 s3 '
      's2 s1 s5 s4 s3 s2 s1 · s1 s2 s1 s3 s2 s4 s3 s2 s1 s5 s4 s3 · s1 s2 s3 '
      's2 s4 s3 s2 s1 s5 s4 s3 s2 s1 · s2 s3 s4 s3 s2 s5 s4 s3 s2 · s2 s3 s2 '
      's1 s4 s3 s5 s4 s3 s2 s1 · s1 s2 s1 s3 s2 s4 s3 s2 s1 s5 s4 s3 s2 s1 · '
      's1 s2 s1 s3 s2 s4 s3 s2 s1 s5 s4 s3 s2 s1 · s1 s2 s1 s3 s4 s3 s2 s1 '
      's5 · s1 s2 s1 s3 s2 s4 s3 · s4 s3 · s3 · s3 s2 s4 · s2 s4 s3 s2 s5 · '
      's2 s1 s3 s2 s1 · s2 s1 s3 s4 s5 · s1 s2 s5 s4 · s2 s1 s3 s4 s3 s2 s1 '
      's5 · s2 s5 · s2 s3 s4 · s4 s3 s5 · s3 s2 s1 s5 · s5')),
    (4, "Delta^-3 s2", "Delta^-3 · s2"),
    (4, "center", "Delta^2 ·"),
    (4, "s1 s1^-1", "Delta^0 ·"),
    (2, "s1 s1", "Delta^2 ·"),
    (2, "s1^-3 s1", "Delta^-2 ·"),
    (3, "s1 s2 s1 s2^-1 s1", "Delta^0 · s2 s1 · s1"),
]


class TestBraid:
    @pytest.mark.parametrize("n, word, expected", NF_GOLDEN)
    def test_nf_golden(self, capsys, n, word, expected):
        code, out, _ = run_cli(capsys, "braid", "nf", "-n", str(n), word)
        assert code == 0 and out == expected + "\n"

    def test_nf_long_mixed_word(self, capsys):
        rng = random.Random(21)
        word = BraidWord(6, [(rng.randint(1, 5), rng.choice((1, -1))) for _ in range(2000)])
        nf = normal_form(word)
        code, out, _ = run_cli(capsys, "braid", "nf", "-n", "6", format_braid(word))
        head, *groups = out.rstrip("\n").split(" · ")
        assert code == 0 and head == f"Delta^{nf.delta_power}"
        assert groups == [format_braid(f) for f in nf.factor_words()] and groups

    def test_nf_spells_each_distinct_factor_once(self, capsys, monkeypatch):
        # the factors are the table's shared Permutations, so the 2,000
        # factors of s1^2000 are one object, spelled once
        spelled = []
        spell = cli._perm_letters

        def recording_spell(p):
            spelled.append(p)
            return spell(p)

        monkeypatch.setattr(cli, "_perm_letters", recording_spell)
        code, out, _ = run_cli(capsys, "braid", "nf", "-n", "4", "s1^2000")
        assert code == 0 and out == "Delta^0 · " + " · ".join(["s1"] * 2000) + "\n"
        word = BraidWord(6, [(i % 5 + 1, 1 - 2 * (i % 3 == 0)) for i in range(300)])
        factors = normal_form(word).factors
        run_cli(capsys, "braid", "nf", "-n", "6", format_braid(word))
        assert len(spelled) == 1 + len(set(map(id, factors))) < 1 + len(factors)

    def test_eq_long_powers(self, capsys):
        code, out, _ = run_cli(capsys, "braid", "eq", "-n", "4",
                               "s1^50000", "s1^25000 s1^25000")
        assert code == 0 and out == "equal\n"

    def test_eq(self, capsys):
        code, out, _ = run_cli(capsys, "braid", "eq", "-n", "4",
                               "l4", "A14 A24 A34")
        assert code == 0 and out.strip() == "equal"

    def test_not_equal(self, capsys):
        code, out, _ = run_cli(capsys, "braid", "eq", "-n", "4", "s1", "s2")
        assert code == 0 and out.strip() == "not equal"

    def test_perm(self, capsys):
        code, out, _ = run_cli(capsys, "braid", "perm", "-n", "4", "s1 s3^-1")
        assert code == 0 and out.strip() == "(1,2)(3,4)"

    def test_nf_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "braid", "nf", "-n", "4", "s1 s1^-1")
        assert code == 0 and out.strip() == "Delta^0 ·"

    def test_nf_nontrivial_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "braid", "nf", "-n", "4", "s1 s2 s1")
        assert code == 0 and out.startswith("Delta^0 ·")

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "braid", "perm", "-n", "4", "zz")
        assert code == 2 and "error" in err

    def test_bad_exponent(self, capsys):
        assert (run_cli(capsys, "braid", "nf", "-n", "4", "s1^x")
                == (2, "", "error: bad exponent in 's1^x'\n"))


class TestCosetEnumeration:
    def test_index(self, capsys, sl2_file):
        code, out, _ = run_cli(capsys, "tc", sl2_file, "t t, t s t t s t")
        assert code == 0 and "index: 12" in out

    def test_whole_group(self, capsys, sl2_file):
        code, out, _ = run_cli(capsys, "tc", sl2_file, "s, t")
        assert code == 0 and "index: 1" in out

    def test_abelianization_flag(self, capsys, sl2_file):
        code, out, _ = run_cli(capsys, "tc", sl2_file, "t t, t s t t s t", "--ab")
        assert code == 0 and "abelianization:" in out

    def test_limit_exceeded_exit_code(self, capsys, sl2_file):
        code, _, err = run_cli(capsys, "tc", sl2_file, "t",
                               "--max-cosets", "500")
        assert code == 3 and "exceeded" in err

    def test_limit_bounds_rows_held(self, capsys, tmp_path):
        # the Coxeter presentation of S_7, whose enumeration needs 5040 rows
        path = symmetric_coxeter_file(tmp_path, 7)
        code, out, _ = run_cli(capsys, "tc", path, "", "--max-cosets", "5040")
        assert code == 0 and "index: 5040" in out
        code, _, err = run_cli(capsys, "tc", path, "", "--max-cosets", "5039")
        assert code == 3 and "exceeded" in err

    def test_abelianization_of_the_regular_kernel_of_s6(self, capsys, tmp_path):
        # the trivial subgroup of S_6: index 720, a 10800 x 2881 relation matrix
        code, out, _ = run_cli(capsys, "tc", symmetric_coxeter_file(tmp_path, 6), "", "--ab")
        assert code == 0 and out == "index: 720\nabelianization: 0\n"

    def test_empty_relator_and_trivial_subgroup(self, capsys, tmp_path):
        # A_4 = <a, b | a^2, b^3, (ab)^3>, with the empty relator 1 as well
        path = tmp_path / "a4.pres"
        path.write_text("gens: a b\nrel: a^2\nrel: b^3\nrel: a b a b a b\nrel: 1\n",
                        encoding="utf-8")
        code, out, _ = run_cli(capsys, "tc", str(path), "1")
        assert code == 0 and out == "index: 12\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "tc", "/does/not/exist", "t")
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("gens: a b\ngens: a b\nrel: a^2\n", "duplicate gens line"),
        ("gens:\nrel: 1\n", "empty generator list"),
        ("gens: a b\nfoo: a b\n", "unrecognized line 'foo: a b'"),
        ("gens: a a\nrel: a\n", "duplicate generator name"),
    ], ids=["duplicate_gens", "empty_gens", "unknown_line", "duplicate_name"])
    def test_malformed_presentation_is_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.pres"
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "tc", str(path), "a") == (2, "", f"error: {message}\n")


class TestLinearAlgebra:
    def test_snf(self, capsys):
        code, out, _ = run_cli(capsys, "snf", "[[2,0],[0,3]]")
        assert code == 0
        assert "D = [[1,0],[0,6]]" in out

    def test_snf_transforms(self, capsys):
        # pins the contract U*A*V = D with U and V unimodular, not one U and V
        a = "[[2,4,4],[-6,6,12],[10,4,16]]"
        code, out, _ = run_cli(capsys, "snf", a)
        printed = dict(line.split(" = ") for line in out.splitlines())
        d, u, v = (parse_matrix(printed[name]) for name in "DUV")
        assert code == 0 and d == parse_matrix("[[2,0,0],[0,2,0],[0,0,156]]")
        assert u * parse_matrix(a) * v == d
        assert abs(u.det()) == abs(v.det()) == 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="this Python has no int-to-str digit limit")
    def test_snf_prints_entries_past_the_int_str_limit(self, capsys):
        # the U of this 22 x 22 matrix has entries of about 712 digits
        rng = random.Random(1)
        a = str([[rng.randint(-100, 100) for _ in range(22)] for _ in range(22)])
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "snf", a)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        printed = dict(line.split(" = ") for line in out.splitlines())
        d, u, v = (parse_matrix(printed[name]) for name in "DUV")
        assert u * parse_matrix(a) * v == d
        assert max(len(str(abs(e))) for row in u.data for e in row) > 640

    def test_sl2word(self, capsys):
        code, out, _ = run_cli(capsys, "sl2word", "[[1,2],[0,1]]")
        assert code == 0 and out.strip() == "t^2"

    def test_sl2word_rejects_bad_determinant(self, capsys):
        code, _, err = run_cli(capsys, "sl2word", "[[2,0],[0,1]]")
        assert code == 2

    def test_snf_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "snf", "[[1,2],[3]]")
        assert code == 2

    def test_snf_rejects_bool_entries(self, capsys):
        code, out, err = run_cli(capsys, "snf", "[[True,2],[3,4]]")
        assert code == 2 and out == "" and "True" in err

    # a row that is not a list: an int would crash IntMatrix, and a dict or
    # set row would be read in key or hash order; then a literal that does
    # not parse and one that is not a list at all
    @pytest.mark.parametrize("argv", [
        ("snf", "[3]"), ("snf", "[[1,2],3]"), ("sl2word", "[3]"),
        ("snf", "[[1,2],{3:4,5:6}]"), ("snf", "[[1,2],{3,4}]"),
        ("snf", "[[1,2"), ("snf", "5"),
    ])
    def test_malformed_matrix_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


# `subgroup basis` and `subgroup rewrite` output pinned line by line: coset
# numbering and Schreier-generator order are part of the contract.
MOD2 = ("-d", "4", "--images", "(1,2)(3,4);(1,3)(2,4)")  # mod-2 homology kernel
S3 = ("-d", "3", "--images", "(1,2);(1,2,3)")  # regular S_3 kernel
# a -> c, b -> c^-1 for a 3-cycle c: the Schreier tree takes the b edge out of
# coset 0 only because positive letters come before negative ones
Z3 = ("-d", "3", "--images", "(1,2,3);(1,3,2)")
BASIS_GOLDEN = [
    (MOD2, ["index: 4", "a^2", "b a b^-1 a^-1", "b^2", "a b a b^-1", "a b^2 a^-1"]),
    (S3, ["index: 6", "a^2", "b a b a^-1", "b^3", "b^-1 a b^-1 a^-1", "a b a b",
          "a b^3 a^-1", "a b^-1 a b^-1"]),
    (Z3, ["index: 3", "a^2 b^-1", "a b", "b a", "b^2 a^-1"]),
]
REWRITE_GOLDEN = [
    (MOD2, "a^2 b^2", "g1 g3"),
    (MOD2, "b a b^-1 a^-1 a b a b^-1", "g2 g4"),
    (MOD2, "a b^2 a^-1 b^-2 a^-2", "g5 g3^-1 g1^-1"),
    (MOD2, "a b a b^-1 b a^-1 b^-1 a^-1", "1"),
    (S3, "a^2 b^3", "g1 g3"),
    (S3, "a b a b a b^3 a^-1 a^-2", "g5 g6 g1^-1"),
    (S3, "b^-1 a b^-1 a^-1 a b^-1 a b^-1", "g4 g7"),
    (Z3, "a^3 b a", "g1 g3^2"),
    (Z3, "b^-1 a^-1 a^2 b^-1", "g2^-1 g1"),
]


class TestSubgroup:
    @pytest.mark.parametrize("images, expected", BASIS_GOLDEN)
    def test_basis_golden(self, capsys, images, expected):
        code, out, _ = run_cli(capsys, "subgroup", "basis", "-r", "2", *images)
        assert code == 0 and out.splitlines() == expected

    @pytest.mark.parametrize("images, word, expected", REWRITE_GOLDEN)
    def test_rewrite_golden(self, capsys, images, word, expected):
        code, out, _ = run_cli(capsys, "subgroup", "rewrite", "-r", "2", *images, word)
        assert code == 0 and out == expected + "\n"

    @pytest.mark.parametrize("images, word", [(MOD2, "b"), (S3, "a b")])
    def test_rewrite_non_member_golden(self, capsys, images, word):
        code, out, err = run_cli(capsys, "subgroup", "rewrite", "-r", "2", *images, word)
        assert (code, out, err) == (2, "", "error: word does not return to the base state\n")

    def test_basis(self, capsys):
        code, out, _ = run_cli(capsys, "subgroup", "basis", "-r", "2", "-d", "2",
                               "--images", "id;(1,2)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index: 2"
        assert set(lines[1:]) == {"a", "b a b^-1", "b^2"}

    def test_rewrite(self, capsys):
        code, out, _ = run_cli(capsys, "subgroup", "rewrite", "-r", "2", "-d", "2",
                               "--images", "id;(1,2)", "b a b^-1")
        assert code == 0 and out.strip() == "g2"

    def test_rewrite_non_member(self, capsys):
        code, _, err = run_cli(capsys, "subgroup", "rewrite", "-r", "2", "-d", "2",
                               "--images", "id;(1,2)", "b")
        assert code == 2

    def test_one_image_for_two_generators_is_usage_error(self, capsys):
        assert (run_cli(capsys, "subgroup", "basis", "-r", "2", "-d", "3", "--images", "(1,2)")
                == (2, "", "error: one image per generator\n"))

    def test_limit_bounds_cosets(self, capsys, monkeypatch):
        # the 8-cycle and (1,2) generate S_8: 40,320 cosets
        s8 = ("-d", "8", "--images", "(1,2,3,4,5,6,7,8);(1,2)")
        code, out, _ = run_cli(capsys, "subgroup", "rewrite", "-r", "2", *s8, "a^8",
                               "--max-cosets", "40320")
        assert code == 0 and out == "g8\n"
        monkeypatch.setenv("CGKERNEL_MAX_COSETS", "40319")
        code, _, err = run_cli(capsys, "subgroup", "basis", "-r", "2", *s8)
        assert code == 3 and "exceeded 40319 cosets" in err

    def test_default_limit_stops_a_huge_quotient(self, capsys, monkeypatch):
        # 12! = 479,001,600 cosets; the default limit stops the walk at 100,000
        visited = []
        real = perms.orbit

        def counting(start, neighbours, limit=None):
            def counted(p):
                visited.append(1)
                return neighbours(p)
            return real(start, counted, limit)

        monkeypatch.setattr(perms, "orbit", counting)
        code, out, err = run_cli(capsys, "subgroup", "basis", "-r", "2", "-d", "12",
                                 "--images", "(1,2,3,4,5,6,7,8,9,10,11,12);(1,2)")
        assert (code, out) == (3, "") and "exceeded 100000 cosets" in err
        # each point's neighbours are asked for once, and the walk stops
        # before it has visited the limit's worth of points
        assert 0 < len(visited) < 100_000


def test_usage_error_exit_code(capsys):
    assert main(["braid", "nf"]) == 2  # missing -n and word


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cgkernel", "verify", "--check",
         "presentation.sanity"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def fresh_cli(*argv, stdout=subprocess.PIPE, launcher=()):
    """``python -S -m cgkernel ...`` in a child process, started through
    ``launcher`` if one is given: unlike ``main`` in this one, it has none
    of pytest's modules loaded, so an import that the package leaves out
    fails here."""
    env = {**os.environ, "PYTHONPATH": str(Path(cgkernel.__file__).parents[1])}
    return subprocess.run([*launcher, sys.executable, "-S", "-m", "cgkernel", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=120)


def test_fresh_process_verify_all_json_matches_the_golden():
    proc = fresh_cli("verify", "--all", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    for entry in payload:
        del entry["elapsed_ms"]
    golden = (GOLDEN / "verify_all.json").read_text(encoding="utf-8")
    assert json.dumps(payload, indent=2) + "\n" == golden


def test_fresh_process_snf_parses_its_matrix():
    proc = fresh_cli("snf", "[[2,4,4],[-6,6,12],[10,4,16]]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "D = [[2,0,0],[0,2,0],[0,0,156]]"


def test_a_matrix_literal_with_a_name_fails_the_same_way_every_run():
    # the parser's own message names the offending node by its repr, with a
    # memory address in it; two processes must print one message
    runs = [fresh_cli("sl2word", "[[true,0],[0,1]]") for _ in range(2)]
    assert [proc.returncode for proc in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.startswith("error: bad matrix literal") and "0x" not in runs[0].stderr


@pytest.mark.parametrize("argv", [("snf", "[[2,4,4],[-6,6,12],[10,4,16]]"),
                                  ("verify", "--all", "--json")])
def test_output_into_a_closed_pipe_exits_quietly(argv):
    # the read end is closed before the child starts, so its first write
    # (or the flush that main makes) meets a broken pipe every time
    read, write = os.pipe()
    os.close(read)
    try:
        proc = fresh_cli(*argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_process_started_without_stdout_exits_quietly():
    # with fd 1 closed, sys.stdout is None and print writes nothing
    proc = fresh_cli("snf", "[[2,4],[6,8]]", launcher=("sh", "-c", 'exec "$0" "$@" >&-'))
    assert (proc.returncode, proc.stderr) == (0, "")
