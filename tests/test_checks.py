"""The named verification registry: behavior, evidence, negative controls."""

import hashlib
import json
import random

import pytest

from cgkernel import braids, checks, words
from cgkernel.braids import BraidWord, braid_action, parse_braid, pure_gen
from cgkernel.checks import (CHECK_IDS, Config, UnknownCheck, run_all,
                             run_check)
from cgkernel.fpgroups import (CosetLimitExceeded, coset_table_from_quotient,
                               sl2z_presentation)
from cgkernel.intlin import IntMatrix, eval_st, hom_matrix
from cgkernel.perms import DEFAULT_MAX_COSETS
from cgkernel.words import SemidirectElement, Word, format_word


def test_registry_has_stable_ids():
    assert len(CHECK_IDS) == len(set(CHECK_IDS))
    for cid in ("appendix.sigma_actions", "sl2.S_index3", "k4.b1_5",
                "thmsec.theta_pairs_surjective", "phi.monodromy_coinvariants"):
        assert cid in CHECK_IDS


def test_registering_a_taken_id_is_refused():
    before = list(checks.REGISTRY.items())
    with pytest.raises(ValueError, match="appendix.sigma_actions"):
        checks._check("appendix.sigma_actions", "another claim")(lambda cfg: (True, {}, {}))
    assert list(checks.REGISTRY.items()) == before
    assert CHECK_IDS == tuple(checks.REGISTRY) and len(CHECK_IDS) == 32


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check("no.such.check")


def test_sigma_actions_reports_twelve_rows():
    result = run_check("appendix.sigma_actions")
    assert result.passed
    assert len(result.actual) == 12
    assert all(result.actual.values())


def test_single_index_check():
    result = run_check("sl2.S_index3")
    assert result.passed and result.actual == {"index": 3}


def test_run_all_default_passes():
    results = run_all()
    assert [r.id for r in results] == list(CHECK_IDS)
    assert all(r.passed for r in results)
    assert all(r.elapsed >= 0 for r in results)


def test_run_all_filter_globs():
    results = run_all(Config(check_filter=("appendix.*",)))
    assert [r.id for r in results] == [c for c in CHECK_IDS if c.startswith("appendix.")]


def test_empty_filter_gives_empty_list():
    assert run_all(Config(check_filter=())) == []


def test_coset_limit_is_captured_by_run_all():
    results = run_all(Config(max_cosets=2, check_filter=("sl2.S_index3",
                                                         "sl2.sanov_index12")))
    assert len(results) == 2
    for r in results:
        assert not r.passed
        assert "CosetLimitExceeded" in str(r.actual) or "exceeded" in str(r.actual)


def test_coset_limit_propagates_from_run_check_with_id():
    with pytest.raises(CosetLimitExceeded) as err:
        run_check("sl2.sanov_index12", Config(max_cosets=2))
    assert "sl2.sanov_index12" in str(err.value)


def test_json_schema():
    result = run_check("homology.H_coinvariants_rank1")
    blob = result.to_json()
    assert set(blob) == {"id", "passed", "expected", "actual",
                         "paper_anchor", "elapsed_ms"}
    json.dumps(blob)  # everything must be serializable


def test_seed_reproducibility():
    a = run_check("phi.hom_property", Config(seed=42))
    b = run_check("phi.hom_property", Config(seed=42))
    assert a.passed and b.passed and a.actual == b.actual


def test_evidence_for_homology_check_contains_matrices():
    result = run_check("homology.H_coinvariants_rank1")
    assert result.actual["structure"] == {"free_rank": 1, "torsion": []}
    assert len(result.actual["matrices"]) == 4


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        Config(max_cosets=0)


# sha256 of the (k1, k2) pairs phi.hom_property draws: every left and right
# word's letters and the base twist's generator images, in draw order; frozen
# from the stream before the twists were built once per run
HOM_PROPERTY_STREAM = {
    0: "443bcc031909e9b99518647301f56982be42ff4b3c54cb26638a81b396873561",
    42: "bdfa27b21f1051553e2a2fa70eec347170c5ba3f9716298c86ef48311b079ba7",
}


@pytest.mark.parametrize("seed", sorted(HOM_PROPERTY_STREAM))
def test_hom_property_random_stream_is_pinned(monkeypatch, seed):
    drawn = []
    real = checks.random_semidirect_element

    def recording(*args, **kwargs):
        elem = real(*args, **kwargs)
        drawn.append([[list(map(list, w.letters)) for w in elem.left],
                      [list(map(list, w.letters)) for w in elem.right],
                      [format_word(im) for im in elem.base.fwd.images]])
        return elem

    monkeypatch.setattr(checks, "random_semidirect_element", recording)
    result = run_check("phi.hom_property", Config(seed=seed))
    assert result.passed and len(drawn) == 2 * result.actual["cases"]
    digest = hashlib.sha256(json.dumps(drawn).encode()).hexdigest()
    assert digest == HOM_PROPERTY_STREAM[seed]


def test_hom_property_detects_a_wrong_twist(monkeypatch):
    # negative control: twisting self's words by self's base, not other's
    def wrong_mul(self, other):
        mu = self.base.fwd
        left = tuple(l2 * mu(l1) for l1, l2 in zip(self.left, other.left))
        right = tuple(r2 * mu(r1) for r1, r2 in zip(self.right, other.right))
        return SemidirectElement(self.n, left, right, self.base * other.base)

    monkeypatch.setattr(SemidirectElement, "__mul__", wrong_mul)
    result = run_check("phi.hom_property")
    assert not result.passed and result.actual["failures"] > 0


def test_hom_property_still_verifies_every_aut_product(monkeypatch):
    calls = []
    real = words.verify_automorphism

    def counting(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(words, "verify_automorphism", counting)
    result = run_check("phi.hom_property")
    assert result.passed and len(calls) >= result.actual["cases"]


def test_gamma2_table_from_the_degree_3_action():
    # SL(2, Z/2) acting on the three nonzero vectors of (Z/2)^2; the quotient
    # table numbers the six group elements breadth first, so the columns and
    # the Schreier basis are those its regular action of degree 6 gave
    ct = coset_table_from_quotient(sl2z_presentation(), checks.sl2z2_images())
    assert ct.columns == ((1, 0, 4, 5, 2, 3), (1, 0, 4, 5, 2, 3),
                          (2, 3, 0, 1, 5, 4), (2, 3, 0, 1, 5, 4))
    assert [format_word(w, ("s", "t")) for w in ct.basis] == [
        "s^2", "t^2", "s t^2 s^-1", "t s^2 t^-1", "t s t s^-1 t^-1 s^-1",
        "s t s^2 t^-1 s^-1", "s t s t s^-1 t^-1"]


def test_run_all_clears_every_cached_construction():
    cached = {name for name, f in vars(checks).items() if hasattr(f, "cache_clear")}
    assert cached == {f.__name__ for f in checks._CACHED} and len(cached) == 5


@pytest.fixture()
def cold_caches():
    def clear():
        for construction in checks._CACHED:
            construction.cache_clear()

    clear()
    yield clear
    clear()


@pytest.mark.parametrize("check_id", ["k4.excessive", "sl2.gamma2_b1",
                                      "homology.H_invariants_rank1"])
def test_memoized_check_alone_matches_run_all(cold_caches, check_id):
    alone = run_check(check_id)
    cold_caches()
    inside = {r.id: r for r in run_all()}[check_id]
    assert alone.passed and inside.passed
    assert (alone.expected, alone.actual) == (inside.expected, inside.actual)


def test_shared_tables_are_built_once_per_run(cold_caches, monkeypatch):
    built = []
    real = checks.coset_table_from_quotient

    def counting(pres, images, max_cosets):
        built.append(len(images))
        return real(pres, images, max_cosets)

    monkeypatch.setattr(checks, "coset_table_from_quotient", counting)
    assert all(r.passed for r in run_all())
    # Gamma(2), K_4 and Gamma+, once each
    assert len(built) == 3
    # the next run in the same process builds them again, as a fresh
    # `verify` process does
    assert all(r.passed for r in run_all())
    assert len(built) == 6
    assert checks.restricted_stabilizer_matrices(DEFAULT_MAX_COSETS) \
        is checks.restricted_stabilizer_matrices(DEFAULT_MAX_COSETS)


def test_memoized_tables_honour_the_coset_limit(cold_caches):
    assert run_check("sl2.gamma2_ab").passed
    results = run_all(Config(max_cosets=5, check_filter=("sl2.gamma2_*", "k4.*")))
    assert [r.passed for r in results] == [False] * 4
    assert all("exceeded 5 cosets" in r.actual["error"] for r in results)
    assert run_check("sl2.gamma2_ab", Config(max_cosets=6)).passed


def test_free_group_quotient_tables_honour_the_coset_limit(cold_caches):
    # the parity kernel H has index 2 and J has index 4
    parity = ("stab.fourgen_in_stabH", "homology.H_coinvariants_rank1",
              "homology.H_invariants_rank1")
    results = run_all(Config(max_cosets=1, check_filter=(*parity, "j.rank5")))
    assert len(results) == 4 and not any(r.passed for r in results)
    assert all("exceeded 1 cosets" in r.actual["error"] for r in results)
    results = {r.id: r for r in run_all(Config(max_cosets=3,
                                               check_filter=(*parity, "j.rank5")))}
    assert all(results[i].passed for i in parity)
    assert "exceeded 3 cosets" in results["j.rank5"].actual["error"]
    assert run_check("j.rank5", Config(max_cosets=4)).passed


@pytest.mark.parametrize("check_id, table, key, value, same_evidence", [
    # A13^-1 is no deletion image, yet every subgroup it enters still has
    # index 1: only the check of the row itself can fail
    ("thmsec.theta_pairs_surjective", checks.THETA_IMAGE_TABLE, (4, 1, 3), "A13^-1", True),
    ("thmsec.ell_surjective", checks.ELL_THETA4_TABLE, 2, "A13 A23", False),
    # the epimorphism sends A14 to A23, not A13
    ("prosec.cf_frobenius", checks.CF_IMAGE_TABLE, (1, 4), "A13", False),
])
def test_surjectivity_checks_read_their_images_from_the_table(check_id, table, key, value,
                                                              same_evidence):
    clean = run_check(check_id, table=dict(table))
    broken = run_check(check_id, table={**table, key: value})
    assert clean.passed and not broken.passed
    assert ((broken.expected, broken.actual) == (clean.expected, clean.actual)) == same_evidence


@pytest.mark.parametrize("check_id", ["ell.braid_identities", "ell.psi_minus_identity",
                                      "ell.theta4_images"])
def test_the_point_pushing_checks_read_the_point_pushing_braids(monkeypatch, check_id):
    # each l_i times A12 is still pure, so only a check that reads the
    # braid itself can see the difference
    assert run_check(check_id).passed
    monkeypatch.setattr(checks, "ell_word", lambda i: braids.ell_word(i) * pure_gen(1, 2, 4))
    assert not run_check(check_id).passed


def test_braid_lift_realises_every_matrix():
    # seeded S/T words, and the matrices at the ends of sl2_word's cases:
    # the identity, -I, and S^2 times a power of T
    rng = random.Random(5)
    beta_s = parse_braid(checks.BETA_S_STR, 4)
    beta_t = parse_braid(checks.BETA_T_STR, 4)
    mats = [IntMatrix.identity(2), IntMatrix(((-1, 0), (0, -1))), IntMatrix(((-1, 4), (0, -1)))]
    for _ in range(40):
        mats.append(eval_st(Word(2, [(rng.randint(1, 2), rng.choice((1, -1)))
                                     for _ in range(rng.randint(0, 12))])))
    for m in mats:
        lift = checks.braid_lift(m)
        assert type(lift) is BraidWord and lift.n == 4
        assert hom_matrix(braid_action(lift)) == m
        # the lift is the product of the braids for S and T, letter by letter
        want = BraidWord.identity(4)
        for i, sign in checks.sl2_word(m).letters:
            want = want * (beta_s if i == 1 else beta_t) ** sign
        assert lift == want
