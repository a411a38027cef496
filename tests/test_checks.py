"""The named verification registry: behavior, evidence, negative controls."""

import json

import pytest

from cgkernel.checks import (CHECK_IDS, Config, UnknownCheck, run_all,
                             run_check)
from cgkernel.fpgroups import CosetLimitExceeded


def test_registry_has_stable_ids():
    assert len(CHECK_IDS) == len(set(CHECK_IDS))
    for cid in ("appendix.sigma_actions", "sl2.S_index3", "k4.b1_5",
                "thmsec.theta_pairs_surjective", "phi.monodromy_coinvariants"):
        assert cid in CHECK_IDS


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
