import json
from pathlib import Path

import pytest

from cmrank import cartier
from cmrank.verify import DEFAULT_SEED, SUITES, run_suite

# `cmrank verify all --format json` at the default seed, elapsed_ms removed
VERIFY_ALL_REPORT = Path(__file__).parent / "data" / "verify_all.json"


def _strip_timing(report):
    out = {k: v for k, v in report.items() if k != "elapsed_ms"}
    if "reports" in out:
        out["reports"] = [_strip_timing(r) for r in out["reports"]]
    return out


def test_suite_names():
    assert set(SUITES) == {
        "lemma43",
        "char3-genus3",
        "ekedahl3",
        "genus2-ss",
        "prop44",
        "prop45",
        "ss5-small",
        "oracle",
        "strata",
    }


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_oracle_suite_deterministic_for_fixed_seed():
    a = run_suite("oracle", seed=123)
    b = run_suite("oracle", seed=123)
    assert _strip_timing(a) == _strip_timing(b)
    assert a["seed"] == 123
    c = run_suite("oracle")
    assert c["seed"] == DEFAULT_SEED


def test_lemma43_report_shape():
    r = run_suite("lemma43")
    assert r["passed"]
    assert r["counts"]["cases"] > 100


def test_genus2_ss_passes():
    r = run_suite("genus2-ss")
    assert r["passed"]
    assert [c["name"] for c in r["checks"]] == [
        "p5_genus2_prank0",
        "p7_genus2_prank0",
        "p11_genus2_prank0",
        "p13_genus2_prank0",
    ]


def test_verify_all_report_matches_checked_in_copy():
    expected = json.loads(VERIFY_ALL_REPORT.read_text())
    assert _strip_timing(run_suite("all", seed=DEFAULT_SEED)) == expected


@pytest.mark.parametrize("suite, distinct_models", [("prop45", 68), ("prop44", 215)])
def test_suite_builds_one_cartier_matrix_per_distinct_model(monkeypatch, suite, distinct_models):
    built = []
    matrix = cartier.cartier_matrix

    def spy(C, *args, **kwargs):
        built.append(C.f)
        return matrix(C, *args, **kwargs)

    monkeypatch.setattr(cartier, "cartier_matrix", spy)
    assert run_suite(suite)["passed"]
    assert len(set(built)) == distinct_models
    assert len(built) == distinct_models
