import json
from pathlib import Path

import pytest

from cmrank import cartier, poly
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
    # `_matrix_entries` reads the matrix for both `cartier_matrix` and
    # `is_superspecial`, so a second read of a model by either route counts
    read = []
    entries = cartier._matrix_entries

    def spy(C, *args, **kwargs):
        read.append(C.f)
        return entries(C, *args, **kwargs)

    monkeypatch.setattr(cartier, "_matrix_entries", spy)
    assert run_suite(suite)["passed"]
    assert len(set(read)) == distinct_models
    assert len(read) == distinct_models


def test_suite_runs_one_squarefree_gcd_per_distinct_polynomial(monkeypatch):
    # prop44 asks about most models twice, in `kani_rosen_triple` and again
    # in `HyperellipticModel`; only `is_squarefree` calls `poly.poly_gcd`
    # through the poly module, so the spy sees the squarefree gates alone
    gated = []
    gcd = poly.poly_gcd

    def spy(a, b):
        gated.append(a)
        return gcd(a, b)

    monkeypatch.setattr(poly, "poly_gcd", spy)
    poly.is_squarefree.cache_clear()
    assert run_suite("prop44")["passed"]
    info = poly.is_squarefree.cache_info()
    assert len(gated) == len(set(gated)) == info.misses == info.currsize
    assert info.hits > len(gated)
