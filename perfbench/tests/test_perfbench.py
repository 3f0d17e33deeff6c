"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def _bench(args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(19)), 50) is None
    assert run.percentile(list(range(20)), 50) == 9
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile(list(range(300)), 90) == 269


def test_self_time_on_synthetic_span_tree():
    ticks = iter([0, 1, 4, 5, 6, 8, 9, 10, 20, 21, 23, 26])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    # poly.a [0, 10] has children cartier.b [1, 4] and cartier.c [5, 9];
    # cartier.c has child poly.d [6, 8]
    tr.enter("poly.a")
    tr.enter("cartier.b")
    tr.exit()
    tr.enter("cartier.c")
    tr.enter("poly.d")
    tr.exit()
    tr.exit()
    tr.exit()
    # recursion: cartier.b [20, 26] inside itself [21, 23]
    tr.enter("cartier.b")
    tr.enter("cartier.b")
    tr.exit()
    tr.exit()
    assert tr.self_ns == {"poly.a": 3, "cartier.b": 3 + 2 + 4, "cartier.c": 2, "poly.d": 2}
    assert tr.incl_ns["cartier.b"] == 3 + 6  # the nested call is not counted twice
    assert tr.layer_self_s("poly") == pytest.approx(5e-9)
    assert tr.layer_self_s("cartier") == pytest.approx(11e-9)
    assert tr.calls["cartier.b"] == 3 and not tr.stack


def test_install_sees_cross_module_calls_and_uninstalls():
    sys.path.insert(0, str(ROOT / "src"))
    from cmrank import cartier, ff, poly, verify

    original = cartier.cartier_matrix
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        ctx = ff.field(11)
        f = poly.DensePoly.from_ints(ctx, [1, 2, 0, 3, 1])
        cartier.p_rank(cartier.HyperellipticModel(ctx, f))
        verify.run_suite("strata")
    finally:
        uninstall()
    assert cartier.cartier_matrix is original
    assert tr.calls["cartier.p_rank"] == 1 and tr.calls["cartier.cartier_matrix"] == 1
    assert tr.calls["poly.poly_gcd"] >= 1  # is_squarefree -> poly_gcd, inside poly
    assert tr.calls["verify.verify_strata"] == 1  # through verify.SUITES
    assert tr.counts["ff.elem_ops"] > 0 and not tr.stack


def _copy_bench(tmp_path) -> Path:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "perfbench"


def test_wrong_golden_counts_as_failed_op(tmp_path):
    bench = _copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden = bench / "golden" / "verify.json"
    data = json.loads(golden.read_text())
    data["lemma43"]["counts"]["cases"] += 1
    golden.write_text(json.dumps(data))
    code, lines, _ = _bench(
        ["--workload", "verify", "--seed", "1", "--seconds", "0", "--trace", "0", "--limit", "2"],
        cwd=tmp_path,
        script=bench / "run.py",
    )
    result = json.loads(lines[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert any("FAILED verify lemma43" in ln for ln in lines)


def test_smoke_all_workloads_untraced_and_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, err = _bench(
            ["--workload", "all", "--seed", "3", "--seconds", "0", "--trace", str(trace), "--limit", "2"]
        )
        assert code == 0, err
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
        want = {f"{w}.{m['name']}" for w in run.WORKLOADS for m in spec[key]}
        assert set(result["metrics"]) == want
    assert not (ROOT / ".perfbench_tmp").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    _copy_bench(tmp_path)
    code, lines, err = _bench(
        ["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        script=tmp_path / "perfbench" / "run.py",
    )
    assert code != 0
    assert not any(ln.startswith("{") for ln in lines)
