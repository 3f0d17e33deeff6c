import json

import pytest

from cmrank import cartier, cli, covers, ff, poly, search, strata, verify
from cmrank.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prank_json(capsys):
    code, out, _ = run(capsys, "prank", "--p", "3", "--poly", "0,1,0,1,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["genus"] == 1
    assert obj["p_rank"] == 0
    assert obj["superspecial"] is True
    assert obj["matrix"] == [["0"]]


def test_prank_nonprime_exits_2(capsys):
    code, out, err = run(capsys, "prank", "--p", "4", "--poly", "1,0,1")
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "prank", "--p", "9", "--poly", "1,0,1")
    assert code == 2
    assert "not prime" in err


def test_empty_coefficient_slot_exits_2(capsys):
    # dropping the empty slot would read x^3 + 1 for the superspecial x^4 + 1
    code, out, err = run(capsys, "prank", "--p", "7", "--poly", "1,,0,0,1")
    assert (code, out) == (2, "") and "coefficient c1" in err and "empty" in err
    code, out, err = run(capsys, "fiber", "--p", "7", "--f1", "0,6,,5,1", "--f2", "0,3,3,1")
    assert (code, out) == (2, "") and "coefficient c2" in err and "empty" in err


def test_prank_singular_exits_2(capsys):
    code, _, err = run(capsys, "prank", "--p", "7", "--poly", "0,0,1,1")
    assert code == 2
    assert "squarefree" in err


def test_prank_past_the_model_guard_exits_2_before_the_gcd(monkeypatch, capsys):
    # degree 2g + 3 has genus g + 1, one past the bound g of its field
    # (MODEL_MAX_GENUS over GF(p), MODEL_MAX_GENUS_EXT over GF(p^2)), and is
    # refused before the squarefree gate; degree 2g + 2, genus g, reaches it.
    # `fiber` takes it as --f1, beside a cubic --f2
    calls = []

    def record(f):
        calls.append(f.degree)
        return False

    monkeypatch.setattr(cartier, "is_squarefree", record)
    monkeypatch.setattr(covers, "is_squarefree", record)
    commands = (
        (["prank", "--poly"], "not squarefree"),
        (["fiber", "--f2", "1,0,0,1", "--f1"], "singular input model"),
    )
    for ext, name in (("1", "MODEL_MAX_GENUS"), ("2", "MODEL_MAX_GENUS_EXT")):
        g = getattr(cartier, name)
        for command, singular in commands:
            calls.clear()
            poly = ",".join(["1"] + ["0"] * (2 * g + 2) + ["1"])
            code, out, err = run(capsys, *command, poly, "--p", "3", "--ext", ext)
            assert (code, out, calls) == (2, "", [])
            assert f"genus {g + 1} > {name} = {g}" in err
            poly = ",".join(["1"] + ["0"] * (2 * g + 1) + ["1"])
            code, out, err = run(capsys, *command, poly, "--p", "3", "--ext", ext)
            assert (code, out, calls) == (2, "", [2 * g + 2]) and singular in err


def test_prank_power_past_degree_cap_exits_2(capsys):
    # genus 3: the middle entries are out of the recurrence's reach, and
    # f^((p-1)/2) would have degree about 7.5e9, past the expansion's guard
    code, _, err = run(capsys, "prank", "--p", "2147483629", "--poly", "1,0,0,0,0,0,0,1")
    assert code == 2
    assert "not within p" in err and "full expansion exceeds the cost guard" in err


def test_prank_past_the_recurrence_guard_exits_2(monkeypatch, capsys):
    # genus 1 below the field bound: the recurrence would take p steps and
    # full expansion is refused, so nothing is computed
    import numpy as np

    from cmrank import cartier

    def refuse(*args):
        raise AssertionError("ran past the cost guards")

    monkeypatch.setattr(cartier, "_recurrence_block", refuse)
    monkeypatch.setattr(np, "convolve", refuse)
    code, _, err = run(capsys, "prank", "--p", "2147483647", "--poly", "1,0,0,1")
    assert code == 2 and "recurrence steps exceed the cost guard" in err
    assert "full expansion exceeds the cost guard" in err


def test_prank_refusal_names_why_each_route_was_refused(monkeypatch, capsys):
    # genus 3 at p = 40 009: the middle entries c_(2p-i) are more than p from
    # both ends, and the power's degree 7 (p-1)/2 = 140 028 is past the
    # expansion's guard; nothing is computed
    import numpy as np

    def refuse(*args):
        raise AssertionError("ran past the cost guards")

    monkeypatch.setattr(cartier, "_recurrence_block", refuse)
    monkeypatch.setattr(np, "convolve", refuse)
    code, out, err = run(capsys, "prank", "--p", "40009", "--poly", "1,2,0,3,1,5,0,1")
    assert (code, out) == (2, "")
    assert err == (
        "error: indices [80015, 80016, 80017] are not within p of either end; "
        "degree 140028 of the full expansion exceeds the cost guard 131072\n"
    )


def test_prank_f0_zero_past_the_expansion_guard_uses_the_recurrence(monkeypatch, capsys):
    # y^2 = x^3 + x at p = 100 003 (= 3 mod 4, supersingular): f(0) = 0 and
    # the power has degree 3 (p-1)/2 > EXPANSION_CAP, so only the recurrence
    # on f / x answers it
    def refuse(*args):
        raise AssertionError("fell back to full expansion")

    monkeypatch.setattr(poly, "pow_coeffs", refuse)
    monkeypatch.setattr(cartier, "pow_coeffs", refuse)
    code, out, _ = run(capsys, "prank", "--p", "100003", "--poly", "0,1,0,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["p_rank"] == 0 and obj["strategy"] == "recurrence"


def test_internal_error_exits_3_with_traceback(monkeypatch, capsys):
    def fail(C):
        raise RuntimeError("recheck failed")

    monkeypatch.setattr(cli, "cartier_matrix", fail)
    code, out, err = run(capsys, "prank", "--p", "19", "--poly=-1,0,0,0,0,1")
    assert code == 3 and out == ""
    assert "Traceback" in err and "RuntimeError: recheck failed" in err


def test_failing_suite_still_exits_1(monkeypatch, capsys):
    report = {"suite": "strata", "passed": False, "checks": [], "elapsed_ms": 0}
    monkeypatch.setitem(verify.SUITES, "strata", lambda seed=None: report)
    code, out, _ = run(capsys, "verify", "strata")
    assert code == 1 and json.loads(out)["passed"] is False


def test_prank_past_max_prime_exits_2_before_primality(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("tested primality past MAX_PRIME")

    monkeypatch.setattr(ff, "is_prime", refuse)
    code, _, err = run(capsys, "prank", "--p", "2147483659", "--poly", "1,0,0,1")
    assert code == 2 and "2^31" in err


def test_removed_threads_flags_exit_2(tmp_path, capsys):
    argv = ["ss5-range", "--from", "11", "--to", "12", "--results-dir", str(tmp_path)]
    assert main(argv + ["--threads", "1"]) == 2
    assert not (tmp_path / "ss5").exists()
    assert main(["verify", "strata", "--threads", "1"]) == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_json_output_roundtrips(capsys):
    code, out, _ = run(capsys, "prank", "--p", "19", "--poly=-1,0,0,0,0,1")
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_fiber(capsys):
    code, out, _ = run(capsys, "fiber", "--p", "7", "--f1", "0,6,5,1", "--f2", "0,3,3,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["genus_total"] == sum(obj["genera"])
    assert obj["p_rank_total"] == sum(obj["p_rank_components"])


def test_ss_lambdas(capsys):
    code, out, _ = run(capsys, "ss-lambdas", "--p", "11")
    assert code == 0
    lams = json.loads(out)
    assert len(lams) == 5
    assert all(isinstance(s, str) for s in lams)
    # past the scan bound: an input error (exit 2), not a failed check
    code, _, err = run(capsys, "ss-lambdas", "--p", "2053")
    assert code == 2 and "bound" in err


def test_ss5_writes_cache(tmp_path, capsys):
    code, out, _ = run(
        capsys, "ss5", "--p", "11", "--mode", "all", "--results-dir", str(tmp_path)
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == 11 and obj["solutions"]
    assert (tmp_path / "ss5" / "p=11.json").exists()


def test_ss5_prints_the_record_it_writes(monkeypatch, tmp_path, capsys):
    # one indented serialisation serves stdout and the record file, whose
    # bytes are those of json.dumps with sort_keys and indent 2
    dumps, indented = json.dumps, []

    def spy(obj, **kwargs):
        indented.append(kwargs.get("indent"))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    for p, mode in ((47, "all"), (167, "first")):
        code, out, _ = run(
            capsys, "ss5", "--p", str(p), "--mode", mode, "--results-dir", str(tmp_path)
        )
        assert code == 0 and indented == [2]
        result = search.load_result(tmp_path, p)
        assert result.mode == mode and result.solutions
        record = search.result_path(tmp_path, p).read_text()
        assert out == record == dumps(result.to_json(), sort_keys=True, indent=2) + "\n"
        indented.clear()


def test_ss5_range_csv_and_cache(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "ss5-range", "--from", "11", "--to", "24", "--results-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,found,num_solutions,first_u,first_v,tested,elapsed_ms"
    assert len(lines) == 3  # primes 11 and 23
    row11 = lines[1].split(",")
    assert row11[0] == "11" and row11[1] == "1"
    # second run hits the cache and reports identical solution columns
    code, out2, _ = run(
        capsys,
        "ss5-range", "--from", "11", "--to", "24", "--results-dir", str(tmp_path),
    )
    for a, b in zip(lines, out2.strip().splitlines()):
        assert a.split(",")[:6] == b.split(",")[:6]
    # a range that holds no prime p = 11 (mod 12) prints the header alone
    code, out, _ = run(
        capsys, "ss5-range", "--from", "12", "--to", "23", "--results-dir", str(tmp_path)
    )
    assert (code, out) == (0, lines[0] + "\n")


def test_ss5_range_recomputes_records_cached_in_another_mode(tmp_path, capsys):
    # a record is reused only in the mode it was swept in: after an ss5 run
    # in the other mode, the range prints the rows of a fresh directory and
    # leaves a record in its own mode
    def rows(results_dir, mode):
        code, out, _ = run(
            capsys,
            "ss5-range", "--from", "40", "--to", "60", "--mode", mode,
            "--results-dir", str(results_dir),
        )
        assert code == 0
        return [line.split(",")[:6] for line in out.splitlines()]

    for cached, mode in (("first", "all"), ("all", "first")):
        results_dir = tmp_path / cached
        code, _, _ = run(
            capsys, "ss5", "--p", "47", "--mode", cached, "--results-dir", str(results_dir)
        )
        assert code == 0
        assert rows(results_dir, mode) == rows(tmp_path / f"fresh-{mode}", mode), cached
        assert search.load_result(results_dir, 47).mode == mode


@pytest.mark.parametrize(
    "argv, target",
    [
        (["ss5", "--p", "11"], "file"),
        (["ss5-range", "--from", "11", "--to", "12"], "file"),
        (["ss5", "--p", "11"], "record directory"),
        (["ss5-range", "--from", "11", "--to", "12"], "record directory"),
        (["ss5-range", "--from", "11", "--to", "12", "--force"], "record directory"),
    ],
    ids=["ss5-file", "range-file", "ss5-dir", "range-dir", "range-force-dir"],
)
def test_results_path_errors_exit_2(tmp_path, capsys, argv, target):
    # a results directory that is a file, or a directory where the record of
    # p = 11 belongs, is an input error: one line, no traceback, and no temp
    # file left beside the record
    if target == "file":
        results = tmp_path / "results"
        results.write_text("")
    else:
        results = tmp_path
        search.result_path(results, 11).mkdir(parents=True)
    code, _, err = run(capsys, *argv, "--results-dir", str(results))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("Not a directory" if target == "file" else "Is a directory") in err
    if target == "record directory":
        assert list(tmp_path.rglob("*.json.tmp")) == []


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"p": 11}', "exactly the fields"),
        (None, "record of p = 23"),
        ("{not json", "Expecting property name"),
    ],
    ids=["missing-fields", "other-prime", "not-json"],
)
def test_ss5_range_refuses_an_untrusted_record(tmp_path, capsys, text, problem):
    # a record that lacks the contract's fields, holds another prime (here
    # p = 23's record, which would print 11 as solution-free) or is not JSON
    # exits 2 naming the file, and --force recomputes it
    argv = ["ss5-range", "--from", "11", "--to", "12", "--results-dir", str(tmp_path)]
    path = search.result_path(tmp_path, 11)
    if text is None:
        assert run(capsys, "ss5", "--p", "23", "--results-dir", str(tmp_path))[0] == 0
        text = search.result_path(tmp_path, 23).read_text()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")  # the header goes out with the first row
    assert err.startswith(f"error: {path}: ") and problem in err and "--force" in err
    assert err.count("\n") == 1
    code, out, _ = run(capsys, *argv, "--force")
    assert code == 0 and out.splitlines()[1].startswith("11,1,1,0,2,")
    assert search.load_result(tmp_path, 11).p == 11


def test_enumerate_ss_g2(capsys):
    code, out, _ = run(capsys, "enumerate-ss-g2", "--p", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 5
    assert obj["count"] == len(obj["models"])


def test_strata_commands(capsys):
    code, out, _ = run(capsys, "strata", "dim", "--g", "4", "--f", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 4
    code, out, _ = run(capsys, "strata", "dim", "--g", "3", "--f", "5", "--f-e", "1")
    assert code == 2
    code, out, _ = run(capsys, "strata", "exists", "--p", "3", "--g", "2", "--f", "0", "--f-e", "0")
    assert code == 0
    assert json.loads(out)["exists"] is False
    code, out, _ = run(capsys, "strata", "boundary", "--g", "2")
    assert code == 0
    obj = json.loads(out)
    assert [c["label"] for c in obj["components"]] == ["delta_{1,0}", "xi_{1,0}"]


def test_strata_boundary_past_its_guard_exits_2_before_listing(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built a component past the guard")

    monkeypatch.setattr(strata, "BoundaryComponent", refuse)
    g = strata.BOUNDARY_MAX_G + 1
    for fmt in ("json", "table"):
        code, out, err = run(capsys, "strata", "boundary", "--g", str(g), "--format", fmt)
        assert (code, out) == (2, "") and f"BOUNDARY_MAX_G = {g - 1}" in err


def test_verify_pass_and_report(capsys):
    code, out, _ = run(capsys, "verify", "char3-genus3")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert all(c["passed"] for c in obj["checks"])


def test_verify_ekedahl_mentions_zero_models(capsys):
    code, out, _ = run(capsys, "verify", "ekedahl3")
    assert code == 0
    obj = json.loads(out)
    assert "0 superspecial models found" in obj["checks"][0]["detail"]


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "nope"]) == 2


def test_verify_seed_recorded(capsys):
    code, out, _ = run(capsys, "verify", "oracle", "--seed", "7")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_ss5_no_cache_writes_nothing(tmp_path, capsys):
    results = tmp_path / "results"
    code, out, _ = run(
        capsys, "ss5", "--p", "11", "--no-cache", "--threads", "2",
        "--results-dir", str(results),
    )
    assert code == 0
    assert json.loads(out)["solutions"]
    assert not results.exists()


def test_ss5_threads_are_validated_on_both_paths(capsys):
    for extra in ([], ["--ext-field"]):
        code, out, err = run(capsys, "ss5", "--p", "11", "--threads", "0", "--no-cache", *extra)
        assert (code, out) == (2, ""), extra
        assert "threads must be positive" in err, extra


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_ss5_past_the_sweep_bound_exits_2_before_sweeping(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("swept past the bound")

    monkeypatch.setattr(search, "_sweep_w_line", refuse)
    code, _, err = run(capsys, "ss5", "--p", "1048583", "--no-cache")
    assert code == 2 and "bound" in err
    # a range is validated as a whole: 1 048 571 is in bounds but is not swept
    code, _, err = run(
        capsys, "ss5-range", "--from", "1048560", "--to", "1048600",
        "--results-dir", str(tmp_path),
    )
    assert code == 2 and "bound" in err
    assert not (tmp_path / "ss5").exists()


def test_ss5_all_past_the_recheck_guard_exits_2_before_listing(monkeypatch, tmp_path, capsys):
    # p = 126 839 reports 2 536 720 pairs, past the guard on the pair count:
    # refused after the kernel, before any pair is listed or rechecked
    def refuse(*args):
        raise AssertionError("listed or rechecked pairs past the recheck guard")

    monkeypatch.setattr(search, "_orbit", refuse)
    monkeypatch.setattr(search, "_recheck", refuse)
    code, _, err = run(
        capsys, "ss5", "--p", "126839", "--mode", "all", "--results-dir", str(tmp_path)
    )
    assert code == 2 and "2536720 pairs" in err and "guard" in err
    # 2 536 720 = 20 (p - 3): the refusal names the good orbits too
    assert "(20 good orbits)" in err
    assert not (tmp_path / "ss5").exists()


def test_ss5_range_all_stops_at_a_refused_prime(monkeypatch, tmp_path, capsys):
    # with the guard just below the 89 pairs of p = 47, the range prints and
    # records 11 and 23 (32 and 80 pairs), then exits 2 at 47 without a record
    monkeypatch.setattr(search, "RECHECK_GUARD", 88)
    code, out, err = run(
        capsys, "ss5-range", "--from", "11", "--to", "60", "--mode", "all",
        "--results-dir", str(tmp_path),
    )
    assert code == 2 and "89 pairs" in err
    assert [row.split(",")[:3] for row in out.splitlines()[1:]] == [
        ["11", "1", "32"], ["23", "1", "80"]
    ]
    assert sorted(path.name for path in (tmp_path / "ss5").iterdir()) == [
        "p=11.json", "p=23.json"
    ]


def test_ss5_ext_field_past_the_oracle_guard_exits_2_before_listing(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("listed GF(p^2) past the oracle guard")

    monkeypatch.setattr(ff.FieldCtx, "elements", refuse)
    for p in ("563", "1048571"):
        code, _, err = run(capsys, "ss5", "--p", p, "--ext-field", "--no-cache")
        assert code == 2 and "guard" in err, p


def test_ss5_ext_field_all_past_the_recheck_guard_exits_2(monkeypatch, capsys):
    argv = ("ss5", "--p", "23", "--ext-field", "--mode", "all", "--no-cache")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(json.loads(out)["solutions"]) == 3156
    monkeypatch.setattr(search, "RECHECK_GUARD", 3155)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "at least 3156 pairs" in err


def test_cached_parser_answers_like_fresh_ones(capsys):
    # one parser serves a usage error, --help and a sweep in turn, with the
    # outputs and exit codes of a parser built afresh for each call
    argvs = [
        ["ss5", "--p", "11", "--bogus"],
        ["--help"],
        ["ss5", "--p", "11", "--no-cache"],
        ["ss5", "--p", "11", "--mode", "some"],
    ]

    def calls(fresh):
        out = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            code, stdout, stderr = run(capsys, *argv)
            if argv[0] == "ss5" and code == 0:
                stdout = {k: v for k, v in json.loads(stdout).items() if k != "elapsed_ms"}
            out.append((code, stdout, stderr))
        return out

    cli._build_parser.cache_clear()
    cached = calls(fresh=False)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)
    assert [code for code, _, _ in cached] == [2, 0, 0, 2]
    assert "unrecognized arguments: --bogus" in cached[0][2]
    assert "usage: cmrank" in cached[1][1]
    assert calls(fresh=True) == cached
