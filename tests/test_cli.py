import json

from cmrank import search
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


def test_prank_singular_exits_2(capsys):
    code, _, err = run(capsys, "prank", "--p", "7", "--poly", "0,0,1,1")
    assert code == 2
    assert "squarefree" in err


def test_prank_power_past_degree_cap_exits_2(capsys):
    # genus 3 takes the naive route: f^((p-1)/2) would have degree about 7.5e9
    code, _, err = run(capsys, "prank", "--p", "2147483629", "--poly", "1,0,0,0,0,0,0,1")
    assert code == 2
    assert "exceeds the cap" in err


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
