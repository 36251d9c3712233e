import json

import pytest

from divlab import cli
from divlab.formulas import BoundVerdict
from divlab.io import read_family, dump_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stripped(report_text):
    data = json.loads(report_text)
    data.pop("elapsed_ms", None)
    return data


def test_construct_then_measure(tmp_path, capsys):
    out = tmp_path / "tri.json"
    code, text, _ = run(
        capsys, "construct", "--family", "triangle", "--n", "10", "--k", "3",
        "--out", str(out),
    )
    assert code == 0
    fam = read_family(out)
    assert len(fam) == 21
    code, text, _ = run(capsys, "measure", str(out), "--c", "5/4")
    assert code == 0
    assert "|F| = 21" in text
    assert "Delta = 14" in text
    assert "gamma = 7" in text
    assert "gamma_C (C=5/4) = 7/2" in text


def test_construct_all_families(tmp_path, capsys):
    cases = [
        ["--family", "star", "--n", "8", "--k", "3"],
        ["--family", "fi", "--n", "10", "--k", "3", "--i", "4"],
        ["--family", "uvw", "--n", "9", "--k", "3", "--t", "2,4,7"],
        ["--family", "uvw-star", "--n", "9", "--k", "3", "--t", "1,2,3"],
        ["--family", "lex", "--n", "7", "--k", "3", "--m", "11"],
        ["--family", "fano-l", "--n", "10", "--k", "3"],
        ["--family", "fano-lplus", "--n", "11", "--k", "4"],
        ["--family", "example-t", "--n", "12", "--k", "3",
         "--kernels", "[[4,5],[4,6],[5,6]]"],
    ]
    for idx, extra in enumerate(cases):
        out = tmp_path / f"fam{idx}.json"
        code, _, _ = run(capsys, "construct", *extra, "--out", str(out))
        assert code == 0, extra
        read_family(out)


def test_verify_exit_codes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "star.json"
    run(capsys, "construct", "--family", "star", "--n", "10", "--k", "3", "--out", str(out))
    code, text, _ = run(capsys, "verify", "--theorem", "ekr", "--family", str(out))
    assert code == 0
    assert "satisfied (tight)" in text
    # hypothesis failure is exit 0, reported
    code, text, _ = run(capsys, "verify", "--theorem", "hm", "--family", str(out))
    assert code == 0
    assert "hypotheses do not hold" in text
    # a genuine violation maps to exit 2 (stubbed: honest inputs cannot
    # produce one, the theorems being theorems)
    from fractions import Fraction

    fake = BoundVerdict("ekr", True, Fraction(5), Fraction(4), False, False)
    monkeypatch.setattr(cli.fx, "check_theorem", lambda *a, **kw: fake)
    code, _, _ = run(capsys, "verify", "--theorem", "ekr", "--family", str(out))
    assert code == 2


def test_usage_and_input_errors(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--theorem", "nope", "--family", "x.json")
    assert code == 1
    code, _, err = run(capsys, "measure", str(tmp_path / "missing.json"))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 5, "k": 2, "sets": [[2, 1]]}')
    code, _, err = run(capsys, "measure", str(bad))
    assert code == 1
    assert "error" in err
    code, _, _ = run(capsys, "search", "max-cdiv", "--n", "6", "--k", "2", "--c", "1.25")
    assert code == 1
    # exact mode refuses oversized universes cleanly
    code, _, err = run(
        capsys, "search", "max-cdiv", "--n", "10", "--k", "3", "--c", "5/4", "--exact"
    )
    assert code == 1
    assert "guard" in err
    # budgets and workers below 1 are input errors, not silent defaults
    base = ("search", "max-cdiv", "--n", "6", "--k", "2", "--c", "5/4")
    for extra in (("--heuristic", "--budget", "0"), ("--heuristic", "--budget", "-5"),
                  ("--exact", "--budget", "0"), ("--exact", "--workers", "0")):
        code, text, err = run(capsys, *base, *extra)
        assert code == 1, extra
        assert text == "" and err.count("\n") == 1, extra


def test_construct_bad_kernels_and_missing_args(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, err = run(
        capsys, "construct", "--family", "example-t", "--n", "10", "--k", "3",
        "--kernels", "[[4,5]", "--out", str(out),
    )
    assert code == 1
    code, _, err = run(
        capsys, "construct", "--family", "fi", "--n", "10", "--k", "3", "--out", str(out),
    )
    assert code == 1
    assert "needs --i" in err


def test_measure_empty_family(tmp_path, capsys):
    out = tmp_path / "empty.json"
    run(capsys, "construct", "--family", "lex", "--n", "6", "--k", "2", "--m", "0",
        "--out", str(out))
    code, text, _ = run(capsys, "measure", str(out))
    assert code == 0
    assert "|F| = 0" in text
    assert "rho" not in text  # undefined on the empty family


def test_search_json_report(capsys):
    code, text, _ = run(
        capsys, "search", "max-cdiv", "--n", "6", "--k", "2", "--c", "5/4",
        "--exact", "--json", "--witness",
    )
    assert code == 0
    data = json.loads(text)
    assert data["values"]["best"] == "1/2"
    assert data["values"]["exact"] is True
    assert data["witness_family"]["k"] == 2
    assert "nodes" in data and "elapsed_ms" in data


def test_search_truncated_exact_label(capsys):
    args = ("search", "max-cdiv", "--n", "7", "--k", "3", "--c", "5/4",
            "--exact", "--budget", "50")
    code, text, _ = run(capsys, *args)
    assert code == 0
    assert "[exact search, budget hit: lower bound]: 7/4" in text
    assert "[exact]" not in text
    code, text, _ = run(capsys, *args, "--json")
    assert json.loads(text)["values"]["exact"] is False
    code, text, _ = run(capsys, *args[:-2])
    assert "[exact]: 15/4" in text


def test_search_determinism_modulo_elapsed(capsys):
    args = ("search", "max-cdiv", "--n", "14", "--k", "3", "--c", "5/4",
            "--heuristic", "--budget", "2000", "--seed", "7", "--json")
    code1, text1, _ = run(capsys, *args)
    code2, text2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert stripped(text1) == stripped(text2)


def test_stability_cli(tmp_path, capsys):
    out = tmp_path / "tri.json"
    run(capsys, "construct", "--family", "triangle", "--n", "12", "--k", "3", "--out", str(out))
    code, text, _ = run(capsys, "stability", str(out), "--d", "36", "--json")
    assert code == 0
    data = json.loads(text)
    assert data["values"]["triple"] == [1, 2, 3]
    assert data["values"]["alpha"] == "0"
    assert data["values"]["scan_exhaustive"] is True


def test_lemma_cli(capsys):
    code, text, _ = run(capsys, "lemma", "fk", "--m", "5", "--l", "2", "--json")
    assert code == 0
    assert json.loads(text)["verdict"] == "pass"
    code, text, _ = run(
        capsys, "lemma", "hilton", "--n", "5", "--a", "2", "--b", "2",
        "--exhaustive", "--json",
    )
    assert code == 0
    data = json.loads(text)
    assert data["verdict"] == "pass"
    assert data["nodes"] > 5000


def test_sweep_cli(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(dump_json({
        "sweeps": [
            {"name": "chain12", "n_max": 20, "k_max": 4, "enum_n_max": 10},
            {"name": "prop28", "n_max": 30, "k_max": 4},
        ]
    }))
    csv_out = tmp_path / "rows.csv"
    code, text, _ = run(capsys, "sweep", str(config), "--out", str(csv_out), "--json")
    assert code == 0
    data = json.loads(text)
    assert data["verdict"] == "pass"
    assert data["values"]["fail"] == 0
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("check,n,k,params")
    code, _, _ = run(capsys, "sweep", str(tmp_path / "nope.json"))
    assert code == 1


@pytest.mark.parametrize(
    "config",
    [
        {"sweeps": [{"n_max": 10}]},
        {"sweeps": [{"name": "prop28", "n_mx": 10}]},
        {"sweeps": {"name": "prop28"}},
    ],
    ids=["missing-name", "unknown-key", "sweeps-not-a-list"],
)
def test_sweep_config_errors(tmp_path, capsys, config):
    path = tmp_path / "bad_sweep.json"
    path.write_text(json.dumps(config))
    code, text, err = run(capsys, "sweep", str(path))
    assert code == 1
    assert text == "" and err.count("\n") == 1 and err.startswith("divlab: error:")


def test_manifest(tmp_path, capsys):
    out = tmp_path / "tri.json"
    manifest = tmp_path / "run.json"
    run(capsys, "construct", "--family", "triangle", "--n", "10", "--k", "3", "--out", str(out))
    code, _, _ = run(capsys, "measure", str(out), "--c", "5/4", "--manifest", str(manifest))
    assert code == 0
    data = json.loads(manifest.read_text())
    assert data["version"]
    assert "family" in data["inputs"] and len(data["inputs"]["family"]) == 64
    assert data["summary"]["values"]["gamma_c"] == "7/2"
    # replaying the recorded argv reproduces the verdict values
    code, text, _ = run(capsys, *data["argv"][:-2], "--json")
    assert stripped(text)["values"]["gamma_c"] == "7/2"
