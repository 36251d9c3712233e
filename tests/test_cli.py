import json

import pytest

from divlab import __version__, cli, constructions
from divlab.formulas import BoundVerdict
from divlab.constructions import MAX_SETS, family_triangle, fano_families
from divlab.family import Family
from divlab.io import read_family, dump_json, write_family
from helpers import triangle_with_disjoint_pair


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
    assert "intersecting = True" in text
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


def test_construct_builds_only_the_fano_family_asked_for(tmp_path, capsys, monkeypatch):
    # at (12,5) F_L has 70 sets and F_L+ has 210: under a 150-set guard
    # fano-l is built, while fano-lplus and the pair are refused
    monkeypatch.setattr(constructions, "MAX_SETS", 150)
    out = tmp_path / "fl.json"
    code, _, _ = run(capsys, "construct", "--family", "fano-l", "--n", "12", "--k", "5",
                     "--out", str(out))
    assert code == 0 and len(read_family(out)) == 70
    code, _, err = run(capsys, "construct", "--family", "fano-lplus", "--n", "12", "--k", "5",
                       "--out", str(tmp_path / "flp.json"))
    assert code == 1 and err.startswith("divlab: error: guard") and "150-set guard" in err
    with pytest.raises(ValueError, match="150-set guard"):
        fano_families(12, 5)


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


def test_fw2_on_a_k0_family_is_no_violation(tmp_path, capsys):
    # the C = 1 row needs k >= 1: {emptyset} on [5] is no counterexample,
    # so the exit code is 0, not the violation code 2
    empty_set = tmp_path / "k0.json"
    empty_set.write_text('{"n": 5, "k": 0, "sets": [[]]}')
    code, text, _ = run(capsys, "verify", "--theorem", "fw2", "--family", str(empty_set), "--json")
    assert code == 0
    data = json.loads(text)
    assert data["verdict"] == "hypotheses-not-applicable"
    assert data["values"]["hypotheses_hold"] is False


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
    # so does heuristic mode, before it builds the C(n-1,k-1)-set star seed
    code, text, err = run(
        capsys, "search", "max-cdiv", "--n", "10000", "--k", "4", "--c", "5/4", "--heuristic"
    )
    assert code == 1
    assert text == "" and err.count("\n") == 1 and "guard" in err
    # and before it walks any cap, where every cap is closed: the star seed
    # of (10^6, 2) is above the element-bit guard, F_3 of (28, 21) above the set guard
    for n, k, c in (("1000000", "2", "2"), ("28", "21", "3")):
        code, text, err = run(capsys, "search", "max-cdiv", "--n", n, "--k", k, "--c", c,
                              "--heuristic")
        assert code == 1, n
        assert text == "" and err.count("\n") == 1 and err.startswith("divlab: error: guard"), n
    # budgets and workers below 1 are input errors, not silent defaults
    base = ("search", "max-cdiv", "--n", "6", "--k", "2", "--c", "5/4")
    for extra in (("--heuristic", "--budget", "0"), ("--heuristic", "--budget", "-5"),
                  ("--exact", "--budget", "0"), ("--exact", "--workers", "0")):
        code, text, err = run(capsys, *base, *extra)
        assert code == 1, extra
        assert text == "" and err.count("\n") == 1, extra
    # construct sizes a family before it enumerates one, and no guard
    # computes or prints a binomial of thousands of digits
    for extra in (("--family", "star", "--n", "200", "--k", "10"),
                  ("--family", "fi", "--n", "60", "--k", "30", "--i", "31"),
                  ("--family", "fi", "--n", "900000", "--k", "800000", "--i", "800000"),
                  ("--family", "fi", "--n", "1000000", "--k", "500000", "--i", "500001"),
                  ("--family", "star", "--n", "1000000", "--k", "500000"),
                  ("--family", "triangle", "--n", "1000000", "--k", "400000"),
                  ("--family", "star", "--n", "20000", "--k", "10000"),
                  ("--family", "lex", "--n", "1000000", "--k", "500000", "--m", "5")):
        code, text, err = run(capsys, "construct", *extra, "--out", str(tmp_path / "big.json"))
        assert code == 1, extra
        assert text == "" and err.count("\n") == 1 and err.startswith("divlab: error: guard"), extra
        assert not (tmp_path / "big.json").exists()
    # lemma hilton sizes its cross table, and exhaustive mode its pairs, first
    for extra in (("hilton", "--n", "40", "--a", "3", "--b", "3"),
                  ("hilton", "--n", "8", "--a", "2", "--b", "1", "--exhaustive"),
                  ("hilton", "--n", "20000", "--a", "10000", "--b", "10000"),
                  ("fk", "--m", "20000", "--l", "10000")):
        code, text, err = run(capsys, "lemma", *extra)
        assert code == 1, extra
        assert text == "" and err.count("\n") == 1 and err.startswith("divlab: error: guard"), extra
    # and refuses a trial count below 1 instead of passing after 0 pairs
    code, text, err = run(capsys, "lemma", "hilton", "--n", "6", "--a", "2", "--b", "2",
                          "--trials", "-3")
    assert code == 1
    assert text == "" and err == "divlab: error: trials must be >= 1, got -3\n"
    # k = 0 is refused in both modes with one line
    for mode in ("--heuristic", "--exact"):
        code, text, err = run(capsys, "search", "max-cdiv", "--n", "3", "--k", "0", "--c", "1", mode)
        assert code == 1, mode
        assert text == "" and err == "divlab: error: uniformity k=0 out of range for n=3\n", mode
    for mode in ("--heuristic", "--exact"):
        code, text, err = run(capsys, "search", "max-cdiv", "--n", "20000", "--k", "10000",
                              "--c", "1", mode)
        assert code == 1, mode
        assert text == "" and err.count("\n") == 1 and err.startswith("divlab: error: guard"), mode
    # a ground set above the guard is refused before anything n-sized is built
    huge = tmp_path / "huge.json"
    huge.write_text(dump_json({"n": MAX_SETS + 1, "k": 1, "sets": [[1]]}))
    for argv in (("measure", str(huge)),
                 ("construct", "--family", "star", "--n", str(MAX_SETS + 1), "--k", "1",
                  "--out", str(tmp_path / "star.json")),
                 ("construct", "--family", "fi", "--n", str(MAX_SETS + 1),
                  "--k", str(MAX_SETS + 1), "--i", str(MAX_SETS + 1),
                  "--out", str(tmp_path / "star.json")),
                 ("construct", "--family", "lex", "--n", str(MAX_SETS + 1),
                  "--k", str(MAX_SETS // 2), "--m", "1", "--out", str(tmp_path / "star.json")),
                 # inside the ground-set guard, above the element-bit guard
                 *(("construct", "--family", "star", "--n", str(MAX_SETS), "--k", str(k),
                    "--out", str(tmp_path / "star.json")) for k in (2, MAX_SETS))):
        code, text, err = run(capsys, *argv)
        assert code == 1, argv
        assert text == "" and err.count("\n") == 1 and err.startswith("divlab: error: guard"), argv
    assert not (tmp_path / "star.json").exists()
    # stability needs a triple of the ground set
    tiny = tmp_path / "tiny.json"
    write_family(Family.from_sets(2, 2, [(1, 2)]), tiny)
    code, text, err = run(capsys, "stability", str(tiny))
    assert code == 1
    assert text == "" and err.count("\n") == 1 and "n >= 3" in err
    # verify refuses a constant its theorem does not take, rather than drop it
    tri = tmp_path / "tri.json"
    write_family(family_triangle(10, 3), tri)
    for theorem, extra, word in (("fw2", ("--c", "3"), "constant C"),
                                 ("ekr", ("--c", "5/4"), "constant C"),
                                 ("ekr", ("--i", "3"), "index i"),
                                 ("main", ("--c", "5/4", "--i", "3"), "index i"),
                                 ("fw3", ("--i", "3"), "index i"),
                                 ("frankl", ("--i", "3", "--c", "2"), "constant C")):
        code, text, err = run(capsys, "verify", "--theorem", theorem, "--family", str(tri), *extra)
        assert code == 1, (theorem, extra)
        assert text == "" and err.count("\n") == 1, (theorem, extra)
        assert err.startswith(f"divlab: error: theorem {theorem} takes no {word}"), err


def test_json_nested_past_the_recursion_limit_is_refused(tmp_path, capsys):
    # each JSON reader ends in one error line, not a RecursionError traceback
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    out = tmp_path / "x.json"
    for argv, prefix in (
        (("measure", str(path)), f"{path}: not valid JSON ("),
        (("sweep", str(path)), "cannot read sweep config: "),
        (("construct", "--family", "example-t", "--n", "10", "--k", "4",
          "--kernels", deep, "--out", str(out)), "--kernels is not JSON: "),
    ):
        code, text, err = run(capsys, *argv)
        assert (code, text) == (1, ""), argv[0]
        assert err.startswith(f"divlab: error: {prefix}") and err.count("\n") == 1, err[:200]
    assert not out.exists()


def test_construct_bad_kernels_and_missing_args(tmp_path, capsys):
    out = tmp_path / "x.json"
    # text that is not JSON, and a kernel that repeats an element, are refused
    # as such, in one line that names --kernels
    for kernels, message in (
        ("[[4,5]", "--kernels is not JSON: Expecting ',' delimiter: line 1 column 7 (char 6)"),
        ("not json", "--kernels is not JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[[4,5],[4,5],[4,4]]", "--kernels: kernel [4, 4] repeats an element"),
        ("[[4,5,4],[4,5],[4,6]]", "--kernels: kernel [4, 5, 4] repeats an element"),
    ):
        code, text, err = run(
            capsys, "construct", "--family", "example-t", "--n", "10", "--k", "4",
            "--kernels", kernels, "--out", str(out),
        )
        assert (code, text, err) == (1, "", f"divlab: error: {message}\n"), kernels
    assert not out.exists()
    for third in ("5", "null", "[[5]]"):
        code, text, err = run(
            capsys, "construct", "--family", "example-t", "--n", "12", "--k", "3",
            "--kernels", f"[[4,5],[4,6],{third}]", "--out", str(out),
        )
        assert code == 1, third
        assert text == "" and err.count("\n") == 1 and err.startswith("divlab: error:"), third
    code, _, err = run(
        capsys, "construct", "--family", "fi", "--n", "10", "--k", "3", "--out", str(out),
    )
    assert code == 1
    assert "needs --i" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "{dir}"],
        ["construct", "--family", "star", "--n", "8", "--k", "3", "--out", "{dir}"],
        ["measure", "{fam}", "--manifest", "{dir}"],
        ["sweep", "{cfg}", "--out", "{dir}"],
    ],
    ids=["measure-input", "construct-out", "manifest", "sweep-out"],
)
def test_directory_paths_are_input_errors(tmp_path, capsys, argv):
    fam = tmp_path / "tri.json"
    write_family(family_triangle(8, 3), fam)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweeps": [{"name": "prop28", "n_max": 8, "k_max": 3}]}))
    paths = {"{dir}": str(tmp_path), "{fam}": str(fam), "{cfg}": str(cfg)}
    code, _, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("divlab: error:")


def test_manifest_failure_prints_no_report(tmp_path, capsys):
    fam = tmp_path / "tri.json"
    write_family(family_triangle(8, 3), fam)
    for fmt in ((), ("--json",)):
        code, text, err = run(capsys, "measure", str(fam), *fmt, "--manifest", str(tmp_path))
        assert code == 1
        assert text == ""
        assert err.count("\n") == 1 and err.startswith("divlab: error:")


def test_measure_empty_family(tmp_path, capsys):
    out = tmp_path / "empty.json"
    run(capsys, "construct", "--family", "lex", "--n", "6", "--k", "2", "--m", "0",
        "--out", str(out))
    code, text, _ = run(capsys, "measure", str(out))
    assert code == 0
    assert "|F| = 0" in text
    assert "rho" not in text  # undefined on the empty family
    # no element attains the maximum degree 0 of the empty family
    assert "Delta = 0\n" in text and "at element" not in text
    code, text, _ = run(capsys, "measure", str(out), "--json")
    assert json.loads(text)["values"]["delta_witness"] is None
    code, text, _ = run(capsys, "construct", "--family", "lex", "--n", "6", "--k", "2",
                        "--m", "0", "--out", str(out), "--json")
    assert code == 0 and json.loads(text)["values"]["witness"] is None


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
    assert "[exact search, budget hit: lower bound]: 13/4" in text
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
    stats = stripped(text1)["stats"]
    assert sum(stats["tried"].values()) == stripped(text1)["nodes"] == 2000


def _exact_stats_line(nodes, stats):
    caps = ", ".join(
        f"{r['cap']} ({r['floor']}) {'none' if r['size'] is None else r['size']}/{r['nodes']}"
        for r in stats["caps"]
    )
    return (
        f"{nodes} nodes in {len(stats['caps'])} cap searches [cap (floor) size/nodes]: {caps}; "
        f"skipped caps: {', '.join(map(str, stats['skipped'])) or 'none'}; "
        f"truncated caps: {', '.join(map(str, stats['truncated'])) or 'none'}"
    )


def test_search_exact_stats(capsys):
    args = ("search", "max-cdiv", "--n", "7", "--k", "3", "--c", "5/4", "--exact")
    code, text, _ = run(capsys, *args, "--json")
    assert code == 0
    data = stripped(text)
    assert stripped(run(capsys, *args, "--json")[1]) == data
    assert data["values"]["best"] == "15/4" and data["values"]["exact"] is True
    stats = data["stats"]
    assert "timing" not in data and set(stats) == {"caps", "skipped", "truncated"}
    assert stats["skipped"] and stats["truncated"] == []
    assert sum(r["nodes"] for r in stats["caps"]) == data["nodes"]
    # the human line shows every searched, skipped and truncated cap
    code, text, _ = run(capsys, *args)
    assert text.splitlines()[2] == _exact_stats_line(data["nodes"], stats)
    code, text, _ = run(capsys, *args, "--budget", "50", "--json")
    starved = stripped(text)
    assert starved["values"]["exact"] is False and starved["stats"]["truncated"]
    code, text, _ = run(capsys, *args, "--budget", "50")
    assert text.splitlines()[2] == _exact_stats_line(starved["nodes"], starved["stats"])


def test_search_exact_refuses_negative_c(capsys):
    code, text, err = run(capsys, "search", "max-cdiv", "--n", "4", "--k", "2", "--c", "-1", "--exact")
    assert code == 1 and text == ""
    assert err.count("\n") == 1 and "C >= 0" in err


def test_negative_fraction_is_a_number(capsys):
    base = ("search", "max-cdiv", "--n", "5", "--k", "2", "--c", "-1/2")
    code, text, err = run(capsys, *base, "--heuristic", "--budget", "10")
    assert code == 0 and err == ""
    assert "C=-1/2" in text
    code, text, err = run(capsys, *base, "--exact")
    assert code == 1 and text == ""
    assert err == "divlab: error: exact search needs C >= 0, got -1/2\n"


def test_stability_cli(tmp_path, capsys):
    out = tmp_path / "tri.json"
    run(capsys, "construct", "--family", "triangle", "--n", "12", "--k", "3", "--out", str(out))
    code, text, _ = run(capsys, "stability", str(out), "--d", "36", "--json")
    assert code == 0
    data = json.loads(text)
    assert data["values"]["triple"] == [1, 2, 3]
    assert data["values"]["alpha"] == "0"


def test_stability_cli_non_intersecting(tmp_path, capsys):
    out = tmp_path / "swapped.json"
    write_family(triangle_with_disjoint_pair(110), out)
    code, text, _ = run(capsys, "stability", str(out), "--json")
    assert code == 0
    data = json.loads(text)
    assert data["verdict"] == "pass"
    assert data["values"]["hypotheses_hold"] is False
    assert data["values"]["outside"] == 2
    code, text, _ = run(capsys, "stability", str(out))
    assert code == 0
    assert "scanned 215820 triples; lemma 4.1: empty ok=False, singles ok=True" in text


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
    assert header == "check,n,k,params,quantity,formula,measured,status,note"
    code, _, _ = run(capsys, "sweep", str(tmp_path / "nope.json"))
    assert code == 1


@pytest.mark.parametrize(
    "config, named",
    [
        ({"sweeps": [{"n_max": 10}]}, "sweeps"),
        ({"sweeps": [{"name": "prop28", "n_mx": 10}]}, "n_mx"),
        ({"sweeps": {"name": "prop28"}}, "sweeps"),
        ({"sweeps": [{"name": "chain12", "n_max": "x"}]}, "n_max"),
        ({"sweeps": [{"name": "chain12", "n_max": True}]}, "n_max"),
        ({"sweeps": [{"name": "stability-rhs", "d_values": [36, "40"]}]}, "d_values"),
        ({"sweeps": [{"name": "prop28", "n_max": 10**8}]}, "guard: sweep 'prop28'"),
        ({"sweeps": [{"name": "formula-matrix", "n_max": 60, "k_max": 30}]},
         "guard: sweep 'formula-matrix'"),
        ({"sweeps": [{"name": "chain12", "n_max": 10**7}]}, "guard: sweep 'chain12'"),
        ({"sweeps": [{"name": "example-t-gamma", "n_max": 10**6}]},
         "guard: sweep 'example-t-gamma'"),
        ({"sweeps": [{"name": "stability-rhs", "n": 10**9, "k": 10**6}]},
         "guard: sweep 'stability-rhs'"),
        ({"sweeps": [{"name": "stability-rhs", "d_values": [36, -5]}]}, "d >= 0"),
    ],
    ids=["missing-name", "unknown-key", "sweeps-not-a-list", "bad-type", "bool-for-int",
         "bad-item-type", "prop28-grid", "formula-matrix-grid", "chain12-grid",
         "example-t-gamma-grid", "stability-rhs-binomials", "negative-d"],
)
def test_sweep_config_errors(tmp_path, capsys, config, named):
    path = tmp_path / "bad_sweep.json"
    path.write_text(json.dumps(config))
    code, text, err = run(capsys, "sweep", str(path))
    assert code == 1
    assert text == "" and err.count("\n") == 1 and err.startswith("divlab: error:")
    assert named in err


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
    assert data["seed"] is None and data["workers"] is None
    # seed and workers are recorded from the arguments of the subcommands that take them
    run(capsys, "search", "max-cdiv", "--n", "14", "--k", "3", "--c", "5/4", "--heuristic",
        "--budget", "200", "--seed", "7", "--workers", "2", "--manifest", str(manifest))
    data = json.loads(manifest.read_text())
    assert (data["seed"], data["workers"], data["inputs"]) == (7, 2, {})
    run(capsys, "lemma", "hilton", "--n", "5", "--a", "2", "--b", "2", "--seed", "3",
        "--manifest", str(manifest))
    data = json.loads(manifest.read_text())
    assert (data["seed"], data["workers"]) == (3, None)
    run(capsys, "construct", "--family", "triangle", "--n", "10", "--k", "3", "--out", str(out),
        "--manifest", str(manifest))
    data = json.loads(manifest.read_text())
    assert (data["seed"], data["workers"], data["inputs"]) == (None, None, {})
    assert data["summary"]["verdict"] == "constructed"


SEARCH_VALUES = ["n", "k", "c", "mode", "best", "exact", "bound", "bound_kind",
                 "bound_hypotheses_hold", "degree_cap_used", "best_size"]


@pytest.mark.parametrize(
    "argv, top, values",
    [
        (["construct", "--family", "triangle", "--n", "10", "--k", "3", "--out", "{out}"],
         ["verdict", "values"], ["family", "n", "k", "size", "delta", "witness", "out"]),
        (["measure", "{fam}"], ["verdict", "values"],
         ["n", "k", "size", "delta", "delta_witness", "gamma", "intersecting", "rho"]),
        (["measure", "{fam}", "--c", "5/4"], ["verdict", "values"],
         ["n", "k", "size", "delta", "delta_witness", "gamma", "intersecting", "rho",
          "c", "gamma_c"]),
        (["verify", "--theorem", "ekr", "--family", "{fam}"], ["verdict", "values"],
         ["name", "hypotheses_hold", "lhs", "rhs", "direction", "satisfied", "tight", "note"]),
        (["search", "max-cdiv", "--n", "6", "--k", "2", "--c", "5/4", "--exact"],
         ["verdict", "values", "nodes", "stats"], SEARCH_VALUES),
        (["search", "max-cdiv", "--n", "14", "--k", "3", "--c", "5/4", "--heuristic",
          "--budget", "200", "--witness"],
         ["verdict", "values", "nodes", "stats", "witness_family"], SEARCH_VALUES),
        (["stability", "{fam}"], ["verdict", "values", "nodes"],
         ["alpha", "d", "triple", "outside", "missing", "bound_outside", "bound_missing",
          "pass_14", "pass_15", "hypotheses_hold", "lemma41_empty_ok", "lemma41_singles_ok"]),
        (["lemma", "fk", "--m", "4", "--l", "2"], ["verdict", "values", "nodes"],
         ["m", "l", "threshold", "cap", "method"]),
        (["lemma", "hilton", "--n", "5", "--a", "2", "--b", "2"], ["verdict", "values", "nodes"],
         ["n", "a", "b", "exhaustive", "shifts_checked"]),
        (["sweep", "{cfg}"], ["verdict", "values", "nodes"], ["pass", "flagged", "fail"]),
    ],
    ids=["construct", "measure", "measure-c", "verify", "search-exact",
         "search-heuristic-witness", "stability", "lemma-fk", "lemma-hilton", "sweep"],
)
def test_json_key_order(tmp_path, capsys, argv, top, values):
    fam = tmp_path / "tri.json"
    write_family(family_triangle(10, 3), fam)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"sweeps": [{"name": "prop28", "n_max": 12, "k_max": 3}]}))
    paths = {"{fam}": str(fam), "{cfg}": str(cfg), "{out}": str(tmp_path / "out.json")}
    code, text, _ = run(capsys, *(paths.get(a, a) for a in argv), "--json")
    assert code == 0
    data = json.loads(text)
    assert list(data) == [*top, "elapsed_ms"]
    assert list(data["values"]) == values


def test_version_and_help(capsys):
    assert run(capsys, "--version") == (0, f"divlab {__version__}\n", "")
    for argv in (["--help"], ["search", "max-cdiv", "--help"], ["lemma", "fk", "--help"]):
        code, text, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        assert text.startswith(f"usage: divlab {' '.join(argv[:-1])}".rstrip()), argv


def test_usage_error_leaves_later_runs_alone(capsys):
    argv = ("search", "max-cdiv", "--n", "6", "--k", "2", "--c", "5/4", "--heuristic",
            "--budget", "50")
    cli.build_parser.cache_clear()
    alone = run(capsys, *argv)
    assert alone[0] == 0
    for bad in (("search", "max-cdiv", "--n", "6", "--k", "2", "--c", "5/4", "--exact",
                 "--heuristic"),
                ("verify", "--theorem", "nope", "--family", "x.json"),
                ("measure",)):
        code, text, err = run(capsys, *bad)
        assert code == 1 and text == "" and err.startswith("usage: divlab"), bad
        assert run(capsys, *argv) == alone, bad


PARSER_BATTERY = [
    ["construct", "--family", "star", "--n", "8", "--k", "3", "--out", "s.json"],
    ["construct", "--family", "star", "--n", "8", "--k", "3", "--center", "2", "--out", "s.json"],
    ["construct", "--family", "uvw", "--n", "9", "--k", "3", "--t", "2,4,7", "--out", "u.json",
     "--json", "--manifest", "m.json"],
    ["construct", "--family", "example-t", "--n", "12", "--k", "3",
     "--kernels", "[[4,5],[4,6],[5,6]]", "--out", "e.json"],
    ["construct", "--family", "nope", "--n", "8", "--k", "3", "--out", "s.json"],
    ["construct", "--family", "star", "--n", "8", "--out", "s.json"],
    ["measure", "f.json"],
    ["measure", "f.json", "--c", "5/4", "--json"],
    ["verify", "--theorem", "main", "--c", "5/4", "--family", "f.json"],
    ["verify", "--theorem", "frankl", "--i", "3", "--family", "f.json"],
    ["verify", "--theorem", "nope", "--family", "f.json"],
    ["verify", "--family", "f.json"],
    ["search", "max-cdiv", "--n", "7", "--k", "3", "--c", "5/4"],
    ["search", "max-cdiv", "--n", "7", "--k", "3", "--c", "5/4", "--exact", "--budget", "50"],
    ["search", "max-cdiv", "--n", "7", "--k", "3", "--c", "-1/2", "--heuristic", "--seed", "3",
     "--workers", "2", "--witness"],
    ["search", "max-cdiv", "--n", "7", "--k", "3", "--c", "5/4", "--exact", "--heuristic"],
    ["search", "max-cdiv", "--n", "7", "--k", "3"],
    ["search"],
    ["stability", "f.json"],
    ["stability", "f.json", "--d", "40"],
    ["lemma", "fk", "--m", "5", "--l", "2"],
    ["lemma", "fk", "--m", "5", "--l", "2", "--method", "pruned"],
    ["lemma", "fk", "--m", "5", "--l", "2", "--method", "nope"],
    ["lemma", "hilton", "--n", "5", "--a", "2", "--b", "2"],
    ["lemma", "hilton", "--n", "5", "--a", "2", "--b", "2", "--exhaustive", "--trials", "9",
     "--seed", "4"],
    ["sweep", "cfg.json"],
    ["sweep", "cfg.json", "--out", "rows.csv", "--json"],
    [],
]


def _parsed(parser, argv, capsys):
    try:
        result = ("parsed", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr()
    return (*result, out.out, out.err)


def test_shared_parser_parses_like_a_fresh_one(capsys):
    fresh = [_parsed(cli.build_parser.__wrapped__(), argv, capsys) for argv in PARSER_BATTERY]
    shared = cli.build_parser()
    assert cli.build_parser() is shared
    for order in (PARSER_BATTERY, PARSER_BATTERY[::-1]):
        got = {tuple(argv): _parsed(shared, argv, capsys) for argv in order}
        assert [got[tuple(argv)] for argv in PARSER_BATTERY] == fresh
    assert sum(result[0] == "exit" for result in fresh) == 9
