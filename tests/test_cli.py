"""End-to-end CLI behaviour including exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from nulab import cli, exact, families, gio
from nulab.exact import ColorClasses
from nulab.graph import MultiGraph
from nulab.profiling import compute_profile


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    lines = [json.loads(l) for l in out.out.splitlines() if l.strip().startswith("{")]
    return code, lines, out


def _write_graphs(path, graphs):
    path.write_text("".join(gio.emit_sparse6(g) + "\n" for g in graphs))
    return str(path)


def test_gen_fig1(capsys):
    code = cli.main(["gen", "fig1"])
    out = capsys.readouterr().out.strip()
    assert code == cli.EXIT_OK
    g = gio.parse_sparse6(out)
    assert (g.n, g.m) == (6, 9)


def test_gen_to_file(tmp_path):
    target = tmp_path / "out.s6"
    code = cli.main(["gen", "petersen", "--out", str(target)])
    assert code == cli.EXIT_OK
    g = gio.parse_sparse6(target.read_text().strip())
    assert (g.n, g.m) == (10, 15)


def test_gen_bad_parameter(capsys):
    assert cli.main(["gen", "ring", "--r", "1"]) == cli.EXIT_USAGE
    assert "ring" in capsys.readouterr().err
    assert cli.main(["gen", "no-such-family"]) == cli.EXIT_USAGE
    assert cli.main(["gen", "remark", "--k", "3"]) == cli.EXIT_USAGE


def test_gen_remark_params(capsys):
    code = cli.main(["gen", "remark", "--k", "3", "--l", "5"])
    out = capsys.readouterr().out.strip()
    assert code == cli.EXIT_OK
    g = gio.parse_sparse6(out)
    assert (g.n, g.m) == (15, 15)


def test_solve_single_k(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.petersen()])
    code, recs, _ = _run(capsys, ["solve", path, "--k", "2"])
    assert code == cli.EXIT_OK
    assert recs[0]["nu"] == "9"
    assert recs[0]["k"] == "2"


def test_solve_all_k(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.petersen()])
    code, recs, _ = _run(capsys, ["solve", path, "--all-k", "1..4"])
    assert code == cli.EXIT_OK
    rec = recs[0]
    assert (rec["nu1"], rec["nu2"], rec["nu3"], rec["nu4"]) == ("5", "9", "13", "15")


def test_solve_certificate(tmp_path, capsys):
    g = families.fig1_graph()
    path = _write_graphs(tmp_path / "g.s6", [g])
    code, recs, _ = _run(capsys, ["solve", path, "--k", "3", "--certificate"])
    assert code == cli.EXIT_OK
    cert = {int(e): int(c) for e, c in recs[0]["certificate"].items()}
    assert len(cert) == 7
    assert ColorClasses(3, cert).is_proper(g)


def test_solve_reports_malformed_lines(tmp_path, capsys):
    path = tmp_path / "g.s6"
    path.write_text("not-a-graph6-line{}\n")
    code, recs, _ = _run(capsys, ["solve", str(path), "--k", "2"])
    assert code == cli.EXIT_OK
    assert "error" in recs[0]


def test_oracle_command(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.fig1_graph()])
    code, recs, _ = _run(capsys, ["oracle", path, "--k", "2"])
    assert code == cli.EXIT_OK
    assert recs[0]["nu"] == "5"


def test_oracle_too_large(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.petersen()])
    code, recs, _ = _run(capsys, ["oracle", path, "--k", "2"])
    assert code == cli.EXIT_OK
    assert "error" in recs[0]


def test_profile_command(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.petersen()])
    code, recs, _ = _run(capsys, ["profile", path])
    assert code == cli.EXIT_OK
    prof = recs[0]["profile"]
    assert prof["nu3"] == "13"
    assert prof["r3"] == "2"
    assert prof["oG"] == "2"
    assert prof["flags"]["cubic"] is True


def test_verify_clean(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.petersen(), families.k4()])
    code, recs, _ = _run(capsys, ["verify", path])
    assert code == cli.EXIT_OK
    assert len(recs) == 2
    for rec in recs:
        for rep in rec["rule_reports"]:
            assert not rep["applicable"] or rep["holds"]


def test_verify_rule_selection(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.petersen()])
    code, recs, _ = _run(capsys, ["verify", path, "--rules", "NO-R1,P2.6.1"])
    assert code == cli.EXIT_OK
    assert {r["rule_id"] for r in recs[0]["rule_reports"]} == {"NO-R1", "P2.6.1"}


def test_verify_corrupted_profile_exits_3(tmp_path, capsys):
    # profile a real graph, then corrupt nu2 downward: theorem-kind rules break
    path = _write_graphs(tmp_path / "g.s6", [families.petersen()])
    _, recs, _ = _run(capsys, ["profile", path])
    prof = recs[0]["profile"]
    prof["nu2"] = str(int(prof["nu2"]) - 1)
    pfile = tmp_path / "profiles.jsonl"
    pfile.write_text(json.dumps({"profile": prof}) + "\n")
    code, _, _ = _run(capsys, ["verify", str(pfile), "--profiles"])
    assert code == cli.EXIT_THEOREM


def test_verify_conjecture_violation_exits_2(tmp_path, capsys):
    # a synthetic bipartite profile violating only the averaged conjecture
    profile = {
        "n": "9",
        "m": "8",
        "nu1": "4",
        "nu2": "5",
        "nu3": "7",
        "flags": {
            "connected": True,
            "cubic": False,
            "bridgeless": False,
            "max_degree": 3,
            "cycle_rank": 0,
            "is_tree": False,
            "is_unicyclic": False,
            "claw_free": False,
            "bipartite": True,
            "nearly_bipartite": False,
            "has_perfect_matching": False,
        },
    }
    pfile = tmp_path / "profiles.jsonl"
    pfile.write_text(json.dumps({"profile": profile}) + "\n")
    code, recs, _ = _run(capsys, ["verify", str(pfile), "--profiles"])
    assert code == cli.EXIT_CONJECTURE
    failing = [
        r
        for r in recs[0]["rule_reports"]
        if r["applicable"] and r["holds"] is False
    ]
    assert {r["rule_id"] for r in failing} == {"C1.2"}


def test_hunt_clean_exit_0(tmp_path, capsys):
    graphs = [families.cycle(6), families.path(6), families.k4()]
    path = _write_graphs(tmp_path / "g.s6", graphs)
    code, recs, _ = _run(capsys, ["hunt", path, "--rule", "C1.2"])
    assert code == cli.EXIT_OK
    header = recs[0]
    assert header["header"] is True
    assert "desk-scale" in header["note"]
    assert header["rules"] == ["C1.2"]


def test_hunt_writes_an_error_for_a_rule_it_cannot_evaluate(tmp_path, capsys):
    """Under --all-k 3..3 no profile has the nu_2 that hunted rules need:
    each graph gets an error record, as under verify, and the exit is 0."""
    path = _write_graphs(tmp_path / "g.s6", [families.petersen(), families.k4()])
    code, recs, _ = _run(capsys, ["hunt", path, "--all-k", "3..3"])
    assert code == cli.EXIT_OK
    assert recs[0]["header"] is True
    assert recs[1:] == [{"line": str(i), "error": "nu[2]"} for i in (1, 2)]


def test_hunt_rejects_theorem_rule(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.k4()])
    code = cli.main(["hunt", str(path), "--rule", "T2.2.1"])
    capsys.readouterr()
    assert code == cli.EXIT_USAGE


def test_decompose_command(tmp_path, capsys):
    tri = families.triangle_replace(families.petersen())
    path = _write_graphs(tmp_path / "g.s6", [tri, families.petersen()])
    code, recs, _ = _run(capsys, ["decompose", path, "--r3"])
    assert code == cli.EXIT_OK
    assert recs[0]["variant"] == "Reduced"
    assert recs[0]["base_n"] == "10"
    assert recs[0]["r3"] == "2"
    assert "error" in recs[1]  # Petersen has claws


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--k", "0"],
        ["solve", "--all-k", "1-4"],
        ["profile", "--all-k", "0..2"],
        ["verify", "--all-k", "3..1"],
        ["verify", "--rules", "T2.2.1,T2.2.l"],
        ["solve", "--all-k", "1..3", "--certificate"],
        ["oracle", "--max-edges", "-1"],
        ["solve", "--all-k", "1..1000"],
        ["profile", "--all-k", "1..65"],
    ],
)
def test_bad_parameters_exit_1(tmp_path, capsys, argv):
    path = _write_graphs(tmp_path / "g.s6", [families.k4()])
    assert cli.main([argv[0], path, *argv[1:]]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(argv[0] + ": ")


def test_all_k_takes_up_to_64_values():
    assert cli._parse_all_k("1..64") == list(range(1, 65))
    assert cli._parse_all_k("3..66") == list(range(3, 67))


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_bad_k_on_empty_input_exits_1(tmp_path, capsys, command):
    """--k is checked before any input is read, not per graph."""
    path = tmp_path / "empty.s6"
    path.write_text("")
    assert cli.main([command, str(path), "--k", "0"]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(command + ": ")


def test_gen_cubic_beyond_cap_exits_1(capsys):
    assert cli.main(["gen", "cubic", "--max-n", "16"]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert "14" in out.err


@pytest.mark.parametrize("max_n", ["3", "-2"])
def test_gen_cubic_below_four_exits_1(capsys, max_n):
    assert cli.main(["gen", "cubic", "--max-n", max_n]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("gen: ")
    assert "4" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["random-trees", "--max-n", "1"], id="random-trees"),
        pytest.param(["random-unicyclic", "--max-n", "1"], id="random-unicyclic"),
        pytest.param(["random-trees", "--count", "-1"], id="random-trees-count"),
        pytest.param(["random-unicyclic", "--count", "-1"], id="random-unicyclic-count"),
    ],
)
def test_gen_random_below_two_vertices_exits_1(capsys, argv):
    assert cli.main(["gen", *argv]) == cli.EXIT_USAGE
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("gen: ")


def test_verify_reports_bad_lines(tmp_path, capsys):
    path = tmp_path / "g.s6"
    path.write_text(gio.emit_sparse6(families.k4()) + "\nnot-a-graph6-line{}\n")
    code, recs, _ = _run(capsys, ["verify", str(path)])
    assert code == cli.EXIT_OK
    assert [r["line"] for r in recs] == ["1", "2"]
    assert "rule_reports" in recs[0]
    assert "error" in recs[1]


def test_verify_profiles_reports_bad_json(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.k4()])
    _, recs, _ = _run(capsys, ["profile", path])
    pfile = tmp_path / "profiles.jsonl"
    cubic_without_nu2 = {k: v for k, v in recs[0]["profile"].items() if k != "nu2"}
    flags = recs[0]["profile"]["flags"]
    pfile.write_text(
        "{not json\n"
        + json.dumps(recs[0]) + "\n"
        + "[1, 2]\n"
        + json.dumps({"profile": cubic_without_nu2}) + "\n"
        + '{"n": 1e999, "m": 3}\n'
        + '{"n": 2.7, "m": 3, "nu2": true, "nu3": "3"}\n'
        + json.dumps({**recs[0]["profile"], "nu2": True}) + "\n"
        # string flags are not booleans: read as true, they would make
        # this a bridgeless cubic profile that fails theorem rules
        + json.dumps(
            {
                **recs[0]["profile"],
                "nu2": 3,
                "flags": {**flags, "cubic": "false", "bridgeless": "no"},
            }
        )
        + "\n"
    )
    code, recs, _ = _run(capsys, ["verify", str(pfile), "--profiles"])
    assert code == cli.EXIT_OK
    assert [r["line"] for r in recs] == ["1", "2", "3", "4", "5", "6", "7", "8"]
    assert ["error" in r for r in recs] == [True, False] + [True] * 6
    assert all(r["error"].startswith("bad profile") for r in recs[4:])


def test_verify_records_are_pinned(tmp_path, capsys):
    """verify's records for K4, a tree with a perfect matching and a
    unicyclic graph, byte for byte: int sides and the alpha rules'
    fractions as exact strings, None fields left out."""
    path = tmp_path / "g.s6"
    path.write_text(":CcKI\n:EaXmn\n:Fa@axv\n")
    assert cli.main(["verify", "--all-k", "1..5", str(path)]) == cli.EXIT_OK
    want = Path(__file__).parent / "data" / "verify_k4_tree_unicyclic.jsonl"
    assert capsys.readouterr().out == want.read_text()


def test_profile_record_format_and_line(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text("C~\n" + gio.emit_sparse6(families.k4()) + "\n")
    code, recs, _ = _run(capsys, ["profile", str(path)])
    assert code == cli.EXIT_OK
    assert [(r["line"], r["format"]) for r in recs] == [
        ("1", "graph6"),
        ("2", "sparse6"),
    ]
    assert recs[0]["profile"]["nu3"] == "6"


def test_runtime_ms_is_an_exact_string(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.k4()])
    for argv in (["solve", path], ["profile", path], ["oracle", path]):
        _, recs, _ = _run(capsys, argv)
        assert recs[0]["runtime_ms"].isdigit()


def test_runtime_us_is_an_exact_string_consistent_with_ms(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.k4(), families.fig5_graph28()])
    for argv in (["solve", path], ["profile", path], ["oracle", path]):
        _, recs, _ = _run(capsys, argv)
        for rec in recs:
            if "error" in rec:  # the oracle refuses fig5
                continue
            assert rec["runtime_us"].isdigit()
            assert int(rec["runtime_ms"]) == int(rec["runtime_us"]) // 1000


def test_solve_long_path(tmp_path, capsys):
    path = _write_graphs(tmp_path / "g.s6", [families.path(1201)])
    code, recs, out = _run(capsys, ["solve", path, "--k", "3"])
    assert code == cli.EXIT_OK
    assert len(recs) == 1
    assert recs[0]["nu"] == "1200"
    assert "Traceback" not in out.err


def test_search_too_deep_yields_error_records(tmp_path, capsys, monkeypatch):
    # leave stack room for searches of fewer than 10 edges only
    monkeypatch.setattr(exact, "_STACK_RESERVE", sys.getrecursionlimit() - 10)
    path = _write_graphs(tmp_path / "g.s6", [families.petersen(), families.k4()])
    all_k = ["solve", path, "--all-k", "1..4"]
    for argv in (["solve", path], all_k, ["profile", path]):
        code, recs, _ = _run(capsys, argv)
        assert code == cli.EXIT_OK
        assert [r["line"] for r in recs] == ["1", "2"]
        assert "error" in recs[0]
        assert "error" not in recs[1]
    code, recs, _ = _run(capsys, ["verify", path])
    assert code == cli.EXIT_OK
    assert "error" in recs[0] and "rule_reports" in recs[1]


def test_solve_all_k_matches_nu_k(tmp_path, capsys):
    theta = MultiGraph(2, [(0, 1)] * 3)
    graphs = [families.petersen(), families.sylvester10(), families.k4(), theta]
    path = _write_graphs(tmp_path / "g.s6", graphs)
    code, recs, _ = _run(capsys, ["solve", path, "--all-k", "1..5"])
    assert code == cli.EXIT_OK
    assert len(recs) == len(graphs)
    for g, rec in zip(graphs, recs):
        for k in range(1, 6):
            assert rec[f"nu{k}"] == str(exact.nu_k(g, k).value)


def test_hunt_budget_counts_graphs(tmp_path, capsys, monkeypatch):
    profiled = []

    def counting_profile(g, ks):
        profiled.append(g)
        return compute_profile(g, ks=ks)

    monkeypatch.setattr(cli, "compute_profile", counting_profile)
    graphs = [families.cycle(6), families.k4(), families.path(5)]
    path = tmp_path / "g.s6"
    lines = [gio.emit_sparse6(g) for g in graphs]
    path.write_text("\n".join([lines[0], "", "not-a-graph6-line{}", *lines[1:]]) + "\n")
    code, recs, _ = _run(capsys, ["hunt", str(path), "--budget", "2"])
    assert code == cli.EXIT_OK
    assert [(g.n, g.m) for g in profiled] == [(6, 6), (4, 6)]  # cycle(6), k4
    assert [r.get("line") for r in recs if "error" in r] == ["3"]
    assert cli.main(["hunt", str(path), "--budget", "-1"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("hunt: ")


def test_gen_cubic_census(capsys):
    assert cli.main(["gen", "cubic", "--max-n", "12"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 112
    by_n = {}
    for line in lines:
        g = gio.parse_sparse6(line)
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}


def test_runtime_imports_leave_networkx_out():
    """networkx is a test dependency: importing the package, the CLI and
    the corpus generators does not load it."""
    probe = (
        "import sys, nulab, nulab.cli, nulab.corpus; print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
