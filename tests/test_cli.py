import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fracfactor import (
    complete_multipartite_graph,
    constructions,
    criticality,
    format_edge_list,
    parse_edge_list,
    sweep,
)
from fracfactor import cli
from fracfactor.cli import main

from standard_graphs import complete_graph, cycle_graph, path_graph


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        path = tmp_path / name
        path.write_text(format_edge_list(g))
        return str(path)

    return write


def test_check_factor_feasible_text(graph_file, capsys):
    path = graph_file("c4.txt", cycle_graph(4))
    assert main(["check-factor", path, "-a", "1", "-b", "1"]) == 0
    out = capsys.readouterr().out
    assert "feasible: yes" in out


def test_check_factor_decides_the_empty_graph_at_any_a(tmp_path):
    # The empty graph has the empty factor at any a, and the search takes min(a, n) = 0
    # rounds. A subprocess, so that a hang fails the test instead of stalling the suite.
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    big = str(10**12)
    done = subprocess.run(
        [sys.executable, "-m", "fracfactor.cli", "check-factor", str(path), "-a", big, "-b", big],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (done.returncode, done.stdout.splitlines()[-1]) == (0, "feasible: yes")


def test_check_factor_witness_json(graph_file, capsys):
    path = graph_file("k2.txt", complete_graph(2))
    assert main(["--format", "json", "check-factor", path, "-a", "1", "-b", "1", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["witness"] == [[0, 1, "1/1"]]


def witness_lines(path, capsys):
    assert main(["check-factor", path, "-a", "1", "-b", "1", "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    return out[out.index("witness:") + 1 :]


def test_check_factor_witness_text_is_in_lowest_terms(graph_file, capsys):
    path = graph_file("p4.txt", path_graph(4))
    assert witness_lines(path, capsys) == ["0 1 1/1", "1 2 0/1", "2 3 1/1"]


def test_check_factor_witness_text_matches_the_json_witness(graph_file, capsys):
    path = graph_file("k3.txt", complete_graph(3))  # (1,1) on a triangle needs halves
    lines = witness_lines(path, capsys)
    assert lines == ["0 1 1/2", "0 2 1/2", "1 2 1/2"]
    assert main(["--format", "json", "check-factor", path, "-a", "1", "-b", "1", "--witness"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert [" ".join(map(str, row)) for row in witness] == lines


@pytest.mark.parametrize("command", ["check-factor", "check-critical"])
def test_a_beyond_a_machine_word_exits_1_with_a_certificate(graph_file, capsys, command):
    # The saturation rounds are generated lazily: P3 fails at round 2, so
    # no list of n * a slots is built.
    path = graph_file("p3.txt", path_graph(3))
    a = str(2**63)
    assert main([command, path, "-a", a, "-b", a]) == 1
    captured = capsys.readouterr()
    assert "S=[] T=[0, 1, 2]" in captured.out
    assert captured.err == ""


def test_check_factor_infeasible_with_certificate(graph_file, capsys):
    path = graph_file("p3.txt", path_graph(3))
    assert main(["check-factor", path, "-a", "1", "-b", "1"]) == 1
    out = capsys.readouterr().out
    assert "feasible: no" in out
    assert "S=[1] T=[0, 2] delta=-1" in out


def test_check_factor_certificate_suppressed_above_cap(graph_file, capsys):
    path = graph_file("p21.txt", path_graph(21))
    assert main(["check-factor", path, "-a", "1", "-b", "1"]) == 1
    out = capsys.readouterr().out
    assert "not extracted" in out


def test_check_critical_yes(graph_file, capsys):
    path = graph_file("k4.txt", complete_graph(4))
    assert main(["check-critical", path, "-a", "1", "-b", "1"]) == 0
    out = capsys.readouterr().out
    assert "critical: yes" in out
    assert "independent sets checked: 5" in out


def test_check_critical_no_reports_failure(graph_file, capsys):
    path = graph_file("p3.txt", path_graph(3))
    assert main(["check-critical", path, "-a", "1", "-b", "1"]) == 1
    out = capsys.readouterr().out
    assert "critical: no" in out
    assert "failing independent set: []" in out
    assert "S=[1] T=[0, 2] delta=-1" in out
    # C4 fails at {0}: the certificate of G - {0} is printed in C4's labels
    path = graph_file("c4.txt", cycle_graph(4))
    assert main(["check-critical", path, "-a", "1", "-b", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "failing independent set: [0]",
        "certificate: S=[2] T=[1, 3] delta=-1",
    ]


def test_check_critical_json_payload(graph_file, capsys):
    path = graph_file("p3.txt", path_graph(3))
    main(["--format", "json", "check-critical", path, "-a", "1", "-b", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is False
    assert payload["failing_set"] == []
    assert payload["certificate"]["delta"] == -1


def test_check_critical_cap_exit_code(graph_file, capsys, monkeypatch):
    # K5 less the edge 34 has twin classes {0, 1, 2} and {3, 4}: the DFS decides the empty
    # set, {0}, {3} and {3, 4}, standing for 7 sets. Under (2,2) alpha = 2 exceeds
    # k1 = delta - a = 1, so proves_critical abstains and the DFS runs.
    path = graph_file("k5-less-an-edge.txt", complete_multipartite_graph([1, 1, 1, 2]))
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 4)
    assert main(["check-critical", path, "-a", "2", "-b", "2"]) == 0
    assert "independent sets checked: 7" in capsys.readouterr().out
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 3)
    assert main(["check-critical", path, "-a", "2", "-b", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: criticality check on 5 vertices: over 3 restore calls\n"


def test_check_critical_reports_a_failure_above_the_scan_cap_without_a_certificate(
    graph_file, capsys
):
    path = graph_file("p21.txt", path_graph(21))
    assert main(["check-critical", path, "-a", "1", "-b", "1"]) == 1
    # the same line and the same null as check-factor's
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "failing independent set: []",
        "certificate: not extracted (order above the subset-scan cap)",
    ]
    assert main(["--format", "json", "check-critical", path, "-a", "1", "-b", "1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["failing_set"], payload["certificate"]) == ([], None)


def test_check_hypotheses_pass_and_fail(graph_file, capsys):
    k4 = graph_file("k4.txt", complete_graph(4))
    assert main(["check-hypotheses", k4, "-a", "1", "-b", "1"]) == 0
    out = capsys.readouterr().out
    assert "all conditions: ok" in out
    assert "vacuous" in out  # complete graph has no nonadjacent pairs

    c6 = graph_file("c6.txt", cycle_graph(6))
    assert main(["check-hypotheses", c6, "-a", "1", "-b", "1"]) == 1
    out = capsys.readouterr().out
    assert "min degree:   FAIL" in out
    assert "all conditions: FAIL" in out


def test_check_hypotheses_json(graph_file, capsys):
    c6 = graph_file("c6.txt", cycle_graph(6))
    main(["--format", "json", "check-hypotheses", c6, "-a", "1", "-b", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["order_ok"] is True
    assert payload["min_degree_ok"] is False
    assert payload["worst_pair"] == [0, 2]


def test_verify_theorem_clean_run(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[params]\npairs = 1,1\n[exhaustive]\nmax_n = 4\n"
        f"[output]\npath = {report_path}\n"
    )
    assert main(["verify-theorem", str(config)]) == 0
    out = capsys.readouterr().out
    assert "total counterexamples: 0" in out
    report = json.loads(report_path.read_text())
    assert report["counterexamples"] == 0
    assert report["pairs"][0]["graphs_examined"] == 75


def test_verify_theorem_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    config.write_text("[params]\npairs = 1,1\n")  # no ensemble section
    assert main(["verify-theorem", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_theorem_refuses_large_exhaustive_order(tmp_path, capsys, monkeypatch):
    def never_run(config):
        raise AssertionError("run_sweep was called")

    monkeypatch.setattr(cli, "run_sweep", never_run)
    config = tmp_path / "sweep.ini"
    config.write_text("[params]\npairs = 1,1\n[exhaustive]\nmax_n = 12\n")
    assert main(["verify-theorem", str(config)]) == 3
    assert "cap of 7" in capsys.readouterr().err


def test_verify_theorem_refuses_a_random_ensemble_above_the_cap(tmp_path, capsys, monkeypatch):
    def never_run(config):
        raise AssertionError("run_sweep was called")

    monkeypatch.setattr(cli, "run_sweep", never_run)
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[params]\npairs = 1,1\n[random]\norders = 8\nprobabilities = 1/2\n"
        "samples = 1000000000000\n"
    )
    assert main(["verify-theorem", str(config)]) == 3
    assert "cap of 1000000" in capsys.readouterr().err


def test_verify_theorem_refuses_orders_above_the_criticality_cap(tmp_path, capsys, monkeypatch):
    # Order 21 is swept; a check that counts more masks than the budget exits 3. The draw
    # passes the conditions, so proves_critical clears it and only the count runs.
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[params]\npairs = 1,1\n[random]\norders = 21\nprobabilities = 3/5\nsamples = 1\n"
        "seed = 5\n"
    )
    assert main(["verify-theorem", str(config)]) == 0
    assert "(a=1, b=1): 1 graphs, 1 pass the conditions, 1 confirmed critical" in capsys.readouterr().out
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 3)
    assert main(["verify-theorem", str(config)]) == 3
    assert "criticality check on 21 vertices: over 3 masks counted" in capsys.readouterr().err

    # An order above MAX_ORDER is refused before any graph is examined.
    def never_run(config):
        raise AssertionError("run_sweep was called")

    monkeypatch.setattr(cli, "run_sweep", never_run)
    config.write_text(config.read_text().replace("orders = 21", "orders = 21 1001"))
    assert main(["verify-theorem", str(config)]) == 3
    assert "order 1001 exceeds the maximum of 1000 vertices" in capsys.readouterr().err


def test_verify_theorem_refuses_an_unwritable_output_path_before_sweeping(
    tmp_path, capsys, monkeypatch
):
    def never_checked(g, params):
        raise AssertionError("a graph was checked before the output path was opened")

    monkeypatch.setattr(sweep, "check_criticality_conditions", never_checked)
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[params]\npairs = 1,1\n[exhaustive]\nmax_n = 6\n"
        f"[output]\npath = {tmp_path / 'missing' / 'report.json'}\n"
    )
    assert main(["verify-theorem", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "report.json" in err


def test_verify_theorem_removes_only_a_report_it_created_when_the_sweep_fails(
    tmp_path, capsys, monkeypatch
):
    # The order-21 draw above, with a budget its count overruns: the sweep exits 3.
    report_path = tmp_path / "report.json"
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[params]\npairs = 1,1\n[random]\norders = 21\nprobabilities = 3/5\nsamples = 1\n"
        f"seed = 5\n[output]\npath = {report_path}\n"
    )
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 3)
    assert main(["verify-theorem", str(config)]) == 3
    assert "over 3 masks counted" in capsys.readouterr().err
    assert not report_path.exists()
    # A report that was there before the run is left as it was.
    report_path.write_text("an earlier report\n")
    assert main(["verify-theorem", str(config)]) == 3
    capsys.readouterr()
    assert report_path.read_text() == "an earlier report\n"


def test_verify_theorem_replaces_an_existing_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    report_path.write_text("stale contents that run longer than the report itself\n" * 100)
    config = tmp_path / "sweep.ini"
    config.write_text(
        f"[params]\npairs = 1,1\n[exhaustive]\nmax_n = 4\n[output]\npath = {report_path}\n"
    )
    assert main(["verify-theorem", str(config)]) == 0
    capsys.readouterr()
    assert json.loads(report_path.read_text())["counterexamples"] == 0


def test_verify_theorem_refuses_a_repeated_random_order(tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[params]\npairs = 1,1\n[random]\norders = 8 8\nprobabilities = 1/2\nsamples = 3\n"
    )
    assert main(["verify-theorem", str(config)]) == 2
    assert "random order 8 is listed more than once" in capsys.readouterr().err


def test_gen_neighborhood_extremal_with_sidecar(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = main(
        ["gen", "neighborhood-extremal", "-a", "1", "-b", "2", "-t", "1", "-o", str(out)]
    )
    assert code == 0
    g = parse_edge_list(out.read_text())
    assert g.n == 6  # parts of sizes 1, 2, 3
    assert g.m == 11
    sidecar = json.loads((tmp_path / "g.labels.json").read_text())
    assert sidecar["kind"] == "neighborhood-extremal"
    assert sidecar["a"] == 1 and sidecar["b"] == 2 and sidecar["t"] == 1
    assert sidecar["parts"]["atK1"] == [0, 1]
    assert sidecar["parts"]["bt1K1"] == [3, 6]


def test_gen_verify_prints_audit(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = main(
        ["gen", "degree-extremal", "-a", "1", "-b", "1", "-t", "2", "-o", str(out), "--verify"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "sharpness audit:" in text
    assert "[required] min-degree-value: pass" in text


def test_gen_random_is_reproducible(tmp_path, capsys):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    out3 = tmp_path / "r3.txt"
    assert main(["--seed", "7", "gen", "random", "-n", "8", "-p", "1/2", "-o", str(out1)]) == 0
    assert main(["--seed", "7", "gen", "random", "-n", "8", "-p", "1/2", "-o", str(out2)]) == 0
    assert main(["--seed", "8", "gen", "random", "-n", "8", "-p", "1/2", "-o", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_gen_random_refuses_verify(tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["gen", "random", "-n", "5", "-p", "1/2", "-o", str(out), "--verify"]) == 2
    assert "--verify audits only the extremal kinds" in capsys.readouterr().err
    assert not out.exists()


def test_orders_above_the_maximum_exit_3(tmp_path, capsys, monkeypatch):
    def no_draws(seed):
        raise AssertionError("random pairs drawn before the order check")

    monkeypatch.setattr(constructions, "random", SimpleNamespace(Random=no_draws))
    out = tmp_path / "g.txt"
    assert main(["gen", "random", "-n", "1001", "-p", "1/2", "-o", str(out)]) == 3
    for kind, a, b, t in (("neighborhood-extremal", 1, 1, 334), ("degree-extremal", 1, 2, 202)):
        args = ["gen", kind, "-a", str(a), "-b", str(b), "-t", str(t), "-o", str(out)]
        assert main(args) == 3
    assert not out.exists()
    graph = tmp_path / "big.txt"
    graph.write_text("1001 0\n")
    assert main(["check-factor", str(graph), "-a", "1", "-b", "1"]) == 3
    assert "exceeds the maximum" in capsys.readouterr().err


def test_gen_random_requires_n_and_p(tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["gen", "random", "-n", "8", "-o", str(out)]) == 2
    assert "requires -p" in capsys.readouterr().err


def test_gen_extremal_rejects_bad_scale(tmp_path, capsys):
    out = tmp_path / "g.txt"
    # b*t odd: the matching block cannot be built
    assert main(["gen", "degree-extremal", "-a", "1", "-b", "1", "-t", "1", "-o", str(out)]) == 2
    assert "even" in capsys.readouterr().err


def test_missing_graph_file(capsys):
    assert main(["check-factor", "/nonexistent/g.txt", "-a", "1", "-b", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_edge_list(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n1 0\n")
    assert main(["check-factor", str(path), "-a", "1", "-b", "1"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--brute-limit", "--crit-limit"])
def test_removed_cap_flags_are_usage_errors(graph_file, flag):
    path = graph_file("k4.txt", complete_graph(4))
    with pytest.raises(SystemExit) as exc:
        main([flag, "20", "check-critical", path, "-a", "1", "-b", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("p", ["abc", "1/0"])
def test_gen_random_rejects_bad_probability(tmp_path, capsys, p):
    out = tmp_path / "r.txt"
    assert main(["gen", "random", "-n", "4", "-p", p, "-o", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _never_built(token):
    raise AssertionError(f"Fraction({token!r}) was built")


@pytest.mark.parametrize("p", ["1e999999999", "1E-999999999", "5e-101"])
def test_gen_random_refuses_huge_exponents_before_building_them(tmp_path, capsys, monkeypatch, p):
    monkeypatch.setattr(constructions, "Fraction", _never_built)
    out = tmp_path / "r.txt"
    assert main(["gen", "random", "-n", "4", "-p", p, "-o", str(out)]) == 2
    assert "exponent beyond +-100" in capsys.readouterr().err
    assert not out.exists()


def test_gen_random_accepts_exponents_up_to_100(tmp_path):
    out = tmp_path / "r.txt"
    assert main(["gen", "random", "-n", "4", "-p", "25e-2", "-o", str(out)]) == 0
    assert main(["gen", "random", "-n", "4", "-p", "5e-100", "-o", str(out)]) == 0


def test_non_utf8_graph_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"2 1\n0 1 # caf\xe9\n")
    assert main(["check-factor", str(path), "-a", "1", "-b", "1"]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_non_utf8_sweep_config(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_bytes(b"[params]\npairs = 1,1\n[exhaustive]\nmax_n = 3 # \xff\n")
    assert main(["verify-theorem", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_construction_error_exits_1_with_fatal(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(constructions, "has_fractional_factor", lambda g, params: True)
    args = ["gen", "degree-extremal", "-a", "1", "-b", "1", "-t", "2"]
    assert main([*args, "-o", str(tmp_path / "g.txt"), "--verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "fatal: degree-extremal (a=1, b=1, t=2) failed required checks: "
        "designated-deletion-infeasible, not-critical\n"
    )


def test_verify_theorem_prints_counterexamples(tmp_path, capsys, monkeypatch):
    inconsistent = SimpleNamespace(consistent=False, to_dict=lambda: {})
    monkeypatch.setattr(sweep, "check_deletion_invariants", lambda *args: inconsistent)
    config = tmp_path / "sweep.ini"
    config.write_text("[params]\npairs = 1,1\n[exhaustive]\nmax_n = 4\n")
    assert main(["verify-theorem", str(config)]) == 1
    edges = "[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]"
    # K4's four maximal independent sets each fail the patched audit
    assert capsys.readouterr().out.splitlines()[1:] == [
        "total counterexamples: 4",
        *["counterexample [invariants] at exhaustive/n=4/mask=63:", f"  edges: {edges}"] * 4,
    ]


def test_gen_verify_proves_not_critical_under_any_budget(tmp_path, capsys, monkeypatch):
    out = tmp_path / "g.txt"
    args = ["gen", "neighborhood-extremal", "-a", "2", "-b", "3", "-t", "3", "-o", str(out)]
    assert main([*args, "--verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "  [reported] degree-condition: pass (margin 29)",
        "  [required] not-critical: pass (btK1 = vertices 6..14 is independent and its deletion is infeasible)",
    ]
    # the check runs no search, so a budget of 5 restore calls changes nothing
    monkeypatch.setattr(criticality, "CRITICALITY_BUDGET", 5)
    assert main([*args, "--verify"]) == 0
    assert capsys.readouterr().out.splitlines() == lines


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks() -> list[tuple[str, str]]:
    """(info string, body) of every fenced code block in README, in order."""
    parts = README.read_text(encoding="utf-8").split("```")
    return [tuple(block.split("\n", 1)) for block in parts[1::2]]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    blocks = readme_blocks()
    edge_list = next(body for info, body in blocks if body.startswith("# C4\n"))
    config = next(body for info, body in blocks if info == "ini")
    commands = [
        line
        for info, body in blocks
        if info == "sh"
        for line in body.splitlines()
        if line.startswith("fracfactor ")
    ]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text(edge_list)
    (tmp_path / "sweep.ini").write_text(config)
    codes = []
    for line in commands:
        try:
            codes.append(main(shlex.split(line)[1:]))
        except SystemExit as exc:  # argparse usage errors
            codes.append(exc.code)
    capsys.readouterr()
    # no usage, input or cap error; C4 is not critical and fails the hypotheses
    assert codes == [0, 1, 1, 0, 0, 0, 0]


# -- exit-code contract under arbitrary input ---------------------------------

FUZZ = settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Junk carries no decimal digits, so every parsable header comes from the
# small integers and orders stay far below the subset-scan cap; surrogates
# are left out because no codec can write them.
_junk = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
_line = st.one_of(
    st.lists(st.integers(min_value=-1, max_value=6).map(str), max_size=3).map(" ".join),
    _junk,
)
_edge_list_bytes = st.one_of(
    st.binary(max_size=40),
    st.lists(_line, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.lists(_line, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-16")),
)


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    return code, out


@FUZZ
@given(data=_edge_list_bytes)
def test_check_factor_exit_contract_on_any_bytes(tmp_path, capsys, data):
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    code, out = _run(["check-factor", str(path), "-a", "1", "-b", "2"], capsys)
    assert (code == 1) == ("feasible: no" in out)


_probability = st.one_of(
    st.text(max_size=12),
    st.from_regex(r"-?[0-9]{1,3}([/.][0-9]{0,3})?", fullmatch=True),
)


@FUZZ
@given(p=_probability)
def test_gen_random_exit_contract_on_any_probability(tmp_path, capsys, p):
    out = tmp_path / "r.txt"
    code, _ = _run(["gen", "random", "-n", "5", f"-p{p}", "-o", str(out)], capsys)
    assert code in (0, 2)
