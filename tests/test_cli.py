import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fracfactor import complete_graph, cycle_graph, format_edge_list, parse_edge_list, path_graph
from fracfactor.cli import main


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


def test_check_factor_witness_json(graph_file, capsys):
    path = graph_file("k2.txt", complete_graph(2))
    assert main(["--format", "json", "check-factor", path, "-a", "1", "-b", "1", "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True
    assert payload["witness"] == [[0, 1, "1/1"]]


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


def test_check_critical_json_payload(graph_file, capsys):
    path = graph_file("p3.txt", path_graph(3))
    main(["--format", "json", "check-critical", path, "-a", "1", "-b", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is False
    assert payload["failing_set"] == []
    assert payload["certificate"]["delta"] == -1


def test_check_critical_cap_exit_code(graph_file, capsys):
    path = graph_file("k21.txt", complete_graph(21))
    assert main(["check-critical", path, "-a", "1", "-b", "1"]) == 3
    assert "error:" in capsys.readouterr().err


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
