import csv
import io
import json
from contextlib import redirect_stdout

import pytest

import gridcross.graph as graph
from gridcross.cli import main
from gridcross.errors import ValidationError
from gridcross.experiments import KINDS, ExperimentConfig, emit_report, run_experiment
from gridcross.graph import parse_graph

# one small sweep of every experiment kind, as configs and as CLI flags
KIND_CONFIGS = {
    "growth3d": ExperimentConfig(kind="growth3d", k_values=(2, 3)),
    "growth_hd": ExperimentConfig(kind="growth_hd", k_values=(1, 2), dim=4),
    "certificates": ExperimentConfig(kind="certificates", sides=((4, 4), (2, 2, 2)), edges=9,
                                     seeds=(5, 6)),
    "totients": ExperimentConfig(kind="totients", n_max=30),
    "enumeration": ExperimentConfig(kind="enumeration", sides=((2, 2), (1, 3))),
}
KIND_FLAGS = {
    "growth3d": ["--k-values", "2,3"],
    "growth_hd": ["--k-values", "1,2", "--dim", "4"],
    "certificates": ["--sides", "4x4,2x2x2", "--edges", "9", "--seeds", "5,6"],
    "totients": ["--n-max", "30"],
    "enumeration": ["--sides", "2x2,1x3"],
}


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_gen_bipartite_round_trips():
    code, out = run_cli(["gen", "--kind", "bipartite", "--k", "2", "--dim", "3"])
    assert code == 0
    g = parse_graph(out)
    assert len(g.vertices) == 8 and len(g.edges) == 16


def test_gen_random_requires_seed():
    code, _ = run_cli(["gen", "--kind", "random", "--sides", "4x4", "--edges", "5"])
    assert code == 2


def test_cross_naive_on_generated_graph(tmp_path):
    path = tmp_path / "g.json"
    code, out = run_cli(["gen", "--kind", "bipartite", "--k", "2", "--dim", "3",
                         "--out", str(path)])
    assert code == 0
    code, out = run_cli(["cross", str(path), "--method", "naive"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 10
    assert doc["per_edge_max"] == 3


def test_cross_all_certificates_sound(tmp_path):
    path = tmp_path / "g.json"
    run_cli(["gen", "--kind", "random", "--sides", "4x4", "--edges", "14",
             "--seed", "3", "--out", str(path)])
    code, out = run_cli(["cross", str(path), "--method", "all-certificates", "--p-max", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["sound"] is True


@pytest.mark.parametrize("p_max", ["0", "-1"])
@pytest.mark.parametrize("method", [pytest.param("all-certificates", id="cross"), "naive",
                                    "pruned", pytest.param(None, id="experiment")])
def test_p_max_below_one_is_a_validation_error(tmp_path, capsys, method, p_max):
    if method:
        path = tmp_path / "g.json"
        run_cli(["gen", "--kind", "random", "--sides", "4x4", "--edges", "14",
                 "--seed", "3", "--out", str(path)])
        argv = ["cross", str(path), "--method", method]
    else:
        argv = ["experiment", "--kind", "certificates", "--sides", "4x4", "--edges", "9",
                "--seeds", "5"]
    capsys.readouterr()
    assert main(argv + [f"--p-max={p_max}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: p_max must be >= 1, got {p_max}\n"


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "tiled", "--k", "0"],
    ["gen", "--kind", "tiled", "--side", "0"],
    ["gen", "--kind", "random", "--sides", "4x4", "--edges", "-1", "--seed", "1"],
])
def test_gen_rejects_non_positive_sizes(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cross_rejects_improper_graph(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim":2,"vertices":[[1,1],[2,2],[3,3]],"edges":[[0,2]]}')
    for method in [[], ["--method", "naive"], ["--method", "all-certificates"]]:
        assert main(["cross", str(path)] + method) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph is not proper: vertex 1 on edge (0, 2)\n"


@pytest.mark.parametrize("method", ["naive", "pruned", "all-certificates"])
def test_cross_checks_properness_once(tmp_path, monkeypatch, method):
    path = tmp_path / "g.json"
    run_cli(["gen", "--kind", "random", "--sides", "4x4", "--edges", "14",
             "--seed", "3", "--out", str(path)])
    calls = []
    validate = graph.validate_proper

    def counted(g):
        calls.append(g)
        return validate(g)

    monkeypatch.setattr(graph, "validate_proper", counted)
    code, _ = run_cli(["cross", str(path), "--method", method])
    assert code == 0
    assert len(calls) == 1


def test_enum_counts_and_caps():
    code, out = run_cli(["enum", "--sides", "2x2"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["subgraphs"], doc["matchings"], doc["spanning_trees"]) == ("48", "9", "12")
    code, _ = run_cli(["enum", "--sides", "9x9"])
    assert code == 3
    # the default --cap is CANDIDATE_CAP (141): 4x4 (86 candidates) runs,
    # 2x12 (166) does not
    code, out = run_cli(["enum", "--sides", "4x4"])
    assert code == 0
    assert json.loads(out)["candidates"] == "86"
    code, _ = run_cli(["enum", "--sides", "4x4", "--cap", "85"])
    assert code == 3
    code, _ = run_cli(["enum", "--sides", "2x12"])
    assert code == 3


@pytest.mark.parametrize("sides", ["1", "2x2"])
def test_enum_rejects_negative_cap(capsys, sides):
    # 1 has no candidate edge at all, 2x2 has 6; both refuse the cap itself
    assert main(["enum", "--sides", sides, "--cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap must be >= 0, got -1\n"


def test_enum_has_no_trees_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enum", "--sides", "2x2", "--trees"])
    assert exc.value.code == 2


def test_gen_has_no_reduce_flag(capsys):
    # every generator emits primitive edges only; cross --reduce stays
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "bipartite", "--k", "2", "--reduce"])
    assert exc.value.code == 2


def test_nt_table_values():
    code, out = run_cli(["nt", "--n-max", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,phi,s1,s2,s3,s3_float"
    assert lines[3].startswith("3,2,4,6,275/216,")


@pytest.mark.parametrize("n_max", ["1", "2", "17", "80"])
def test_nt_table_is_the_totients_experiment(n_max):
    code1, out1 = run_cli(["nt", "--n-max", n_max])
    code2, out2 = run_cli(["experiment", "--kind", "totients", "--n-max", n_max])
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [["nt"], ["experiment", "--kind", "totients"]])
def test_totient_table_refuses_n_max_zero(capsys, argv):
    assert main(argv + ["--n-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_max must be >= 1, got 0\n"


@pytest.mark.parametrize("kind", KINDS)
def test_experiment_records_are_pure_values(kind):
    config = KIND_CONFIGS[kind]
    records = run_experiment(config)
    assert records and all("elapsed_s" not in rec for rec in records)
    assert records == run_experiment(config)


@pytest.mark.parametrize("kind", KINDS)
def test_timings_add_one_trailing_elapsed_column(kind):
    argv = ["experiment", "--kind", kind] + KIND_FLAGS[kind]
    _, plain = run_cli(argv)
    code, timed = run_cli(argv + ["--timings"])
    assert code == 0
    plain_rows = list(csv.reader(io.StringIO(plain)))
    timed_rows = list(csv.reader(io.StringIO(timed)))
    assert timed_rows[0] == plain_rows[0] + ["elapsed_s"]
    assert [row[:-1] for row in timed_rows[1:]] == plain_rows[1:]
    assert all(float(row[-1]) >= 0 for row in timed_rows[1:])


def test_experiment_growth3d_records():
    code, out = run_cli(["experiment", "--kind", "growth3d", "--k-values", "2,3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[5] == "10"  # crossings at k=2


def test_experiment_certificates_sound():
    code, out = run_cli(["experiment", "--kind", "certificates", "--sides", "4x4",
                         "--edges", "10", "--seeds", "0,1,2,3,4,5,6,7,8,9",
                         "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10
    assert all(r["sound"] for r in rows)
    assert all(r["pruned_equal"] for r in rows)


def test_experiment_validation_errors(capsys):
    code, _ = run_cli(["experiment", "--kind", "growth3d"])
    assert code == 2
    code, _ = run_cli(["experiment", "--kind", "growth_hd", "--k-values", "2", "--dim", "3"])
    assert code == 2
    capsys.readouterr()
    code, _ = run_cli(["experiment", "--kind", "growth3d", "--k-values", "2", "--dim", "4"])
    assert code == 2 and "growth_hd" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "random", "--sides", "5x5", "--edges", "12", "--seed", "7"],
    ["gen", "--kind", "tiled", "--k", "2", "--side", "4", "--dim", "3"],
    ["enum", "--sides", "2x2x2"],
    ["nt", "--n-max", "50"],
    ["experiment", "--kind", "growth3d", "--k-values", "2,3", "--format", "json"],
    ["experiment", "--kind", "certificates", "--sides", "4x4,2x2x2", "--edges", "9",
     "--seeds", "5,6"],
    ["experiment", "--kind", "enumeration", "--sides", "2x2,1x3"],
])
def test_cli_byte_identical_reruns(argv):
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_validation_failure_prints_one_line_error(capsys):
    code = main(["enum", "--sides", "0x2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cross_refuses_a_vertex_that_is_not_a_list(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"dim":1,"vertices":[1],"edges":[]}'))
    assert main(["cross", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertex 0 is not a coordinate list: 1\n"


@pytest.mark.parametrize("log_c", ["nan", "inf", "-inf"])
def test_nt_check_rejects_non_finite_log_c(capsys, log_c):
    code = main(["nt", "--n-max", "50", "--check", f"--log-c={log_c}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "log_c" in captured.err
    assert captured.err.count("\n") == 1


def test_cross_reduce_preprocesses_non_primitive_edges(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"dim":2,"vertices":[[0,0],[4,6]],"edges":[[0,1]]}')
    code, out = run_cli(["cross", str(path), "--method", "all-certificates",
                         "--reduce", "--p-max", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificates"]["essential-pgrid"] is not None


def test_emit_report_shapes():
    config = ExperimentConfig(kind="enumeration", sides=((2, 2),))
    records = run_experiment(config)
    csv_text = emit_report(records, "csv")
    lines = csv_text.strip().splitlines()
    assert len(lines) == 2
    assert "elapsed_s" not in lines[0]
    timed = json.loads(emit_report(run_experiment(config, timings=True), "json"))
    assert list(timed[0])[-1] == "elapsed_s"
    with pytest.raises(ValidationError):
        emit_report([], "csv")
    with pytest.raises(ValidationError):
        emit_report(records, "yaml")
