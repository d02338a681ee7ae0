import json
import pathlib

import pytest

from qcluster import cli, expansion, leclerc
from qcluster.cli import main

DATA = pathlib.Path(__file__).parent / "data"

A2_FILE = {
    "n": 2,
    "unfrozen": [1, 2],
    "B": [[0, -1], [1, 0]],
    "Lambda": [[0, -1], [1, 0]],
    "D": [1, 1],
}


@pytest.fixture
def a2_file(tmp_path):
    p = tmp_path / "a2.json"
    p.write_text(json.dumps(A2_FILE))
    return str(p)


@pytest.fixture
def b2_file_no_lambda(tmp_path):
    p = tmp_path / "b2.json"
    p.write_text(json.dumps({"n": 2, "unfrozen": [1, 2], "B": [[0, -2], [1, 0]]}))
    return str(p)


def test_check_ok(a2_file, capsys):
    assert main(["check", a2_file]) == 0
    assert "compatible" in capsys.readouterr().out


def test_check_bad_lambda(tmp_path, capsys):
    bad = dict(A2_FILE, Lambda=[[0, 0], [0, 0]], D=[1, 1])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["check", str(p)]) == 1
    assert "incompatible" in capsys.readouterr().out


def test_check_synthesizes_lambda(b2_file_no_lambda, capsys):
    assert main(["check", b2_file_no_lambda]) == 0
    out = capsys.readouterr().out
    assert "Lambda synthesized" in out
    assert "[[0, -1], [1, 0]]" in out
    assert "D=[1, 2]" in out


def test_check_honors_d_without_lambda(tmp_path, capsys):
    p = tmp_path / "b2d.json"
    p.write_text(json.dumps({"n": 2, "B": [[0, -2], [1, 0]], "D": [2, 4]}))
    assert main(["check", str(p)]) == 0
    out = capsys.readouterr().out
    assert "Lambda=[[0, -2], [2, 0]]" in out
    assert "D=[2, 4]" in out


def test_check_unsolvable_d_is_usage_error(tmp_path):
    p = tmp_path / "b2d.json"
    p.write_text(json.dumps({"n": 2, "B": [[0, -2], [1, 0]], "D": [5, 5]}))
    assert main(["check", str(p)]) == 2


def test_check_nonpositive_d_is_refused_before_solving(tmp_path, capsys):
    # used to report "no compatible skew form for D = [0, 1]"
    p = tmp_path / "b2d.json"
    p.write_text(json.dumps({"n": 2, "B": [[0, -2], [1, 0]], "D": [0, 1]}))
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "D must be a positive diagonal over the unfrozen vertices" in err
    assert "skew form" not in err


def test_mutate(a2_file, capsys):
    assert main(["mutate", a2_file, "--word", "1"]) == 0
    out = capsys.readouterr().out
    assert "B=[[0, 1], [-1, 0]]" in out
    assert "Lambda=[[0, 1], [-1, 0]]" in out


def test_expand(a2_file, capsys):
    assert main(["expand", a2_file, "--word", "2,1,2", "--var", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "X[-1,-1] + X[-1,0] + X[0,-1]"
    assert main(["expand", a2_file, "--var", "2"]) == 0
    assert capsys.readouterr().out.strip() == "X[0,1]"


def test_expand_word_inverse(a2_file, capsys):
    assert main(["expand", a2_file, "--word", "1,2,2,1", "--var", "1"]) == 0
    assert capsys.readouterr().out.strip() == "X[1,0]"


def test_expand_bad_var(a2_file, capsys):
    assert main(["expand", a2_file, "--var", "7"]) == 2


def test_expand_bad_var_fails_before_the_word(a2_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "apply_word", lambda *a: pytest.fail("word applied"))
    assert main(["expand", a2_file, "--word", "1,2", "--var", "0"]) == 2
    assert capsys.readouterr().err == "error: variable index 0 out of range\n"


def test_bad_word(a2_file):
    assert main(["mutate", a2_file, "--word", "3"]) == 2
    assert main(["mutate", a2_file, "--word", "x"]) == 2


def test_graph(a2_file, capsys, tmp_path):
    dot = tmp_path / "a2.dot"
    assert main(["graph", a2_file, "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "5 nodes" in out and "5 distinct cluster variables" in out
    text = dot.read_text()
    assert text.startswith("graph exchange {")
    assert text.count("--") == 5


def test_graph_truncation_flagged(a2_file, capsys):
    assert main(["graph", a2_file, "--cap", "2"]) == 0
    assert "truncated" in capsys.readouterr().out


def test_graph_dot_to_stdout(a2_file, capsys):
    assert main(["graph", a2_file, "--dot", "-"]) == 0
    out = capsys.readouterr().out
    assert "graph exchange {" in out and out.rstrip().endswith("}")


def test_shift(a2_file, capsys):
    assert main(["shift", a2_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["direction"] == 1
    assert sorted(data["sigma"]) == ["1", "2"]
    assert all(u == [0, 0] for u in data["u"].values())
    assert main(["shift", a2_file, "--direction", "-1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["direction"] == -1


@pytest.mark.parametrize("direction", ["1", "-1"])
def test_shift_on_a_truncated_graph_is_a_check_failure(a2_file, direction, capsys):
    # used to exit 3: "internal error: no +1 shift for node in graph (graph truncated)"
    assert main(["shift", a2_file, "--cap", "1", "--direction", direction]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"not finite type within cap 1; no {int(direction):+d} shift found\n"
    assert captured.err == ""


def test_leclerc_report(a2_file, capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(["leclerc", a2_file, "--cap", "2", "--json", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "two_tail_fail 0" in printed
    assert "indeterminate 0" in printed
    doc = json.loads(out_path.read_text())
    assert doc["nodes"] == 5 and doc["variables"] == 5
    assert doc["counts"]["two_tail_fail"] == 0
    assert doc["conflicts"] == []
    assert all(
        set(p) >= {"R", "V", "verdict", "checks"} for p in doc["pairs"]
    )
    two_tails = [p for p in doc["pairs"] if p["verdict"] == "two_tail"]
    assert two_tails and all("s" in p and "h" in p and "S" in p and "H" in p for p in two_tails)


KRONECKER_FILE = {
    "n": 2,
    "unfrozen": [1, 2],
    "B": [[0, 2], [-2, 0]],
    "Lambda": [[0, 1], [-1, 0]],
}


def test_leclerc_infinite_type_message(tmp_path, capsys):
    # the Kronecker seed has a compatible pair but an infinite graph
    p = tmp_path / "kronecker.json"
    p.write_text(json.dumps(KRONECKER_FILE))
    assert main(["leclerc", str(p)]) == 1
    assert capsys.readouterr().out == (
        "not finite type: b_1,2 * b_2,1 = -4 < -3 in the seed itself; no report written\n")


@pytest.mark.parametrize("command, outcome", [
    (["leclerc"], "no report written"),
    (["graph", "--dot", "-"], "no graph written"),
    (["shift"], "no +1 shift found"),
    (["shift", "--direction", "-1"], "no -1 shift found"),
])
@pytest.mark.parametrize("name, witness", [
    ("kronecker", "b_1,2 * b_2,1 = -4 < -3 in the seed itself"),
    ("at2p", "b_1,3 * b_3,1 = -4 < -3 in the seed after mutation word 2"),
])
def test_seeds_that_are_not_2_finite_are_refused_at_once(tmp_path, monkeypatch, capsys,
                                                         command, outcome, name, witness):
    # Kronecker and affine A2 with principal coefficients, at the default
    # caps: the build stops at the first seed with b_ij b_ji < -3
    if name == "kronecker":
        path = tmp_path / "kronecker.json"
        path.write_text(json.dumps(KRONECKER_FILE))
    else:
        path = DATA / "at2p.json"
    mutations = []
    real = expansion.mutate_tracked
    monkeypatch.setattr(expansion, "mutate_tracked",
                        lambda ts, k: mutations.append(k) or real(ts, k))
    assert main([command[0], str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"not finite type: {witness}; {outcome}\n"
    assert captured.err == ""
    assert len(mutations) <= 3


def test_leclerc_sample_scope(a2_file, capsys):
    assert main(["--seed", "3", "leclerc", a2_file, "--cap", "1", "--scope", "sample:2"]) == 0


def test_deterministic_output(a2_file, tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["leclerc", a2_file, "--cap", "1", "--json", str(p1)]) == 0
    assert main(["leclerc", a2_file, "--cap", "1", "--json", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_unreadable_file():
    assert main(["check", "/nonexistent/path.json"]) == 2


def test_incompatible_pair_rejected_outside_check(tmp_path):
    bad = dict(A2_FILE, Lambda=[[0, 0], [0, 0]], D=[1, 1])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["graph", str(p)]) == 2


def test_unsynthesizable_lambda_is_usage_error(tmp_path):
    rank_deficient = {"n": 3, "unfrozen": [1, 2, 3],
                      "B": [[0, -1, 0], [1, 0, -1], [0, 1, 0]]}
    p = tmp_path / "a3free.json"
    p.write_text(json.dumps(rank_deficient))
    assert main(["check", str(p)]) == 2


@pytest.mark.parametrize("data", [
    {"n": 3, "B": [[0, -1], [1, 0]]},                  # n disagrees with B
    {"n": 2, "unfrozen": [1, 3], "B": [[0, -1], [1, 0]]},  # vertex out of range
    {"n": 2, "B": [[0, -1], [1]]},                      # ragged B
    {"n": 2, "B": [[0, -1.5], [1.9, 0]]},               # used to truncate to a compatible B
    {"n": 2, "B": [[0, -1], [1, 0]], "Lambda": [[0, -1.0], [1, 0]]},
    {"n": 2, "B": [[0, -1], [1, 0]], "D": [True, 1]},   # used to read as 1
    {"n": 2.0, "B": [[0, -1], [1, 0]]},
])
def test_malformed_seed_is_usage_error(tmp_path, data):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 2


@pytest.mark.parametrize("command", [
    ["graph", "--dot"],
    ["leclerc", "--cap", "0", "--json"],
])
def test_unwritable_output_is_usage_error(a2_file, tmp_path, command, capsys):
    # used to exit 1 with a traceback
    path = tmp_path / "missing" / "x"
    assert main([command[0], a2_file, *command[1:], str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


def test_graph_unwritable_dot_fails_before_the_build(a2_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_exchange_graph", lambda *a, **k: pytest.fail("built"))
    path = tmp_path / "missing" / "a2.dot"
    assert main(["graph", a2_file, "--dot", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"
    assert captured.out == ""


@pytest.mark.parametrize("name, reason", [
    ("missing/report.json", "No such file or directory"),
    ("seed.json/report.json", "Not a directory"),
    (".", "Is a directory"),
])
def test_leclerc_unwritable_output_fails_before_the_sweep(a2_file, tmp_path, monkeypatch,
                                                         capsys, name, reason):
    monkeypatch.setattr(leclerc, "verify_theorem", lambda *a, **k: pytest.fail("swept"))
    (tmp_path / "seed.json").write_text("{}")
    path = tmp_path / name
    assert main(["leclerc", a2_file, "--cap", "1", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {path}: {reason}\n"
    assert captured.out == ""


def test_leclerc_output_is_written_only_after_the_sweep(a2_file, tmp_path, monkeypatch):
    # checking the path first creates nothing an interrupted sweep would leave
    path = tmp_path / "report.json"
    existed = []
    real = leclerc.verify_theorem
    monkeypatch.setattr(leclerc, "verify_theorem",
                        lambda *a, **k: existed.append(path.exists()) or real(*a, **k))
    assert main(["leclerc", a2_file, "--cap", "1", "--json", str(path)]) == 0
    assert existed == [False]
    assert json.loads(path.read_text())["pairs"]


def test_leclerc_report_is_serialized_only_for_json(a2_file, tmp_path, monkeypatch, capsys):
    # without --json no report document is built and nothing is
    # serialized; with it, the file is the document as indented JSON
    # streamed to it, byte for byte, and the summary line is the same
    with monkeypatch.context() as m:
        m.setattr(cli, "_report_json", lambda *a: pytest.fail("document built"))
        m.setattr(json, "dump", lambda *a, **k: pytest.fail("serialized"))
        m.setattr(json, "dumps", lambda *a, **k: pytest.fail("serialized"))
        assert main(["leclerc", a2_file, "--cap", "2"]) == 0
    plain = capsys.readouterr().out
    docs = []
    real = cli._report_json
    monkeypatch.setattr(cli, "_report_json", lambda *a: docs.append(real(*a)) or docs[-1])
    path = tmp_path / "report.json"
    assert main(["leclerc", a2_file, "--cap", "2", "--json", str(path)]) == 0
    assert capsys.readouterr().out == plain
    assert len(docs) == 1
    assert path.read_text() == json.dumps(docs[0], indent=2, sort_keys=True) + "\n"


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("options", [
    ["--cap", "-1"],                      # would build an empty basis
    ["--frozen-window", "-1"],
    ["--node-cap", "-1"],                 # used to exit 1: "not finite type within cap -1"
    ["--node-cap", "0"],
    ["--scope", "99"],                    # A2 has five R specs: no pair would run
    ["--scope", "0,-1"],
    ["--scope", "sample:-1"],             # used to exit 3 from random.sample
    ["--scope", "sample:0"],
    ["--scope", "first"],                 # used to exit 3 from int()
    ["--scope", "sample:two"],
])
def test_leclerc_bad_options_are_usage_errors(a2_file, options, capsys):
    assert main(["leclerc", a2_file, *options]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_leclerc_refuses_an_oversized_enumeration(tmp_path, capsys):
    # A3-principal has 14 nodes: 14 * (10**6 + 1)**3 (node, m) pairs
    p = tmp_path / "a3p.json"
    p.write_text(json.dumps({"n": 6, "unfrozen": [1, 2, 3], "B": [
        [0, -1, 0], [1, 0, -1], [0, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert main(["leclerc", str(p), "--cap", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --cap 1000000 with --frozen-window 0 keys ")
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["graph"],                            # used to exit 0 with a 1-node "truncated" graph
    ["shift"],                            # used to exit 3: "internal error: no +1 shift"
    ["shift", "--direction", "-1"],
])
@pytest.mark.parametrize("cap", ["-1", "0"])
def test_node_cap_below_one_is_a_usage_error(a2_file, command, cap, capsys):
    assert main([command[0], a2_file, *command[1:], "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --cap must be >= 1")
    assert captured.out == ""


def test_leclerc_cap_zero_and_index_scope_ok(a2_file, capsys):
    assert main(["leclerc", a2_file, "--cap", "0"]) == 0
    assert "basis 1 elements" in capsys.readouterr().out
    assert main(["leclerc", a2_file, "--cap", "1", "--scope", "4,0"]) == 0
