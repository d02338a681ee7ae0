import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from qcluster import cli, expansion, leclerc
from qcluster.cli import main

DATA = pathlib.Path(__file__).parent / "data"
ROOT = DATA.parent.parent

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


def test_a_lambda_without_d_whose_diagonal_is_not_positive_is_incompatible(capsys):
    # D is read off B^T Lambda; a zero Lambda reads D = 0, an incompatible
    # pair (exit 1 from check, 2 elsewhere), as it is with D given
    path = str(DATA / "a2-zero-lambda.json")
    assert main(["check", path]) == 1
    assert capsys.readouterr().out == (
        "incompatible: (B^T Lambda)[0][0] = 0, expected a positive entry\n")
    assert main(["graph", path]) == 2
    assert "not a compatible pair: (B^T Lambda)[0][0] = 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("with_lambda", [True, False], ids=["lambda", "no-lambda"])
def test_check_d_of_the_wrong_length_is_named_so(tmp_path, capsys, with_lambda):
    # every entry is positive; with a Lambda given, the length check used
    # to report "D must be a positive diagonal over the unfrozen vertices"
    data = dict(A2_FILE, D=[1, 1, 1])
    if not with_lambda:
        del data["Lambda"]
    p = tmp_path / "a2d.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "D must have one entry per unfrozen vertex" in err
    assert "positive diagonal" not in err


def test_a_huge_n_with_too_few_rows_is_a_usage_error_at_once(tmp_path):
    # the row count is checked before the default unfrozen range, which
    # n alone would size: under 256 MiB of address space, n = 10^12 with
    # one row of B is refused (exit 2), not run out of memory (exit 3)
    resource = pytest.importorskip("resource")
    path = tmp_path / "huge-n.json"
    path.write_text('{"n": 1000000000000, "B": [[0]]}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    limit = 256 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "qcluster.cli", "check", str(path)], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert "B has 1 rows, expected n = 1000000000000" in proc.stderr


def test_lambda_synthesis_over_many_components_gives_up_in_seconds(tmp_path):
    # five unfrozen vertices, a zero principal part and frozen rows 16 e_i:
    # five components, 8^5 candidate D and none solvable (D_i <= 8 is never
    # a multiple of 16); synthesis stops after 512 solves and asks for D
    k = 5
    rows = [[0] * k for _ in range(k)] + [[16 * (i == j) for j in range(k)] for i in range(k)]
    path = tmp_path / "five-components.json"
    path.write_text(json.dumps({"n": 2 * k, "unfrozen": list(range(1, k + 1)), "B": rows}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "qcluster.cli", "check", str(path)], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "among the first 512 candidate D; give D or Lambda" in proc.stderr


def test_the_cli_imports_no_code_generation_or_exact_decimals():
    # in a fresh interpreter, since pytest itself loads these modules;
    # -S keeps site-packages' start-up hooks out of the count
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(pathlib.Path(__file__).parent.parent / "src"),
                    os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, qcluster.cli; print(sorted({'dataclasses', 'inspect', 'fractions', "
             "'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def test_graph_truncation_flagged(a2_file, monkeypatch, capsys):
    monkeypatch.setattr(expansion, "NODE_CAP", 2)
    assert main(["graph", a2_file]) == 0
    assert "truncated" in capsys.readouterr().out


def test_graph_dot_to_stdout(a2_file, capsys):
    # the summary goes to stderr, so stdout is DOT alone
    assert main(["graph", a2_file, "--dot", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("graph exchange {") and captured.out.rstrip().endswith("}")
    assert captured.err == "5 nodes, 5 edges, 5 distinct cluster variables\n"


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
def test_shift_on_a_truncated_graph_is_a_check_failure(a2_file, direction, monkeypatch,
                                                        capsys):
    # used to exit 3: "internal error: no +1 shift for node in graph (graph truncated)"
    monkeypatch.setattr(expansion, "NODE_CAP", 1)
    assert main(["shift", a2_file, "--direction", direction]) == 1
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


def test_leclerc_on_a_truncated_graph_writes_no_report(a2_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(expansion, "NODE_CAP", 2)
    path = tmp_path / "report.json"
    assert main(["leclerc", a2_file, "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "not finite type within cap 2; no report written\n"
    assert captured.err == "" and not path.exists()


@pytest.mark.parametrize("command", ["graph", "shift", "leclerc"])
def test_no_command_takes_a_node_cap(command, capsys):
    # the node cap is expansion.NODE_CAP; leclerc's --cap caps exponents
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert "--node-cap" not in text
    assert ("--cap" in text) == (command == "leclerc")


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
                        lambda ts, k, *rest: mutations.append(k) or real(ts, k, *rest))
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


# the report digests CI pins, so that a change to a report's bytes fails
# here too: "F" stands for the --json file, and without one the digest
# is of stdout
_PINNED_OUTPUTS = [
    (["leclerc", "bench/seeds/a3p.json", "--cap", "1", "--json", "F"],
     "bd75713a6eed0c74c65918b34083f8b1c752e9d5eb55c2ff3b864842053e6c77"),
    (["leclerc", "bench/seeds/frozen.json", "--cap", "2", "--frozen-window", "1",
      "--json", "F"],
     "53497851d17264150be57e0b4e494245c497f28c8f714a8097052eb6efc5c158"),
    (["expand", "tests/data/f4p.json", "--word", "1,2,3,4,1,2,3,4", "--var", "3"],
     "2a312274a7ada991abda8e80a6d9d7fb53d55248bde6090b90dd2b19c581f060"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_OUTPUTS,
                         ids=["a3p-cap1", "frozen-cap2-w1", "f4p-expand"])
def test_cli_output_bytes_match_the_pinned_digests(tmp_path, capsys, argv, digest):
    report = tmp_path / "report.json"
    argv = [str(report) if a == "F" else a for a in argv]
    argv[1] = str(ROOT / argv[1])
    assert main(argv) == 0
    out = capsys.readouterr().out
    got = report.read_bytes() if "--json" in argv else out.encode()
    assert hashlib.sha256(got).hexdigest() == digest


def test_unreadable_file():
    assert main(["check", "/nonexistent/path.json"]) == 2


def test_a_seed_file_that_is_not_json_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "seed.json"
    p.write_text('{"n": 2, "B": [[0, -1], [1, 0]]')
    assert main(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed file is not valid JSON: ")
    assert captured.out == ""


@pytest.mark.parametrize("data, message", [
    ({"n": 2, "unfrozen": [1, 3], "B": [[0, -1], [1, 0]]},
     "unfrozen must be distinct vertex indices"),
    ({"n": 2, "unfrozen": [1, 1], "B": [[0, -1], [1, 0]]},
     "unfrozen must be distinct vertex indices"),
    ({"n": 2, "B": [[0, -1], [1]]}, "B must be n x |unfrozen|"),
])
@pytest.mark.parametrize("lam", [None, [[0, -1], [1, 0]]], ids=["no-lambda", "lambda"])
def test_check_names_a_malformed_shape(tmp_path, capsys, data, message, lam):
    # with Lambda or without (synthesized), one shape check and its message
    if lam is not None:
        data = dict(data, Lambda=lam)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad seed data: {message}\n"
    assert captured.out == ""


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
    # the empty path names no file: it used to exit 0 and write nothing
    monkeypatch.setattr(cli, "build_exchange_graph", lambda *a, **k: pytest.fail("built"))
    for path in (str(tmp_path / "missing" / "a2.dot"), ""):
        assert main(["graph", a2_file, "--dot", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {path}: No such file or directory\n"
        assert captured.out == ""


@pytest.mark.parametrize("name, reason", [
    ("missing/report.json", "No such file or directory"),
    ("seed.json/report.json", "Not a directory"),
    (".", "Is a directory"),
    # the empty path names no file: it used to exit 0 and write nothing
    ("", "No such file or directory"),
])
def test_leclerc_unwritable_output_fails_before_the_sweep(a2_file, tmp_path, monkeypatch,
                                                         capsys, name, reason):
    monkeypatch.setattr(leclerc, "verify_theorem", lambda *a, **k: pytest.fail("swept"))
    (tmp_path / "seed.json").write_text("{}")
    path = tmp_path / name if name else ""
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
    with monkeypatch.context() as m:
        m.setattr(json, "dumps", lambda *a, **k: pytest.fail("serialized in one string"))
        assert main(["leclerc", a2_file, "--cap", "2", "--json", str(path)]) == 0
    assert capsys.readouterr().out == plain
    assert len(docs) == 1
    assert path.read_text() == json.dumps(docs[0], indent=2, sort_keys=True) + "\n"


def test_leclerc_visits_each_home_once_whatever_the_scope_order(tmp_path, monkeypatch):
    # sample:4 with --seed 7 draws R indices 5, 2, 6, 0 (homes: nodes 0,
    # 0, 1, 0): the report is that of the same indices listed, and each
    # home is entered once, in graph order, and forgotten on leaving it
    seed_file = str(pathlib.Path(__file__).parent.parent / "bench" / "seeds" / "a3p.json")
    graph = expansion.build_exchange_graph(cli.load_seed(seed_file)[0])
    specs = leclerc.default_r_specs(graph)
    assert cli.select_r_specs(specs, 4, 7) == [specs[i] for i in (5, 2, 6, 0)]
    assert [graph.order.index(specs[i][0]) for i in (5, 2, 6, 0)] == [0, 0, 1, 0]
    forgotten = []
    for cls in (leclerc.CandidateBasis, expansion.ExchangeGraph):
        real = cls.forget
        monkeypatch.setattr(cls, "forget", lambda self, torus, cls=cls, real=real:
                            forgotten.append((cls.__name__, torus)) or real(self, torus))
    texts = []
    for scope in ("sample:4", "5,2,6,0"):
        forgotten.clear()
        path = tmp_path / "report.json"
        assert main(["--seed", "7", "leclerc", seed_file, "--cap", "1", "--scope", scope,
                     "--json", str(path)]) == 0
        assert forgotten == [(cls, graph.order[i]) for i in (0, 1)
                             for cls in ("CandidateBasis", "ExchangeGraph")]
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    assert [p["R"]["node"] for p in json.loads(texts[0])["pairs"][::45]] == [0, 0, 0, 1]


def _tampered_a3p_run(monkeypatch, capsys, tamper, *options):
    """An A3-principal cap1 leclerc run, given options too, with the first
    in_basis verdict replaced by tamper(verdict): (exit status, printed
    lines, report)."""
    real_pair, real_theorem = leclerc.verify_pair, leclerc.verify_theorem
    tampered, reports = [], []

    def verify_pair(*a):
        v = real_pair(*a)
        if tampered or v.case != "in_basis":
            return v
        tampered.append(tamper(v))
        return tampered[-1]

    monkeypatch.setattr(leclerc, "verify_pair", verify_pair)
    monkeypatch.setattr(leclerc, "verify_theorem",
                        lambda *a, **k: reports.append(real_theorem(*a, **k)) or reports[-1])
    seed_file = str(pathlib.Path(__file__).parent.parent / "bench" / "seeds" / "a3p.json")
    status = main(["leclerc", seed_file, "--cap", "1", *options])
    assert len(tampered) == 1 and len(reports) == 1
    return status, capsys.readouterr().out.splitlines(), reports[0]


def test_an_in_basis_pair_with_a_false_check_fails_the_run(monkeypatch, capsys):
    # the one pass/fail rule: an in_basis verdict whose check is false
    # fails like a two-tail one, with its FAIL line, and is tallied as
    # before
    status, plain, _ = _tampered_a3p_run(monkeypatch, capsys, lambda v: v)
    assert status == 0 and len(plain) == 1
    status, lines, report = _tampered_a3p_run(
        monkeypatch, capsys,
        lambda v: v._replace(checks={**v.checks, "pivot_is_one": False}))
    assert status == 1 and not report.ok
    assert lines[0] == plain[0]
    assert len(lines) == 2 and lines[1].startswith("FAIL R=")
    assert lines[1].endswith(": ['pivot_is_one']")


def test_an_indeterminate_pair_fails_the_run(tmp_path, monkeypatch, capsys):
    # its line gives the reason, and so does its pair in the report, next
    # to the verdict's other set fields; no other pair has a reason
    path = tmp_path / "report.json"
    status, lines, report = _tampered_a3p_run(
        monkeypatch, capsys,
        lambda v: v._replace(case="indeterminate", reason="tampered"), "--json", str(path))
    assert status == 1 and not report.ok
    assert "indeterminate 1," in lines[0]
    assert len(lines) == 2 and lines[1].startswith("INDETERMINATE R=")
    assert lines[1].endswith(": tampered")
    doc = json.loads(path.read_text())
    assert doc["counts"] == report.counts()
    [pair] = [p for p in doc["pairs"] if "reason" in p]
    [v] = [v for v in report.verdicts if v.case == "indeterminate"]
    assert pair == {"R": {"node": 0, "m": list(v.r_spec[1])}, "V": list(v.v_degree),
                    "verdict": "indeterminate", "checks": v.checks, "reason": "tampered",
                    "s": v.s, "h": v.h, "S": list(v.S)}


def test_leclerc_out_of_memory_exits_3(a2_file, monkeypatch, capsys):
    def exhausted(*a, **k):
        raise MemoryError
    monkeypatch.setattr(leclerc, "verify_theorem", exhausted)
    assert main(["leclerc", a2_file, "--cap", "1"]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("options", [
    ["--cap", "-1"],                      # would build an empty basis
    ["--frozen-window", "-1"],
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


def test_leclerc_cap_zero_and_index_scope_ok(a2_file, capsys):
    assert main(["leclerc", a2_file, "--cap", "0"]) == 0
    assert "basis 1 elements" in capsys.readouterr().out
    assert main(["leclerc", a2_file, "--cap", "1", "--scope", "4,0"]) == 0


def test_a_coefficient_past_the_digit_bound_exits_3(a2_file, monkeypatch, capsys):
    # each new variable tampered with the coefficient 2^(K - 1) - 1, the
    # largest a digit holds, at its codegree: it stays pointed, and the
    # first product or division that could carry a digit past it stops
    # the run, an internal error
    from qcluster.pointed import K_BITS, NForm
    from qcluster.qtorus import VCoeff

    real = expansion.mutate_tracked

    def tampering(ts, k, *rest):
        out = real(ts, k, *rest)
        x = out.vars[k]
        x = NForm.of(x.g, {**x.coeffs(), x.co_n(): VCoeff({0: (1 << (K_BITS - 1)) - 1})})
        return expansion.TrackedSeed(out.seed, out.vars[:k] + (x,) + out.vars[k + 1:],
                                     out.ref, out.path)

    monkeypatch.setattr(expansion, "mutate_tracked", tampering)
    assert main(["leclerc", a2_file, "--cap", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: a coefficient of up to ")
    assert err.rstrip().endswith(f"does not fit in {K_BITS}-bit digits")
