import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sgt
from sgt import trace
from sgt.cli import ParseError, _cayley_text, parse_input, run
from sgt.congruence import right_congruence
from sgt.library import cyclic, library


Z3 = "cayley 3\n0 1 2\n1 2 0\n2 0 1\n"
RZ3 = "cayley 3\n# right zero\n0 1 2\n0 1 2\n0 1 2\n"
T2 = "transformation 2 2\n1 0\n0 0\n"
REES = "rees 1 2 2 1\n0\n0 -\n- 0\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("z3", Z3), ("rz3", RZ3), ("t2", T2), ("rees", REES)]:
        p = tmp_path / f"{name}.sg"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_parse_trivial():
    s, r = parse_input("cayley 1\n0\n")
    assert s.size == 1 and r is None


def test_parse_transformation():
    s, _ = parse_input(T2)
    assert s.size == 4


def test_parse_range_error():
    with pytest.raises(ValueError):
        parse_input("cayley 2\n0 1\n1 2\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_input("cayley 2\n0 1\nx y\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_input("")
    with pytest.raises(ParseError):
        parse_input("sudoku 2\n")


@pytest.mark.parametrize("text", ["", "# only comments\n\n   \n# and blank lines\n"],
                         ids=["empty", "comments"])
def test_empty_input_names_no_line(tmp_path, capsys, text):
    with pytest.raises(ParseError) as err:
        parse_input(text)
    assert err.value.line is None
    path = tmp_path / "in.sg"
    path.write_text(text)
    code = run(["info", "-i", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: empty input\n"


def test_parse_comments_and_format_override():
    s, _ = parse_input(RZ3, fmt="cayley")
    assert s.size == 3
    with pytest.raises(ParseError):
        parse_input(RZ3, fmt="rees")


def test_parse_rees():
    s, r = parse_input(REES)
    assert s.size == 5 and r is not None and r.with_zero


def test_close_json(files, capsys):
    code = run(["close", "-i", files["rz3"], "--pairs", "0 1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == {"index": 2, "classes": [[0, 1], [2]]}


def test_close_json_round_trip(files, capsys):
    run(["close", "-i", files["z3"], "--pairs", "0 1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    class_of = [None] * 3
    for k, members in enumerate(payload["classes"]):
        for m in members:
            class_of[m] = k
    rho = right_congruence(cyclic(3), class_of)
    assert rho.index == payload["index"]
    assert payload["classes"] == rho.classes()


def test_witness_output(files, capsys):
    code = run(["witness", "-i", files["z3"], "--pairs", "0 1",
                "--from", "0", "--to", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 1
    assert payload["steps"] == [{"x": 1, "y": 0, "s": 2}]


def test_witness_formal_identity_serialized_as_string(files, capsys):
    run(["witness", "-i", files["rz3"], "--pairs", "0 1",
         "--from", "0", "--to", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["steps"][0]["s"] == "1"


def test_witness_nopath(files, capsys):
    code = run(["witness", "-i", files["rz3"], "--pairs", "0 1",
                "--from", "0", "--to", "2", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["nopath"] is True


def test_info_flags(files, capsys):
    code = run(["info", "-i", files["z3"], "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["group"] and payload["size"] == 3


def test_green_json(files, capsys):
    code = run(["green", "-i", files["t2"], "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["D"]) == 2
    for entry in payload["D"]:
        assert set(entry) == {"R_rows", "L_cols", "H_size", "is_group"}
    assert len(payload["maximal_subgroups"]) == 3


def test_congruences_count(files, capsys):
    code = run(["congruences", "-i", files["rz3"], "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["count"] == 5


def test_congruences_cap(files, capsys):
    code = run(["congruences", "-i", files["rz3"], "--max", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "cap exceeded" in captured.err


def test_congruences_stats_end_stderr_and_leave_stdout_alone(tmp_path, capsys):
    path = tmp_path / "t3.sg"
    path.write_text("transformation 3 3\n1 2 0\n1 0 2\n0 0 2\n")
    assert run(["congruences", "-i", str(path), "--json"]) == 0
    plain = capsys.readouterr()
    assert run(["congruences", "-i", str(path), "--json", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out and plain.err == ""
    assert captured.err.endswith("}\n") and captured.err.count("\n") == 1
    stats = json.loads(captured.err)
    assert list(stats) == sorted(stats)
    assert stats["congruence.walk.merges_tried"] == 696
    assert stats["congruence.walk.merges_skipped"] == 599
    assert stats["congruence.walk.merges_kept"] == 286
    assert not trace.enabled


def test_stats_come_after_warnings_and_not_after_an_error(tmp_path, files, capsys):
    path = tmp_path / "w.rs"
    path.write_text(IRREGULAR_REES)
    assert run(["rees", "--construct", "-i", str(path), "--stats"]) == 0
    warning, stats = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning: sandwich matrix is not regular")
    assert isinstance(json.loads(stats), dict)
    assert run(["congruences", "-i", files["rz3"], "--max", "2", "--stats"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("cap", ["-3", "-1"])
def test_congruences_negative_cap_is_one_error_line(files, capsys, cap):
    code = run(["congruences", "-i", files["rz3"], "--max", cap])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_minimize(files, capsys):
    code = run(["minimize", "-i", files["z3"],
                "--pairs", "0 1; 0 2; 1 2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload == {"pairs": [[0, 1]], "optimal": True}


def test_diameter(files, capsys):
    code = run(["diameter", "-i", files["z3"], "--pairs", "0 1", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"diameter": 1}
    run(["diameter", "-i", files["rz3"], "--pairs", "0 1", "--json"])
    assert json.loads(capsys.readouterr().out) == {"disconnected": True, "index": 2}


def test_schutz(files, capsys):
    code = run(["schutz", "-i", files["z3"], "--element", "0", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["group_size"] == 3
    assert payload["stabilizer"][-1] == "1"


@pytest.mark.parametrize("verb", [["schutz"], ["verify", "--construction", "schutz"]])
@pytest.mark.parametrize("element", ["7", "3", "-1"])
def test_schutz_element_out_of_range_is_one_error_line(files, capsys, verb, element):
    code = run([*verb, "-i", files["z3"], "--element", element])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("ideal", ["7", "3", "0,3", "-1,0", "0.5"])
def test_ideal_out_of_range_is_one_error_line(files, capsys, ideal):
    code = run(["verify", "-i", files["z3"], "--construction", "ideal",
                f"--ideal={ideal}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_quotient_without_pairs_is_one_line_with_exit_1(files, capsys):
    code = run(["verify", "-i", files["z3"], "--construction", "quotient"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: quotient needs --pairs\n"


BAD_INPUTS = {
    "empty": "",
    "ragged": "cayley 2\n0 1\n1\n",
    "float": "cayley 2\n0 1\n1 0.0\n",
    "nonassoc": "cayley 2\n1 0\n0 0\n",
    "unknown": "sudoku 2\n0 1\n1 0\n",
    "rees_float": "rees 2 1 1 0\n0 1\n1 0\n1.0\n",
    "rees_word": "rees 2 1 1 0\n0 1\n1 0\nx\n",
    "negative_size": "cayley -1\n",
    "negative_degree": "transformation -1 1\n0\n",
    "negative_rees_count": "rees 1 -1 1 0\n0\n0\n",
    "zero_flag_2": "rees 1 1 1 2\n0\n0\n",
    "zero_flag_negative": "rees 1 1 1 -1\n0\n0\n",
    "zero_size": "cayley 0\n",
    "zero_count": "transformation 2 0\n",
    "zero_group": "rees 0 1 1 0\n",
    "zero_degree": "transformation 0 1\n",
}


@pytest.mark.parametrize("argv", [
    ["verify", "-i", "{z3}"],
    ["verify", "-i", "{z3}", "--construction", "dp"],
    ["verify", "-i", "{z3}", "--construction", "quotient"],
    ["verify", "-i", "{z3}", "--construction", "ideal"],
    ["verify", "-i", "{lz2}", "--construction", "ideal", "--ideal", "0,1"],
    ["rees", "--construct", "-i", "{z3}"],
    ["theta", "-i", "{z3}"],
    ["congruences", "-i", "{z3}", "--max", "0"],
    *[["info", "-i", "{%s}" % name] for name in BAD_INPUTS],
    ["rees", "--construct", "-i", "{rees_float}"],
])
def test_every_exit_1_path_is_one_error_line(files, tmp_path, capsys, argv):
    paths = dict(files)
    for name, text in [("lz2", "cayley 2\n0 0\n1 1\n"), *BAD_INPUTS.items()]:
        paths[name] = str(tmp_path / f"{name}.sg")
        (tmp_path / f"{name}.sg").write_text(text)
    code = run([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_decompose(files, capsys):
    code = run(["decompose", "-i", files["t2"], "--mode", "cr", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and len(payload["components"]) == 2
    code = run(["decompose", "-i", files["rz3"], "--mode", "arch"])
    assert code == 1  # not commutative


def test_rees_construct_emits_cayley(files, capsys):
    code = run(["rees", "--construct", "-i", files["rees"]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("cayley 5\n")
    s, _ = parse_input(out)
    assert s.zero == 4


def test_rees_to_coordinates_round_trip(files, capsys, tmp_path):
    run(["rees", "--construct", "-i", files["rees"]])
    cayley_text = capsys.readouterr().out
    p = tmp_path / "built.sg"
    p.write_text(cayley_text)
    code = run(["rees", "--to-coordinates", "-i", str(p)])
    rees_text = capsys.readouterr().out
    assert code == 0 and rees_text.startswith("rees 1 2 2 1")
    s, r = parse_input(rees_text)
    assert s.size == 5 and r.with_zero


def test_theta(files, capsys):
    code = run(["theta", "-i", files["rees"], "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["patterns"] == [[1, 0], [0, 1]]
    assert payload["index"] == 3


def test_verify_constructions_exit_codes(files, capsys):
    assert run(["verify", "-i", files["z3"], "--construction", "fg"]) == 0
    assert run(["verify", "-i", files["z3"], "--construction", "schutz",
                "--element", "0"]) == 0
    assert run(["verify", "-i", files["z3"], "--construction", "diagonal"]) == 0
    assert run(["verify", "-i", files["z3"], "--construction", "lclass"]) == 0
    assert run(["verify", "-i", files["z3"], "--construction", "extend",
                "--pairs", "0 1"]) == 0
    capsys.readouterr()


def test_verify_dp(files, capsys, tmp_path):
    second = tmp_path / "z2.sg"
    second.write_text("cayley 2\n0 1\n1 0\n")
    code = run(["verify", "-i", files["z3"], "--construction", "dp",
                "--second", str(second), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["passed"]


def test_verify_quotient_and_ideal(capsys, tmp_path):
    chain2 = tmp_path / "chain2.sg"
    chain2.write_text("cayley 2\n0 0\n0 1\n")
    assert run(["verify", "-i", str(chain2), "--construction", "quotient",
                "--pairs", "0 1"]) == 0
    assert run(["verify", "-i", str(chain2), "--construction", "ideal",
                "--ideal", "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("target, message", [
    (None, "ideal has no internal identity"), ("0 1", "ideal has no internal identity"),
    # the pairs are read before the replay finds that the ideal has no identity
    ("0 x", "--target-pairs: expected an integer, got 'x'")])
def test_an_ideal_without_an_identity_is_one_error_line(files, capsys, target, message):
    argv = ["verify", "-i", files["rz3"], "--construction", "ideal", "--ideal", "0,1,2"]
    code = run(argv + ([] if target is None else ["--target-pairs", target]))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_requires_mode(files, capsys):
    assert run(["verify", "-i", files["z3"]]) == 1
    assert "needs" in capsys.readouterr().err


def test_verify_sweep(capsys):
    code = run(["verify", "--sweep", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["all_passed"]


def test_verify_sweep_stats_count_tables_searches_and_checked_congruences(capsys):
    assert run(["verify", "--sweep", "--stats"]) == 0
    stats = json.loads(capsys.readouterr().err.splitlines()[-1])
    # the sweep's 180 tables and the 17 of the library it builds: the 16 hand
    # tables and the 55 Schutzenberger groups checked, the rest derived
    assert stats["core.semigroups.checked"] == 16 + 55
    assert stats["core.semigroups.derived"] == 126
    assert stats["congruence.checked"] == 71
    assert stats["congruence.generating_pairs.searches"] == 106
    assert stats["congruence.generating_pairs.memo_hits"] == 1306


def test_stdout_byte_identical(files, capsys):
    run(["green", "-i", files["t2"]])
    first = capsys.readouterr()
    run(["green", "-i", files["t2"]])
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.err == ""


def test_errors_go_to_stderr_with_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.sg"
    bad.write_text("cayley 2\n0 1\n1 2\n")
    code = run(["info", "-i", str(bad)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and captured.err != ""


def test_missing_file_is_exit_1(capsys):
    assert run(["info", "-i", "/nonexistent/input.sg"]) == 1
    assert capsys.readouterr().err != ""


def test_stdin_input(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(Z3))
    code = run(["info", "-i", "-", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["group"]


def test_close_human_output_snapshot(files, capsys):
    code = run(["close", "-i", files["rz3"], "--pairs", "0 1"])
    assert code == 0
    assert capsys.readouterr().out == "index: 2\nclass 0: 0 1\nclass 1: 2\n"


def _failed_report(inputs=""):
    # constructions are theorem-backed, so a genuine failure needs a stub
    from sgt.verify import VerificationReport
    return VerificationReport(construction="schutz", inputs=inputs,
                              built_pairs=None, built_elements=None,
                              expected=None, computed=None, passed=False,
                              distinguishing_pair=None, note="stub")


def test_failed_verification_is_exit_2(files, capsys, monkeypatch):
    import sgt.cli as cli
    monkeypatch.setattr(cli, "verify_schutz_gens",
                        lambda s, element, inputs="": _failed_report(inputs))
    code = run(["verify", "-i", files["z3"], "--construction", "schutz",
                "--element", "0"])
    assert code == 2
    capsys.readouterr()


def test_a_failed_sweep_is_exit_2_and_reads_no_stdin(capsys, monkeypatch):
    import sgt.cli as cli
    monkeypatch.setattr(cli, "sweep", lambda: [_failed_report()])
    monkeypatch.setattr("sys.stdin", io.StringIO("not a table"))
    assert run(["verify", "--sweep"]) == 2
    assert capsys.readouterr().out == "schutz     0/1 passed\nFAILURES PRESENT\n"
    assert run(["verify", "--sweep", "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "all_passed": False, "constructions": {"schutz": {"runs": 1, "passed": 0}}}


@pytest.mark.parametrize("argv, index", [
    (["--construction", "fg", "--pairs="], 3),
    (["--construction", "extend", "--sigma-pairs="], 3),
    (["--construction", "quotient", "--pairs="], 1),
])
def test_an_empty_pairs_option_is_the_empty_pair_set(files, capsys, argv, index):
    # an option that is not given means the universal congruence here
    code = run(["verify", "-i", files["z3"], *argv, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["expected"]["index"] == index


def test_lclass_with_an_empty_pair_set_fails(files, capsys):
    code = run(["verify", "-i", files["z3"], "--construction", "lclass", "--pairs="])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: pair set does not generate the L-relation\n"


@pytest.mark.parametrize("argv", [
    ["congruences", "-i", "{z3}", "--max", "2.5"],
    ["schutz", "-i", "{z3}", "--element", "x"],
    ["close", "-i", "{z3}"],
    ["witness", "-i", "{z3}", "--pairs", "0 1", "--from", "0"],
    ["frobnicate"],
    [],
    ["info", "-i", "{z3}", "--format", "xml"],
    ["rees", "-i", "{z3}"],
    ["info", "-i", "{z3}", "--no-such-flag"],
])
def test_usage_errors_are_one_error_line_with_exit_1(files, capsys, argv):
    code = run([a.format(**files) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["congruences", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage: sgt" in capsys.readouterr().out


def test_internal_failure_is_one_error_line_with_exit_3(files, capsys, monkeypatch):
    import sgt.cli as cli
    from sgt.core import InternalAssertFailure

    def broken(s):
        raise InternalAssertFailure("H-class is not a group")

    monkeypatch.setattr(cli, "green_data", broken)
    code = run(["green", "-i", files["z3"]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: internal: H-class is not a group\n"


@pytest.mark.parametrize("argv, name, fake, message", [
    (["diameter", "--pairs", "0 1"], "_distances", lambda adj, src: [-1] * len(adj),
     "universal congruence but sequence graph disconnected"),
    (["witness", "--pairs", "0 1", "--from", "0", "--to", "1"], "_distances",
     lambda adj, src: [1] * len(adj), "BFS tree walk lost the path"),
    (["minimize", "--pairs", "0 1"], "_first_combination", lambda *args: None,
     "within-class pairs must generate their congruence"),
])
def test_a_theorem_check_of_the_congruence_module_exits_3(files, capsys, monkeypatch,
                                                          argv, name, fake, message):
    # these checks once raised a bare AssertionError, which run printed as a traceback
    from sgt import congruence

    monkeypatch.setattr(congruence, name, fake)
    code = run([*argv, "-i", files["z3"]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: internal: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["info", "-i", "{bad_header}"], "line 1: expected an integer, got 'x'"),
    (["info", "-i", "{bad_row}"], "line 3: expected an integer, got '0.0'"),
    (["info", "-i", "{bad_degree}"], "line 1: expected an integer, got 'two'"),
    (["info", "-i", "{bad_rees_header}"], "line 1: expected an integer, got 'y'"),
    (["info", "-i", "{bad_sandwich}"], "line 4: expected an integer, got '1.0'"),
    (["close", "-i", "{z3}", "--pairs", "0 1; a b"], "--pairs: expected an integer, got 'a'"),
    (["verify", "-i", "{z3}", "--construction", "extend", "--sigma-pairs", "0 x"],
     "--sigma-pairs: expected an integer, got 'x'"),
    (["verify", "-i", "{z3}", "--construction", "quotient", "--pairs", "0 0",
      "--target-pairs", "0 -"], "--target-pairs: expected an integer, got '-'"),
    (["verify", "-i", "{z3}", "--construction", "fg", "--gens", "0,a"],
     "--gens: expected an integer, got 'a'"),
    (["verify", "-i", "{z3}", "--construction", "fg", "--gens", "0,,1"],
     "--gens: expected an integer, got ''"),
    (["verify", "-i", "{z3}", "--construction", "ideal", "--ideal", "0,1.5"],
     "--ideal: expected an integer, got '1.5'"),
    (["info", "-i", "{negative_size}"], "line 1: expected a count >= 1, got '-1'"),
    (["info", "-i", "{negative_rees_count}"], "line 1: expected a count >= 1, got '-1'"),
    (["info", "-i", "{zero_flag_2}"], "line 1: expected a zero flag of 0 or 1, got '2'"),
    (["info", "-i", "{zero_flag_negative}"],
     "line 1: expected a zero flag of 0 or 1, got '-1'"),
    (["verify", "-i", "{z3}", "--construction", "fg", "--gens="],
     "--gens: expected an integer, got ''"),
    (["verify", "-i", "{z3}", "--construction", "ideal", "--ideal="],
     "--ideal: expected an integer, got ''"),
    # a count of 0 once gave a message that named no line, or the wrong one
    (["info", "-i", "{zero_size}"], "line 1: expected a count >= 1, got '0'"),
    (["info", "-i", "{zero_count}"], "line 1: expected a count >= 1, got '0'"),
    (["info", "-i", "{zero_group}"], "line 1: expected a count >= 1, got '0'"),
    (["info", "-i", "{zero_degree}"], "line 1: expected a count >= 1, got '0'"),
])
def test_bad_integer_token_is_named_with_its_line_or_option(files, tmp_path, capsys,
                                                            argv, message):
    paths = dict(files)
    for name, text in [("bad_header", "cayley x\n0\n"),
                       ("bad_row", "cayley 2\n0 1\n1 0.0\n"),
                       ("bad_degree", "transformation two 1\n0 0\n"),
                       ("bad_rees_header", "rees 1 y 1 0\n0\n0\n"),
                       ("bad_sandwich", "rees 2 2 1 1\n0 1\n1 0\n- 1.0\n"),
                       *BAD_INPUTS.items()]:
        paths[name] = str(tmp_path / f"{name}.sg")
        (tmp_path / f"{name}.sg").write_text(text)
    code = run([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["close", "-i", "{z3}", "--pairs", "0"], "--pairs: bad pair '0'; expected 'a b'"),
    (["minimize", "-i", "{z3}", "--pairs", "0 1; 0 1 2"],
     "--pairs: bad pair '0 1 2'; expected 'a b'"),
    (["verify", "-i", "{z3}", "--construction", "extend", "--sigma-pairs", "1"],
     "--sigma-pairs: bad pair '1'; expected 'a b'"),
    (["verify", "-i", "{z3}", "--construction", "quotient", "--pairs", "0 0",
      "--target-pairs", "0 1 2"], "--target-pairs: bad pair '0 1 2'; expected 'a b'"),
])
def test_bad_pair_is_named_with_its_option(files, capsys, argv, message):
    code = run([a.format(**files) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sandwich_dash_is_zero_and_other_tokens_are_ints():
    _, r = parse_input("rees 2 2 2 1\n0 1\n1 0\n- 1\n0 -\n")
    assert r.p_matrix == ((None, 1), (0, None))
    with pytest.raises(ParseError) as err:
        parse_input("cayley 2\n0 1\n1 -\n")
    assert err.value.line == 3


FUZZ_TOKENS = ["-1", "0.5", "x", "99", "-", "12345678901234567890", ""]
FUZZ_VERBS = [["info"], ["green"], ["congruences"], ["theta"], ["rees", "--construct"],
              ["decompose", "--mode", "cr"], ["close", "--pairs", "0 1"],
              ["diameter", "--pairs", "0 1"]]


@st.composite
def _one_token_mutation(draw):
    """A small valid input with one token replaced, or one line dropped."""
    lines = draw(st.sampled_from([Z3, T2, REES])).splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    token = draw(st.sampled_from([*FUZZ_TOKENS, None]))
    if token is None:
        del lines[k]
    else:
        tokens = lines[k].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = token
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_one_token_mutation(), st.sampled_from(FUZZ_VERBS))
def test_mutated_input_is_an_exit_code_never_a_traceback(text, verb):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([verb[0], "-i", "-", *verb[1:]])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def _python(*args, cwd=None):
    """A fresh interpreter that imports this sgt; warnings reach its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(sgt.__file__).resolve().parent.parent)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_importing_the_cli_does_not_import_numpy():
    out = _python("-c", "import sys, sgt.cli; print('numpy' in sys.modules)")
    assert (out.returncode, out.stdout, out.stderr) == (0, "False\n", "")


IRREGULAR_REES = "rees 1 2 2 1\n0\n- -\n- 0\n"


def test_a_library_warning_is_one_line_and_an_error_drops_it(tmp_path):
    (tmp_path / "w.rs").write_text(IRREGULAR_REES)
    out = _python("-m", "sgt.cli", "decompose", "--mode", "cr", "-i", "w.rs", cwd=tmp_path)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "error: input is not a union of groups\n"
    out = _python("-m", "sgt.cli", "rees", "--construct", "-i", "w.rs", cwd=tmp_path)
    assert out.returncode == 0 and out.stdout.startswith("cayley 5\n")
    assert out.stderr == ("warning: sandwich matrix is not regular; "
                          "classification not checked\n")


# Spellings of an entry v of an n-element table: the first ones read as v by
# int(), the rest are out of range, negative, or not integers at all
RESPELL = [lambda v, n: f"00{v}", lambda v, n: f"+{v}", lambda v, n: f"0_{v}",
           lambda v, n: f"-{v}", lambda v, n: chr(0xFF10 + v), lambda v, n: f" {v}\t",
           lambda v, n: "1_0", lambda v, n: str(n + v), lambda v, n: f"{v}.0",
           lambda v, n: "x", lambda v, n: "-", lambda v, n: "0x1"]
_SMALL_TABLES = [s.table for s in library().values() if s.size <= 5]


@st.composite
def _respelled_cayley_texts(draw):
    """A small table, associative or not, as a cayley text with some entries
    respelled, and at times a ragged row, a row too many or too few, or a
    padded header."""
    rows = draw(st.one_of(st.sampled_from(_SMALL_TABLES), st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                           min_size=n, max_size=n))))
    n = len(rows)
    tokens = [[str(v) for v in row] for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        tokens[r][c] = draw(st.sampled_from(RESPELL))(rows[r][c], n)
    shape = draw(st.sampled_from(["square", "short", "long", "rows", "header"]))
    r = draw(st.integers(0, n - 1))
    if shape == "short":
        tokens[r].pop()
    elif shape == "long":
        tokens[r].append("0")
    elif shape == "rows" and draw(st.booleans()):
        tokens.pop(r)
    elif shape == "rows":
        tokens.insert(r, tokens[r])
    head = f"cayley 0{n}" if shape == "header" else f"cayley {n}"
    return "\n".join([head, *(" ".join(row) for row in tokens)]) + "\n"


@settings(max_examples=400, deadline=None)
@given(_respelled_cayley_texts())
def test_parse_matches_the_one_int_per_token_oracle(text):
    try:
        want = oracles.brute_parse_cayley(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            parse_input(text)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        return
    s, r = parse_input(text)
    assert r is None and s.table == want.table
    assert all(type(v) is int for row in s.table for v in row)


def test_parse_reads_cyclic_500_without_holding_its_tokens():
    text = _cayley_text(cyclic(500))
    tracemalloc.start()
    try:
        with trace.counting() as counts:
            s, _ = parse_input(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s == cyclic(500)
    assert peak < 8 * 2 ** 20  # splitting the whole file up front peaks at 23 MB
    assert len({id(v) for row in s.table for v in row}) == 500
    assert counts["cli.parse.fallback_rows"] == 0


def test_stats_count_the_rows_read_with_int(tmp_path, capsys):
    path = tmp_path / "z3.sg"
    path.write_text(Z3.replace("2 0 1", "2 0 001"))
    assert run(["info", "-i", str(path), "--stats"]) == 0
    stats = json.loads(capsys.readouterr().err)
    assert stats["cli.parse.fallback_rows"] == 1


def test_running_out_of_memory_is_one_error_line_not_a_traceback(tmp_path):
    """congruences --max 5 on cyclic(1500) builds a pair graph of 1.1 million
    nodes before the cap is tested; under a 250 MB address space it runs out
    of memory.  The limit is set in the child only."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "c1500.sg"
    path.write_text(_cayley_text(cyclic(1500)))
    cap = 250 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {**os.environ, "PYTHONPATH": str(Path(sgt.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-m", "sgt.cli", "congruences", "--max", "5",
                          "-i", str(path)], env=env, preexec_fn=limit,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (4, "", "error: out of memory\n")
