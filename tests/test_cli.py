import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from bench_modules import inputs
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracesys
from tracesys import report as report_mod
from tracesys import sampling
from tracesys.cli import build_parser, format_json, main
from tracesys.fixtures import ALL_SYSTEMS, aztec_system, two_state_system
from tracesys.specfile import render_system

PETRI_TEXT = """\
[places] p q
[transitions] t u
[flow]
p -> t, t -> q
q -> u, u -> p
[marking] p
"""


@pytest.fixture()
def e1_file(tmp_path):
    path = tmp_path / "e1.csys"
    path.write_text(render_system(two_state_system()))
    return str(path)


@pytest.fixture()
def aztec_file(tmp_path):
    path = tmp_path / "aztec.csys"
    path.write_text(render_system(aztec_system()))
    return str(path)


def test_check_ok(e1_file, capsys):
    assert main(["check", e1_file, "--expect-irreducible"]) == 0
    out = capsys.readouterr().out
    assert "irreducible=True" in out


def test_check_expectation_fails(tmp_path, capsys):
    path = tmp_path / "red.csys"
    path.write_text(
        "[alphabet] a b\n[independence] a b\n[states] s\n[action]\ns a s\ns b s\n"
    )
    assert main(["check", str(path), "--expect-irreducible"]) == 1


@pytest.mark.parametrize("name", sorted(ALL_SYSTEMS))
def test_check_json_is_report_classification(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csys"
    path.write_text(render_system(ALL_SYSTEMS[name]()))
    assert main(["check", str(path), "--json"]) == 0
    check = json.loads(capsys.readouterr().out)
    assert main(["analyze", str(path), "--json"]) == 0
    classification = json.loads(capsys.readouterr().out)["classification"]
    assert json.dumps(check) == json.dumps(classification)


def test_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csys"
    path.write_text("[alphabet] a\n[action]\n")
    assert main(["check", str(path)]) == 2
    assert main(["check", str(tmp_path / "absent.csys")]) == 2
    capsys.readouterr()
    binary = tmp_path / "binary.csys"
    binary.write_bytes(b"\xff\xfe[alphabet] a\n")
    for command in ("check", "analyze"):
        assert main([command, str(binary)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read input: ") and err.count("\n") == 1
    twice = tmp_path / "twice.pn"
    twice.write_text("[places] p p\n[transitions] t\n[flow]\np -> t, t -> p\n[marking] p\n")
    assert main(["check", str(twice), "--petri"]) == 2
    assert capsys.readouterr().err == "error: line 1: 'p' is declared twice\n"
    letters = tmp_path / "letters.csys"
    letters.write_text("[alphabet] a\n[states] s\n[alphabet] a\n[action]\ns a s\n")
    assert main(["check", str(letters)]) == 2
    assert capsys.readouterr().err == "error: line 3: duplicate letter 'a'\n"


def test_analyze_json(e1_file, capsys):
    assert main(["analyze", e1_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["polynomials"]["determinant"] == [1, -3, 2]
    assert doc["root"]["exact"] is True
    assert doc["root"]["approx"] == 0.5
    nulls = [n for n in doc["node_labels"] if n["label"] == "null"]
    assert nulls == [{"state": "s0", "clique": "d", "label": "null"}]
    assert doc["spectral_property"]["holds"] is True
    assert doc["uniform_measure"]["gamma"]["vector"] == {"s0": 1.0, "s1": 1.0}
    assert doc["diagnostics"]["uniqueness"]["ok"] is True
    assert doc["inversion"]["ok"] is True


@pytest.mark.parametrize("value", ["0", "-1", "abc", "1/0"])
def test_analyze_bad_precision_is_usage_error(e1_file, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", e1_file, f"--precision={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --precision" in err
    assert "Traceback" not in err


def test_analyze_precision_accepts_fraction(e1_file, capsys):
    assert main(["analyze", e1_file, "--json", "--precision", "1/1000"]) == 0
    assert json.loads(capsys.readouterr().out)["root"]["exact"] is True


@pytest.mark.parametrize(
    "f", [inputs.fixture_file("aztec"), inputs.phil_file(4), inputs.path_file(8)],
    ids=lambda f: f.name,
)
def test_analyze_coarse_precision_keeps_the_measure(f, tmp_path, capsys):
    # the float kernel of the measure needs a tighter root than 1e-3
    path = tmp_path / f.filename
    path.write_text(f.text)
    argv = ["analyze", *f.argv(str(path)), "--json"]
    assert main(argv) == 0
    want = json.loads(capsys.readouterr().out)
    for precision in ("1e-3", "1/10"):
        assert main([*argv, "--precision", precision]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["uniform_measure"] == want["uniform_measure"]
        assert doc["root"]["width"] != want["root"]["width"]  # reported as asked


def test_analyze_human_summary(e1_file, capsys):
    assert main(["analyze", e1_file]) == 0
    out = capsys.readouterr().out
    assert "characteristic root: 0.5 (exact)" in out
    assert "null nodes: ['(s0,d)']" in out


def test_analyze_byte_identical(aztec_file, capsys):
    main(["analyze", aztec_file, "--json"])
    first = capsys.readouterr().out
    main(["analyze", aztec_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_reducible_has_null_measure(tmp_path, capsys):
    path = tmp_path / "red.csys"
    path.write_text(
        "[alphabet] a b\n[independence] a b\n[states] s\n[action]\ns a s\ns b s\n"
    )
    assert main(["analyze", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["uniform_measure"] is None
    assert doc["spectral_property"]["holds"] is False
    assert doc["spectral_property"]["witness"] in ("a", "b")


def test_sample_deterministic(e1_file, capsys):
    assert main(["sample", e1_file, "--mode", "uniform", "--length", "6",
                 "--count", "2", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    main(["sample", e1_file, "--mode", "uniform", "--length", "6",
          "--count", "2", "--seed", "5"])
    assert capsys.readouterr().out == first
    assert len(first.splitlines()) == 2


def test_sample_mcsc_json(e1_file, capsys):
    assert main(["sample", e1_file, "--mode", "mcsc", "--steps", "4",
                 "--seed", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "mcsc" and doc["start"] == "s0"
    assert len(doc["samples"]) == 1


def test_oracle_subcommand(e1_file, capsys):
    assert main(["oracle", e1_file, "--max-len", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["mismatches"] == []


def test_export_dot_file(e1_file, tmp_path, capsys):
    out = tmp_path / "dsc.dot"
    assert main(["export-dot", e1_file, "--graph", "dsc", "-o", str(out)]) == 0
    assert out.read_text().startswith("digraph dsc")
    assert main(["export-dot", e1_file, "--graph", "states"]) == 0
    assert "digraph states" in capsys.readouterr().out
    assert main(["export-dot", e1_file, "--graph", "condensation"]) == 0
    assert "digraph condensation" in capsys.readouterr().out
    assert main(["export-dot", e1_file, "--graph", "adsc"]) == 0
    assert "digraph adsc" in capsys.readouterr().out


def test_export_dot_unwritable_output_exit_code(e1_file, tmp_path, capsys):
    for out in (tmp_path / "absent" / "x.dot", tmp_path):
        assert main(["export-dot", e1_file, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.err.count("\n") == 1


def test_petri_input(tmp_path, capsys):
    path = tmp_path / "net.pn"
    path.write_text(PETRI_TEXT)
    assert main(["check", str(path), "--petri"]) == 0
    out = capsys.readouterr().out
    assert "states=2" in out


def test_petri_unbounded_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.pn"
    path.write_text(
        "[places] p q\n[transitions] t\n[flow]\np -> t, t -> q\n[marking] p q\n"
    )
    assert main(["check", str(path), "--petri"]) == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--mode", "uniform", "--length", "-3"],
    ["sample", "--count", "-1", "--json"],
    ["sample", "--mode", "mcsc", "--steps", "-1"],
    ["sample", "--count", "two"],
    ["analyze", "--series-order", "-1"],
    ["oracle", "--max-len", "-1"],
])
def test_negative_counts_are_usage_errors(e1_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], e1_file, *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err


def test_sample_unknown_start_is_input_error(e1_file, capsys):
    assert main(["sample", e1_file, "--start", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown state 'nope'\n"
    assert captured.out == ""


@pytest.mark.parametrize("mode, option", [("uniform", "--steps"), ("mcsc", "--length")])
def test_sample_refuses_the_other_modes_size(e1_file, mode, option, capsys):
    for value in ("0", "3", "500"):
        assert main(["sample", e1_file, "--mode", mode, option, value, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {option} does not apply to --mode {mode}\n"
        assert captured.out == ""


def test_sample_sizes_default_to_20_steps_and_length_10(e1_file, capsys):
    for mode, option, default in [("mcsc", "--steps", "20"), ("uniform", "--length", "10")]:
        assert main(["sample", e1_file, "--mode", mode, "--seed", "3", "--count", "4"]) == 0
        implicit = capsys.readouterr().out
        assert main(["sample", e1_file, "--mode", mode, option, default,
                     "--seed", "3", "--count", "4"]) == 0
        assert capsys.readouterr().out == implicit


def test_sample_zero_count_is_empty(e1_file, capsys):
    assert main(["sample", e1_file, "--count", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == []


def test_oracle_cap_is_authoritative(e1_file, monkeypatch, capsys):
    from tracesys import oracle

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(oracle, "enumerate_executions", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", e1_file, "--max-len", "30"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"between 0 and {oracle.DEFAULT_CAP}" in err


@pytest.mark.parametrize("command, lines", [("analyze", 1), ("check", 0)])
def test_closed_stdout_exits_without_traceback(command, lines, tmp_path):
    # path10's analyze report (about 0.5 MB) outgrows the pipe buffer, so the
    # writer is still printing when the reader closes after one line.  The
    # few lines of check stay in the block buffer of a piped stdout until
    # main flushes them; there the reader is gone before the process starts.
    f = inputs.path_file(10)
    path = tmp_path / f.filename
    path.write_text(f.text)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(tracesys.__file__).parents[1])
    argv = [sys.executable, "-m", "tracesys", command, *f.argv(str(path)), "--json"]
    r, w = os.pipe()
    if not lines:
        os.close(r)
    with subprocess.Popen(argv, stdout=w, stderr=subprocess.PIPE, env=env) as proc:
        os.close(w)
        if lines:
            with open(r, "rb") as reader:
                for _ in range(lines):
                    assert reader.readline() == b"{\n"
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


# ------------------------------------------------------------ report writer

json_keys = st.text() | st.sampled_from(["é", "\"", "\\", "\x00\x1f\x7f", " ", "😀"])
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | json_keys
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(json_keys, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example({"a": {}, "b": [[], {}, ()], "c": [[{}]]})
@example([[1, 2], [3.5, None], ["x", True]])
def test_format_json_is_stdlib_indent_2(obj):
    assert format_json(obj) == json.dumps(obj, indent=2)


def test_format_json_on_every_reference_report(reference_systems):
    for name, system in reference_systems.items():
        doc = report_mod.analyze_report(system)
        assert format_json(doc) == json.dumps(doc, indent=2), name


@pytest.mark.parametrize("obj", [{1: 2}, {"a": {None: []}}, [{"x": {1.5: 0}}]])
def test_format_json_refuses_non_str_keys(obj):
    with pytest.raises(TypeError):
        format_json(obj)


def _fresh_process(argv: list[str]) -> tuple[int, str, str]:
    """``python -m tracesys argv`` in a new interpreter: exit code, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(tracesys.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "tracesys", *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_calls_as_fresh_processes_would(aztec_file, capsys):
    # the second sample call leaves every option at its default, so no
    # value of the first call may linger in the shared parser
    calls = [
        ["sample", aztec_file, "--mode", "uniform", "--length", "12", "--count", "3",
         "--seed", "5", "--start", "1", "--json"],
        ["sample", aztec_file],
        ["check", aztec_file, "--json"],
        ["sample", aztec_file, "--bogus"],
    ]
    assert build_parser() is build_parser()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(argv), argv
    assert code == 2 and "unrecognized arguments: --bogus" in captured.err


def test_sample_length_over_the_table_cap_is_input_error(tmp_path, monkeypatch, capsys):
    f = inputs.path_file(10)
    path = tmp_path / f.filename
    path.write_text(f.text)
    monkeypatch.setattr(sampling, "TABLE_CAP_BYTES", 1 << 16)
    assert main(["sample", str(path), "--mode", "uniform", "--length", "3", "--json"]) == 0
    capsys.readouterr()
    assert main(["sample", str(path), "--mode", "uniform", "--length", "400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: the uniform sampler's count table passes the 0.0625 MiB cap at length "
    )
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
