"""Tests of the benchmark itself: python3 -m pytest benchmark/test_bench.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# ---------------------------------------------------------------- generators

@pytest.mark.parametrize("n,markings", [(3, 4), (4, 7), (5, 11), (6, 18)])
def test_philosopher_net_sizes(n, markings):
    from tracesys import parse_petri, petri_to_system

    f = inputs.phil_file(n)
    assert f.size == {"states": markings, "letters": 2 * n}
    system = petri_to_system(parse_petri(f.text))
    assert len(system.states) == markings
    assert len(system.monoid.letters) == 2 * n


@pytest.mark.parametrize("k,cliques", [(8, 55), (10, 144), (12, 377), (13, 610)])
def test_path_monoid_sizes(k, cliques):
    from tracesys import parse_system

    f = inputs.path_file(k)
    assert f.size["cliques"] == cliques
    system = parse_system(f.text)
    assert len(system.states) == 1
    assert len(system.monoid.cliques()) == cliques


def test_size_self_check_passes_on_every_ladder():
    files = inputs.ladder_files(inputs.PETRI_LADDER) + inputs.ladder_files(inputs.PATH_LADDER)
    assert inputs.check_sizes(files) == []


def test_sample_stream_is_seeded_and_large_enough():
    import random

    a = inputs.sample_stream(random.Random(5))
    assert a == inputs.sample_stream(random.Random(5))
    assert a != inputs.sample_stream(random.Random(6))
    assert len(a) >= 100
    assert {r.system for r in a} == set(inputs.SAMPLE_SYSTEMS)
    catalogue = {r.key for r in inputs.uniform_catalogue()}
    for r in a:
        if r.mode == "uniform":
            assert r.key in catalogue and 20 <= r.length <= 200
        else:
            assert 1 <= r.steps <= inputs.MCSC_MAX_STEPS
        assert 1 <= r.count <= inputs.MAX_COUNT


# ---------------------------------------------------------------- tracer

def _span(name, start, end, parent):
    return tracer.Span(name, start, end, parent, request=0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 5.0, 9.0, 0),
        _span("d", 6.0, 7.0, 2),
        _span("b", 9.5, 10.0, 0),
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"a": 2.5, "b": 3.5, "c": 3.0, "d": 1.0})


def test_self_time_merges_overlapping_children():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 5.0, 0), _span("b", 3.0, 7.0, 0)]
    assert tracer.self_times(spans)["a"] == pytest.approx(4.0)


def test_tracer_reaches_every_binding_and_restores(tmp_path):
    from tracesys import cli, graphs, measure

    f = inputs.fixture_file("aztec")
    path = tmp_path / f.filename
    path.write_text(f.text)
    original = (graphs.build_dsc, measure.build_dsc, cli.main)
    tr = tracer.Tracer()
    with tracer.Installed(tr):
        rc, out, _err = run.call_cli(cli, ["analyze", str(path), "--json"])
    assert rc == 0
    assert (graphs.build_dsc, measure.build_dsc, cli.main) == original
    s = tr.summary()
    letters = len(json.loads(out)["monoid"]["letters"])
    # one determinant in the report, one per characteristic_root call (3),
    # one per letter restriction
    assert s["spectral.determinant.calls"] == 4 + letters
    assert s["graphs.build_dsc.calls"] == 5
    assert s["graphs.build_adsc.calls"] == 3
    assert s["cli.main.calls"] == 1
    assert s["poly.count_roots.calls"] > 0
    assert sum(v for k, v in s.items() if k.endswith(".self_s")) > 0
    assert set(s) | {"trace.overhead_ratio"} == set(tracer.per_layer_names())


# ---------------------------------------------------------------- checker

@pytest.fixture(scope="module")
def phil4_golden():
    return check.load_golden_report("phil4")


def test_checker_accepts_golden_and_float_noise(phil4_golden):
    assert check.check_report(phil4_golden, phil4_golden) == []
    doc = json.loads(phil4_golden)
    row = next(iter(doc["uniform_measure"]["h"].values()))
    key = next(k for k, v in row.items() if v > 0)
    row[key] += 1e-12
    assert check.check_report(json.dumps(doc), phil4_golden) == []


def test_checker_rejects_changed_theta_coefficient(phil4_golden):
    doc = json.loads(phil4_golden)
    doc["polynomials"]["determinant"][1] += 1
    problems = check.check_report(json.dumps(doc), phil4_golden)
    assert any("determinant" in p for p in problems)


def test_checker_rejects_h_entry_off_by_1e_6(phil4_golden):
    doc = json.loads(phil4_golden)
    row = next(iter(doc["uniform_measure"]["h"].values()))
    key = next(iter(row))
    row[key] += 1e-6
    problems = check.check_report(json.dumps(doc), phil4_golden)
    assert any("uniform_measure.h" in p for p in problems)


def test_checker_rejects_disjoint_root(phil4_golden):
    from fractions import Fraction

    doc = json.loads(phil4_golden)
    lo, hi = Fraction(doc["root"]["lo"]), Fraction(doc["root"]["hi"])
    moved = (hi + (hi - lo), hi + 2 * (hi - lo))
    doc["root"]["lo"], doc["root"]["hi"] = (f"{x.numerator}/{x.denominator}" for x in moved)
    problems = check.check_report(json.dumps(doc), phil4_golden)
    assert any("overlap" in p for p in problems)


def test_sample_checks():
    f = inputs.path_file(8)
    deps = f.model.dependence()
    assert check.height(deps, ["x0", "x2", "x1", "x5"]) == 2
    assert check.check_word(f.model, deps, ["x0", "x2"], length=2) is None
    assert check.check_word(f.model, deps, ["x0", "x9"], length=2) is not None
    assert check.check_word(f.model, deps, ["x0", "x2"], steps=2) is not None
    net = inputs.phil_file(3)
    assert check.is_execution(net.model, ["take_0", "put_0", "take_1"])
    assert not check.is_execution(net.model, ["take_0", "take_1"])


def test_golden_uniform_cells_cover_the_catalogue():
    golden = check.load_uniform_golden()
    assert set(golden) == {r.key for r in inputs.uniform_catalogue()}


def test_percentile_is_nearest_rank():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    assert run.percentile(list(range(1, 101)), 0.9) == 90
    assert run.percentile([7.0], 0.9) == 7.0


def test_uniform_samples_must_equal_golden(tmp_path):
    from tracesys import cli

    f = inputs.fixture_file("aztec")
    path = tmp_path / f.filename
    path.write_text(f.text)
    req = inputs.uniform_cell("aztec", 20, 0)
    rc, out, _err = run.call_cli(cli, [req.args[0], str(path), *req.args[1:]])
    assert rc == 0
    golden, deps = check.load_uniform_golden(), f.model.dependence()
    assert check.check_sample_output(out, req, f.model, deps, golden) == []
    doc = json.loads(out)
    doc["samples"][0] = doc["samples"][0][:-1]
    problems = check.check_sample_output(json.dumps(doc), req, f.model, deps, golden)
    assert any("length" in p for p in problems)
    assert any("golden" in p for p in problems)
