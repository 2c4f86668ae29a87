"""Every function the benchmark tracer wraps must exist in tracesys, and
the CLI must reach it.

The tracer resolves ``SPANS``/``COUNTED`` targets by name when a traced
run starts, so deleting or renaming a traced function, or routing the
pipeline around it, would otherwise show only in a ``--trace 1``
benchmark run.
"""

import importlib

import pytest
from bench_modules import inputs, tracer


@pytest.mark.parametrize("target", tracer.SPANS + tracer.COUNTED)
def test_tracer_target_resolves(target):
    module, *attrs = target.split(".")
    obj = importlib.import_module(f"tracesys.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_every_traced_target_is_reached(tmp_path, capsys):
    import tracesys.cli as cli  # the tracer patches only modules already imported

    argv = {}
    for f in (inputs.phil_file(3), inputs.fixture_file("aztec")):
        path = tmp_path / f.filename
        path.write_text(f.text)
        argv[f.name] = f.argv(str(path))
    runs = [
        ["analyze", *argv["phil3"], "--json"],
        ["analyze", *argv["aztec"], "--json"],
        ["sample", *argv["aztec"], "--mode", "uniform", "--length", "20"],
        ["sample", *argv["aztec"], "--mode", "mcsc", "--steps", "20"],
    ]
    with tracer.Installed(tracer.Tracer()) as t:
        for args in runs:
            assert cli.main(args) == 0, args
    capsys.readouterr()
    assert [x for x in tracer.SPANS + tracer.COUNTED if not t.calls.get(x)] == []
