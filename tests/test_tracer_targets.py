"""Every function the benchmark tracer wraps must exist in tracesys.

The tracer resolves ``SPANS``/``COUNTED`` targets by name when a traced
run starts, so deleting or renaming a traced function would otherwise
show only in a ``--trace 1`` benchmark run.
"""

import importlib

import pytest
from bench_modules import tracer


@pytest.mark.parametrize("target", tracer.SPANS + tracer.COUNTED)
def test_tracer_target_resolves(target):
    module, *attrs = target.split(".")
    obj = importlib.import_module(f"tracesys.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
