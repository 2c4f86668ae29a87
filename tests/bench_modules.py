"""Read-only access to the benchmark's generators and tracer targets.

``benchmark/`` is not a package; its modules are loaded from their files
under the names ``benchmark_inputs`` and ``benchmark_tracer``.
"""

import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name: str):
    module_name = f"benchmark_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[module_name]


inputs = _load("inputs")
tracer = _load("tracer")


def load_system(f):
    """The system of one generated input file."""
    from tracesys import parse_petri, parse_system, petri_to_system

    return petri_to_system(parse_petri(f.text)) if f.petri else parse_system(f.text)


def ladder_systems() -> dict:
    """phil3-phil5 and path8/path10, by name: the ladder rungs small enough
    for tier-1."""
    files = [inputs.phil_file(n) for n in (3, 4, 5)] + [inputs.path_file(k) for k in (8, 10)]
    return {f.name: load_system(f) for f in files}
