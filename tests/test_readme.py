"""The README's library quick start runs and prints what its comments say;
its float-tolerance table names the package's tolerances and their tests."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from tracesys import measure, spectral

ROOT = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    """The ``python`` block under the README's "Library quick start" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_the_stated_values():
    code = quick_start()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    # one output line per print call, in order; a comment on the call
    # states the printed value, then optionally a remark after a space or
    # a comma
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    out = run.stdout.splitlines()
    assert len(out) == len(prints)
    stated = []
    for line, got in zip(prints, out):
        if "#" in line:
            comment = line.split("#", 1)[1].strip()
            assert comment == got or comment.startswith((got + " ", got + ",")), (line, got)
            stated.append(got)
    assert stated == ["True", "1.0", "(1, -3, 2)", "7 9", "True"]


def tolerance_rows() -> list[list[str]]:
    """The cells of the table under the README's "Float tolerances" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Float tolerances", 1)[1].split("\n## ", 1)[0]
    return [
        [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def test_tolerance_table_names_every_tolerance_and_a_test_for_it():
    tests = "".join(p.read_text(encoding="utf-8") for p in (ROOT / "tests").glob("test_*.py"))
    named = set()
    for name, value, _branch, cited in tolerance_rows():
        constant = re.fullmatch(r"`(\w+)\.([A-Z_]+)`", name)
        if constant:
            module = importlib.import_module("tracesys." + constant.group(1))
            assert float(getattr(module, constant.group(2))) == float(value.replace(",", ""))
            named.add(constant.group(2))
        else:
            function = re.fullmatch(r"`(\w+)`, inline", name).group(1)
            assert value in inspect.getsource(getattr(measure, function)), name
        cited_tests = re.findall(r"`(?:[\w.]+::)?(test_\w+)`", cited)
        assert cited_tests, name
        for test in cited_tests:
            assert f"def {test}(" in tests, test
    constants = {
        n
        for module in (spectral, measure)
        for n, v in vars(module).items()
        if n.isupper() and isinstance(v, (int, float, Fraction))
    }
    assert named == constants
