"""`analyze --json` and uniform samples must match the recorded benchmark goldens.

The goldens are the xz-compressed stdout of ``tracesys analyze <file> --json``
and the sha256 digests of ``sample --mode uniform --json`` samples, both in
``benchmark/golden/``.  The input files come from the benchmark's own
generators (``benchmark/inputs.py``); these tests only read both.
"""

import hashlib
import json
import lzma

import pytest
from bench_modules import BENCH_DIR, inputs

from tracesys.cli import main

GOLDEN_DIR = BENCH_DIR / "golden"

FILES = {
    f.name: f
    for f in [
        *(inputs.fixture_file(name) for name in inputs.FIXTURE_NAMES),
        *(inputs.phil_file(n) for n in (3, 4, 5)),
        *(inputs.path_file(k) for k in (8, 10)),
    ]
}


def _argv(command, f, tmp_path, *rest):
    path = tmp_path / f.filename
    path.write_text(f.text, encoding="utf-8")
    return [command, *f.argv(str(path)), *rest]


@pytest.mark.parametrize("name", sorted(FILES))
def test_analyze_json_equals_golden(name, tmp_path, capsys):
    assert main(_argv("analyze", FILES[name], tmp_path, "--json")) == 0
    want = lzma.decompress((GOLDEN_DIR / f"{name}.json.xz").read_bytes()).decode("utf-8")
    assert capsys.readouterr().out == want


UNIFORM_CELLS = [
    (name, length, variant)
    for name, lengths in (
        ("aztec", (20, 200)), ("two_terminal", (20, 200)), ("path10", (20,)), ("phil5", (20,))
    )
    for length in lengths
    for variant in range(6)
]


@pytest.mark.parametrize("name, length, variant", UNIFORM_CELLS)
def test_uniform_samples_equal_golden(name, length, variant, tmp_path, capsys):
    cell = inputs.uniform_cell(name, length, variant)
    assert main(_argv(cell.args[0], FILES[name], tmp_path, *cell.args[1:])) == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    digest = hashlib.sha256(json.dumps(samples, separators=(",", ":")).encode()).hexdigest()
    golden = json.loads((GOLDEN_DIR / "uniform_samples.json").read_text())
    assert digest == golden[cell.key]
