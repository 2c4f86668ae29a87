"""`analyze --json` and uniform samples must match the recorded benchmark goldens.

The goldens are the xz-compressed stdout of ``tracesys analyze <file> --json``
and the sha256 digests of ``sample --mode uniform --json`` samples, both in
``benchmark/golden/``; these tests only read them.
"""

import hashlib
import json
import lzma
from pathlib import Path

import pytest

from tracesys import fixtures
from tracesys.cli import main
from tracesys.specfile import render_system

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "benchmark" / "golden"


def path_spec(k: int) -> str:
    """Canonical one-state system over the path-dependence monoid on k
    letters: x_i and x_j are dependent iff |i - j| <= 1."""
    letters = [f"x{i}" for i in range(k)]
    pairs = [f"{letters[i]} {letters[j]}" for i in range(k) for j in range(i + 2, k)]
    lines = [
        "[alphabet] " + " ".join(letters),
        "[independence] " + " ; ".join(pairs),
        "[states] s",
        "[base] s",
        "[action]",
    ] + [f"s {a} s" for a in letters]
    return "\n".join(lines) + "\n"


SPECS = {name: (lambda f=f: render_system(f())) for name, f in fixtures.ALL_SYSTEMS.items()}
SPECS["path8"] = lambda: path_spec(8)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_analyze_json_equals_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.csys"
    path.write_text(SPECS[name](), encoding="utf-8")
    assert main(["analyze", str(path), "--json"]) == 0
    want = lzma.decompress((GOLDEN_DIR / f"{name}.json.xz").read_bytes()).decode("utf-8")
    assert capsys.readouterr().out == want


UNIFORM_CELLS = [
    (name, length, variant)
    for name, lengths in (("aztec", (20, 200)), ("two_terminal", (20, 200)), ("path10", (20,)))
    for length in lengths
    for variant in range(6)
]
SAMPLE_SPECS = {
    "aztec": SPECS["aztec"],
    "two_terminal": SPECS["two_terminal"],
    "path10": lambda: path_spec(10),
}


@pytest.mark.parametrize("name, length, variant", UNIFORM_CELLS)
def test_uniform_samples_equal_golden(name, length, variant, tmp_path, capsys):
    # a cell of the benchmark's sample catalogue: the variant fixes the seed,
    # system and length fix the count
    seed = 7919 * variant + length
    count = 1 + (3 * length + 7 * len(name)) % 50
    path = tmp_path / f"{name}.csys"
    path.write_text(SAMPLE_SPECS[name](), encoding="utf-8")
    argv = ["sample", str(path), "--mode", "uniform", "--length", str(length),
            "--count", str(count), "--seed", str(seed), "--json"]
    assert main(argv) == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    digest = hashlib.sha256(json.dumps(samples, separators=(",", ":")).encode()).hexdigest()
    golden = json.loads((GOLDEN_DIR / "uniform_samples.json").read_text())
    assert digest == golden[f"{name}/L{length}/v{variant}"]
