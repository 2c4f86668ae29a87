"""`analyze --json` must stay byte-identical to the recorded benchmark goldens.

The goldens are the xz-compressed stdout of ``tracesys analyze <file> --json``
in ``benchmark/golden/``; this test only reads them.
"""

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
