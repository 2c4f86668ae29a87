"""The README's library quick start runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
