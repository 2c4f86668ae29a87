"""Record the golden outputs that ``check.py`` compares against.

    python3 benchmark/record_golden.py

Writes ``golden/<rung>.json.xz`` (the full ``analyze --json`` report of
every ladder rung) and ``golden/uniform_samples.json`` (the digest of the
samples of every uniform-request cell of sample-mix).  Run it only at a
commit whose outputs are the reference; the benchmark never writes here.
"""

from __future__ import annotations

import json
import lzma
import shutil
import sys

import run  # pins the thread count before numpy is imported

sys.path.insert(0, str(run.SRC))

import check  # noqa: E402
import inputs  # noqa: E402
from tracesys import cli  # noqa: E402


def main() -> int:
    workdir = run.WORK / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    check.GOLDEN_DIR.mkdir(exist_ok=True)
    try:
        files = inputs.ladder_files(inputs.PETRI_LADDER) + inputs.ladder_files(inputs.PATH_LADDER)
        for f in files:
            path = workdir / f.filename
            path.write_text(f.text, encoding="utf-8")
            rc, out, err = run.call_cli(cli, ["analyze", *f.argv(str(path)), "--json"])
            if rc != 0:
                print(f"{f.name}: exit {rc}: {err}", file=sys.stderr)
                return 1
            check.golden_report_path(f.name).write_bytes(lzma.compress(out.encode("utf-8")))
            print(f"{f.name}: {len(out)} bytes")
        sample_files = {f.name: f for f in inputs.sample_files()}
        digests = {}
        for req in inputs.uniform_catalogue():
            f = sample_files[req.system]
            path = workdir / f.filename
            path.write_text(f.text, encoding="utf-8")
            rc, out, err = run.call_cli(cli, [req.args[0], *f.argv(str(path)), *req.args[1:]])
            samples = json.loads(out)["samples"]
            deps = f.model.dependence()
            bad = [w for w in samples if check.check_word(f.model, deps, w, length=req.length)]
            if rc != 0 or bad or len(samples) != req.count:
                print(f"{req.key}: invalid output", file=sys.stderr)
                return 1
            digests[req.key] = check.samples_digest(samples)
        check.UNIFORM_GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{len(digests)} uniform cells")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
