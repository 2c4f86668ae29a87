"""Output checker, run after the timed region.

Analyze reports are compared with golden reports recorded at a fixed
commit: exact equality where the analysis is exact, interval overlap for
the isolated root, and a stated float tolerance for the measure tables.
Samples are checked against the independent ``Model`` interpreters of
``inputs``: every sample is a valid execution of the requested length
from the start state, and uniform samples, which are exact integer draws,
must equal the golden ones for the same request.
"""

from __future__ import annotations

import hashlib
import json
import lzma
from fractions import Fraction
from pathlib import Path

from inputs import Model, Request

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
UNIFORM_GOLDEN = GOLDEN_DIR / "uniform_samples.json"
PRECISION = Fraction(1, 10**12)  # the CLI's default --precision
# measure tables are doubles derived from the exact root; a later change may
# reorder float sums, so compare at |a - b| <= FLOAT_TOL * max(1, |golden|)
FLOAT_TOL = 1e-9

EXACT_FIELDS = (
    ("polynomials", "determinant"),
    ("monoid",),
    ("graphs",),
    ("node_labels",),
    ("inversion", "ok"),
)
FLOAT_FIELDS = (
    ("uniform_measure", "gamma", "vector"),
    ("uniform_measure", "f"),
    ("uniform_measure", "h"),
    ("uniform_measure", "g"),
    ("uniform_measure", "mcsc", "matrix"),
)
VERDICTS = (
    ("diagnostics", "uniqueness", "ok"),
    ("diagnostics", "uniqueness", "null_reachability_ok"),
    ("spectral_property", "holds"),
)


def golden_report_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json.xz"


def load_golden_report(name: str) -> str:
    return lzma.decompress(golden_report_path(name).read_bytes()).decode("utf-8")


def _get(doc, path):
    for key in path:
        if doc is None:
            return None
        doc = doc.get(key)
    return doc


def _close(got, want, where: str, problems: list[str]) -> None:
    if want is None:
        if got is not None:
            problems.append(f"{where}: present, golden is null")
    elif isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{where}: keys differ")
            return
        for k in want:
            _close(got[k], want[k], f"{where}.{k}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: length differs")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]", problems)
    elif not isinstance(got, (int, float)) or abs(got - want) > FLOAT_TOL * max(1.0, abs(want)):
        problems.append(f"{where}: {got!r} != {want!r}")


def check_report(text: str, golden_text: str) -> list[str]:
    """Problems of one ``analyze --json`` report against its golden one."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    golden = json.loads(golden_text)
    problems = []
    for path in EXACT_FIELDS:
        if _get(doc, path) != _get(golden, path):
            problems.append(".".join(path) + " differs from golden")
    root, groot = doc.get("root"), golden.get("root")
    if (root is None) != (groot is None):
        problems.append("root presence differs from golden")
    elif root is not None:
        lo, hi = Fraction(root["lo"]), Fraction(root["hi"])
        if root["exact"] != groot["exact"]:
            problems.append("root.exact differs from golden")
        if hi - lo > PRECISION:
            problems.append(f"root interval width {hi - lo} exceeds {PRECISION}")
        if max(lo, Fraction(groot["lo"])) > min(hi, Fraction(groot["hi"])):
            problems.append("root interval does not overlap the golden one")
    for path in FLOAT_FIELDS:
        mine = []
        _close(_get(doc, path), _get(golden, path), ".".join(path), mine)
        problems += mine[:3]
    return problems


def verdicts(text: str) -> dict[str, object]:
    """Diagnostic verdicts, recorded but not gated."""
    doc = json.loads(text)
    return {".".join(p): _get(doc, p) for p in VERDICTS}


# ---------------------------------------------------------------- samples

def samples_digest(samples: list) -> str:
    return hashlib.sha256(json.dumps(samples, separators=(",", ":")).encode()).hexdigest()


def load_uniform_golden() -> dict[str, str]:
    return json.loads(UNIFORM_GOLDEN.read_text())


def is_execution(model: Model, word) -> bool:
    state = model.start
    for a in word:
        if a not in model.letters:
            return False
        state = model.step(state, a)
        if state is None:
            return False
    return True


def height(deps: dict[str, frozenset[str]], word) -> int:
    """Number of cliques in the Cartier-Foata normal form of ``word``: an
    occurrence sits one level above the highest earlier dependent one."""
    level: dict[str, int] = {}
    top = 0
    for a in word:
        h = 1 + max((level[b] for b in deps[a] if b in level), default=0)
        level[a] = h
        top = max(top, h)
    return top


def check_word(model: Model, deps, word, length: int = 0, steps: int = 0) -> str | None:
    """Why ``word`` is not a valid sample, or None.  ``length`` is the
    letter count of a uniform sample, ``steps`` the clique count of an
    mcsc sample."""
    if not is_execution(model, word):
        return f"not an execution from the start state: {' '.join(word)[:80]}"
    if length and len(word) != length:
        return f"length {len(word)}, want {length}"
    if steps and height(deps, word) != steps:
        return f"height {height(deps, word)}, want {steps}"
    return None


def check_sample_output(text: str, req: Request, model: Model, deps,
                        golden: dict[str, str]) -> list[str]:
    try:
        doc = json.loads(text)
        samples = doc["samples"]
    except (ValueError, KeyError) as exc:
        return [f"sample output is not the expected JSON: {exc}"]
    problems = []
    if len(samples) != req.count:
        problems.append(f"{len(samples)} samples, want {req.count}")
    for word in samples:
        why = check_word(model, deps, word, req.length, req.steps)
        if why:
            problems.append(why)
            break
    if req.mode == "uniform" and samples_digest(samples) != golden.get(req.key):
        problems.append(f"uniform samples differ from golden cell {req.key}")
    return problems
