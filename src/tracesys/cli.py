"""Command-line surface: check, analyze, sample, oracle, export-dot.

Exit codes: 0 success, 1 analysis-level failure (an expectation or a
cross-check did not hold) or a reader that closed stdout early, 2 input
errors (unreadable, unparsable or invalid input files, an
``export-dot -o`` path that cannot be written, or a ``--length`` whose
uniform count table would pass ``sampling.TABLE_CAP_BYTES``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import dot as dot_mod
from . import report as report_mod
from . import sampling
from .analysis import Analysis, uniform_measure
from .errors import CapExceeded, TraceSysError
from .oracle import DEFAULT_CAP
from .petri import parse_petri, petri_to_system
from .specfile import parse_system
from .system import ConcurrentSystem

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2


def _load_system(path: str, petri: bool) -> ConcurrentSystem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if petri:
        return petri_to_system(parse_petri(text))
    return parse_system(text)


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="system spec file (or Petri net with --petri)")
    p.add_argument("--petri", action="store_true", help="input is a safe Petri net")


def _positive_fraction(text: str) -> Fraction:
    """argparse type for ``--precision``: a positive rational such as 1e-12 or 1/1000."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi] (no upper bound when hi is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            bound = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}: {text!r}")
        return value

    return parse


_non_negative_int = _int_in(0)


_CONTAINERS = (dict, list, tuple)


def format_json(obj: object) -> str:
    """The stdlib's two-space indented JSON text of ``obj``, byte for byte,
    at the C encoder's speed.

    The stdlib serves ``indent`` only from its pure-Python encoder.  Here the
    indented frame of dicts and of lists holding containers is written in
    Python, and every key, scalar and list of scalars goes to the C encoder
    (which ``json.dumps`` uses whenever ``indent`` is None) with the frame's
    separators.  Keys must be str.
    """
    parts: list[str] = []
    _format_into(obj, "\n", parts)
    return "".join(parts)


def _format_into(obj: object, newline: str, parts: list[str]) -> None:
    """Append the indented text of ``obj``, nested at the depth of ``newline``."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        parts.append(json.dumps(obj))
        return
    inner = newline + "  "
    if isinstance(obj, dict):
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts += (sep, json.dumps(key), ": ")
            _format_into(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _format_into(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        text = json.dumps(obj, separators=("," + inner, ": "))
        parts += ("[", inner, text[1:-1], newline, "]")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="tracesys",
        description="Analyze trace-theoretic concurrent systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate and classify a system")
    _add_input_args(p)
    p.add_argument("--expect-irreducible", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="full combinatorial and measure analysis")
    _add_input_args(p)
    p.add_argument(
        "--precision", type=_positive_fraction, default="1e-12", help="root interval width"
    )
    p.add_argument("--series-order", type=_non_negative_int, default=10)
    p.add_argument("--expect-irreducible", action="store_true")
    p.add_argument("--json", action="store_true", help="print the full JSON report")

    p = sub.add_parser("sample", help="draw random executions")
    _add_input_args(p)
    p.add_argument("--mode", choices=["mcsc", "uniform"], default="mcsc")
    p.add_argument("--start", help="start state (default: base state)")
    p.add_argument(
        "--steps", type=_non_negative_int, help="mcsc only: number of cliques (default 20)"
    )
    p.add_argument(
        "--length", type=_non_negative_int, help="uniform only: execution length (default 10)"
    )
    p.add_argument("--count", type=_non_negative_int, default=1, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="brute-force cross-check of all counts")
    _add_input_args(p)
    p.add_argument(
        "--max-len",
        type=_int_in(0, DEFAULT_CAP),
        default=DEFAULT_CAP,
        help=f"longest execution enumerated (at most {DEFAULT_CAP})",
    )

    p = sub.add_parser("export-dot", help="graphviz rendering")
    _add_input_args(p)
    p.add_argument(
        "--graph",
        choices=["dsc", "adsc", "states", "condensation"],
        default="dsc",
    )
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    return parser


def _cmd_check(system: ConcurrentSystem, args) -> int:
    cls = system.classify()
    if args.json:
        print(format_json(report_mod.classification_json(system)))
    else:
        print(f"states={len(system.states)} letters={len(system.monoid.letters)}")
        print(f"trivial={cls.trivial} accessible={cls.accessible} alive={cls.alive}")
        print(f"monoid_irreducible={cls.monoid_irreducible} irreducible={cls.irreducible}")
        for k, v in cls.witnesses.items():
            print(f"witness {k}: {v}")
    if args.expect_irreducible and not cls.irreducible:
        print("expectation failed: system is not irreducible", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_analyze(system: ConcurrentSystem, args) -> int:
    doc = report_mod.analyze_report(
        system, precision=args.precision, series_order=args.series_order
    )
    if args.json:
        print(format_json(doc))
    else:
        _print_summary(doc)
    if args.expect_irreducible:
        prop = doc.get("spectral_property")
        if not doc["classification"]["irreducible"] or not (prop and prop["holds"]):
            print("expectation failed: system is not irreducible", file=sys.stderr)
            return EXIT_ANALYSIS
    if not doc["inversion"]["ok"]:
        print("inversion identity failed", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def _print_summary(doc: dict) -> None:
    cls = doc["classification"]
    print(
        "classification: "
        + " ".join(f"{k}={cls[k]}" for k in ("trivial", "accessible", "alive", "irreducible"))
    )
    print(f"determinant coefficients: {doc['polynomials']['determinant']}")
    if doc["root"]:
        r = doc["root"]
        kind = "exact" if r["exact"] else f"width {r['width']}"
        print(f"characteristic root: {r['approx']:.12g} ({kind})")
    else:
        print(f"characteristic root: unavailable ({doc.get('root_error')})")
    g = doc["graphs"]
    print(
        f"dsc: {g['dsc_nodes']} nodes, {g['dsc_positive_scc_count']} positive SCCs "
        f"({g['dsc_positive_terminal_count']} terminal); adsc: {g['adsc_nodes']} nodes"
    )
    nulls = [
        "({},{})".format(n["state"], n["clique"])
        for n in doc["node_labels"]
        if n["label"] == "null"
    ]
    print(f"null nodes: {nulls}")
    if doc["spectral_property"]:
        sp = doc["spectral_property"]
        print(f"spectral property: holds={sp['holds']} witness={sp['witness']}")
    if doc["uniform_measure"]:
        um = doc["uniform_measure"]
        print(f"cocycle vector: {um['gamma']['vector']}")
        print(f"uniqueness ok: {doc['diagnostics']['uniqueness']['ok']}")
    print(f"inversion identity up to order {doc['inversion']['order']}: {doc['inversion']['ok']}")


def _cmd_sample(system: ConcurrentSystem, args) -> int:
    start = args.start or system.base_state
    stray = "--length" if args.mode == "mcsc" else "--steps"
    if getattr(args, stray[2:]) is not None:
        print(f"error: {stray} does not apply to --mode {args.mode}", file=sys.stderr)
        return EXIT_INPUT
    out = []
    if args.mode == "mcsc":
        m = uniform_measure(system)
        steps = 20 if args.steps is None else args.steps
        for k in range(args.count):
            s = sampling.sample_mcsc(m, start, steps, seed=args.seed + k)
            out.append(s.trace)
    else:
        length = 10 if args.length is None else args.length
        try:
            sampler = sampling.UniformExecutionSampler(system, start, length)
        except CapExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        for k in range(args.count):
            rng = sampling.SplitMix64(args.seed, stream=k)
            out.append(sampler.sample(rng))
    if args.json:
        print(
            json.dumps(
                {
                    "mode": args.mode,
                    "start": start,
                    "seed": args.seed,
                    "samples": [list(w) for w in out],
                }
            )
        )
    else:
        for w in out:
            print(" ".join(w))
    return EXIT_OK


def _cmd_oracle(system: ConcurrentSystem, args) -> int:
    doc = report_mod.oracle_report(system, args.max_len)
    print(format_json(doc))
    return EXIT_OK if doc["ok"] else EXIT_ANALYSIS


def _cmd_export_dot(system: ConcurrentSystem, args) -> int:
    analysis = Analysis.of(system)
    if args.graph == "states":
        text = dot_mod.dot_states(system)
    elif args.graph == "condensation":
        text = dot_mod.dot_condensation(analysis.dsc)
    else:
        graph = analysis.dsc if args.graph == "dsc" else analysis.adsc
        text = dot_mod.dot_state_clique_graph(graph)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        system = _load_system(args.file, args.petri)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TraceSysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    start = getattr(args, "start", None)
    if start is not None and start not in system.states:
        print(f"error: unknown state {start!r}", file=sys.stderr)
        return EXIT_INPUT

    handler = {
        "check": _cmd_check,
        "analyze": _cmd_analyze,
        "sample": _cmd_sample,
        "oracle": _cmd_oracle,
        "export-dot": _cmd_export_dot,
    }[args.command]
    try:
        code = handler(system, args)
        sys.stdout.flush()
        return code
    except TraceSysError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so that the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
