"""End-to-end benchmark of tracesys: drive the CLI as its users do.

    python3 benchmark/run.py --workload petri-ladder --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all        # every workload, one table

Each workload runs in its own fresh, single-threaded Python process that
imports tracesys from the checkout's ``src/``.  One client sends requests
in a closed loop: ``tracesys.cli.main([...])`` in process with stdout
captured, each request after the previous one returns.  A pass is the
workload's request list, each request followed by a chunk of draws from
samplers built in set-up (the draw phase); passes repeat until
``--seconds`` have elapsed and at least MIN_PASSES are done.  Outputs are
checked after the timed region.

With ``--trace 1`` the run alternates untraced and traced passes and
reports per-layer metrics (see ``tracer.py``) instead of end-to-end ones.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import os

# pinned before numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

SETUP_REPEATS = 3
MIN_PASSES = 3
VALIDATE_MAX_LEN = 5

UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "top_rung_s": "s",
    "request_s.p50": "s",
    "request_s.p90": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_pass(passes: list[list[tuple[str, float, float]]]) -> float:
    """Median over passes of a pass's summed request latency."""
    return statistics.median(sum(e - s for _k, s, e in p) for p in passes)


def import_seconds() -> float:
    """Time of ``import tracesys`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import tracesys; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip())


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a request that raises is a failed request
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


class Bench:
    """One workload in this process: set-up, passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float):
        import inputs
        import tracesys
        from tracesys import cli

        self.inputs = inputs
        self.tracesys = tracesys
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = WORK / f"{workload}-{os.getpid()}"
        self.problems: list[str] = []
        self.info: list[str] = []
        # per request key and output digest: (rc, stdout, stderr)
        self.outputs: dict[str, dict[str, tuple[int, str, str]]] = {}
        self.instances: list[tuple[str, str]] = []  # (key, digest) per request sent
        self.draw_words: dict[str, list] = {}  # per digest, the draws of a pass
        self.draw_intervals: list[tuple[float, float, int]] = []  # (start, end, draws)

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Generate and write inputs, build the draw-phase samplers; return
        the median set-up time over SETUP_REPEATS, import included."""
        times = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            self._build()
            times.append(t_import + time.perf_counter() - t0)
        return statistics.median(times)

    def _build(self) -> None:
        inputs, ts = self.inputs, self.tracesys
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.files = {f.name: f for f in inputs.workload_files(self.workload)}
        for f in self.files.values():
            (self.workdir / f.filename).write_text(f.text, encoding="utf-8")
        self.systems = {name: self._load(f) for name, f in self.files.items()}
        self.sampler_names, self.measure_name = inputs.draw_plan(self.workload)
        self.samplers = [
            ts.UniformExecutionSampler(self.systems[n], self.systems[n].base_state,
                                       inputs.DRAW_LENGTH)
            for n in self.sampler_names
        ]
        self.measure = ts.uniform_measure(self.systems[self.measure_name])

    def _load(self, f):
        ts = self.tracesys
        text = (self.workdir / f.filename).read_text(encoding="utf-8")
        return ts.petri_to_system(ts.parse_petri(text)) if f.petri else ts.parse_system(text)

    def validate(self) -> None:
        """Before timing: generator sizes, irreducibility, oracle counts."""
        self.problems += [f"generator: {p}" for p in self.inputs.check_sizes(list(self.files.values()))]
        for name, system in self.systems.items():
            if not system.classify().irreducible:
                self.problems.append(f"validation: {name} is not irreducible")
            if name in self.inputs.FIXTURE_NAMES or name in ("phil3", "phil4"):
                if not self.tracesys.cross_check(system, VALIDATE_MAX_LEN).ok:
                    self.problems.append(f"validation: oracle cross-check failed on {name}")

    def requests(self, rng: random.Random):
        """A function giving the request list of the next pass."""
        inputs = self.inputs
        if self.workload == inputs.SAMPLE_MIX:
            stream = inputs.sample_stream(rng)
            return lambda: stream
        files = list(self.files.values())
        return lambda: inputs.ladder_order(files, rng)

    # ------------------------------------------------------------ passes

    def send(self, req, tracer=None) -> tuple[float, float]:
        f = self.files[req.system]
        argv = [req.args[0], *f.argv(str(self.workdir / f.filename)), *req.args[1:]]
        start = time.perf_counter()
        rc, text, err = call_cli(self.cli, argv)
        end = time.perf_counter()
        if tracer is not None:
            tracer.add_bytes(len(text))
        digest = hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()
        self.outputs.setdefault(req.key, {}).setdefault(digest, (rc, text, err))
        self.instances.append((req.key, digest))
        return start, end

    def run_pass(self, reqs, tracer=None) -> list[tuple[str, float, float]]:
        """Send every request of the list, each followed by a chunk of the
        pass's DRAWS_PER_PASS draws; return (key, start, end) per request.

        Draws are spread over the pass rather than run at its end so that
        the throughput samples the whole run, as the request times do.
        """
        n_draws = self.inputs.DRAWS_PER_PASS
        per_request = -(-n_draws // len(reqs))
        words: list = []
        sent = []
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = i
            sent.append((req.key, *self.send(req, tracer)))
            first = len(words)
            start = time.perf_counter()
            self.draw(words, first, min(first + per_request, n_draws))
            self.draw_intervals.append((start, time.perf_counter(), len(words) - first))
        digest = hashlib.sha256(json.dumps(words).encode()).hexdigest()
        self.draw_words.setdefault(digest, words)
        return sent

    def draw(self, words: list, first: int, stop: int) -> None:
        """Draws number first..stop-1 of a pass, alternating the uniform
        samplers and the chain; seeds depend on the number only."""
        sampling = self.tracesys
        for i in range(first, stop):
            if i % 2 == 0:
                sampler = self.samplers[(i // 2) % len(self.samplers)]
                words.append(sampler.sample(sampling.SplitMix64(self.seed, stream=i)))
            else:
                words.append(sampling.sample_mcsc(
                    self.measure, self.measure.system.base_state, self.inputs.DRAW_STEPS,
                    seed=self.seed * 100_003 + i).trace)

    # ------------------------------------------------------------ checks

    def check(self) -> int:
        """Check every distinct output; return the number of failed requests."""
        import check

        inputs = self.inputs
        bad: set[tuple[str, str]] = set()
        golden_uniform = check.load_uniform_golden() if self.workload == inputs.SAMPLE_MIX else {}
        deps = {name: f.model.dependence() for name, f in self.files.items()}
        by_key = {r.key: r for r in self.last_requests}
        identical = 0
        for key, outs in self.outputs.items():
            req = by_key[key]
            golden = check.load_golden_report(key) if req.mode == "analyze" else None
            if len(outs) > 1:
                self.problems.append(f"{key}: {len(outs)} different outputs across passes")
            for digest, (rc, text, err) in outs.items():
                why = [f"exit code {rc}: {err.strip()[-200:]}"] if rc != 0 else []
                if not why and golden is not None:
                    why = check.check_report(text, golden)
                    identical += text == golden
                    if digest == next(iter(outs)):
                        v = check.verdicts(text)
                        self.info.append(f"verdicts {key}: " + " ".join(f"{k}={x}" for k, x in v.items()))
                elif not why:
                    f = self.files[req.system]
                    why = check.check_sample_output(text, req, f.model, deps[req.system],
                                                    golden_uniform)
                if why:
                    bad.add((key, digest))
                    self.problems.append(f"{key}: " + "; ".join(why[:3]))
        if self.workload != inputs.SAMPLE_MIX:
            self.info.append(f"byte-identical to golden: {identical} of {len(self.outputs)} reports")
        # draw phase: every draw a valid execution of the configured size
        if len(self.draw_words) > 1:
            self.problems.append("draw phase differs across passes")
        measure_model = self.files[self.measure_name].model
        for words in self.draw_words.values():
            for i, word in enumerate(words):
                if i % 2 == 0:
                    name = self.sampler_names[(i // 2) % len(self.sampler_names)]
                    why = check.check_word(self.files[name].model, None, word,
                                           length=inputs.DRAW_LENGTH)
                else:
                    why = check.check_word(measure_model, deps[self.measure_name], word,
                                           steps=inputs.DRAW_STEPS)
                if why:
                    self.problems.append(f"draw {i}: {why}")
                    break
        return sum(1 for inst in self.instances if inst in bad)

    # ------------------------------------------------------------ runs

    def timed(self) -> dict[str, float]:
        next_requests = self.requests(random.Random(self.seed))
        passes = []
        t0 = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t0 < self.seconds:
            self.last_requests = next_requests()
            passes.append(self.run_pass(self.last_requests))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.by_key: dict[str, list[float]] = {}
        for k, s, e in (x for p in passes for x in p):
            self.by_key.setdefault(k, []).append(e - s)
        # a request's latency is its median over the passes, which filters
        # out one-pass stalls; the percentiles range over the request list
        lat = [statistics.median(v) for v in self.by_key.values()]
        top = self.inputs.largest_request(self.workload, self.last_requests)
        draws = sum(n for _s, _e, n in self.draw_intervals)
        self.counts = {
            "passes": len(passes),
            "requests": sum(len(p) for p in passes),
            "distinct": len(lat),
            "beyond_p90": len(lat) - math.ceil(0.9 * len(lat)),
            "top": top,
            "draws": draws,
        }
        return {
            "pass_s": median_pass(passes),
            "top_rung_s": statistics.median(self.by_key[top]),
            "request_s.p50": percentile(lat, 0.5),
            "request_s.p90": percentile(lat, 0.9),
            "samples_per_s": draws / sum(e - s for s, e, _n in self.draw_intervals),
            "peak_rss_mb": rss_mb,
        }

    def traced(self) -> dict[str, float]:
        """Untraced and traced passes in turn; per-layer metrics of the
        traced ones and the tracing overhead."""
        import tracer as tracer_mod

        next_requests = self.requests(random.Random(self.seed))
        plain, traced, summaries = [], [], []
        t0 = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - t0 < self.seconds:
            self.last_requests = reqs = next_requests()
            plain.append(self.run_pass(reqs))
            tr = tracer_mod.Tracer()
            with tracer_mod.Installed(tr):
                traced.append(self.run_pass(reqs, tr))
            summaries.append(tr.summary())
            if len(summaries) == 1:
                self.info.append(self._one_request_calls(reqs, tr))
        counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")} for s in summaries]
        if any(c != counts[0] for c in counts):
            self.problems.append("trace counts differ between traced passes")
        metrics = dict(counts[0])
        for k in summaries[0]:
            if k.endswith(".self_s"):
                metrics[k] = statistics.median(s[k] for s in summaries)
        metrics["trace.overhead_ratio"] = median_pass(traced) / median_pass(plain) - 1
        self.counts = {"passes": len(traced), "requests": sum(len(p) for p in plain + traced)}
        self.info.append(f"{len(traced)} traced and {len(plain)} untraced passes")
        return metrics

    def _one_request_calls(self, reqs, tr) -> str:
        """Span counts of the largest request alone, e.g. one phil6 analyze."""
        import tracer as tracer_mod

        top = self.inputs.largest_request(self.workload, reqs)
        index = next(i for i, r in enumerate(reqs) if r.key == top)
        names = ("spectral.determinant", "graphs.build_dsc", "graphs.build_adsc",
                 "measure.uniform_measure", "sampling.UniformExecutionSampler.__init__")
        counts = {n: sum(1 for s in tr.spans if s.request == index and s.name == n)
                  for n in names}
        return f"one {top} request: " + " ".join(
            f"{tracer_mod.metric_name(n)}.calls={c}" for n, c in counts.items())

    def provenance(self) -> dict:
        import numpy

        commit = "unknown (not a git checkout)"
        if (ROOT / ".git").exists():
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip()
        files = hashlib.sha256()
        for name in sorted(self.files):
            files.update(f"{self.files[name].filename}\n{self.files[name].text}".encode())
        stream = json.dumps([[r.key, *r.args] for r in self.last_requests]
                            if self.workload == self.inputs.SAMPLE_MIX else [])
        return {
            "workload": self.workload,
            "seed": self.seed,
            "commit": commit,
            "tracesys": self.tracesys.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "inputs_sha256": files.hexdigest(),
            "stream_sha256": hashlib.sha256(stream.encode()).hexdigest(),
        }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    bench = Bench(workload, seed, seconds)
    try:
        setup_s = bench.setup()
        bench.validate()
        metrics = bench.traced() if trace else {"setup_s": setup_s, **bench.timed()}
        failed = bench.check()
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    attempted = len(bench.instances)
    print_summary(bench, metrics, trace, failed, attempted)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio" if name.endswith("ratio") else "count"


def print_summary(bench: Bench, metrics: dict, trace: bool, failed: int, attempted: int) -> None:
    c = bench.counts
    print(f"workload {bench.workload}: {c['passes']} passes, {c['requests']} requests")
    if trace:
        for k, v in metrics.items():
            print(f"  {k:<48} {v:.6g} {unit_of(k)}")
    else:
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "pass_s": f"median of {c['passes']} passes",
            "top_rung_s": f"{c['top']}, median of {c['passes']}",
            "request_s.p50": f"{c['distinct']} requests, median of {c['passes']} passes each",
            "request_s.p90": f"{c['distinct']} requests, {c['beyond_p90']} beyond",
            "samples_per_s": f"{c['draws']} draws",
            "peak_rss_mb": "ru_maxrss before checks",
        }
        for k, v in metrics.items():
            print(f"  {k:<16} {v:12.6f} {UNITS[k]:<4} ({notes[k]})")
        print(f"  {'failed_ratio':<16} {failed / attempted:12.6f} ratio ({failed} of {attempted})")
        if bench.workload != bench.inputs.SAMPLE_MIX:
            print("  median latency per rung: " + " ".join(
                f"{k}={statistics.median(v):.4f}" for k, v in sorted(bench.by_key.items())))
    for line in bench.info:
        print("  " + line)
    for p in bench.problems:
        print("  PROBLEM " + p)
    print("provenance " + json.dumps(bench.provenance()))


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table."""
    import inputs

    rows, status = [], 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            status = 1
            continue
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for workload, result in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"  {workload:<14} correct={result['correct']} failed_ratio={ratio:.4f} "
              f"({result['failed']} of {result['attempted']} requests)")
        for k, m in result["metrics"].items():
            print(f"  {workload:<14} {k:<48} {m['value']:.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import inputs

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "tracesys" / "__init__.py").is_file():
        print(f"error: no tracesys sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
