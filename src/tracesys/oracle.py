"""Brute-force ground truth: enumerate executions word by word.

Everything here is deliberately naive.  Words are enumerated with sink
pruning, deduplicated by normal form, and the resulting counts are the
reference against which the dynamic-programming counts and the series
inversion are checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import spectral
from .analysis import Analysis
from .errors import CapExceeded, TraceSysError
from .graphs import count_paths_table
from .monoid import NormalForm
from .system import ConcurrentSystem

DEFAULT_CAP = 8


@dataclass(frozen=True)
class ExecutionSet:
    """All executions of one length from one state, as normal forms."""

    origin: str
    length: int
    traces: frozenset[NormalForm]
    by_target: dict[str, int]

    def count(self, target: str | None = None) -> int:
        if target is None:
            return len(self.traces)
        return self.by_target.get(target, 0)


def enumerate_executions(
    system: ConcurrentSystem, origin: str, n: int, cap: int = DEFAULT_CAP
) -> ExecutionSet:
    """Scan all enabled words of length ``n``, dedupe by normal form."""
    if n < 0:
        raise TraceSysError("length must be non-negative")
    if n > cap:
        raise CapExceeded(f"length {n} exceeds the oracle cap {cap}")
    start = system.state_index(origin)
    letters = system.monoid.letters
    found: dict[NormalForm, str] = {}
    word: list[str] = []

    def scan(si: int, remaining: int) -> None:
        if remaining == 0:
            nf = system.monoid.normal_form(word)
            found.setdefault(nf, system.states[si])
            return
        for ai, a in enumerate(letters):
            ti = system._table[si][ai]
            if ti >= 0:
                word.append(a)
                scan(ti, remaining - 1)
                word.pop()

    scan(start, n)
    by_target: dict[str, int] = {}
    for target in found.values():
        by_target[target] = by_target.get(target, 0) + 1
    return ExecutionSet(
        origin=origin,
        length=n,
        traces=frozenset(found),
        by_target={s: by_target[s] for s in system.states if s in by_target},
    )


@dataclass(frozen=True)
class CrossCheckReport:
    max_len: int
    ok: bool
    mismatches: tuple[tuple, ...]  # (origin, target, n, oracle, dp)
    inversion_ok: bool


def cross_check(system: ConcurrentSystem, max_len: int) -> CrossCheckReport:
    """Oracle counts vs. path-counting DP vs. series inversion, all exact."""
    if max_len > DEFAULT_CAP:
        raise CapExceeded(f"length {max_len} exceeds the oracle cap {DEFAULT_CAP}")
    analysis = Analysis.of(system)
    tables = [count_paths_table(analysis.adsc, s, max_len) for s in system.states]
    mismatches = []
    for origin, table in zip(system.states, tables):
        for n in range(max_len + 1):
            exact = enumerate_executions(system, origin, n)
            for target, got in zip(system.states, table[n]):
                want = exact.by_target.get(target, 0)
                if want != got:
                    mismatches.append((origin, target, n, want, got))
    inversion = spectral.verify_inversion(analysis.mobius, tables, max_len)
    return CrossCheckReport(
        max_len=max_len,
        ok=not mismatches and inversion.ok,
        mismatches=tuple(mismatches),
        inversion_ok=inversion.ok,
    )
