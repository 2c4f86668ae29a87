"""Concurrent systems: a trace monoid acting on finite states with a sink.

The sink (forbidden result) is represented by ``None`` in the public API
and by -1 internally.  The defining invariant, checked at construction,
is the diamond property: the action commutes on every independent pair of
letters at every state, so it factors through the trace congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DiamondViolation, TraceSysError, UnknownState
from .graphs import reachable, tarjan_sccs
from .monoid import Clique, TraceMonoid


@dataclass(frozen=True)
class SystemClassification:
    trivial: bool
    accessible: bool
    alive: bool
    monoid_irreducible: bool
    irreducible: bool
    witnesses: dict = field(default_factory=dict)


class ConcurrentSystem:
    """Finite state set, trace monoid, and a partial action (sink-completed).

    Unspecified (state, letter) entries default to the sink.  Immutable
    after validation; every query is a pure function.  ``moves[i]`` lists
    the pairs (clique, target index) of the cliques enabled at state ``i``,
    the empty clique first (leading ``i`` to itself), in canonical clique
    order: the states-and-cliques pairs that M(z), the graphs and the
    measure tables all range over, enumerated once.
    """

    def __init__(
        self,
        monoid: TraceMonoid,
        states: Sequence[str],
        action: Mapping[tuple[str, str], str | None],
        base_state: str | None = None,
    ):
        states = list(states)
        if not states:
            raise TraceSysError("state set must be non-empty")
        if len(set(states)) != len(states):
            raise TraceSysError("state names must be distinct")
        self.monoid = monoid
        self.states: tuple[str, ...] = tuple(states)
        self._state_index = {s: i for i, s in enumerate(self.states)}
        if base_state is None:
            base_state = self.states[0]
        self.base_state = base_state
        self.state_index(base_state)

        n, k = len(self.states), len(monoid.letters)
        table = [[-1] * k for _ in range(n)]
        for (s, a), t in action.items():
            si = self.state_index(s)
            ai = monoid.letter_index(a)
            table[si][ai] = -1 if t is None else self.state_index(t)
        self._table = tuple(tuple(row) for row in table)

        self._check_diamonds()
        cliques = monoid.cliques()
        self.moves: tuple[tuple[tuple[Clique, int], ...], ...] = tuple(
            tuple((c, ti) for c in cliques for ti in [self._fold(si, c.letters)] if ti >= 0)
            for si in range(n)
        )
        self._classification: SystemClassification | None = None
        self._analysis = None  # weak reference, set by tracesys.analysis.Analysis.of

    # ------------------------------------------------------------ basics

    def state_index(self, s: str) -> int:
        try:
            return self._state_index[s]
        except KeyError:
            raise UnknownState(f"unknown state {s!r}") from None

    def _step(self, si: int, ai: int) -> int:
        return -1 if si < 0 else self._table[si][ai]

    def _fold(self, si: int, word: Iterable[str]) -> int:
        for a in word:
            si = self._step(si, self.monoid.letter_index(a))
            # the sink is absorbing, but keep folding to surface unknown letters
        return si

    def act(self, state: str, word: Iterable[str]) -> str | None:
        """Left-to-right fold of the action; ``None`` is the absorbing sink."""
        si = self._fold(self.state_index(state), word)
        return None if si < 0 else self.states[si]

    def _check_diamonds(self) -> None:
        pairs = [
            (self.monoid.letter_index(a), self.monoid.letter_index(b))
            for a, b in self.monoid.independent_pairs
        ]
        for si in range(len(self.states)):
            for ai, bi in pairs:
                ab = self._step(self._step(si, ai), bi)
                ba = self._step(self._step(si, bi), ai)
                if ab != ba:
                    raise DiamondViolation(
                        self.states[si], self.monoid.letters[ai], self.monoid.letters[bi]
                    )

    # ------------------------------------------------------------ cliques at a state

    def enabled_cliques(self, state: str) -> tuple[Clique, ...]:
        """Non-empty enabled cliques at the state, in canonical order."""
        return tuple(c for c, _t in self.moves[self.state_index(state)][1:])

    def letter_arcs(self) -> tuple[tuple[str, str, str], ...]:
        """Labeled arcs (state, letter, target) of the multigraph of states."""
        return tuple(
            (self.states[si], a, self.states[ti])
            for si in range(len(self.states))
            for ai, a in enumerate(self.monoid.letters)
            for ti in [self._table[si][ai]]
            if ti >= 0
        )

    # ------------------------------------------------------------ classification

    def classify(self) -> SystemClassification:
        """One SCC pass over the state graph, linear in states and arcs.

        Tarjan lists each component after every component it reaches, so one
        sweep gathers the letters enabled at or below each component.  The
        system is accessible iff there is one component; only the last-listed
        one can reach all others, so at most two searches find the first
        unreachable (state, target) pair in state order.
        """
        if self._classification is not None:
            return self._classification

        n = len(self.states)
        succ = tuple(tuple(t for t in row if t >= 0) for row in self._table)
        trivial = not any(succ)

        comps = tarjan_sccs(succ)
        comp_of = [0] * n
        alive_mask = [0] * len(comps)  # letters enabled somewhere reachable
        for ci, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = ci
            for v in comp:
                for ai, t in enumerate(self._table[v]):
                    if t >= 0:
                        alive_mask[ci] |= 1 << ai | alive_mask[comp_of[t]]

        unreachable = None
        if len(comps) > 1:
            si, seen = 0, reachable(succ, [0])
            if all(seen):  # so state 0 lies in the last-listed component
                si = next(v for v, ci in enumerate(comp_of) if ci != len(comps) - 1)
                seen = reachable(succ, [si])
            unreachable = (self.states[si], self.states[seen.index(False)])
        accessible = unreachable is None

        dead = next(
            (
                (s, a)
                for s, ci in zip(self.states, comp_of)
                for ai, a in enumerate(self.monoid.letters)
                if not alive_mask[ci] >> ai & 1
            ),
            None,
        )
        alive = dead is None

        monoid_irr = self.monoid.is_irreducible()
        witnesses = {}
        if unreachable:
            witnesses["unreachable"] = unreachable
        if dead:
            witnesses["dead"] = dead
        if not monoid_irr:
            witnesses["coxeter_components"] = self.monoid.coxeter_components()

        self._classification = SystemClassification(
            trivial=trivial,
            accessible=accessible,
            alive=alive,
            monoid_irreducible=monoid_irr,
            irreducible=accessible and alive and monoid_irr,
            witnesses=witnesses,
        )
        return self._classification

    # ------------------------------------------------------------ derived systems

    @classmethod
    def canonical(cls, monoid: TraceMonoid) -> "ConcurrentSystem":
        """One-state system with total action, canonically attached to a monoid."""
        return cls(monoid, ["*"], {("*", a): "*" for a in monoid.letters})

    def __repr__(self) -> str:
        return f"ConcurrentSystem({self.monoid!r}, states={list(self.states)})"
