"""Concurrent systems: a trace monoid acting on finite states with a sink.

The sink (forbidden result) is represented by ``None`` in the public API
and by -1 internally.  The defining invariant, checked at construction,
is the diamond property: the action commutes on every independent pair of
letters at every state, so it factors through the trace congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DiamondViolation, NotAccessible, TraceSysError, UnknownState
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
    after validation; every query is a pure function.
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
        self._clique_targets: tuple[dict[int, int], ...] = tuple(
            self._compute_clique_targets(i) for i in range(n)
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

    def _compute_clique_targets(self, si: int) -> dict[int, int]:
        """Map of enabled clique masks to target indices at one state."""
        out = {}
        for c in self.monoid.cliques():
            ti = si
            for a in c.letters:
                ti = self._step(ti, self.monoid.letter_index(a))
                if ti < 0:
                    break
            if ti >= 0:
                out[c.mask] = ti
        return out

    # ------------------------------------------------------------ cliques at a state

    def clique_target(self, state: str, clique: Clique) -> str | None:
        ti = self._clique_targets[self.state_index(state)].get(clique.mask, -1)
        return None if ti < 0 else self.states[ti]

    def enabled_cliques(self, state: str) -> tuple[Clique, ...]:
        """Non-empty enabled cliques at the state, in canonical order."""
        enabled = self._clique_targets[self.state_index(state)]
        return tuple(c for c in self.monoid.nonempty_cliques() if c.mask in enabled)

    def cliques_from(self, state: str) -> tuple[Clique, ...]:
        """Enabled cliques including the empty one."""
        enabled = self._clique_targets[self.state_index(state)]
        return tuple(c for c in self.monoid.cliques() if c.mask in enabled)

    def enabled_letters(self, state: str) -> tuple[str, ...]:
        si = self.state_index(state)
        return tuple(
            a for i, a in enumerate(self.monoid.letters) if self._table[si][i] >= 0
        )

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

    def restrict(self, letter: str) -> "ConcurrentSystem":
        """System over the alphabet without ``letter``; action induced."""
        self.monoid.letter_index(letter)
        keep = [a for a in self.monoid.letters if a != letter]
        sub = self.monoid.restrict_letters(keep)
        action = {
            (s, a): t for s, a, t in self.letter_arcs() if a != letter
        }
        return ConcurrentSystem(sub, self.states, action, base_state=self.base_state)

    @classmethod
    def canonical(cls, monoid: TraceMonoid) -> "ConcurrentSystem":
        """One-state system with total action, canonically attached to a monoid."""
        return cls(monoid, ["*"], {("*", a): "*" for a in monoid.letters})

    # ------------------------------------------------------------ linking executions

    def find_linking_execution(self, state: str, letter: str) -> tuple[str, ...] | None:
        """A witness word whose image links the whole alphabet, rooted at ``letter``.

        Built as a dependence-graph walk from ``letter`` covering the
        alphabet, with a shortest enabling path (BFS over states) inserted
        before each walk letter.  Returns None when the walk or some
        decoration does not exist.  The witness is re-verified before
        being returned.
        """
        if not self.classify().accessible:
            raise NotAccessible("linking executions are only sought in accessible systems")
        si = self.state_index(state)
        self.monoid.letter_index(letter)

        walk = self._coxeter_walk(letter)
        if walk is None:
            return None

        word: list[str] = []
        positions: list[int] = []
        cur = si
        for b in walk:
            path = self._shortest_enabling_path(cur, b)
            if path is None:
                return None
            word.extend(path)
            positions.append(len(word))
            word.append(b)
            cur = self._fold(cur, path + [b])

        self._verify_linking(state, word, positions, letter)
        return tuple(word)

    def _coxeter_walk(self, start: str) -> list[str] | None:
        """Walk in the dependence graph from ``start`` covering the alphabet."""
        letters = self.monoid.letters
        adj = {a: [] for a in letters}
        for a, b in self.monoid.dependence_pairs():
            adj[a].append(b)
            adj[b].append(a)
        seen = {start}
        seq = [start]

        def dfs(u: str) -> None:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    seq.append(v)
                    dfs(v)
                    seq.append(u)

        dfs(start)
        return seq if len(seen) == len(letters) else None

    def _shortest_enabling_path(self, si: int, letter: str) -> list[str] | None:
        """Shortest letter word leading from ``si`` to a state enabling ``letter``."""
        ai = self.monoid.letter_index(letter)
        parent: dict[int, tuple[int, str]] = {si: (-1, "")}
        queue = [si]
        while queue:
            nxt = []
            for u in queue:
                if self._table[u][ai] >= 0:
                    path = []
                    while parent[u][0] >= 0:
                        u, a = parent[u]
                        path.append(a)
                    return path[::-1]
                for bi, b in enumerate(self.monoid.letters):
                    v = self._table[u][bi]
                    if v >= 0 and v not in parent:
                        parent[v] = (u, b)
                        nxt.append(v)
            queue = nxt
        return None

    def _verify_linking(
        self, state: str, word: list[str], positions: list[int], letter: str
    ) -> None:
        m = self.monoid
        ok = (
            self.act(state, word) is not None
            and word[positions[0]] == letter
            and all(p < q for p, q in zip(positions, positions[1:]))
            and all(
                m.dependent(word[p], word[q]) for p, q in zip(positions, positions[1:])
            )
            and {word[p] for p in positions} == set(m.letters)
        )
        if not ok:
            raise TraceSysError("internal error: linking witness failed re-verification")

    def __repr__(self) -> str:
        return f"ConcurrentSystem({self.monoid!r}, states={list(self.states)})"
