"""Independent reference implementations that the tests compare the library against.

None of these is on a path that the CLI, the benchmark or the library
runs: each is a second, plainer way to reach a result that the pipeline
computes otherwise, or a tool the tests use to build their inputs.
"""

from dataclasses import dataclass

from tracesys import poly
from tracesys.errors import NotAccessible, TraceSysError
from tracesys.graphs import Adjacency, StateCliqueGraph, tarjan_sccs
from tracesys.measure import UniformMeasure
from tracesys.monoid import Clique, TraceMonoid
from tracesys.sampling import SplitMix64, UniformExecutionSampler
from tracesys.spectral import max_radius, spectral_radius
from tracesys.system import ConcurrentSystem


# ------------------------------------------------------------ polynomials

def mul(p: poly.Poly, q: poly.Poly) -> poly.Poly:
    """Product of two exact integer polynomials, by the schoolbook rule."""
    if not p or not q:
        return poly.ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly.normalize(out)


# ------------------------------------------------------------ monoids and systems

def normal_step(monoid: TraceMonoid, c: Clique, d: Clique) -> bool:
    """Normality c -> d, letter by letter: every letter of d depends on some
    letter of c.  The reference for ``TraceMonoid.dependence_mask``."""
    return all(any(monoid.dependent(a, b) for a in c.letters) for b in d.letters)


def restrict(system: ConcurrentSystem, letter: str) -> ConcurrentSystem:
    """The system over the alphabet without ``letter``, with the induced
    independence and action.  The reference for
    ``mobius_matrix(system, without=letter)``."""
    monoid = system.monoid
    monoid.letter_index(letter)
    sub = TraceMonoid(
        [a for a in monoid.letters if a != letter],
        [(a, b) for a, b in monoid.independent_pairs if letter not in (a, b)],
    )
    action = {(s, a): t for s, a, t in system.letter_arcs() if a != letter}
    return ConcurrentSystem(sub, system.states, action, base_state=system.base_state)


def positive_subgraph(graph: StateCliqueGraph) -> StateCliqueGraph:
    """The subgraph induced on the positive nodes, its kind marked with "+".
    The reference for ``StateCliqueGraph.positive_components``."""
    keep = [i for i, pos in enumerate(graph.labels) if pos]
    remap = {old: new for new, old in enumerate(keep)}
    succ = tuple(tuple(remap[w] for w in graph.succ[v] if w in remap) for v in keep)
    return StateCliqueGraph(
        kind=graph.kind + "+",
        system=graph.system,
        nodes=tuple(graph.nodes[i] for i in keep),
        succ=succ,
        labels=(True,) * len(keep),
    )


def graph_radius(succ: Adjacency) -> float:
    """Spectral radius of a whole digraph: the largest radius of its
    strongly connected components, found by Tarjan's algorithm rather
    than the condensation the library reads its radii from."""
    return max_radius(spectral_radius(succ, c) for c in tarjan_sccs(succ))


# ------------------------------------------------------------ execution counts and draws

def paths_by_first_letter(adsc: StateCliqueGraph, length: int) -> list[list[int]]:
    """paths[m][v]: the m-letter executions whose first letter is adsc node
    v, counted backward over the arcs; an execution ends where a clique does.
    The reference for the counts of ``UniformExecutionSampler``."""
    paths = [[0] * len(adsc.nodes), [int(c.size == i) for _s, c, i in adsc.nodes]]
    for _ in range(2, length + 1):
        prev = paths[-1]
        paths.append([sum(prev[w] for w in out) for out in adsc.succ])
    return paths


def count_terms(system: ConcurrentSystem) -> list[list[int]]:
    """terms[u]: the signed positions in the ±T history that F[m][u] sums,
    per dsc node u, as ``UniformExecutionSampler`` lays out that history."""
    n = len(system.states)
    terms: list[list[int]] = []
    for moves in system.moves:
        first = len(terms)
        at = {d.mask: (u, d.size) for u, (d, _t) in enumerate(moves[1:], first)}
        terms += [[] for _ in moves[1:]]
        for e, t in moves[1:]:
            sub = e.mask
            while sub:  # the non-empty submasks d of e, all enabled
                u, size = at[sub]
                terms[u].append(-2 * n * e.size + (e.size - size) % 2 * n + t)
                sub = (sub - 1) & e.mask
    return terms


def per_node_counts(system: ConcurrentSystem, length: int) -> list[list[int]]:
    """counts[m][u] for m <= length, one sum per dsc node and length: the
    build of ``UniformExecutionSampler`` before nodes with equal terms
    shared one sum."""
    n, terms = len(system.states), count_terms(system)
    spans = [0]
    for moves in system.moves:
        spans.append(spans[-1] + len(moves) - 1)
    widest = max(c.size for m in system.moves for c, _t in m)
    hist = [0] * (2 * n * (widest - 1)) + [1] * n + [-1] * n
    counts = [[0] * len(terms)]
    for _ in range(length):
        row = [sum(hist[k] for k in idx) for idx in terms]
        totals = [sum(row[a:b]) for a, b in zip(spans, spans[1:])]
        hist += totals + [-x for x in totals]
        counts.append(row)
    return counts


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class ReferenceSplitMix64:
    """SplitMix64 with one method call per 64-bit word: the reference for
    the inlined draws of ``tracesys.sampling.SplitMix64``."""

    def __init__(self, seed: int, stream: int = 0):
        self._state = _mix64(_mix64(seed) ^ _mix64((stream + 1) * _GOLDEN))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        return (self.next_u64() >> 11) / 9007199254740992.0

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        bits = n.bit_length()
        words = (bits + 63) // 64
        while True:
            x = 0
            for _ in range(words):
                x = x << 64 | self.next_u64()
            x >>= 64 * words - bits
            if x < n:
                return x


# ------------------------------------------------------------ linking executions

def find_linking_execution(
    system: ConcurrentSystem, state: str, letter: str
) -> tuple[str, ...] | None:
    """A witness word whose image links the whole alphabet, rooted at ``letter``.

    Built as a dependence-graph walk from ``letter`` covering the alphabet,
    with a shortest enabling path (BFS over states) inserted before each
    walk letter.  Returns None when the walk or some decoration does not
    exist.  The witness is re-verified before being returned.
    """
    if not system.classify().accessible:
        raise NotAccessible("linking executions are only sought in accessible systems")
    system.state_index(state)
    system.monoid.letter_index(letter)

    walk = _coxeter_walk(system.monoid, letter)
    if walk is None:
        return None

    word: list[str] = []
    positions: list[int] = []
    cur = state
    for b in walk:
        path = _shortest_enabling_path(system, cur, b)
        if path is None:
            return None
        word.extend(path)
        positions.append(len(word))
        word.append(b)
        cur = system.act(cur, path + [b])

    assert _is_linking(system, state, word, positions, letter), word
    return tuple(word)


def _coxeter_walk(monoid: TraceMonoid, start: str) -> list[str] | None:
    """Walk in the dependence graph from ``start`` covering the alphabet."""
    letters = monoid.letters
    adj = {a: [b for b in letters if b != a and monoid.dependent(a, b)] for a in letters}
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


def _shortest_enabling_path(
    system: ConcurrentSystem, state: str, letter: str
) -> list[str] | None:
    """Shortest letter word leading from ``state`` to a state enabling ``letter``."""
    parent: dict[str, tuple[str | None, str]] = {state: (None, "")}
    queue = [state]
    while queue:
        nxt = []
        for u in queue:
            if system.act(u, [letter]) is not None:
                path = []
                while parent[u][0] is not None:
                    u, a = parent[u]
                    path.append(a)
                return path[::-1]
            for b in system.monoid.letters:
                v = system.act(u, [b])
                if v is not None and v not in parent:
                    parent[v] = (u, b)
                    nxt.append(v)
        queue = nxt
    return None


def _is_linking(
    system: ConcurrentSystem, state: str, word: list[str], positions: list[int], letter: str
) -> bool:
    m = system.monoid
    return (
        system.act(state, word) is not None
        and word[positions[0]] == letter
        and all(p < q for p, q in zip(positions, positions[1:]))
        and all(m.dependent(word[p], word[q]) for p, q in zip(positions, positions[1:]))
        and {word[p] for p in positions} == set(m.letters)
    )


# ------------------------------------------------------------ first-clique statistics

@dataclass(frozen=True)
class FirstCliqueReport:
    start: str
    length: int
    samples: int
    counts: dict[Clique, int]
    frequencies: dict[Clique, float]
    expected: dict[Clique, float]
    tv_distance: float
    z_scores: dict[Clique, float]


def empirical_first_clique(
    system: ConcurrentSystem,
    measure: UniformMeasure,
    start: str,
    length: int,
    samples: int,
    seed: int,
) -> FirstCliqueReport:
    """Frequencies of the first clique of uniform executions vs. its limit law.

    A sampler check: total-variation distance and per-clique z-scores
    against the law of the first clique under the uniform measure.
    """
    if length < 1:
        raise TraceSysError("length must be positive: the empty execution has no first clique")
    if samples <= 0:
        raise TraceSysError("samples must be positive")
    sampler = UniformExecutionSampler(system, start, length)
    rng = SplitMix64(seed, stream=1)
    counts: dict[Clique, int] = {}
    for _ in range(samples):
        c = system.monoid.normal_form(sampler.sample(rng)).cliques[0]
        counts[c] = counts.get(c, 0) + 1

    enabled = system.enabled_cliques(start)
    expected = dict(zip(enabled, measure.h[system.state_index(start)][1:]))
    freqs = {c: counts.get(c, 0) / samples for c in enabled}
    tv = 0.5 * sum(abs(freqs[c] - expected[c]) for c in enabled)
    z = {}
    for c in enabled:
        p = expected[c]
        got = counts.get(c, 0)
        if 0.0 < p < 1.0:
            z[c] = (got - samples * p) / (samples * p * (1 - p)) ** 0.5
        else:
            z[c] = 0.0 if got == samples * p else float("inf")
    return FirstCliqueReport(
        start=start,
        length=length,
        samples=samples,
        counts={c: counts.get(c, 0) for c in enabled},
        frequencies=freqs,
        expected=expected,
        tv_distance=tv,
        z_scores=z,
    )
