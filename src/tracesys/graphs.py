"""Digraphs of states-and-cliques, SCC condensation, and execution counting.

Nodes of the plain graph are (state, clique) pairs with the clique enabled
at the state; the augmented graph unfolds each node into a chain of
(state, clique, i) triples, one per letter, so that path length counts
letters instead of cliques.  Both are built labelled positive/null.  Path
counts use Python big integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import TraceSysError

if TYPE_CHECKING:
    from .system import ConcurrentSystem

Adjacency = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------- condensation

@dataclass(frozen=True)
class Condensation:
    """SCC structure of a digraph: components numbered by smallest node index."""

    comp_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    succ: tuple[tuple[int, ...], ...]  # DAG arcs between distinct components
    terminal: tuple[bool, ...]


def tarjan_sccs(succ: Adjacency) -> list[list[int]]:
    """Strongly connected components, iteratively (no recursion limit)."""
    n = len(succ)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    comps: list[list[int]] = []

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] < 0:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                u = work[-1][0]
                lowlink[u] = min(lowlink[u], lowlink[v])
    return comps


def reachable(succ: Sequence[Sequence[int]], sources: Iterable[int]) -> list[bool]:
    """Per node: whether some path, possibly empty, leads to it from ``sources``."""
    seen = [False] * len(succ)
    stack = []
    for v in sources:
        if not seen[v]:
            seen[v] = True
            stack.append(v)
    while stack:
        for w in succ[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


def condense(succ: Adjacency) -> Condensation:
    comps = sorted(tarjan_sccs(succ), key=min)
    comp_of = [0] * len(succ)
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    out_arcs = [set() for _ in comps]
    for v in range(len(succ)):
        for w in succ[v]:
            if comp_of[v] != comp_of[w]:
                out_arcs[comp_of[v]].add(comp_of[w])
    return Condensation(
        comp_of=tuple(comp_of),
        components=tuple(tuple(c) for c in comps),
        succ=tuple(tuple(sorted(a)) for a in out_arcs),
        terminal=tuple(not a for a in out_arcs),
    )


# ---------------------------------------------------------------- states-and-cliques

@dataclass
class StateCliqueGraph:
    """Plain ("dsc") or augmented ("adsc") digraph of states-and-cliques.

    dsc nodes are (state, clique) pairs, adsc nodes (state, clique, i)
    triples; ``succ`` lists the successors of each node by index and
    ``labels`` holds one positive flag per node (see :func:`classify_nodes`;
    every triple of an adsc carries the flag of its dsc node).  The
    condensation is computed once on first use.  Graphs handed out by
    :class:`~tracesys.analysis.Analysis` are shared: treat them as read-only.
    """

    kind: str
    system: ConcurrentSystem
    nodes: tuple[tuple, ...]
    succ: Adjacency
    labels: tuple[bool, ...]

    def __post_init__(self):
        self._cond: Condensation | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def condensation(self) -> Condensation:
        if self._cond is None:
            self._cond = condense(self.succ)
        return self._cond

    def positive_components(self) -> tuple[tuple[int, ...], tuple[bool, ...]]:
        """Indices into :meth:`condensation` of the components made of
        positive nodes, in order, and each one's terminal flag among them.

        Positive nodes are closed under predecessors, so each component is
        wholly positive or null.
        """
        cond = self.condensation()
        positive = [self.labels[comp[0]] for comp in cond.components]
        comps = tuple(ci for ci, pos in enumerate(positive) if pos)
        terminal = tuple(not any(positive[d] for d in cond.succ[ci]) for ci in comps)
        return comps, terminal

    def node_str(self, i: int) -> str:
        node = self.nodes[i]
        if len(node) == 2:
            return f"({node[0]},{node[1]})"
        return f"({node[0]},{node[1]},{node[2]})"


def build_dsc(system: ConcurrentSystem) -> StateCliqueGraph:
    """Nodes (state, clique) for the non-empty cliques of ``system.moves``;
    arcs follow the action and the clique normality relation; labels from
    :func:`classify_nodes`.

    Nodes follow ``system.moves``, so the nodes of a state are consecutive
    and the successors of (a, c) are read off the moves at the target of c.
    A successor clique d of c must lie inside the dependence closure of c
    (every letter of d depends on some letter of c), one mask test per
    candidate.
    """
    monoid, moves = system.monoid, system.moves
    nodes = tuple((s, c) for s, m in zip(system.states, moves) for c, _t in m[1:])
    first = accumulate((len(m) - 1 for m in moves), initial=0)  # each state's first node
    heads = [[(d.mask, i) for i, (d, _t) in enumerate(m[1:], f)] for m, f in zip(moves, first)]
    succ = []
    for m in moves:
        for c, t in m[1:]:
            outside = ~monoid.dependence_mask(c)
            succ.append(tuple(i for mask, i in heads[t] if not mask & outside))
    succ = tuple(succ)
    return StateCliqueGraph("dsc", system, nodes, succ, classify_nodes(system, nodes, succ))


def build_adsc(dsc: StateCliqueGraph) -> StateCliqueGraph:
    """Unfold every (state, clique) node of ``dsc`` into a chain of |clique|
    triples, each labelled like its node."""
    nodes = tuple((s, c, i) for s, c in dsc.nodes for i in range(1, c.size + 1))
    first = [0, *accumulate(c.size for _s, c in dsc.nodes)]  # each node's first triple
    succ: list[tuple[int, ...]] = []
    for v, (s, c) in enumerate(dsc.nodes):
        for i in range(1, c.size):
            succ.append((first[v] + i,))
        succ.append(tuple(first[w] for w in dsc.succ[v]))
    labels = tuple(
        pos for (_s, c), pos in zip(dsc.nodes, dsc.labels) for _i in range(c.size)
    )
    return StateCliqueGraph("adsc", dsc.system, nodes, tuple(succ), labels)


def classify_nodes(
    system: ConcurrentSystem, nodes: tuple[tuple, ...], succ: Adjacency
) -> tuple[bool, ...]:
    """Positive/null labels of the dsc with these (state, clique) ``nodes``
    and arcs ``succ``, by exact reachability.

    A node is positive iff it reaches, reflexively, a node whose clique is
    maximal (for inclusion) among the enabled cliques at its state.
    Enabled cliques are closed under subsets (diamond property and the
    absorbing sink), so a clique is maximal iff none of its one-letter
    extensions is enabled: O(enabled * letters) per state.
    """
    bits = [1 << i for i in range(len(system.monoid.letters))]
    maximal: dict[str, set[int]] = {}
    for s, moves in zip(system.states, system.moves):
        enabled = {c.mask for c, _t in moves}
        maximal[s] = {
            mask
            for mask in enabled
            if not any(not mask & b and mask | b in enabled for b in bits)
        }
    targets = [i for i, (s, c) in enumerate(nodes) if c.mask in maximal[s]]
    pred = [[] for _ in nodes]
    for v, out in enumerate(succ):
        for w in out:
            pred[w].append(v)
    return tuple(reachable(pred, targets))


# ---------------------------------------------------------------- path counting

def _check_adsc(adsc: StateCliqueGraph) -> None:
    if adsc.kind != "adsc":
        raise TraceSysError("path counting requires the augmented graph")


def count_paths_table(
    adsc: StateCliqueGraph, origin: str, max_len: int
) -> list[list[int]]:
    """Execution counts from ``origin``: one row per length, indexed by state.

    Entry ``[n][j]`` counts the executions of length exactly ``n`` from
    ``origin`` to state ``j``, by exact big-integer dynamic programming over
    the augmented graph.  Its chains follow ``system.moves`` (see
    :func:`build_dsc`), so one walk over that table finds each chain's first
    triple, last triple and target index.
    """
    if max_len < 0:
        raise TraceSysError("length must be non-negative")
    _check_adsc(adsc)
    system = adsc.system
    start = system.state_index(origin)
    vec = [0] * len(adsc.nodes)
    ends = []  # (last triple, target index) of every chain
    v = 0
    for i, moves in enumerate(system.moves):
        for c, t in moves[1:]:
            if i == start:
                vec[v] = 1
            v += c.size
            ends.append((v - 1, t))
    table = [[int(j == start) for j in range(len(system.states))]]
    for _ in range(max_len):
        row = [0] * len(system.states)
        for v, t in ends:
            row[t] += vec[v]
        table.append(row)
        nxt = [0] * len(adsc.nodes)
        for v, x in enumerate(vec):
            if x:
                for w in adsc.succ[v]:
                    nxt[w] += x
        vec = nxt
    return table
