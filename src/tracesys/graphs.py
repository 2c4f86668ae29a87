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
    every triple of an adsc carries the flag of its dsc node).  Kinds ending
    in "+" denote the induced positive subgraph.  The condensation is
    computed once on first use.  Graphs handed out by
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
        wholly positive or null, and :meth:`positive_subgraph` has exactly
        these components, with the same arcs, in this order.
        """
        cond = self.condensation()
        positive = [self.labels[comp[0]] for comp in cond.components]
        comps = tuple(ci for ci, pos in enumerate(positive) if pos)
        terminal = tuple(not any(positive[d] for d in cond.succ[ci]) for ci in comps)
        return comps, terminal

    def positive_subgraph(self) -> "StateCliqueGraph":
        """Induced subgraph on the positive nodes."""
        keep = [i for i, pos in enumerate(self.labels) if pos]
        remap = {old: new for new, old in enumerate(keep)}
        succ = tuple(
            tuple(remap[w] for w in self.succ[v] if w in remap) for v in keep
        )
        return StateCliqueGraph(
            kind=self.kind + "+",
            system=self.system,
            nodes=tuple(self.nodes[i] for i in keep),
            succ=succ,
            labels=(True,) * len(keep),
        )

    def node_str(self, i: int) -> str:
        node = self.nodes[i]
        if len(node) == 2:
            return f"({node[0]},{node[1]})"
        return f"({node[0]},{node[1]},{node[2]})"


def build_dsc(system: ConcurrentSystem) -> StateCliqueGraph:
    """Nodes (state, clique) for enabled non-empty cliques; arcs follow the
    action and the clique normality relation; labels from :func:`classify_nodes`.

    A successor clique d of c must lie inside the dependence closure of c
    (every letter of d depends on some letter of c), one mask test per
    candidate.
    """
    monoid = system.monoid
    enabled = {s: system.enabled_cliques(s) for s in system.states}
    nodes = [(s, c) for s in system.states for c in enabled[s]]
    index = {node: i for i, node in enumerate(nodes)}
    heads = {s: [(d.mask, index[(s, d)]) for d in enabled[s]] for s in system.states}
    succ = []
    for s, c in nodes:
        outside = ~monoid.dependence_mask(c)
        t = system.clique_target(s, c)
        succ.append(tuple(i for mask, i in heads[t] if not mask & outside))
    nodes, succ = tuple(nodes), tuple(succ)
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
    for s in system.states:
        enabled = {c.mask for c in system.enabled_cliques(s)}
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
    if not adsc.kind.startswith("adsc"):
        raise TraceSysError("path counting requires the augmented graph")


def count_paths_table(
    adsc: StateCliqueGraph, origin: str, max_len: int
) -> list[dict[str, int]]:
    """Execution counts from ``origin``: one {target: count} dict per length.

    Entry ``n`` maps each reachable target state to the number of
    executions of length exactly ``n`` ending there (absent = 0).  Exact
    big-integer dynamic programming over the augmented graph.
    """
    if max_len < 0:
        raise TraceSysError("length must be non-negative")
    _check_adsc(adsc)
    system = adsc.system
    system.state_index(origin)
    end_target = {
        i: system.clique_target(s, c)
        for i, (s, c, k) in enumerate(adsc.nodes)
        if k == c.size
    }
    vec = [0] * len(adsc.nodes)
    for i, (s, c, k) in enumerate(adsc.nodes):
        if s == origin and k == 1:
            vec[i] = 1
    table: list[dict[str, int]] = [{origin: 1}]
    for _ in range(max_len):
        counts: dict[str, int] = {}
        for i, t in end_target.items():
            if vec[i]:
                counts[t] = counts.get(t, 0) + vec[i]
        table.append({s: counts[s] for s in system.states if s in counts})
        nxt = [0] * len(adsc.nodes)
        for v, x in enumerate(vec):
            if x:
                for w in adsc.succ[v]:
                    nxt[w] += x
        vec = nxt
    return table


def count_paths(
    adsc: StateCliqueGraph, origin: str, target: str | None, n: int
) -> int:
    """Number of executions of length ``n`` from ``origin`` (to ``target``)."""
    if target is not None:
        adsc.system.state_index(target)
    table = count_paths_table(adsc, origin, n)
    counts = table[n]
    if target is None:
        return sum(counts.values())
    return counts.get(target, 0)
