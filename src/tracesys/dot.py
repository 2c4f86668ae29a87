"""Deterministic DOT (graphviz) renderings of systems and their digraphs."""

from __future__ import annotations

from .graphs import StateCliqueGraph
from .system import ConcurrentSystem

NULL_FILL = "lightgrey"
POSITIVE_FILL = "white"


def _q(s: str) -> str:
    return '"' + s.replace('"', r"\"") + '"'


def dot_states(system: ConcurrentSystem) -> str:
    """Labeled multigraph of states, one arc per (state, letter)."""
    lines = ["digraph states {", "  rankdir=LR;"]
    for s in system.states:
        shape = "doublecircle" if s == system.base_state else "circle"
        lines.append(f"  {_q(s)} [shape={shape}];")
    for s, a, t in system.letter_arcs():
        lines.append(f"  {_q(s)} -> {_q(t)} [label={_q(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_state_clique_graph(graph: StateCliqueGraph) -> str:
    """States-and-cliques digraph; null nodes filled grey, SCCs clustered,
    terminal clusters double-bordered."""
    cond = graph.condensation()
    lines = [f"digraph {graph.kind.replace('+', '_pos')} {{", "  node [style=filled];"]
    for ci, comp in enumerate(cond.components):
        lines.append(f"  subgraph cluster_{ci} {{")
        if cond.terminal[ci]:
            lines.append("    peripheries=2;")
        for v in comp:
            fill = POSITIVE_FILL if graph.labels[v] else NULL_FILL
            lines.append(f"    n{v} [label={_q(graph.node_str(v))} fillcolor={_q(fill)}];")
        lines.append("  }")
    for v in range(len(graph.nodes)):
        for w in graph.succ[v]:
            lines.append(f"  n{v} -> n{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_condensation(graph: StateCliqueGraph) -> str:
    """One node per strongly connected component; terminal ones double-bordered."""
    cond = graph.condensation()
    lines = ["digraph condensation {"]
    for ci, comp in enumerate(cond.components):
        label = f"C{ci} ({len(comp)} nodes)"
        peripheries = 2 if cond.terminal[ci] else 1
        lines.append(f"  c{ci} [label={_q(label)} shape=box peripheries={peripheries}];")
    for ci, outs in enumerate(cond.succ):
        for cj in outs:
            lines.append(f"  c{ci} -> c{cj};")
    lines.append("}")
    return "\n".join(lines) + "\n"
