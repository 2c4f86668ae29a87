from tracesys.dot import dot_condensation, dot_state_clique_graph, dot_states
from tracesys.graphs import build_dsc


def test_dsc_export_e1(e1):
    text = dot_state_clique_graph(build_dsc(e1))
    assert text.count("[label=") == 7
    assert '[label="(s0,d)" fillcolor="lightgrey"]' in text
    assert '[label="(s0,a)" fillcolor="white"]' in text
    assert "subgraph cluster_0" in text
    assert "peripheries=2" in text  # the terminal component


def test_dsc_export_deterministic(e1):
    one = dot_state_clique_graph(build_dsc(e1))
    two = dot_state_clique_graph(build_dsc(e1))
    assert one == two


def test_condensation_export(aztec):
    pos = build_dsc(aztec).positive_subgraph()
    text = dot_condensation(pos)
    assert text.count("shape=box") == 3
    assert text.count("peripheries=2") == 1


def test_states_export(e1):
    text = dot_states(e1)
    assert '"s0" -> "s1" [label="b"];' in text
    assert '"s1" -> "s0" [label="c"];' in text
    assert text.count("->") == 5  # one arc per (state, letter) pair
