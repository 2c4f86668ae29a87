from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracesys.errors import TraceSysError
from tracesys.graphs import (
    build_adsc,
    build_dsc,
    classify_nodes,
    condense,
    count_paths,
    count_paths_table,
    reachable,
    tarjan_sccs,
)
from tracesys.monoid import TraceMonoid
from tracesys.oracle import enumerate_executions
from tracesys.system import ConcurrentSystem


def node_names(graph):
    return [(n[0], str(n[1])) for n in graph.nodes]


# ------------------------------------------------------------ DSC

def test_dsc_e1(e1):
    dsc = build_dsc(e1)
    assert node_names(dsc) == [
        ("s0", "a"), ("s0", "b"), ("s0", "d"), ("s0", "ad"), ("s0", "bd"),
        ("s1", "c"), ("s1", "d"),
    ]
    arcs = {
        (dsc.node_str(v)[1:-1], dsc.node_str(w)[1:-1])
        for v in range(len(dsc))
        for w in dsc.succ[v]
    }
    expected = {
        ("s0,a", "s0,a"), ("s0,a", "s0,b"),
        ("s0,b", "s1,c"),
        ("s0,d", "s0,d"),
        ("s0,ad", "s0,a"), ("s0,ad", "s0,b"), ("s0,ad", "s0,d"),
        ("s0,ad", "s0,ad"), ("s0,ad", "s0,bd"),
        ("s0,bd", "s1,c"), ("s0,bd", "s1,d"),
        ("s1,c", "s0,a"), ("s1,c", "s0,b"), ("s1,c", "s0,d"),
        ("s1,c", "s0,ad"), ("s1,c", "s0,bd"),
        ("s1,d", "s1,c"), ("s1,d", "s1,d"),
    }
    assert arcs == expected


def test_dsc_aztec_node_count(aztec):
    assert len(build_dsc(aztec)) == 26


def test_dsc_canonical_is_clique_digraph(canonical_abc):
    dsc = build_dsc(canonical_abc)
    assert node_names(dsc) == [("*", "a"), ("*", "b"), ("*", "c"), ("*", "ab")]
    arcs = {
        (str(dsc.nodes[v][1]), str(dsc.nodes[w][1]))
        for v in range(len(dsc))
        for w in dsc.succ[v]
    }
    assert arcs == {
        ("a", "a"), ("a", "c"),
        ("b", "b"), ("b", "c"),
        ("c", "a"), ("c", "b"), ("c", "c"), ("c", "ab"),
        ("ab", "a"), ("ab", "b"), ("ab", "c"), ("ab", "ab"),
    }


# ------------------------------------------------------------ ADSC

def test_adsc_e1(e1):
    adsc = build_adsc(build_dsc(e1))
    assert len(adsc) == 9  # five singletons + two 2-cliques of two nodes each
    # chain integrity: non-final chain nodes have out-degree exactly 1
    for v, (s, c, i) in enumerate(adsc.nodes):
        if i < c.size:
            assert len(adsc.succ[v]) == 1
            t = adsc.succ[v][0]
            assert adsc.nodes[t] == (s, c, i + 1)


def test_adsc_singletons_isomorphic_to_dsc():
    monoid = TraceMonoid("ab", [])
    system = ConcurrentSystem(monoid, ["s"], {("s", "a"): "s", ("s", "b"): "s"})
    dsc = build_dsc(system)
    adsc = build_adsc(dsc)
    assert len(dsc) == len(adsc)
    assert [tuple(s) for s in dsc.succ] == [tuple(s) for s in adsc.succ]


def test_adsc_aztec_size(aztec):
    dsc = build_dsc(aztec)
    two_cliques = sum(1 for _s, c in dsc.nodes if c.size == 2)
    assert two_cliques == 8
    assert len(build_adsc(dsc)) == 26 + two_cliques


def normal_step_successors(system, dsc):
    """dsc successors by the letter-by-letter normality test."""
    index = {node: i for i, node in enumerate(dsc.nodes)}
    return tuple(
        tuple(
            index[(t, d)]
            for d in system.enabled_cliques(t)
            if system.monoid.normal_step(c, d)
        )
        for s, c in dsc.nodes
        for t in [system.clique_target(s, c)]
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    .map(lambda flags: (n, flags))
))
def test_dsc_mask_successors_match_normal_step(case):
    n, flags = case
    letters = [f"x{i}" for i in range(n)]
    pairs = [p for p, keep in zip(combinations(letters, 2), flags) if keep]
    monoid = TraceMonoid(letters, pairs)
    system = ConcurrentSystem.canonical(monoid)
    dsc = build_dsc(system)
    assert dsc.succ == normal_step_successors(system, dsc)


def test_dsc_mask_successors_match_normal_step_on_fixtures(irreducible_fixtures):
    for system in irreducible_fixtures.values():
        dsc = build_dsc(system)
        assert dsc.succ == normal_step_successors(system, dsc)


def test_adsc_inherits_dsc_labels(reference_systems):
    """Each dsc label repeats once per letter of its node's clique."""
    for name, system in reference_systems.items():
        dsc = build_dsc(system)
        want = tuple(pos for (_s, c), pos in zip(dsc.nodes, dsc.labels) for _i in range(c.size))
        assert build_adsc(dsc).labels == want, name


# ------------------------------------------------------------ reachability

def _bfs_closure(succ, sources):
    """Reference: grow the reached set until no arc leaves it."""
    reached = set(sources)
    frontier = set(sources)
    while frontier:
        frontier = {w for v in frontier for w in succ[v]} - reached
        reached |= frontier
    return [v in reached for v in range(len(succ))]


@settings(max_examples=200, deadline=None)
@example(([(0, 1), (), (1,)], []))  # a self-loop and no source
@example(([(0, 1), (), (1,)], [0, 0]))  # a repeated source
@example(([(0, 1), (), (1,)], [2]))  # a node that only a source reaches
@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n),
        st.lists(st.integers(0, n - 1), max_size=5),
    ) if n else st.just(([], []))
))
def test_reachable_matches_bfs_closure(case):
    succ, sources = case
    assert reachable(succ, sources) == _bfs_closure(succ, sources)


# ------------------------------------------------------------ SCC condensation

def test_tarjan_basic():
    succ = ((1,), (0,), ())  # 2-cycle and an isolated node
    comps = sorted(map(tuple, tarjan_sccs(succ)))
    assert comps == [(0, 1), (2,)]


def test_condense_single_selfloop():
    cond = condense(((0,),))
    assert len(cond.components) == 1 and cond.terminal == (True,)


def test_condense_deterministic_numbering():
    # components numbered by smallest contained node index
    succ = ((1,), (0,), (3,), (2,), (0, 2))
    cond = condense(succ)
    assert cond.components[0] == (0, 1)
    assert cond.components[1] == (2, 3)
    assert cond.components[2] == (4,)
    assert cond.terminal == (True, True, False)
    assert cond.succ == ((), (), (0, 1))


def test_aztec_positive_sccs(aztec):
    dsc = build_dsc(aztec)
    cond = dsc.positive_subgraph().condensation()
    assert len(cond.components) == 3
    assert sum(cond.terminal) == 1


def test_twelve_terminal_components(twelve):
    dsc = build_dsc(twelve)
    pos = dsc.positive_subgraph()
    cond = pos.condensation()
    terminal_sets = [
        frozenset((pos.nodes[v][0], frozenset(pos.nodes[v][1].letters)) for v in comp)
        for ci, comp in enumerate(cond.components)
        if cond.terminal[ci]
    ]
    want = [
        frozenset({("0", frozenset("ab")), ("4", frozenset("cd")), ("8", frozenset("ef"))}),
        frozenset({("1", frozenset("ad")), ("5", frozenset("ce")), ("9", frozenset("bf"))}),
    ]
    assert sorted(terminal_sets, key=sorted) == sorted(want, key=sorted)


# ------------------------------------------------------------ positive/null labels

def test_classify_e1(e1):
    dsc = build_dsc(e1)
    nulls = [node_names(dsc)[v] for v, pos in enumerate(dsc.labels) if not pos]
    assert nulls == [("s0", "d")]


def test_classify_aztec(aztec):
    dsc = build_dsc(aztec)
    nulls = {node_names(dsc)[v] for v, pos in enumerate(dsc.labels) if not pos}
    assert nulls == {
        ("0", "a"), ("0", "b"), ("1", "a"), ("2", "b"),
        ("0p", "d"), ("0p", "e"), ("1p", "e"), ("2p", "d"),
    }


def test_classify_canonical_all_positive(canonical_abc):
    assert all(build_dsc(canonical_abc).labels)


def test_no_arc_from_null_to_positive(irreducible_fixtures):
    for system in irreducible_fixtures.values():
        dsc = build_dsc(system)
        labels = dsc.labels
        for v in range(len(dsc)):
            if not labels[v]:
                assert all(not labels[w] for w in dsc.succ[v])


def test_maximal_clique_nodes_positive(irreducible_fixtures):
    for system in irreducible_fixtures.values():
        dsc = build_dsc(system)
        labels = dsc.labels
        for v, (s, c) in enumerate(dsc.nodes):
            enabled = system.enabled_cliques(s)
            if not any(d.mask != c.mask and d.mask & c.mask == c.mask for d in enabled):
                assert labels[v]


def _quadratic_labels(graph):
    """Reference labels: a node is positive iff it reaches, reflexively, a
    node whose clique no other enabled clique at its state contains."""
    system = graph.system
    positive = []
    for node in graph.nodes:
        s, c = node[0], node[1]
        enabled = system.enabled_cliques(s)
        positive.append(
            not any(d.mask != c.mask and d.mask & c.mask == c.mask for d in enabled)
        )
    changed = True
    while changed:
        changed = False
        for v, out in enumerate(graph.succ):
            if not positive[v] and any(positive[w] for w in out):
                positive[v] = changed = True
    return tuple(positive)


def test_classify_matches_quadratic_maximality(reference_systems):
    for name, system in reference_systems.items():
        dsc = build_dsc(system)
        assert dsc.labels == _quadratic_labels(dsc), name
        assert classify_nodes(system, dsc.nodes, dsc.succ) == dsc.labels, name


# ------------------------------------------------------------ positive part

def test_positive_components_match_positive_subgraph(reference_systems):
    for name, system in reference_systems.items():
        dsc = build_dsc(system)
        for graph in (dsc, build_adsc(dsc)):
            comps, terminal = graph.positive_components()
            cond = graph.condensation()
            pos = graph.positive_subgraph()
            ref = pos.condensation()
            got = [tuple(graph.nodes[v] for v in cond.components[ci]) for ci in comps]
            want = [tuple(pos.nodes[v] for v in comp) for comp in ref.components]
            assert got == want, (name, graph.kind)
            assert terminal == ref.terminal, (name, graph.kind)


# ------------------------------------------------------------ counting

def test_count_paths_e1(e1):
    adsc = build_adsc(build_dsc(e1))
    assert count_paths(adsc, "s0", "s0", 2) == 4  # aa, ad, dd, bc
    assert count_paths(adsc, "s0", "s0", 0) == 1
    assert count_paths(adsc, "s0", "s1", 0) == 0
    assert count_paths(adsc, "s0", None, 1) == 3  # a, b, d


def test_count_paths_rejects(e1):
    dsc = build_dsc(e1)
    adsc = build_adsc(dsc)
    with pytest.raises(TraceSysError):
        count_paths(adsc, "s0", None, -1)
    with pytest.raises(TraceSysError):
        count_paths(dsc, "s0", None, 1)


def test_count_matches_oracle(irreducible_fixtures):
    lengths = {"e1": 6, "aztec": 5, "canonical_abc": 6, "twelve": 6}
    for name, system in irreducible_fixtures.items():
        adsc = build_adsc(build_dsc(system))
        for origin in system.states:
            table = count_paths_table(adsc, origin, lengths[name])
            for n in range(lengths[name] + 1):
                exact = enumerate_executions(system, origin, n)
                assert table[n] == exact.by_target, (name, origin, n)
