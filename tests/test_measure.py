import random
from fractions import Fraction

import numpy as np
import pytest

from tracesys.analysis import Analysis, uniform_measure, uniqueness_diagnostics

from tracesys.errors import (
    ClassificationMismatch,
    KernelDimensionNotOne,
    NotIrreducible,
)
from tracesys.graphs import StateCliqueGraph
from tracesys.measure import (
    ZERO_THRESHOLD,
    _null_reachability,
    numeric_null_check,
    kernel_cocycle,
)
from tracesys.monoid import TraceMonoid
from tracesys.sampling import SplitMix64
from tracesys.spectral import CharacteristicRoot, basic_flags, mobius_matrix
from tracesys.system import ConcurrentSystem

TOL = 1e-9


def by_name(measure, state):
    return {str(c): v for c, v in measure.h[state].items()}


# ------------------------------------------------------------ cocycle

def test_cocycle_e1(e1_measure):
    e1 = e1_measure.system
    for a in e1.states:
        for b in e1.states:
            assert abs(e1_measure.gamma(a, b) - 1.0) <= TOL


def test_cocycle_aztec(aztec_measure):
    r = aztec_measure.r
    assert abs(aztec_measure.gamma("0", "1") - 1 / r) <= 1e-6
    assert abs(aztec_measure.gamma("3", "0") - r * r) <= 1e-6
    assert abs(aztec_measure.gamma("1", "2") - 1.0) <= 1e-6
    assert abs(aztec_measure.gamma("3", "3p") - 1.0) <= 1e-6


def test_cocycle_canonical(canonical_abc):
    m = uniform_measure(canonical_abc)
    assert m.gamma("*", "*") == 1.0


def test_cocycle_kernel_dimension_error(e1):
    # a non-root evaluation point gives a full-rank matrix: kernel dim 0
    bogus = CharacteristicRoot(
        theta=(1, -3, 2), square_free=(1, -3, 2),
        lo=Fraction(1, 3), hi=Fraction(1, 3),
    )
    with pytest.raises(KernelDimensionNotOne):
        kernel_cocycle(e1, mobius_matrix(e1), bogus)


def test_measure_requires_irreducible():
    system = ConcurrentSystem.canonical(TraceMonoid("ab", [("a", "b")]))
    with pytest.raises(NotIrreducible):
        uniform_measure(system)


# ------------------------------------------------------------ tables

def test_f_table_e1(e1_measure):
    f0 = {str(c): v for c, v in e1_measure.f["s0"].items()}
    assert f0 == pytest.approx(
        {"ε": 1.0, "a": 0.5, "b": 0.5, "c": 0.0, "d": 0.5, "ad": 0.25, "bd": 0.25},
        abs=TOL,
    )
    f1 = {str(c): v for c, v in e1_measure.f["s1"].items()}
    assert f1 == pytest.approx(
        {"ε": 1.0, "a": 0.0, "b": 0.0, "c": 0.5, "d": 0.5, "ad": 0.0, "bd": 0.0},
        abs=TOL,
    )


def test_h_table_e1(e1_measure):
    h0 = by_name(e1_measure, "s0")
    assert h0 == pytest.approx(
        {"ε": 0.0, "a": 0.25, "b": 0.25, "c": 0.0, "d": 0.0, "ad": 0.25, "bd": 0.25},
        abs=TOL,
    )
    h1 = by_name(e1_measure, "s1")
    assert h1 == pytest.approx(
        {"ε": 0.0, "a": 0.0, "b": 0.0, "c": 0.5, "d": 0.5, "ad": 0.0, "bd": 0.0},
        abs=TOL,
    )


def test_h_table_aztec(aztec_measure):
    r = aztec_measure.r
    h1 = by_name(aztec_measure, "1")
    assert abs(h1["a"]) <= TOL
    assert abs(h1["b"] - (1 - r * r)) <= TOL
    assert abs(h1["ab"] - r * r) <= TOL


def test_g_table_e1(e1_measure):
    sys_ = e1_measure.system
    cliques = {str(c): c for c in sys_.monoid.cliques()}
    g = {(s, str(c)): v for (s, c), v in e1_measure.g.items()}
    assert abs(g[("s0", "a")] - 0.5) <= TOL
    assert abs(g[("s0", "d")]) <= TOL  # only successor is itself, h = 0
    assert abs(g[("s0", "ad")] - 1.0) <= TOL


def test_mcsc_matrix_e1(e1_measure):
    nodes = [f"({s},{c})" for s, c in e1_measure.dsc.nodes]
    order = ["(s0,a)", "(s0,b)", "(s0,ad)", "(s0,bd)", "(s1,c)", "(s1,d)"]
    idx = [nodes.index(n) for n in order]
    want = np.array([
        [0.5, 0.5, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0.25, 0.25, 0.25, 0.25, 0, 0],
        [0, 0, 0, 0, 0.5, 0.5],
        [0.25, 0.25, 0.25, 0.25, 0, 0],
        [0, 0, 0, 0, 0.5, 0.5],
    ])
    got = e1_measure.transition[np.ix_(idx, idx)]
    assert np.abs(got - want).max() <= TOL
    # the null row is flagged unreachable
    flagged = [n for n, u in zip(nodes, e1_measure.unreachable) if u]
    assert flagged == ["(s0,d)"]


def test_mcsc_initial_law_aztec(aztec_measure):
    r = aztec_measure.r
    initial = {str(c): v for c, v in aztec_measure.initial["1"].items()}
    assert initial == pytest.approx(
        {"a": 0.0, "b": 1 - r * r, "ab": r * r}, abs=TOL
    )


def test_mcsc_single_letter_free_monoid():
    system = ConcurrentSystem(TraceMonoid("a", []), ["s"], {("s", "a"): "s"})
    m = uniform_measure(system)
    assert m.transition.shape == (1, 1)
    assert abs(m.transition[0, 0] - 1.0) <= TOL


def _reference_tables(system, f, dsc):
    """h by the all-cliques superset sum and g, the chain and its unreachable
    flags by the two passes over the arcs that the one-pass assembly replaced."""
    cliques = system.monoid.cliques()
    h = {}
    for s in system.states:
        row = {}
        for c in cliques:
            acc = 0.0
            for d in cliques:
                if d.mask & c.mask == c.mask:
                    acc += (-1) ** (d.size - c.size) * f[s][d]
            row[c] = acc
        h[s] = row
    g = {}
    for v, (s, c) in enumerate(dsc.nodes):
        g[(s, c)] = sum(h[dsc.nodes[w][0]][dsc.nodes[w][1]] for w in dsc.succ[v])
    m = np.zeros((len(dsc.nodes), len(dsc.nodes)))
    unreachable = []
    for v, (s, c) in enumerate(dsc.nodes):
        gv = g[(s, c)]
        dead = gv <= ZERO_THRESHOLD
        unreachable.append(dead)
        for w in dsc.succ[v]:
            t, d = dsc.nodes[w]
            m[v, w] = h[t][d] if dead else h[t][d] / gv
    return h, g, m, tuple(unreachable)


def test_tables_bit_equal_to_reference(reference_systems):
    for name, system in reference_systems.items():
        measure = Analysis.of(system).measure()
        h, g, m, unreachable = _reference_tables(system, measure.f, measure.dsc)
        # float.hex sees the sign of zero and refuses an int where a float belongs
        assert [
            (s, c, float.hex(v)) for s in measure.h for c, v in measure.h[s].items()
        ] == [(s, c, float.hex(v)) for s in h for c, v in h[s].items()], name
        assert [(k, type(v), float(v).hex()) for k, v in measure.g.items()] == [
            (k, type(v), float(v).hex()) for k, v in g.items()
        ], name
        assert list(map(float.hex, measure.transition.ravel().tolist())) == list(
            map(float.hex, m.ravel().tolist())
        ), name
        assert measure.unreachable == unreachable, name


# ------------------------------------------------------------ type invariants

@pytest.mark.parametrize(
    "name", ["e1_measure", "aztec_measure", "twelve_measure"]
)
def test_identity_residuals(name, request):
    m = request.getfixturevalue(name)
    res = m.identity_residuals()
    for key, value in res.items():
        assert value <= TOL, (key, value)


def test_chain_condition_on_cylinders(e1_measure):
    sys_ = e1_measure.system
    rng = SplitMix64(11)
    letters = sys_.monoid.letters
    found = 0
    while found < 50:
        x = [letters[rng.randrange(4)] for _ in range(rng.randrange(5))]
        y = [letters[rng.randrange(4)] for _ in range(rng.randrange(5))]
        s = sys_.states[rng.randrange(2)]
        mid = sys_.act(s, x)
        if mid is None or sys_.act(mid, y) is None:
            continue
        found += 1
        lhs = e1_measure.cylinder(s, x + y)
        rhs = e1_measure.cylinder(s, x) * e1_measure.cylinder(mid, y)
        assert abs(lhs - rhs) <= TOL


# ------------------------------------------------------------ diagnostics

@pytest.mark.parametrize(
    "name", ["e1_measure", "aztec_measure", "twelve_measure"]
)
def test_numeric_null_check_agrees(name, request):
    m = request.getfixturevalue(name)
    rep = numeric_null_check(m)
    assert rep.max_null_h <= ZERO_THRESHOLD
    assert rep.min_positive_h > ZERO_THRESHOLD


def test_null_check_e1_set(e1_measure):
    rep = numeric_null_check(e1_measure)
    assert [(s, str(c)) for s, c in rep.null_nodes] == [("s0", "d")]


def test_null_check_canonical_all_positive(canonical_abc):
    m = uniform_measure(canonical_abc)
    assert numeric_null_check(m).null_nodes == ()


def test_null_check_mismatch_raises(e1_measure):
    import copy

    tampered = copy.copy(e1_measure)
    tampered.h = {s: dict(row) for s, row in e1_measure.h.items()}
    d = next(c for c in e1_measure.system.monoid.cliques() if str(c) == "d")
    tampered.h["s0"][d] = 0.2  # graph-null node with fake mass
    with pytest.raises(ClassificationMismatch):
        numeric_null_check(tampered)


@pytest.mark.parametrize(
    "name", ["e1_measure", "aztec_measure", "twelve_measure"]
)
def test_uniqueness_diagnostics(name, request):
    m = request.getfixturevalue(name)
    rep = uniqueness_diagnostics(m)
    assert rep.kernel_dim == 1
    assert rep.eigen_residual <= 1e-6
    assert rep.basic_equals_terminal
    assert rep.null_reachability_ok
    assert rep.ok


def test_uniqueness_e1_residual_tiny(e1_measure):
    assert uniqueness_diagnostics(e1_measure).eigen_residual <= 1e-9


def test_twelve_has_two_basic_terminal(twelve_measure):
    rep = uniqueness_diagnostics(twelve_measure)
    assert len(rep.basic_components) == 2
    assert len(rep.terminal_components) == 2


def _reference_marks(adsc, flags):
    """Per node: (strictly below a basic component, reflexively below one),
    found by testing every basic component against the node's component."""
    cond = adsc.condensation()

    def reached_from(i):
        seen, queue = {i}, [i]
        while queue:
            for v in cond.succ[queue.pop()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    reach = {b: reached_from(b) for b, flag in enumerate(flags) if flag}
    marks = []
    for comp in cond.comp_of:
        strictly = any(b != comp and comp in seen for b, seen in reach.items())
        literally = any(comp in seen for seen in reach.values())
        marks.append((strictly, literally))
    return marks


def _reference_null_reachability(adsc, flags):
    marks = _reference_marks(adsc, flags)
    nulls = [not pos for pos in adsc.labels]
    return (
        all(strictly == null for (strictly, _l), null in zip(marks, nulls)),
        any(literally != null for (_s, literally), null in zip(marks, nulls)),
    )


def test_null_reachability_matches_per_node_search(reference_systems):
    rng = random.Random(5)
    for name, system in reference_systems.items():
        analysis = Analysis(system)
        adsc = analysis.adsc
        n = len(adsc.condensation().components)
        flag_sets = [basic_flags(analysis.adsc_radii)]
        flag_sets += [tuple(rng.random() < 0.2 for _ in range(n)) for _ in range(5)]
        for flags in flag_sets:
            # the true labels, labels under which the strict reading holds,
            # and those with one node flipped
            agree = tuple(not strictly for strictly, _l in _reference_marks(adsc, flags))
            flipped = (not agree[0], *agree[1:])
            for labels in (adsc.labels, agree, flipped):
                graph = StateCliqueGraph(adsc.kind, system, adsc.nodes, adsc.succ, labels)
                got = _null_reachability(graph, flags)
                assert got == _reference_null_reachability(graph, flags), name
                assert got[0] == (labels == agree), name
