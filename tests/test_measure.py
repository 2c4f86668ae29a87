import functools
import operator
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from bench_modules import inputs, load_system
from hypothesis import given, settings
from hypothesis import strategies as st
from references import paths_by_first_letter
from test_petri import cycle_nets

from tracesys.analysis import Analysis, uniform_measure, uniqueness_diagnostics

from tracesys.errors import (
    ClassificationMismatch,
    KernelDimensionNotOne,
    NotIrreducible,
)
from tracesys.fixtures import ALL_SYSTEMS
from tracesys.graphs import StateCliqueGraph
from tracesys.measure import (
    ZERO_THRESHOLD,
    _null_reachability,
    numeric_null_check,
    kernel_cocycle,
    mobius_transform,
)
from tracesys.monoid import TraceMonoid
from tracesys.petri import parse_petri, petri_to_system
from tracesys.report import analyze_report
from tracesys.sampling import SplitMix64, UniformExecutionSampler
from tracesys.spectral import CharacteristicRoot, basic_flags, mobius_matrix
from tracesys.system import ConcurrentSystem

TOL = 1e-9


def padded(system, rows):
    """Rows aligned with ``system.moves`` as one dict per state over every
    clique of the monoid, 0.0 at those not enabled: the report's layout."""
    out = {}
    for s, moves, row in zip(system.states, system.moves, rows):
        at = {c: v for (c, _t), v in zip(moves, row)}
        out[s] = {c: at.get(c, 0.0) for c in system.monoid.cliques()}
    return out


def by_name(measure, state, table="h"):
    """One state's row of h (or f), by clique name, padded."""
    rows = padded(measure.system, getattr(measure, table))
    return {str(c): v for c, v in rows[state].items()}


def chain_block(measure, idx):
    """The chain between the dsc nodes ``idx``, as a dense array: 0.0 off the arcs."""
    rows = [dict(zip(measure.dsc.succ[v], measure.transition[v])) for v in idx]
    return np.array([[row.get(w, 0.0) for w in idx] for row in rows])


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
    f0 = by_name(e1_measure, "s0", "f")
    assert f0 == pytest.approx(
        {"ε": 1.0, "a": 0.5, "b": 0.5, "c": 0.0, "d": 0.5, "ad": 0.25, "bd": 0.25},
        abs=TOL,
    )
    f1 = by_name(e1_measure, "s1", "f")
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
    g = {(s, str(c)): v for (s, c), v in zip(e1_measure.dsc.nodes, e1_measure.g)}
    assert abs(g[("s0", "a")] - 0.5) <= TOL
    assert abs(g[("s0", "d")]) <= TOL  # only successor is itself, h = 0
    assert abs(g[("s0", "ad")] - 1.0) <= TOL


@pytest.mark.parametrize("file", [inputs.phil_file(5), inputs.path_file(8)], ids=lambda f: f.name)
def test_g_adds_the_successor_masses_left_to_right(file):
    # From Python 3.12 the builtin sum of Python floats is compensated, so
    # tables held as Python floats and summed by it would change bits there;
    # g must stay the plain left-to-right sum of h over ``succ``.
    m = uniform_measure(load_system(file))
    hv = [float(x) for row in m.h for x in row[1:]]  # h at the dsc nodes
    for v, out in enumerate(m.dsc.succ):
        want = functools.reduce(operator.add, (hv[w] for w in out), 0.0)
        assert float(m.g[v]).hex() == want.hex(), v


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
    got = chain_block(e1_measure, idx)
    assert np.abs(got - want).max() <= TOL
    # the null row is flagged unreachable
    flagged = [n for v, n in enumerate(nodes) if not e1_measure.dsc.labels[v]]
    assert flagged == ["(s0,d)"]


def test_mcsc_initial_law_aztec(aztec_measure):
    r = aztec_measure.r
    system = aztec_measure.system
    i = system.state_index("1")
    initial = {str(c): v for (c, _t), v in zip(system.moves[i][1:], aztec_measure.h[i][1:])}
    assert initial == pytest.approx(
        {"a": 0.0, "b": 1 - r * r, "ab": r * r}, abs=TOL
    )


def test_mcsc_single_letter_free_monoid():
    system = ConcurrentSystem(TraceMonoid("a", []), ["s"], {("s", "a"): "s"})
    m = uniform_measure(system)
    assert m.dsc.succ == ((0,),)  # one node, whose one arc is to itself
    assert abs(m.transition[0][0] - 1.0) <= TOL


LIMIT_LENGTH = 200
LIMIT_SYSTEMS = {
    **ALL_SYSTEMS,
    **{f"phil{n}": (lambda n=n: load_system(inputs.phil_file(n))) for n in range(3, 7)},
    "path8": lambda: load_system(inputs.path_file(8)),
}


@pytest.mark.parametrize("name", sorted(LIMIT_SYSTEMS))
def test_chain_is_the_limit_of_the_uniform_laws(name):
    # The paper realises the uniform measure as the chain of states and
    # cliques.  Under the uniform law on the executions of length L, the
    # first clique c1 from the base is (s, c1) with probability
    # paths[L][s, c1] / total, and the next clique c2 given c1 is w with
    # probability paths[L - |c1|][w] / paths[L][v].  As L grows they tend to
    # h at the base and to the chain's rows.
    analysis = Analysis.of(LIMIT_SYSTEMS[name]())
    system, m, L = analysis.system, analysis.measure(), LIMIT_LENGTH
    paths = paths_by_first_letter(analysis.adsc, L)
    head = {(s, c): k for k, (s, c, i) in enumerate(analysis.adsc.nodes) if i == 1}
    count = [paths[L][head[node]] for node in m.dsc.nodes]

    base = system.state_index(system.base_state)
    first = sum(len(mv) - 1 for mv in system.moves[:base])  # the dsc nodes before the base's
    nodes = range(first, first + len(system.moves[base]) - 1)
    total = sum(count[v] for v in nodes)
    law_gap = max(abs(count[v] / total - x) for v, x in zip(nodes, m.h[base][1:]))
    assert law_gap <= 1e-10, law_gap

    chain_gap = 0.0
    for v, (_s, c) in enumerate(m.dsc.nodes):
        if not m.dsc.labels[v]:
            continue
        assert count[v] > 0
        for w, p in zip(m.dsc.succ[v], m.transition[v]):
            chain_gap = max(chain_gap, abs(paths[L - c.size][head[m.dsc.nodes[w]]] / count[v] - p))
    assert chain_gap <= 1e-10, chain_gap


@pytest.mark.parametrize("name", sorted(LIMIT_SYSTEMS))
def test_first_clique_law_gap_decays(name):
    # The exact law of the first clique under the uniform law at length L is
    # the sampler's count at each start node over its total.  Its gap to h
    # at the base does not grow with L, down to the float error of h (about
    # 1e-13), where some of these systems sit at every length.
    system = LIMIT_SYSTEMS[name]()
    h = uniform_measure(system).h[system.state_index(system.base_state)][1:]
    gaps = []
    for L in (25, 50, 100, LIMIT_LENGTH):
        sampler = UniformExecutionSampler(system, system.base_state, L)
        law = [sampler._counts[L][u] / sampler.total for u in sampler._start_nodes]
        gaps.append(max(abs(p - x) for p, x in zip(law, h)))
    assert all(later <= gap for gap, later in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] <= 1e-10, gaps


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
        h, g, m, unreachable = _reference_tables(system, padded(system, measure.f), measure.dsc)
        got_h = padded(system, measure.h)
        # float.hex sees the sign of zero and refuses an int where a float belongs
        assert [
            (s, c, float.hex(v)) for s in got_h for c, v in got_h[s].items()
        ] == [(s, c, float.hex(v)) for s in h for c, v in h[s].items()], name
        assert [
            (k, type(v), float(v).hex()) for k, v in zip(measure.dsc.nodes, measure.g)
        ] == [
            (k, type(v), float(v).hex()) for k, v in g.items()
        ], name
        assert [list(map(float.hex, row)) for row in measure.transition] == [
            list(map(float.hex, m[v, list(out)].tolist())) for v, out in enumerate(measure.dsc.succ)
        ], name
        assert tuple(not pos for pos in measure.dsc.labels) == unreachable, name


def _h_by_superset_scan(system, f):
    """Reference: h_a(c) summed over the enabled supersets d of c, one
    inclusion test per (clique, enabled clique) pair."""
    h = {}
    for s, moves in zip(system.states, system.moves):
        row = {}
        for c in system.monoid.cliques():
            acc = 0.0
            for d, _t in moves:
                if d.mask | c.mask == d.mask:
                    acc += (-1) ** (d.size - c.size) * f[s][d]
            row[c] = acc
        h[s] = row
    return h


def check_h_bits(system, f):
    got = padded(system, mobius_transform(system, f))
    want = _h_by_superset_scan(system, padded(system, f))
    assert [(s, c, float.hex(v)) for s in got for c, v in got[s].items()] == [
        (s, c, float.hex(v)) for s in want for c, v in want[s].items()
    ]


def test_h_by_subsets_equals_the_superset_scan(reference_systems):
    for name, system in reference_systems.items():
        check_h_bits(system, Analysis.of(system).measure().f)


@settings(max_examples=30, deadline=None)
@given(text=cycle_nets(), seed=st.integers(0, 2**32 - 1))
def test_h_by_subsets_on_random_cycle_nets(text, seed):
    # f of mixed signs and magnitudes, so that a change in the order of the
    # terms would show in the last bits
    system = petri_to_system(parse_petri(text))
    rng = random.Random(seed)
    f = tuple(
        tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _m in moves)
        for moves in system.moves
    )
    check_h_bits(system, f)


def _v1_fibred_valuation(system, root, u):
    """f as dicts keyed by state and clique, zero-padded over the monoid's cliques."""
    r = root.approx
    f = {}
    for i, (s, moves) in enumerate(zip(system.states, system.moves)):
        row = dict.fromkeys(system.monoid.cliques(), 0.0)
        for c, j in moves:
            row[c] = r**c.size * (u[j] / u[i])
        f[s] = row
    return f


def _v1_mobius_transform(system, f):
    """h as dicts like f: each enabled d adds to its subsets, in moves order."""
    by_mask = {c.mask: c for c in system.monoid.cliques()}
    h = {}
    for s, moves in zip(system.states, system.moves):
        fs = f[s]
        row = dict.fromkeys(by_mask.values(), 0.0)
        for d, _t in moves:
            sub = d.mask
            while True:  # the submasks of d, d first
                c = by_mask[sub]
                row[c] += (-1) ** (d.size - c.size) * fs[d]
                if not sub:
                    break
                sub = (sub - 1) & d.mask
        h[s] = row
    return h


def _v1_mcsc_tables(system, h, dsc):
    """g keyed by (state, clique), the initial laws, the chain and its flags."""
    hv = [h[s][c] for s, c in dsc.nodes]
    m = np.zeros((len(hv), len(hv)))
    g = {}
    unreachable = []
    for v, out in enumerate(dsc.succ):
        row = [hv[w] for w in out]
        gv = g[dsc.nodes[v]] = sum(row)
        dead = gv <= ZERO_THRESHOLD
        unreachable.append(dead)
        m[v, list(out)] = row if dead else [x / gv for x in row]
    initial = {
        s: {c: h[s][c] for c in system.enabled_cliques(s)} for s in system.states
    }
    return g, initial, m, tuple(unreachable)


def _hex(table):
    """A report table, or a dict-based one, as ordered (key, float.hex) lists."""
    if isinstance(table, dict):
        return [(str(k), _hex(v)) for k, v in table.items()]
    return [_hex(v) for v in table] if isinstance(table, list) else float.hex(float(table))


def check_report_tables_equal_v1(system):
    doc = analyze_report(system)["uniform_measure"]
    if not system.classify().irreducible:
        assert doc is None
        return
    m = Analysis.of(system).measure()
    f = _v1_fibred_valuation(system, m.root, m.u)
    h = _v1_mobius_transform(system, f)
    g, initial, chain, unreachable = _v1_mcsc_tables(system, h, m.dsc)

    def named(table):  # keys as the report writes them
        return {s: {"".join(c.letters): v for c, v in row.items()} for s, row in table.items()}

    assert _hex(doc["f"]) == _hex(named(f))
    assert _hex(doc["h"]) == _hex(named(h))
    assert _hex(doc["g"]) == _hex({f"({s},{''.join(c.letters)})": v for (s, c), v in g.items()})
    assert _hex(doc["mcsc"]["initial"]) == _hex(named(initial))
    assert _hex(doc["mcsc"]["matrix"]) == _hex(chain.tolist())
    assert doc["mcsc"]["unreachable"] == list(unreachable)
    row_sum = 0.0
    for row, dead in zip(chain, unreachable):
        if not dead:
            row_sum = max(row_sum, abs(row.sum() - 1.0))
    assert _hex(doc["identity_residuals"]["row_sum"]) == _hex(row_sum)


def test_report_tables_equal_the_dict_tables(reference_systems):
    for system in reference_systems.values():
        check_report_tables_equal_v1(system)


@settings(max_examples=30, deadline=None)
@given(text=cycle_nets())
def test_report_tables_equal_the_dict_tables_on_random_cycle_nets(text):
    check_report_tables_equal_v1(petri_to_system(parse_petri(text)))


# ------------------------------------------------------------ type invariants

@pytest.mark.parametrize(
    "name", ["e1_measure", "aztec_measure", "twelve_measure"]
)
def test_identity_residuals(name, request):
    m = request.getfixturevalue(name)
    res = m.identity_residuals()
    for key, value in res.items():
        assert value <= TOL, (key, value)
    for v, row in enumerate(m.transition):
        assert not m.dsc.labels[v] or abs(sum(row) - 1.0) <= TOL, v


def _cocycle_residual_by_triples(u):
    """max |u_k/u_i - (u_j/u_i)(u_k/u_j)| over every (i, j, k), one at a time."""
    out = 0.0
    n = len(u)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out = max(out, abs(u[k] / u[i] - (u[j] / u[i]) * (u[k] / u[j])))
    return out


@pytest.mark.parametrize("name", ["e1_measure", "aztec_measure", "twelve_measure"])
@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_cocycle_residual_equals_the_triple_loop(name, seed, request):
    m = request.getfixturevalue(name)
    if seed is not None:  # the same tables under a random positive cocycle vector
        m = replace(m, u=np.random.default_rng(seed).uniform(0.01, 100.0, len(m.u)))
    got = m.identity_residuals()["cocycle"]
    assert float(got).hex() == float(_cocycle_residual_by_triples(m.u)).hex()


def test_chain_condition_on_cylinders(e1_measure):
    sys_ = e1_measure.system

    def cylinder(s, word):
        """The measure of the executions from s that extend ``word``."""
        return e1_measure.r ** len(word) * e1_measure.gamma(s, sys_.act(s, word))

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
        lhs = cylinder(s, x + y)
        rhs = cylinder(s, x) * cylinder(mid, y)
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
    system = e1_measure.system
    i = system.state_index("s0")
    d = next(k for k, (c, _t) in enumerate(system.moves[i]) if str(c) == "d")
    rows = [list(row) for row in e1_measure.h]
    rows[i][d] = 0.2  # graph-null node with fake mass
    tampered.h = tuple(map(tuple, rows))
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
