"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from tracesys import poly
from tracesys.analysis import (
    characteristic_root,
    spectral_property_report,
    uniform_measure,
    uniqueness_diagnostics,
    verify_inversion,
)
from tracesys.graphs import build_adsc, build_dsc
from tracesys.measure import numeric_null_check
from tracesys.monoid import TraceMonoid
from tracesys.oracle import cross_check
from tracesys.sampling import empirical_first_clique, sample_mcsc
from tracesys.spectral import mobius_matrix, spectral_radius
from tracesys.system import ConcurrentSystem

WIDTH = Fraction(1, 10**12)


def _verdict(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d}: PASS — {text}")


def test_criterion_01_e1_root(e1):
    root = characteristic_root(e1)
    assert root.theta == (1, -3, 2)
    assert root.width <= WIDTH
    assert root.lo <= Fraction(1, 2) <= root.hi
    assert root.exact and root.lo == Fraction(1, 2)
    _verdict(1, "two-state root is exactly 1/2, determinant (1, -3, 2)")


def test_criterion_02_e1_matrix(e1):
    pm = mobius_matrix(e1)
    assert pm.entry("s0", "s0") == (1, -2, 1)
    assert pm.entry("s0", "s1") == (0, -1, 1)
    assert pm.entry("s1", "s0") == (0, -1)
    assert pm.entry("s1", "s1") == (1, -1)
    _verdict(2, "two-state matrix entries match exactly")


def test_criterion_03_e1_cocycle(e1_measure):
    for a in ("s0", "s1"):
        for b in ("s0", "s1"):
            assert abs(e1_measure.gamma(a, b) - 1.0) <= 1e-9
    _verdict(3, "two-state cocycle is identically 1 within 1e-9")


def test_criterion_04_e1_h_table(e1_measure):
    h0 = {str(c): v for c, v in e1_measure.h["s0"].items()}
    h1 = {str(c): v for c, v in e1_measure.h["s1"].items()}
    for key, want in [("a", 0.25), ("b", 0.25), ("ad", 0.25), ("bd", 0.25)]:
        assert abs(h0[key] - want) <= 1e-9
    assert abs(h0["d"]) <= 1e-9
    assert abs(h1["c"] - 0.5) <= 1e-9
    assert abs(h1["d"] - 0.5) <= 1e-9
    _verdict(4, "two-state first-clique law reproduces the reference table")


def test_criterion_05_e1_mcsc(e1_measure):
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
    assert np.abs(got - want).max() <= 1e-9
    flagged = [n for n, u in zip(nodes, e1_measure.unreachable) if u]
    assert flagged == ["(s0,d)"]
    _verdict(5, "two-state chain matrix matches entrywise; (s0,d) row flagged")


def test_criterion_06_e1_null_set(e1, e1_measure):
    dsc = build_dsc(e1)
    nulls = [(s, str(c)) for (s, c), pos in zip(dsc.nodes, dsc.labels) if not pos]
    assert nulls == [("s0", "d")]
    numeric = numeric_null_check(e1_measure)  # raises on disagreement
    assert [(s, str(c)) for s, c in numeric.null_nodes] == [("s0", "d")]
    _verdict(6, "null set is exactly {(s0,d)}, graph and numeric agree")


def test_criterion_07_canonical(canonical_abc):
    assert canonical_abc.monoid.mobius_polynomial() == (1, -3, 1)
    root = characteristic_root(canonical_abc)
    golden = (3 - 5**0.5) / 2
    assert root.width <= WIDTH
    assert abs(root.approx - golden) <= 1e-12
    labels = build_dsc(canonical_abc).labels
    assert len(labels) == 4 and all(labels)
    _verdict(7, "canonical three-letter system: polynomial, root, all positive")


def test_criterion_08_aztec(aztec, aztec_measure):
    root = characteristic_root(aztec)
    assert Fraction(524, 1000) <= root.midpoint <= Fraction(526, 1000)
    residual = poly.evaluate((1, -1, -2, 0, 1), root.midpoint)
    assert abs(residual) <= Fraction(1, 10**10)

    dsc = build_dsc(aztec)
    assert len(dsc) == 26
    nulls = {(s, str(c)) for (s, c), pos in zip(dsc.nodes, dsc.labels) if not pos}
    assert nulls == {
        ("0", "a"), ("0", "b"), ("1", "a"), ("2", "b"),
        ("0p", "d"), ("0p", "e"), ("1p", "e"), ("2p", "d"),
    }
    cond = dsc.positive_subgraph().condensation()
    assert len(cond.components) == 3 and sum(cond.terminal) == 1

    r = aztec_measure.r
    h1 = {str(c): v for c, v in aztec_measure.h["1"].items()}
    assert abs(h1["a"]) <= 1e-9
    assert abs(h1["b"] - (1 - r * r)) <= 1e-9
    assert abs(h1["ab"] - r * r) <= 1e-9
    assert abs(aztec_measure.gamma("0", "1") - 1 / r) <= 1e-6
    assert abs(aztec_measure.gamma("3", "0") - r * r) <= 1e-6
    _verdict(8, "tiling system: root, 26 nodes, 8 nulls, 3 SCCs, laws, cocycle")


def test_criterion_09_twelve(twelve, twelve_measure):
    assert twelve.classify().irreducible
    pos = build_dsc(twelve).positive_subgraph()
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
    rep = uniqueness_diagnostics(twelve_measure)
    assert rep.basic_equals_terminal and len(rep.basic_components) == 2
    assert rep.ok
    _verdict(9, "twelve-state system: two terminal components, both basic, unique")


def test_criterion_10_spectral_property(e1, aztec):
    for system in (e1, aztec):
        rep = spectral_property_report(system)
        assert rep.holds
        for entry in rep.letters:
            assert entry.comparison > 0
            if entry.root is not None:
                assert entry.root.lo >= rep.root.hi  # disjoint intervals
    e1_rep = spectral_property_report(e1)
    c_root = {e.letter: e for e in e1_rep.letters}["c"].root
    assert c_root.exact and c_root.lo == 1

    reducible = ConcurrentSystem.canonical(TraceMonoid("ab", [("a", "b")]))
    red = spectral_property_report(reducible)
    assert not red.holds and red.witness in ("a", "b")
    _verdict(10, "strict growth gap for every letter; reducible case refuted")


def test_criterion_11_inversion(irreducible_fixtures):
    for name, system in irreducible_fixtures.items():
        rep = verify_inversion(system, 10)
        assert rep.ok, (name, rep.failures[:2])
    _verdict(11, "matrix-series inversion telescopes to identity to order 10")


def test_criterion_12_oracle(e1, canonical_abc, aztec):
    assert cross_check(e1, 8).ok
    assert cross_check(canonical_abc, 8).ok
    assert cross_check(aztec, 6).ok
    _verdict(12, "brute-force counts equal DP counts on all pairs and lengths")


def test_criterion_13_radii(irreducible_fixtures):
    for name, system in irreducible_fixtures.items():
        r = characteristic_root(system).approx
        adsc = build_adsc(build_dsc(system))
        rho_all = spectral_radius(adsc.succ)
        rho_pos = spectral_radius(adsc.positive_subgraph().succ)
        assert abs(1 / rho_all - r) <= 1e-6, name
        assert abs(1 / rho_pos - r) <= 1e-6, name
    _verdict(13, "inverse spectral radii of both graphs equal the root")


def test_criterion_14_kernel_and_eigenvector(
    e1_measure, aztec_measure, twelve_measure, canonical_abc
):
    measures = [
        e1_measure, aztec_measure, twelve_measure, uniform_measure(canonical_abc),
    ]
    for m in measures:
        rep = uniqueness_diagnostics(m)
        assert rep.kernel_dim == 1
        assert rep.eigen_residual <= 1e-6
    _verdict(14, "kernel line and 1/r eigenvector residual below 1e-6")


def test_criterion_15_statistics(e1, e1_measure, aztec, aztec_measure):
    # (a) long chain runs never touch a null node
    for system, m, start in ((e1, e1_measure, "s0"), (aztec, aztec_measure, "0")):
        nulls = {
            node for node, pos in zip(m.dsc.nodes, m.dsc.labels) if not pos
        }
        walk = sample_mcsc(m, start, 100_000, seed=2027)
        assert not nulls.intersection(walk.nodes)

    # (b) empirical transition frequencies within 4 sigma of the matrix
    walk = sample_mcsc(e1_measure, "s0", 100_000, seed=11)
    dsc = e1_measure.dsc
    index = {node: i for i, node in enumerate(dsc.nodes)}
    visits = Counter()
    moves = Counter()
    for a, b in zip(walk.nodes, walk.nodes[1:]):
        visits[index[a]] += 1
        moves[(index[a], index[b])] += 1
    for v, n_v in visits.items():
        for w in range(len(dsc.nodes)):
            p = float(e1_measure.transition[v, w])
            got = moves.get((v, w), 0)
            if p < 1e-12:
                assert got == 0
            elif p < 1.0:
                sigma = (n_v * p * (1 - p)) ** 0.5
                assert abs(got - n_v * p) <= 4 * sigma, (v, w)

    # (c) first clique of uniform length-12 executions close to its limit law
    rep = empirical_first_clique(e1, e1_measure, "s0", 12, 100_000, seed=5)
    assert rep.tv_distance <= 0.02
    _verdict(15, "chain avoids nulls, transitions within 4 sigma, TV <= 0.02")
