import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from references import empirical_first_clique, graph_radius, positive_subgraph

from tracesys import fixtures, graphs, spectral
from tracesys.analysis import (
    Analysis,
    characteristic_root,
    growth_eval,
    spectral_property_report,
    uniform_measure,
    uniqueness_diagnostics,
    verify_inversion,
)
from tracesys.errors import TraceSysError
from tracesys.oracle import cross_check
from tracesys.report import analyze_report
from tracesys.sampling import UniformExecutionSampler, sample_mcsc
from tracesys.spectral import DEFAULT_PRECISION, max_radius, spectral_radius
from tracesys.system import ConcurrentSystem


def _radii(graph):
    return tuple(spectral_radius(graph.succ, comp) for comp in graph.condensation().components)


def test_positive_radii_reused_from_adsc_bit_for_bit(irreducible_fixtures):
    for name, system in irreducible_fixtures.items():
        a = Analysis(system)
        pos = positive_subgraph(a.adsc)
        pos_radii = tuple(a.adsc_radii[ci] for ci in a.adsc.positive_components()[0])
        assert pos_radii == _radii(pos), name
        assert max_radius(pos_radii) == graph_radius(pos.succ), name
        assert a.adsc_radii == _radii(a.adsc), name
        assert max_radius(a.adsc_radii) == graph_radius(a.adsc.succ), name


def test_graphs_come_labelled(aztec):
    a = Analysis(aztec)
    assert a.dsc.labels == graphs.classify_nodes(aztec, a.dsc.nodes, a.dsc.succ)
    assert a.adsc.labels == graphs.build_adsc(a.dsc).labels
    assert len(a.adsc.labels) == len(a.adsc)


def test_public_functions_share_the_held_analysis():
    system = fixtures.aztec_system()
    a = Analysis.of(system)
    assert Analysis.of(system) is a
    assert characteristic_root(system) is a.root()
    assert uniform_measure(system) is a.measure()
    assert a.measure().dsc is a.dsc
    ref = weakref.ref(a)
    del a
    assert ref() is None  # nothing keeps an analysis alive but its holders
    assert Analysis.of(system).dsc is not None


def _count_calls(monkeypatch, targets):
    """Count calls of each (module, function) through every tracesys binding."""
    counts = Counter()
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("tracesys") and m]
    for owner, name in targets:
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


def _count_systems(monkeypatch, counts):
    """Count ConcurrentSystem constructions under the key "ConcurrentSystem"."""
    original = ConcurrentSystem.__init__

    def init(self, *args, **kwargs):
        counts["ConcurrentSystem"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ConcurrentSystem, "__init__", init)


def test_analyze_builds_each_quantity_once(monkeypatch):
    system = fixtures.aztec_system()
    counts = _count_calls(monkeypatch, [
        (graphs, "build_dsc"),
        (graphs, "build_adsc"),
        (graphs, "classify_nodes"),
        (graphs, "condense"),
        (spectral, "determinant"),
        (spectral, "_power_radius"),
        (spectral, "spectral_radius"),
        (spectral, "growth_eval"),
    ])
    _count_systems(monkeypatch, counts)
    held = Analysis.of(system)  # still empty: the report fills it
    analyze_report(system)
    letters = len(system.monoid.letters)
    adsc = held.adsc
    cyclic = [
        comp for comp in adsc.condensation().components
        if len(comp) > 1 or comp[0] in adsc.succ[comp[0]]
    ]
    assert counts == {
        "build_dsc": 1,
        "build_adsc": 1,
        "classify_nodes": 1,
        "condense": 2,  # the dsc and the adsc; their positive parts reuse them
        "determinant": 1 + letters,
        "_power_radius": len(cyclic),
        "spectral_radius": len(adsc.condensation().components),
        "growth_eval": 1,  # the cocycle's cross-check
    }
    assert counts["ConcurrentSystem"] == 0  # no restricted system per letter


def test_sampler_reads_the_held_dsc(monkeypatch):
    system = fixtures.aztec_system()
    held = Analysis.of(system)
    dsc = held.dsc
    counts = _count_calls(monkeypatch, [(graphs, "build_dsc"), (graphs, "build_adsc")])
    sampler = UniformExecutionSampler(system, system.base_state, 20)
    assert counts == {}
    assert sampler._dsc is dsc
    assert "adsc" not in vars(held)  # the sampler unfolds no augmented graph


def test_diagnostics_of_a_measure_unfold_its_dsc(monkeypatch):
    # no caller holds the analysis: the one that built the measure is gone
    # when ``uniqueness_diagnostics`` starts a fresh one
    system = fixtures.aztec_system()
    counts = _count_calls(monkeypatch, [(graphs, "build_dsc"), (graphs, "build_adsc")])
    assert uniqueness_diagnostics(uniform_measure(system)).ok
    assert counts == {"build_dsc": 1, "build_adsc": 1}


def test_sampler_holds_its_analysis(monkeypatch):
    system = fixtures.aztec_system()
    counts = _count_calls(monkeypatch, [(graphs, "build_dsc"), (graphs, "build_adsc")])
    sampler = UniformExecutionSampler(system, system.base_state, 20)
    measure = uniform_measure(system)
    assert counts == {"build_dsc": 1}
    assert measure.dsc is sampler._analysis.dsc


def test_one_root_and_one_measure_per_analysis():
    # the root is isolated once, at the default width, and the measure is
    # built from it; a report at another width isolates its own printed root
    system = fixtures.aztec_system()
    a = Analysis.of(system)
    root = a.root()
    bounds = (root.lo, root.hi)
    assert root is a.root()
    assert root.width <= DEFAULT_PRECISION
    assert a.measure() is a.measure()
    assert a.measure().root is root
    fine = Fraction(1, 10**20)
    doc = analyze_report(system, precision=fine)
    assert Fraction(doc["root"]["width"]) <= fine < root.width
    # the letter comparisons refine copies: the shared root never moves
    assert a.root() is root and (root.lo, root.hi) == bounds
    assert a.measure().root is root


def _entry_point_calls(system):
    """One call of each public entry point that takes a system."""
    return (
        characteristic_root(system),
        growth_eval(system, Fraction(1, 8)),
        verify_inversion(system, 6),
        spectral_property_report(system),
        uniform_measure(system),
        uniqueness_diagnostics(uniform_measure(system)),
    )


def test_entry_points_recompute_nothing_on_a_warm_analysis(monkeypatch):
    system = fixtures.aztec_system()
    held = Analysis.of(system)
    first = _entry_point_calls(system)
    counts = _count_calls(monkeypatch, [
        (graphs, "build_dsc"),
        (graphs, "build_adsc"),
        (spectral, "determinant"),
    ])
    second = _entry_point_calls(system)
    assert counts == {}
    assert second == first
    assert held.measure() is second[4]


def test_spectral_property_reads_restricted_theta_once(monkeypatch):
    system = fixtures.aztec_system()
    held = Analysis.of(system)
    held.root()  # theta is computed; the letter restrictions are not
    counts = _count_calls(monkeypatch, [(spectral, "determinant")])
    first = spectral_property_report(system)
    assert spectral_property_report(system) == first
    assert counts == {"determinant": len(system.monoid.letters)} == {"determinant": 5}
    assert list(held.restricted_theta) == list(system.monoid.letters)
    for a, theta in held.restricted_theta.items():
        assert theta == spectral.determinant(spectral.mobius_matrix(system, without=a))


@pytest.mark.parametrize("case", [
    "verify_inversion", "count_paths_table", "cross_check", "sample_mcsc", "empirical_first_clique",
])
def test_negative_sizes_are_refused(case, aztec):
    s = aztec.base_state
    calls = {
        "verify_inversion": lambda: verify_inversion(aztec, -1),
        "count_paths_table": lambda: graphs.count_paths_table(Analysis.of(aztec).adsc, s, -2),
        "cross_check": lambda: cross_check(aztec, -1),
        "sample_mcsc": lambda: sample_mcsc(uniform_measure(aztec), s, -1, seed=3),
        "empirical_first_clique": lambda: empirical_first_clique(
            aztec, uniform_measure(aztec), s, 4, samples=0, seed=3
        ),
    }
    with pytest.raises(TraceSysError):
        calls[case]()
