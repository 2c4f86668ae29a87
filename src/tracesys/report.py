"""Machine-readable analysis report: one JSON document, stable key order."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import analysis as analysis_mod
from . import measure as measure_mod
from . import oracle as oracle_mod
from . import spectral
from .errors import TraceSysError
from .monoid import Clique
from .system import ConcurrentSystem


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def root_json(root: spectral.CharacteristicRoot | None) -> dict | None:
    if root is None:
        return None
    return {
        "lo": _frac(root.lo),
        "hi": _frac(root.hi),
        "approx": root.approx,
        "exact": root.exact,
        "width": _frac(root.width),
        "theta": list(root.theta),
    }


def _clique_key(c: Clique) -> str:
    return "".join(c.letters)


def _table_json(system: ConcurrentSystem, rows) -> dict:
    """Rows aligned with ``system.moves`` (f, h) as the report lists them:
    every clique of the monoid by name, 0.0 at those not enabled."""
    zeros = dict.fromkeys(map(_clique_key, system.monoid.cliques()), 0.0)
    return {
        s: {**zeros, **{_clique_key(c): float(v) for (c, _t), v in zip(moves, row)}}
        for s, moves, row in zip(system.states, system.moves, rows)
    }


def classification_json(system: ConcurrentSystem) -> dict:
    """The ``classification`` object of the report, also ``check --json``."""
    cls = system.classify()
    witnesses = {}
    for k, v in cls.witnesses.items():
        witnesses[k] = [list(x) for x in v] if k == "coxeter_components" else list(v)
    return {
        "trivial": cls.trivial,
        "accessible": cls.accessible,
        "alive": cls.alive,
        "monoid_irreducible": cls.monoid_irreducible,
        "irreducible": cls.irreducible,
        "witnesses": witnesses,
    }


def analyze_report(
    system: ConcurrentSystem,
    precision: Fraction = spectral.DEFAULT_PRECISION,
    series_order: int = 10,
) -> dict:
    """Full analysis of one system; sections degrade to null with a reason
    when their hypotheses fail (reducible, inaccessible, trivial)."""
    classification = classification_json(system)
    doc: dict = {
        "classification": classification,
        "monoid": {
            "letters": list(system.monoid.letters),
            "independence": [list(p) for p in system.monoid.independent_pairs],
            "mobius_polynomial": list(system.monoid.mobius_polynomial()),
            "clique_count": len(system.monoid.cliques()),
        },
    }

    analysis = analysis_mod.Analysis.of(system)
    pm = analysis.mobius
    doc["polynomials"] = {
        "states": list(pm.states),
        "mobius_matrix": [[list(e) for e in row] for row in pm.entries],
        "determinant": list(analysis.theta),
    }

    dsc, adsc = analysis.dsc, analysis.adsc
    cond = dsc.condensation()
    dsc_pos, dsc_pos_terminal = dsc.positive_components()
    doc["graphs"] = {
        "dsc_nodes": len(dsc),
        "adsc_nodes": len(adsc),
        "dsc_scc_count": len(cond.components),
        "dsc_terminal_count": sum(cond.terminal),
        "dsc_positive_scc_count": len(dsc_pos),
        "dsc_positive_terminal_count": sum(dsc_pos_terminal),
    }
    doc["node_labels"] = [
        {"state": s, "clique": _clique_key(c), "label": "positive" if pos else "null"}
        for (s, c), pos in zip(dsc.nodes, dsc.labels)
    ]
    radii = analysis.adsc_radii
    doc["spectral_radii"] = {
        "adsc": spectral.max_radius(radii),
        "adsc_positive": spectral.max_radius(
            radii[ci] for ci in adsc.positive_components()[0]
        ),
    }

    try:
        root = analysis.root(precision)
        doc["root"] = root_json(root)
    except TraceSysError as exc:
        root = None
        doc["root"] = None
        doc["root_error"] = str(exc)

    if root is not None:
        prop = analysis_mod.spectral_property_report(system, precision)
        doc["spectral_property"] = {
            "holds": prop.holds,
            "witness": prop.witness,
            "letters": {
                e.letter: {
                    "root": "infinite" if e.infinite else root_json(e.root),
                    "comparison": {1: ">", 0: "=", -1: "<"}[e.comparison],
                }
                for e in prop.letters
            },
        }
    else:
        doc["spectral_property"] = None

    if classification["irreducible"]:
        m = analysis.measure(precision)
        null_check = measure_mod.numeric_null_check(m)
        uniq = analysis_mod.uniqueness_diagnostics(m)
        nodes = [f"({s},{_clique_key(c)})" for s, c in m.dsc.nodes]
        chain = np.zeros((len(nodes), len(nodes)))  # the v1 layout: 0.0 off the arcs
        for v, (out, row) in enumerate(zip(m.dsc.succ, m.transition)):
            chain[v, list(out)] = row
        # numpy's sum of each whole dense row, as v1 reports it
        row_sum = max([0.0] + [abs(r.sum() - 1.0) for r, pos in zip(chain, m.dsc.labels) if pos])
        doc["uniform_measure"] = {
            "gamma": {
                "base": system.base_state,
                "vector": {s: float(m.u[i]) for i, s in enumerate(system.states)},
            },
            "f": _table_json(system, m.f),
            "h": _table_json(system, m.h),
            "g": {v: float(x) for v, x in zip(nodes, m.g)},
            "mcsc": {
                "nodes": nodes,
                "initial": {  # h without the empty clique
                    s: {_clique_key(c): float(v) for (c, _t), v in zip(moves[1:], row[1:])}
                    for s, moves, row in zip(system.states, system.moves, m.h)
                },
                "matrix": chain.tolist(),
                "unreachable": [not pos for pos in m.dsc.labels],
            },
            "cocycle_crosscheck_error": m.cocycle_crosscheck_error,
            "identity_residuals": {
                **{k: float(v) for k, v in m.identity_residuals().items()},
                "row_sum": float(row_sum),
            },
        }
        doc["diagnostics"] = {
            "null_check": {
                "null_nodes": [f"({s},{_clique_key(c)})" for s, c in null_check.null_nodes],
                "max_null_h": null_check.max_null_h,
                "min_positive_h": float(null_check.min_positive_h),
            },
            "uniqueness": {
                "kernel_dim": uniq.kernel_dim,
                "eigen_residual": uniq.eigen_residual,
                "basic_components": list(uniq.basic_components),
                "terminal_components": list(uniq.terminal_components),
                "basic_equals_terminal": uniq.basic_equals_terminal,
                "null_reachability_ok": uniq.null_reachability_ok,
                "literal_reading_disagrees": uniq.literal_reading_disagrees,
                "ok": uniq.ok,
            },
        }
    else:
        doc["uniform_measure"] = None
        doc["diagnostics"] = {
            "skipped": "uniform measure requires an irreducible system"
        }

    inv = analysis_mod.verify_inversion(system, series_order)
    doc["inversion"] = {
        "order": inv.order,
        "ok": inv.ok,
        "failures": [list(f) for f in inv.failures],
    }
    return doc


def oracle_report(system: ConcurrentSystem, max_len: int) -> dict:
    rep = oracle_mod.cross_check(system, max_len)
    return {
        "max_len": rep.max_len,
        "ok": rep.ok,
        "inversion_ok": rep.inversion_ok,
        "mismatches": [list(m) for m in rep.mismatches],
    }
