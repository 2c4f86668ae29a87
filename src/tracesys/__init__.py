"""Trace-theoretic concurrent systems: combinatorics, spectra, uniform measures.

Public surface: build a :class:`TraceMonoid` and a :class:`ConcurrentSystem`
(or parse one from text / a safe Petri net), then analyze it with the
functions re-exported here.

Monoids and systems are immutable after construction.  What is derived
from a system (M(z), theta, the root, the labelled graphs, the SCC radii,
the measure) is computed on first use and kept in the system's
:class:`Analysis` for as long as some caller holds it
(``Analysis.of(system)``); while it is held, every function that takes the
system (all defined in :mod:`tracesys.analysis`) reads from it, so nothing
is computed twice.  The objects it hands out are shared and must be
treated as read-only.  It takes no lock: threads that first ask for the
same quantity at once may each compute it, and each gets a complete,
equal result.
"""

from .analysis import (
    Analysis,
    characteristic_root,
    growth_eval,
    spectral_property_report,
    uniform_measure,
    uniqueness_diagnostics,
    verify_inversion,
)
from .errors import TraceSysError
from .graphs import (
    StateCliqueGraph,
    build_adsc,
    build_dsc,
    classify_nodes,
    condense,
    count_paths,
    count_paths_table,
)
from .measure import UniformMeasure, numeric_null_check
from .monoid import Clique, NormalForm, TraceMonoid
from .oracle import cross_check, enumerate_executions
from .petri import SafePetriNet, parse_petri, petri_to_system
from .sampling import (
    SampledExecution,
    SplitMix64,
    UniformExecutionSampler,
    empirical_first_clique,
    sample_mcsc,
    sample_uniform_finite,
)
from .spectral import (
    CharacteristicRoot,
    PolynomialMatrix,
    basic_flags,
    compare_roots,
    determinant,
    mobius_matrix,
    spectral_radius,
)
from .specfile import parse_system, render_system
from .system import ConcurrentSystem, SystemClassification

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "Clique",
    "CharacteristicRoot",
    "ConcurrentSystem",
    "NormalForm",
    "PolynomialMatrix",
    "SafePetriNet",
    "SampledExecution",
    "SplitMix64",
    "StateCliqueGraph",
    "SystemClassification",
    "TraceMonoid",
    "TraceSysError",
    "UniformExecutionSampler",
    "UniformMeasure",
    "basic_flags",
    "build_adsc",
    "build_dsc",
    "characteristic_root",
    "classify_nodes",
    "compare_roots",
    "condense",
    "count_paths",
    "count_paths_table",
    "cross_check",
    "determinant",
    "empirical_first_clique",
    "enumerate_executions",
    "growth_eval",
    "mobius_matrix",
    "numeric_null_check",
    "parse_petri",
    "parse_system",
    "petri_to_system",
    "render_system",
    "sample_mcsc",
    "sample_uniform_finite",
    "spectral_property_report",
    "spectral_radius",
    "uniform_measure",
    "uniqueness_diagnostics",
    "verify_inversion",
]
