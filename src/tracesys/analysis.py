"""One shared analysis per system: each derived quantity is computed once.

In the paper, the spectral property and the Markov chain of
states-and-cliques both come from one matrix M(z), one root of
theta = det M(z) and one pair of labelled graphs.  :class:`Analysis` owns
them; ``spectral`` and ``measure`` below take them as arguments.
:meth:`Analysis.of` returns the analysis of a system that some caller still
holds, so while one is held the public functions here that take a system
share each other's work.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property

from . import measure as measure_mod
from . import poly, spectral
from .errors import NoRootInUnitInterval, NotAccessible, NotIrreducible, TrivialSystem
from .graphs import StateCliqueGraph, build_adsc, build_dsc
from .measure import UniformMeasure, UniquenessReport
from .spectral import (
    DEFAULT_PRECISION,
    CharacteristicRoot,
    InversionReport,
    PolynomialMatrix,
    SpectralPropertyReport,
    component_radius,
    determinant,
    mobius_matrix,
    root_from_theta,
)
from .system import ConcurrentSystem


class Analysis:
    """Derived quantities of one system, each filled in on first use.

    The root depends on the isolation precision and is kept per precision;
    the measure is built from a root at least as tight as the default,
    because its float kernel needs a tight root.  Everything else is
    precision-free.  Every object handed out is shared by all callers and
    must be treated as read-only.
    """

    def __init__(self, system: ConcurrentSystem):
        self.system = system
        self._roots: dict[Fraction, CharacteristicRoot] = {}
        self._measures: dict[Fraction, UniformMeasure] = {}

    @classmethod
    def of(cls, system: ConcurrentSystem) -> "Analysis":
        """The analysis of ``system`` that a caller holds, or a new one.

        The system refers to its analysis weakly: the analysis and what it
        computed are freed as soon as no caller holds it, so hold the
        returned object for as long as calls should share work.
        """
        ref = system._analysis
        analysis = ref() if ref is not None else None
        if analysis is None:
            analysis = cls(system)
            system._analysis = weakref.ref(analysis)
        return analysis

    # ------------------------------------------------------------ algebra

    @cached_property
    def mobius(self) -> PolynomialMatrix:
        """M(z): the alternating clique polynomial matrix."""
        return mobius_matrix(self.system)

    @cached_property
    def theta(self) -> poly.Poly:
        """theta = det M(z)."""
        return determinant(self.mobius)

    @cached_property
    def restricted_theta(self) -> dict[str, poly.Poly]:
        """Per letter, in letter order: det M(z) without the cliques that contain it."""
        system = self.system
        return {a: determinant(mobius_matrix(system, without=a)) for a in system.monoid.letters}

    def root(self, precision: Fraction = DEFAULT_PRECISION) -> CharacteristicRoot:
        """Smallest root of theta in (0, 1], for a non-trivial accessible system."""
        root = self._roots.get(precision)
        if root is None:
            cls = self.system.classify()
            if cls.trivial:
                raise TrivialSystem("trivial system has no characteristic root in (0, 1]")
            if not cls.accessible:
                raise NotAccessible("characteristic root requires an accessible system")
            root = root_from_theta(self.theta, precision)
            if root is None:
                raise NoRootInUnitInterval(
                    "no root in (0, 1]; hypotheses violated for this system"
                )
            self._roots[precision] = root
        return root

    # ------------------------------------------------------------ graphs

    @cached_property
    def dsc(self) -> StateCliqueGraph:
        """The plain graph, labelled positive/null."""
        return build_dsc(self.system)

    @cached_property
    def adsc(self) -> StateCliqueGraph:
        """The augmented graph unfolded from :attr:`dsc`, with its labels."""
        return build_adsc(self.dsc)

    @cached_property
    def adsc_radii(self) -> tuple[float, ...]:
        """Spectral radius of each SCC of the adsc, in condensation order."""
        succ = self.adsc.succ
        return tuple(
            component_radius(succ, comp) for comp in self.adsc.condensation().components
        )

    # ------------------------------------------------------------ measure

    def measure(self, precision: Fraction = DEFAULT_PRECISION) -> UniformMeasure:
        """The unique uniform measure of an irreducible system."""
        precision = min(precision, DEFAULT_PRECISION)
        m = self._measures.get(precision)
        if m is None:
            if not self.system.classify().irreducible:
                raise NotIrreducible(
                    "the uniform measure is only unique for irreducible systems"
                )
            m = measure_mod.uniform_measure(
                self.system, self.mobius, self.root(precision), self.dsc
            )
            self._measures[precision] = m
        return m


def characteristic_root(
    system: ConcurrentSystem, precision: Fraction = DEFAULT_PRECISION
) -> CharacteristicRoot:
    """Common convergence radius of the growth series: :meth:`Analysis.root`."""
    return Analysis.of(system).root(precision)


def growth_eval(
    system: ConcurrentSystem, t: Fraction | int, root: CharacteristicRoot | None = None
) -> list[list[Fraction]]:
    """Exact M(t)^-1 at a rational t below the root (by default the system's)."""
    analysis = Analysis.of(system)
    return spectral.growth_eval(analysis.mobius, t, analysis.root() if root is None else root)


def verify_inversion(system: ConcurrentSystem, order: int) -> InversionReport:
    """Check mu(z)·G(z) = I up to ``order`` against the execution counts."""
    analysis = Analysis.of(system)
    return spectral.verify_inversion(analysis.mobius, analysis.adsc, order)


def spectral_property_report(
    system: ConcurrentSystem, precision: Fraction = DEFAULT_PRECISION
) -> SpectralPropertyReport:
    """Per-letter restricted roots and the strict-growth verdict."""
    analysis = Analysis.of(system)
    root = analysis.root(precision)
    return spectral.spectral_property_report(root, analysis.restricted_theta, precision)


def uniform_measure(
    system: ConcurrentSystem, precision: Fraction = DEFAULT_PRECISION
) -> UniformMeasure:
    """The unique uniform measure of an irreducible system: :meth:`Analysis.measure`."""
    return Analysis.of(system).measure(precision)


def uniqueness_diagnostics(measure: UniformMeasure) -> UniquenessReport:
    """The checks behind uniqueness of ``measure``, on its system's shared adsc."""
    analysis = Analysis.of(measure.system)
    return measure_mod.uniqueness_diagnostics(measure, analysis.adsc, analysis.adsc_radii)
