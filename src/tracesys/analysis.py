"""One shared analysis per system: each derived quantity is computed once.

In the paper, the spectral property and the Markov chain of
states-and-cliques both come from one matrix M(z), one root of
theta = det M(z) and one pair of labelled graphs.  :class:`Analysis` owns
them.  :meth:`Analysis.of` returns the analysis of a system that some
caller still holds, so while one is held the public functions that take a
system (``characteristic_root``, ``spectral_property_report``,
``verify_inversion``, ``uniform_measure``, ``uniqueness_diagnostics``)
share each other's work.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property

from . import poly
from .errors import NoRootInUnitInterval, NotAccessible, NotIrreducible, TrivialSystem
from .graphs import StateCliqueGraph, build_adsc, build_dsc, classify_nodes
from .measure import (
    UniformMeasure,
    fibred_valuation,
    kernel_cocycle,
    mcsc_tables,
    mobius_transform,
)
from .spectral import (
    DEFAULT_PRECISION,
    CharacteristicRoot,
    PolynomialMatrix,
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
        dsc = build_dsc(self.system)
        classify_nodes(dsc)
        return dsc

    @cached_property
    def adsc(self) -> StateCliqueGraph:
        """The augmented graph unfolded from :attr:`dsc`, labels included."""
        return build_adsc(self.system, self.dsc)

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
            system = self.system
            if not system.classify().irreducible:
                raise NotIrreducible(
                    "the uniform measure is only unique for irreducible systems"
                )
            root = self.root(precision)
            u, err = kernel_cocycle(system, root)
            f = fibred_valuation(system, root, u)
            h = mobius_transform(system, f)
            g, initial, transition, unreachable = mcsc_tables(system, h, self.dsc)
            m = UniformMeasure(
                system=system,
                root=root,
                dsc=self.dsc,
                u=u,
                f=f,
                h=h,
                g=g,
                initial=initial,
                transition=transition,
                unreachable=unreachable,
                cocycle_crosscheck_error=err,
            )
            self._measures[precision] = m
        return m
