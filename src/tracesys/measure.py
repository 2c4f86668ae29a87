"""The uniform measure: cocycle, clique laws, and the states-and-cliques chain.

The measure on infinite executions is represented by the pair
(root, cocycle) and the derived tables: f (cylinder values on cliques),
h (law of the first clique, an alternating superset sum of f), g (successor
mass), and the transition rows of the Markov chain of states-and-cliques.
f and h hold one row per state, aligned with ``system.moves``; g one value
per dsc node, and the chain one row per dsc node, aligned with ``dsc.succ``.
The chain's dead rows are those of the dsc's null nodes, which graph
reachability labels exactly.  Only the report pads f and h with 0.0 and
spreads the chain into a dense matrix.  All numerics are Python floats on
top of the exactly isolated root; numpy computes only the float kernel and
the cocycle residual.  Every reported float sum is :func:`_fold`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from operator import add

import numpy as np

from .errors import (
    ClassificationMismatch,
    CrossCheckFailure,
    KernelDimensionNotOne,
    NonPositiveKernelVector,
)
from .graphs import StateCliqueGraph, reachable
from .monoid import Clique
from .spectral import CharacteristicRoot, PolynomialMatrix, basic_flags, growth_eval
from .system import ConcurrentSystem

ZERO_THRESHOLD = 1e-6  # separates exact zeros of h from genuine positive mass
KERNEL_RTOL = 1e-9  # pivots below this, relative to the largest entry, count as zero
EIGEN_RESIDUAL_TOL = 1e-6  # largest eigenvector residual uniqueness accepts

Rows = tuple[tuple[float, ...], ...]  # per state along ``system.moves``, or per node along ``succ``


def _fold(xs) -> float:
    """``xs`` added left to right from 0.0; Python 3.12's ``sum`` compensates floats."""
    return reduce(add, xs, 0.0)


# ---------------------------------------------------------------- kernel

def _kernel_vector_full_pivot(m: np.ndarray) -> np.ndarray:
    """One-dimensional kernel of a numerically singular matrix.

    Gaussian elimination with full pivoting; pivots below KERNEL_RTOL *
    max|entry| count as zero.  Raises if the kernel dimension is not exactly one.
    """
    a = np.array(m, dtype=float)
    n = a.shape[0]
    # matrices here have unit diagonal constant terms, so 1 is the natural
    # scale; the floor keeps 1x1 near-zero matrices from evading the test
    tau = KERNEL_RTOL * max(1.0, float(np.abs(a).max()))
    cols = list(range(n))
    rank = 0
    for k in range(n):
        sub = np.abs(a[k:, k:])
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        if sub[i, j] <= tau:
            break
        i, j = i + k, j + k
        a[[k, i]] = a[[i, k]]
        a[:, [k, j]] = a[:, [j, k]]
        cols[k], cols[j] = cols[j], cols[k]
        for r in range(k + 1, n):
            a[r, k:] -= (a[r, k] / a[k, k]) * a[k, k:]
        rank += 1
    if n - rank != 1:
        raise KernelDimensionNotOne(n - rank)
    x = np.zeros(n)
    x[n - 1] = 1.0
    for k in range(rank - 1, -1, -1):
        x[k] = -(a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    out = np.zeros(n)
    for pos, orig in enumerate(cols):
        out[orig] = x[pos]
    return out


def kernel_cocycle(
    system: ConcurrentSystem, pm: PolynomialMatrix, root: CharacteristicRoot
) -> tuple[tuple[float, ...], float]:
    """Positive kernel vector of the matrix at the root, base-normalized.

    The cocycle is Gamma(a, b) = u_b / u_a.  Cross-checked against the
    growth-series ratio just below the root, the limit that defines it.
    """
    mid = root.midpoint
    m = np.array([[float(v) for v in row] for row in pm.evaluate(mid)])
    u = _kernel_vector_full_pivot(m)
    base = system.state_index(system.base_state)
    if abs(u[base]) < 1e-12:
        raise NonPositiveKernelVector("kernel vector vanishes at the base state")
    u = u / u[base]
    if not (u > 0).all():
        raise NonPositiveKernelVector(f"kernel vector has non-positive entries: {u}")
    u = tuple(u.tolist())

    t = mid * (1 - Fraction(1, 10**6))
    row_sums = [float(v) for (v,) in growth_eval(pm, t, root, [[1]] * pm.dim)]
    err = 0.0
    for i in range(len(system.states)):
        for j in range(len(system.states)):
            err = max(err, abs(u[j] / u[i] - row_sums[j] / row_sums[i]))
    if err > 1e-3:
        raise CrossCheckFailure(f"cocycle disagrees with growth-series ratios by {err}")
    return u, err


# ---------------------------------------------------------------- tables

def fibred_valuation(
    system: ConcurrentSystem, root: CharacteristicRoot, u: tuple[float, ...]
) -> Rows:
    """f_a(c) = r^{|c|} Gamma(a, a.c) on the pairs of ``system.moves``."""
    r = root.approx
    return tuple(
        tuple(r**c.size * (u[j] / u[i]) for c, j in moves)
        for i, moves in enumerate(system.moves)
    )


def mobius_transform(system: ConcurrentSystem, f: Rows) -> Rows:
    """h_a(c): the alternating superset sum of f_a over the inclusion order.

    f_a vanishes off the cliques enabled at a, which are closed under
    subsets, so h has the rows of f.  Each enabled d, in the canonical order
    of ``system.moves``, adds (-1)^(|d|-|c|)·f_a(d) to every subset c of d:
    Σ 2^|d| terms per state, and each h_a(c) sums the terms of its enabled
    supersets in canonical order.
    """
    h = []
    for moves, fs in zip(system.moves, f):
        at = {d.mask: k for k, (d, _t) in enumerate(moves)}
        row = [0.0] * len(moves)
        for (d, _t), fd in zip(moves, fs):
            sub = d.mask
            while True:  # the submasks of d, d first
                k = at[sub]
                row[k] += (-1) ** (d.size - moves[k][0].size) * fd
                if not sub:
                    break
                sub = (sub - 1) & d.mask
        h.append(tuple(row))
    return tuple(h)


def _at_nodes(rows: Rows) -> list[float]:
    """A per-state table at the dsc nodes: the rows without their empty clique, end to end."""
    return [x for row in rows for x in row[1:]]


def mcsc_tables(h: Rows, dsc: StateCliqueGraph) -> tuple[tuple[float, ...], Rows]:
    """Successor mass and transition rows of the chain.

    One pass over the arcs of the plain graph: g_a(c) is the sum of h at
    the successors of (a, c), in ``succ`` order, and the transition row of
    (a, c) is those h values divided by g, aligned with ``dsc.succ``.  The
    chain lives on the positive nodes (``dsc.labels``): only their rows are
    normalized, and the rows of null nodes, where g vanishes, keep the
    unnormalized successor weights.  Returns (g, transition), each with one
    entry per dsc node.
    """
    hv = _at_nodes(h)
    rows = [tuple(hv[w] for w in out) for out in dsc.succ]
    g = tuple(map(_fold, rows))
    transition = tuple(
        tuple(x / gv for x in row) if positive else row
        for row, gv, positive in zip(rows, g, dsc.labels)
    )
    return g, transition


# ---------------------------------------------------------------- measure object

@dataclass
class UniformMeasure:
    """The measure and its tables, laid out like the graphs: ``f[i][k]`` and
    ``h[i][k]`` belong to the k-th pair of ``system.moves[i]`` (k = 0 is the
    empty clique), ``g[v]`` to dsc node v, and ``transition[v][k]`` to the
    arc from v to ``dsc.succ[v][k]``.  The row of v is a probability vector
    exactly when ``dsc.labels[v]`` is positive.  ``u`` and every table hold
    Python floats.  The chain walk's running sums (:attr:`running_sums`)
    are filled on the first walk and held with the measure."""

    system: ConcurrentSystem
    root: CharacteristicRoot
    dsc: StateCliqueGraph  # labels filled
    u: tuple[float, ...]  # cocycle vector Gamma(base, .)
    f: Rows
    h: Rows
    g: tuple[float, ...]
    transition: Rows
    cocycle_crosscheck_error: float

    @cached_property
    def running_sums(self) -> tuple[Rows, Rows]:
        """The running sums of each state's first-clique law (``h[i][1:]``)
        and of each transition row.  ``accumulate`` adds left to right on
        every Python, so each sum has the bits of the float additions in
        row order, as :func:`_fold` does."""
        return (
            tuple(tuple(accumulate(row[1:])) for row in self.h),
            tuple(tuple(accumulate(row)) for row in self.transition),
        )

    @property
    def r(self) -> float:
        return self.root.approx

    def gamma(self, a: str, b: str) -> float:
        return self.u[self.system.state_index(b)] / self.u[self.system.state_index(a)]

    def identity_residuals(self) -> dict[str, float]:
        """Worst-case violations of the defining identities (for validation)."""
        # max |Gamma(i, k) - Gamma(i, j) Gamma(j, k)|, one n×n slab per i
        u = np.array(self.u)
        ratio = u[None, :] / u[:, None]  # ratio[i, j] = Gamma(i, j)
        cocycle = float(max(np.abs(row - row[:, None] * ratio).max() for row in ratio))
        res = {"cocycle": cocycle, "h_empty": 0.0, "h_nonneg": 0.0, "h_sum": 0.0, "h_eq_fg": 0.0}
        for row in self.h:
            res["h_empty"] = max(res["h_empty"], abs(row[0]))
            res["h_nonneg"] = max(res["h_nonneg"], max(-x for x in row))
            res["h_sum"] = max(res["h_sum"], abs(_fold(row[1:]) - 1.0))
        for h, f, g in zip(_at_nodes(self.h), _at_nodes(self.f), self.g):
            res["h_eq_fg"] = max(res["h_eq_fg"], abs(h - f * g))
        return res


def uniform_measure(
    system: ConcurrentSystem, pm: PolynomialMatrix, root: CharacteristicRoot, dsc: StateCliqueGraph
) -> UniformMeasure:
    """The uniform measure of an irreducible system from M(z), the root and the labelled dsc."""
    u, err = kernel_cocycle(system, pm, root)
    f = fibred_valuation(system, root, u)
    h = mobius_transform(system, f)
    g, transition = mcsc_tables(h, dsc)
    return UniformMeasure(
        system=system,
        root=root,
        dsc=dsc,
        u=u,
        f=f,
        h=h,
        g=g,
        transition=transition,
        cocycle_crosscheck_error=err,
    )


# ---------------------------------------------------------------- diagnostics

@dataclass(frozen=True)
class NullCheckReport:
    null_nodes: tuple[tuple[str, Clique], ...]
    max_null_h: float
    min_positive_h: float


def numeric_null_check(measure: UniformMeasure) -> NullCheckReport:
    """Graph labels vs. the numeric criterion h > 0; disagreement is fatal."""
    dsc = measure.dsc
    mismatches = []
    null_nodes = []
    max_null = 0.0
    min_pos = float("inf")
    for (s, c), val, positive in zip(dsc.nodes, _at_nodes(measure.h), dsc.labels):
        if positive:
            min_pos = min(min_pos, val)
            if not val > ZERO_THRESHOLD:
                mismatches.append((s, str(c), "graph-positive but h ~ 0", val))
        else:
            null_nodes.append((s, c))
            max_null = max(max_null, abs(val))
            if not abs(val) <= ZERO_THRESHOLD:
                mismatches.append((s, str(c), "graph-null but h > 0", val))
    if mismatches:
        raise ClassificationMismatch(str(mismatches))
    return NullCheckReport(
        null_nodes=tuple(null_nodes),
        max_null_h=max_null,
        min_positive_h=min_pos,
    )


@dataclass(frozen=True)
class UniquenessReport:
    kernel_dim: int
    eigen_residual: float
    basic_components: tuple[int, ...]
    terminal_components: tuple[int, ...]
    basic_equals_terminal: bool
    null_reachability_ok: bool
    literal_reading_disagrees: bool
    ok: bool


def uniqueness_diagnostics(
    measure: UniformMeasure, adsc: StateCliqueGraph, adsc_radii: tuple[float, ...]
) -> UniquenessReport:
    """Three checks behind uniqueness, plus the null-reachability cross-check.

    (i) the kernel at the root is a line (established during construction);
    (ii) the vector u(state, clique, i) = Gamma(base, state) h(clique) / r^{i-1}
    is a 1/r right eigenvector of the positive augmented graph;
    (iii) basic components of that graph are exactly its terminal ones.
    ``adsc_radii`` are the radii of the SCCs of ``adsc``, in condensation order.
    """
    system, u, r = measure.system, measure.u, measure.r
    labels = adsc.labels
    base = u[system.state_index(system.base_state)]
    # the adsc unfolds the dsc nodes, which follow ``system.moves``
    vec = [
        u[k] / base * x / r ** (i - 1)
        for k, (moves, row) in enumerate(zip(system.moves, measure.h))
        for (c, _t), x in zip(moves[1:], row[1:])
        for i in range(1, c.size + 1)
    ]
    residual = max(
        abs(_fold(vec[w] for w in adsc.succ[v] if labels[w]) - vec[v] / r)
        for v, pos in enumerate(labels) if pos
    )

    comps, terminal_flags = adsc.positive_components()
    positive_basic = basic_flags([adsc_radii[ci] for ci in comps])
    basic = tuple(i for i, b in enumerate(positive_basic) if b)
    terminal = tuple(i for i, t in enumerate(terminal_flags) if t)

    strict_ok, literal_disagrees = _null_reachability(adsc, basic_flags(adsc_radii))

    ok = (
        residual <= EIGEN_RESIDUAL_TOL
        and basic == terminal
        and strict_ok
    )
    return UniquenessReport(
        kernel_dim=1,
        eigen_residual=residual,
        basic_components=basic,
        terminal_components=terminal,
        basic_equals_terminal=basic == terminal,
        null_reachability_ok=strict_ok,
        literal_reading_disagrees=literal_disagrees,
        ok=ok,
    )


def _null_reachability(
    adsc: StateCliqueGraph, basic: tuple[bool, ...]
) -> tuple[bool, bool]:
    """Null nodes are exactly those strictly below a basic component.

    Returns (strict reading matches labels, literal reflexive reading
    disagrees somewhere).  The literal reading necessarily marks basic
    components themselves, so a disagreement there is informational only.
    """
    cond = adsc.condensation()
    below = reachable(
        cond.succ, [d for b, flag in enumerate(basic) if flag for d in cond.succ[b]]
    )
    strict_ok = True
    literal_disagrees = False
    for v, comp in enumerate(cond.comp_of):
        strictly = below[comp]
        literally = strictly or basic[comp]
        is_null = not adsc.labels[v]
        if strictly != is_null:
            strict_ok = False
        if literally != is_null:
            literal_disagrees = True
    return strict_ok, literal_disagrees
