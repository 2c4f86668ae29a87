"""The uniform measure: cocycle, clique laws, and the states-and-cliques chain.

The measure on infinite executions is represented by the pair
(root, cocycle) and the derived tables: f (cylinder values on cliques),
h (law of the first clique, an alternating superset sum of f), g (successor
mass), and the transition matrix of the Markov chain of states-and-cliques.
All numerics are double precision on top of the exactly isolated root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ClassificationMismatch,
    CrossCheckFailure,
    KernelDimensionNotOne,
    NonPositiveKernelVector,
)
from .graphs import StateCliqueGraph, reachable
from .monoid import Clique
from .spectral import CharacteristicRoot, PolynomialMatrix, basic_flags, growth_row_sums
from .system import ConcurrentSystem

ZERO_THRESHOLD = 1e-6  # separates exact zeros of h from genuine positive mass
KERNEL_RTOL = 1e-9  # pivots below this, relative to the largest entry, count as zero
EIGEN_RESIDUAL_TOL = 1e-6  # largest eigenvector residual uniqueness accepts


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
) -> tuple[np.ndarray, float]:
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

    t = mid * (1 - Fraction(1, 10**6))
    row_sums = [float(v) for v in growth_row_sums(pm, t, root)]
    err = 0.0
    for i in range(len(system.states)):
        for j in range(len(system.states)):
            err = max(err, abs(u[j] / u[i] - row_sums[j] / row_sums[i]))
    if err > 1e-3:
        raise CrossCheckFailure(f"cocycle disagrees with growth-series ratios by {err}")
    return u, err


# ---------------------------------------------------------------- tables

def fibred_valuation(
    system: ConcurrentSystem, root: CharacteristicRoot, u: np.ndarray
) -> dict[str, dict[Clique, float]]:
    """f_a(c) = r^{|c|} Gamma(a, a.c) on enabled cliques, 0 elsewhere."""
    r = root.approx
    f: dict[str, dict[Clique, float]] = {}
    for i, s in enumerate(system.states):
        row = {}
        for c in system.monoid.cliques():
            t = system.clique_target(s, c)
            if t is None:
                row[c] = 0.0
            else:
                j = system.state_index(t)
                row[c] = r**c.size * (u[j] / u[i])
        f[s] = row
    return f


def mobius_transform(
    system: ConcurrentSystem, f: dict[str, dict[Clique, float]]
) -> dict[str, dict[Clique, float]]:
    """h_a(c): the alternating superset sum of f_a over the inclusion order.

    f_a vanishes off the cliques enabled at a, so the sum runs over the
    enabled supersets d of c only, in canonical order: O(enabled·cliques)
    per state.  A disabled d would add ±0.0, and a sum that starts at +0.0
    never becomes -0.0, so leaving those terms out changes no bit.  Every
    clique gets an entry, 0.0 where no enabled clique contains it.
    """
    h: dict[str, dict[Clique, float]] = {}
    for s in system.states:
        fs, enabled = f[s], system.cliques_from(s)
        row = {}
        for c in system.monoid.cliques():
            acc = 0.0
            for d in enabled:
                if d.contains(c):
                    acc += (-1) ** (d.size - c.size) * fs[d]
            row[c] = acc
        h[s] = row
    return h


def mcsc_tables(
    system: ConcurrentSystem,
    h: dict[str, dict[Clique, float]],
    dsc: StateCliqueGraph,
) -> tuple[dict, dict, np.ndarray, tuple[bool, ...]]:
    """Successor mass, initial laws and transition matrix of the chain.

    One pass over the arcs of the plain graph: g_a(c) is the sum of h at
    the successors of (a, c), in ``succ`` order, and each row of the
    transition matrix is those h values divided by g.  Rows whose g is at
    most ZERO_THRESHOLD are flagged unreachable and keep the unnormalized
    successor weights, so node indexing stays aligned with the plain graph.
    Returns (g, initial, transition, unreachable).
    """
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


# ---------------------------------------------------------------- measure object

@dataclass
class UniformMeasure:
    system: ConcurrentSystem
    root: CharacteristicRoot
    dsc: StateCliqueGraph  # labels filled
    u: np.ndarray  # cocycle vector Gamma(base, .)
    f: dict[str, dict[Clique, float]]
    h: dict[str, dict[Clique, float]]
    g: dict[tuple[str, Clique], float]
    initial: dict[str, dict[Clique, float]]
    transition: np.ndarray
    unreachable: tuple[bool, ...]
    cocycle_crosscheck_error: float

    @property
    def r(self) -> float:
        return self.root.approx

    def gamma(self, a: str, b: str) -> float:
        return float(
            self.u[self.system.state_index(b)] / self.u[self.system.state_index(a)]
        )

    def cylinder(self, state: str, word) -> float:
        """Measure of the set of infinite executions extending ``word``."""
        target = self.system.act(state, word)
        if target is None:
            return 0.0
        length = sum(1 for _ in word)
        return self.r**length * self.gamma(state, target)

    def identity_residuals(self) -> dict[str, float]:
        """Worst-case violations of the defining identities (for validation)."""
        sys_, h, f, g = self.system, self.h, self.f, self.g
        res = {"cocycle": 0.0, "h_empty": 0.0, "h_nonneg": 0.0, "h_sum": 0.0,
               "h_eq_fg": 0.0, "row_sum": 0.0}
        n = len(sys_.states)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = self.u[k] / self.u[i]
                    rhs = (self.u[j] / self.u[i]) * (self.u[k] / self.u[j])
                    res["cocycle"] = max(res["cocycle"], abs(lhs - rhs))
        empty = sys_.monoid.empty_clique()
        for s in sys_.states:
            res["h_empty"] = max(res["h_empty"], abs(h[s][empty]))
            res["h_nonneg"] = max(
                res["h_nonneg"], max((-h[s][c] for c in h[s]), default=0.0)
            )
            res["h_sum"] = max(
                res["h_sum"],
                abs(sum(h[s][c] for c in sys_.enabled_cliques(s)) - 1.0),
            )
        for (s, c) in self.g:
            res["h_eq_fg"] = max(res["h_eq_fg"], abs(h[s][c] - f[s][c] * g[(s, c)]))
        for v in range(len(self.dsc.nodes)):
            if not self.unreachable[v]:
                res["row_sum"] = max(
                    res["row_sum"], abs(self.transition[v].sum() - 1.0)
                )
        return res


def uniform_measure(
    system: ConcurrentSystem, pm: PolynomialMatrix, root: CharacteristicRoot, dsc: StateCliqueGraph
) -> UniformMeasure:
    """The uniform measure of an irreducible system from M(z), the root and the labelled dsc."""
    u, err = kernel_cocycle(system, pm, root)
    f = fibred_valuation(system, root, u)
    h = mobius_transform(system, f)
    g, initial, transition, unreachable = mcsc_tables(system, h, dsc)
    return UniformMeasure(
        system=system,
        root=root,
        dsc=dsc,
        u=u,
        f=f,
        h=h,
        g=g,
        initial=initial,
        transition=transition,
        unreachable=unreachable,
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
    for v, (s, c) in enumerate(dsc.nodes):
        val = measure.h[s][c]
        positive = dsc.labels[v]
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
    system = measure.system
    labels = adsc.labels

    r = measure.r
    vec = np.array(
        [
            measure.gamma(system.base_state, s) * measure.h[s][c] / r ** (i - 1)
            for (s, c, i) in adsc.nodes
        ]
    )
    positive = [v for v, pos in enumerate(labels) if pos]
    # the float sums run in ``succ`` order: the report's bytes depend on it
    fu = np.array([sum(vec[w] for w in adsc.succ[v] if labels[w]) for v in positive])
    residual = float(np.abs(fu - vec[positive] / r).max())

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
