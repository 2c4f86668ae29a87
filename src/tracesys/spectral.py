"""Inversion-matrix algebra, characteristic-root isolation, spectral radii.

The state-indexed alternating clique polynomial matrix is exact (integer
coefficients).  One fraction-free integer elimination gives its determinant
at a power of two, read back as signed digits (Kronecker substitution), and
the growth matrix and its row sums below the root, from q^D·M(p/q); the
smallest positive root is isolated by Sturm counts and exact-sign bisection
over rationals, so that rational roots collapse to exact values and
distinct algebraic roots can always be separated or proven equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import poly
from .errors import AmbiguousBasic, NonConvergence, SingularAtT, TraceSysError
from .graphs import Adjacency, StateCliqueGraph, count_paths_table, tarjan_sccs
from .system import ConcurrentSystem

DEFAULT_PRECISION = Fraction(1, 10**12)
POWER_TOL = 1e-10  # power iteration stops when successive estimates differ by less
POWER_MAX_ITER = 100_000
COMPARE_MAX_ROUNDS = 200  # bisection rounds before two roots count as inseparable
BASIC_RTOL = 1e-8  # relative gap to the global radius within which an SCC is basic
AMBIGUOUS_RTOL = 1e-6  # gaps between the two tolerances raise AmbiguousBasic


# ---------------------------------------------------------------- matrices

@dataclass(frozen=True)
class PolynomialMatrix:
    """Square matrix of exact integer polynomials, indexed by state names."""

    states: tuple[str, ...]
    entries: tuple[tuple[poly.Poly, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def entry(self, a: str, b: str) -> poly.Poly:
        return self.entries[self.states.index(a)][self.states.index(b)]

    def evaluate(self, x) -> list[list]:
        return [[poly.evaluate(e, x) for e in row] for row in self.entries]


def mobius_matrix(
    system: ConcurrentSystem, without: str | None = None
) -> PolynomialMatrix:
    """Entry (a, b): alternating count of enabled cliques leading a to b.

    With ``without``, the cliques that contain that letter are skipped,
    which gives the matrix of the system restricted to the other letters.
    """
    skip = 0 if without is None else 1 << system.monoid.letter_index(without)
    n = len(system.states)
    deg = len(system.monoid.letters)
    rows = [[[0] * (deg + 1) for _ in range(n)] for _ in range(n)]
    for i, s in enumerate(system.states):
        for c in system.cliques_from(s):
            if c.mask & skip:
                continue
            t = system.clique_target(s, c)
            j = system.state_index(t)
            rows[i][j][c.size] += (-1) ** c.size
    return PolynomialMatrix(
        system.states,
        tuple(tuple(poly.normalize(e) for e in row) for row in rows),
    )


def fraction_free_solve(m: list[list[int]]) -> tuple[int, list[list[int]]]:
    """det A and X = adj(A)·B for an integer matrix m = [A | B], A n×n.

    Bareiss elimination divides each update exactly by the previous pivot
    (Sylvester's identity), so the last pivot is det A up to the sign of
    the row swaps.  X = det(A)·A^-1·B is integer, so the back substitution
    divides exactly too.  A singular A gives 0 and X = 0.  B may have no
    columns; ``m`` is overwritten.
    """
    n = len(m)
    w = len(m[0]) if n else 0
    sign, prev = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((i for i in range(k + 1, n) if m[i][k]), None)
            if r is None:
                return 0, [[0] * (w - n) for _ in range(n)]
            m[k], m[r] = m[r], m[k]
            sign = -sign
        pivot, akk = m[k], m[k][k]
        for row in m[k + 1:]:
            aik = row[k]
            for j in range(k + 1, w):
                row[j] = (akk * row[j] - aik * pivot[j]) // prev
        prev = akk
    det = sign * prev
    for i in range(n - 1, -1, -1):
        row = m[i]
        for c in range(n, w):
            row[c] = (det * row[c] - sum(row[j] * m[j][c] for j in range(i + 1, n))) // row[i]
    return det, [row[n:] for row in m]


def determinant(pm: PolynomialMatrix) -> poly.Poly:
    """Exact determinant theta = det M(z), by Kronecker substitution.

    Evaluation at an integer is a ring homomorphism Z[z] -> Z, so
    theta(2^b) = det M(2^b), which :func:`fraction_free_solve` computes
    exactly.  Expanding the determinant over permutations bounds the sum of
    the absolute coefficients of theta by the permanent of the entries'
    coefficient sums, hence by the product of the row sums.  With 2^(b-1)
    above that product every coefficient lies strictly between -2^(b-1) and
    2^(b-1), so theta is the unique sequence of signed base-2^b digits of
    the integer determinant.
    """
    bound = 1
    for row in pm.entries:
        bound *= sum(abs(c) for e in row for c in e)
    b = bound.bit_length() + 1
    value, _ = fraction_free_solve(pm.evaluate(1 << b))
    half, coeffs = 1 << (b - 1), []
    while value:
        digit = ((value + half) & ((1 << b) - 1)) - half
        coeffs.append(digit)
        value = (value - digit) >> b
    return tuple(coeffs)


# ---------------------------------------------------------------- root isolation

@dataclass
class CharacteristicRoot:
    """Smallest positive root of ``theta`` in (0, 1], isolated exactly.

    ``lo == hi`` means the root was hit exactly (a rational root); otherwise
    lo < root < hi, the only root of the square-free part in (lo, hi].
    """

    theta: poly.Poly
    square_free: poly.Poly
    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def approx(self) -> float:
        return float(self.midpoint)

    def __str__(self) -> str:
        if self.exact:
            return f"{self.lo} (exact)"
        return f"({self.lo}, {self.hi}) ~ {self.approx:.12g}"


def root_from_theta(
    theta: poly.Poly, precision: Fraction = DEFAULT_PRECISION
) -> CharacteristicRoot | None:
    """Isolate the smallest positive root of theta in (0, 1]; None if absent.

    Sturm counts on half-open intervals bisect until the root is alone;
    then :func:`_refine_step` halves its interval until it is at most
    ``precision`` wide.  A dyadic rational root is hit exactly.
    """
    if precision <= 0:
        raise TraceSysError(f"root precision must be positive, got {precision}")
    sf = poly.square_free_part(theta)
    chain = poly.sturm_chain(sf)
    lo, hi = Fraction(0), Fraction(1)
    count = poly.count_roots(chain, lo, hi)
    if count == 0:
        return None
    # invariant: the smallest root lies in (lo, hi], which holds ``count`` roots
    while count > 1:
        mid = (lo + hi) / 2
        left = poly.count_roots(chain, lo, mid)
        if left >= 1:
            hi, count = mid, left
        else:
            lo = mid  # (mid, hi] keeps all ``count`` roots
    if poly.sign_at(sf, hi) == 0:
        lo = hi
    root = CharacteristicRoot(theta=theta, square_free=sf, lo=lo, hi=hi)
    while root.width > precision:
        root = _refine_step(root)
    return root


def compare_roots(
    a: CharacteristicRoot, b: CharacteristicRoot
) -> tuple[int, CharacteristicRoot, CharacteristicRoot]:
    """Order two isolated algebraic roots exactly.

    Returns (sign(a - b), a, b) with the intervals refined far enough to be
    disjoint, or collapsed to a proven common root (sign 0).  Equality of
    irrational roots is decided through the gcd of the square-free parts.
    """
    for _ in range(COMPARE_MAX_ROUNDS):
        if a.exact and b.exact:
            return (a.lo > b.lo) - (a.lo < b.lo), a, b
        if a.exact:
            # b's root lies strictly inside (b.lo, b.hi)
            if a.lo <= b.lo:
                return -1, a, b
            if a.lo >= b.hi:
                return 1, a, b
            if poly.sign_at(b.square_free, a.lo) == 0:
                return 0, a, b
            b = _refine_step(b, exclude=a.lo)
            continue
        if b.exact:
            cmp, b, a = compare_roots(b, a)
            return -cmp, a, b
        if a.hi <= b.lo:
            return -1, a, b
        if b.hi <= a.lo:
            return 1, a, b
        common = poly.gcd(a.square_free, b.square_free)
        if poly.degree(common) >= 1:
            low = max(a.lo, b.lo)
            high = min(a.hi, b.hi)
            if low < high and poly.count_roots(poly.sturm_chain(common), low, high) >= 1:
                # a common root strictly inside both intervals is both roots
                return 0, a, b
        a = _refine_step(a)
        b = _refine_step(b)
    raise TraceSysError("root comparison did not separate after refinement")


def _refine_step(
    root: CharacteristicRoot, exclude: Fraction | None = None
) -> CharacteristicRoot:
    """One bisection step; with ``exclude``, bisect at that point if interior.

    The root is simple and alone in (lo, hi), and hi is not a root, so it
    lies left of a non-root mid exactly when the square-free part has the
    same sign at mid and hi: a Sturm count on (lo, mid] picks the same half.
    An exact root comes back equal: mid = lo = hi is its root.
    """
    sf, lo, hi = root.square_free, root.lo, root.hi
    mid = exclude if exclude is not None and lo < exclude < hi else (lo + hi) / 2
    sign = poly.sign_at(sf, mid)
    if sign == 0:
        lo = hi = mid
    elif sign == poly.sign_at(sf, hi):
        hi = mid
    else:
        lo = mid
    return CharacteristicRoot(root.theta, sf, lo, hi)


# ---------------------------------------------------------------- growth matrix

def growth_eval(
    pm: PolynomialMatrix, t: Fraction | int, root: CharacteristicRoot
) -> list[list[Fraction]]:
    """Growth matrix M(t)^-1 at a rational point below the root: exact inverse."""
    n = pm.dim
    return _growth_solve(pm, t, root, [[int(i == j) for j in range(n)] for i in range(n)])


def growth_row_sums(
    pm: PolynomialMatrix, t: Fraction | int, root: CharacteristicRoot
) -> list[Fraction]:
    """Row sums of :func:`growth_eval`, from the one column B = 1."""
    return [v for (v,) in _growth_solve(pm, t, root, [[1]] * pm.dim)]


def _growth_solve(
    pm: PolynomialMatrix, t: Fraction | int, root: CharacteristicRoot, b: list
) -> list[list[Fraction]]:
    """M(t)^-1·B exactly, as X / det for q^D·M(t)·X = det·q^D·B, where
    t = p/q and D is the largest entry degree.  M(t) is invertible below
    the root: theta(0) = 1 and theta has no root in (0, root)."""
    t = Fraction(t)
    if t < 0:
        raise TraceSysError("evaluation point must be non-negative")
    if t >= root.lo:
        raise SingularAtT(f"{t} is not below the isolating interval of the root")
    q = t.denominator ** max(poly.degree(e) for row in pm.entries for e in row)
    det, x = fraction_free_solve(
        [[int(v * q) for v in row] + [q * c for c in cs] for row, cs in zip(pm.evaluate(t), b)]
    )
    return [[Fraction(v, det) for v in row] for row in x]


@dataclass(frozen=True)
class InversionReport:
    order: int
    ok: bool
    failures: tuple[tuple, ...]  # (n, side, origin, target, value)


def verify_inversion(pm: PolynomialMatrix, adsc: StateCliqueGraph, order: int) -> InversionReport:
    """Check mu(z)·G(z) = I up to ``order`` against the execution counts.

    mu(z) is the alternating clique matrix M(z) and G_m[a][b] counts the
    executions of length m from a to b.  The check is exact big-integer
    arithmetic and one-sided: the constant term mu_0 is the identity (the
    empty clique leads every state to itself), so mu is invertible as a
    power series, and a truncated left inverse is the truncation of
    mu^{-1}, hence a truncated right inverse too.  Each row of the product
    is accumulated over the non-zero coefficients of mu; failures are
    (m, "mu*G", origin, target, value) in the order (m, origin, target).
    """
    states = pm.states
    col = {t: j for j, t in enumerate(states)}
    # counts[l][m]: the non-zero entries (j, G_m[l][j]) of row l
    counts = [
        [[(col[t], x) for t, x in row.items()] for row in table]
        for table in (count_paths_table(adsc, s, order) for s in states)
    ]
    # mu[i]: the non-zero coefficients (k, l, mu_k[i][l]) of row i
    mu = [
        [(k, l, c) for l, e in enumerate(row) for k, c in enumerate(e) if c]
        for row in pm.entries
    ]

    failures = []
    for m in range(order + 1):
        for i in range(len(states)):
            acc = [0] * len(states)
            for k, l, c in mu[i]:
                if k <= m:
                    for j, x in counts[l][m - k]:
                        acc[j] += c * x
            for j, v in enumerate(acc):
                if v != (m == 0 and i == j):
                    failures.append((m, "mu*G", states[i], states[j], v))
    return InversionReport(order=order, ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------- spectral radii

def spectral_radius(succ: Adjacency) -> float:
    """Largest eigenvalue modulus of the adjacency matrix.

    The radius of a digraph is the maximum over its strongly connected
    components (the adjacency is block triangular), and on a single
    component the shifted matrix (F + Id) is primitive, so power iteration
    from the all-ones vector converges geometrically.  Iterating on the
    whole graph instead can stall: a reducible matrix may be defective at
    its dominant eigenvalue.  Acyclic graphs short-circuit to 0.
    """
    return max_radius(component_radius(succ, comp) for comp in tarjan_sccs(succ))


def max_radius(radii: Iterable[float]) -> float:
    """Radius of a digraph from the radii of its components (0 if acyclic)."""
    return max((0.0, *radii))


def component_radius(succ: Adjacency, comp: Sequence[int]) -> float:
    """Spectral radius of the subgraph induced on one strongly connected
    component, given by its sorted node indices; 0 for a loopless singleton."""
    if len(comp) == 1 and comp[0] not in succ[comp[0]]:
        return 0.0
    remap = {v: i for i, v in enumerate(comp)}
    sub = tuple(tuple(remap[w] for w in succ[v] if w in remap) for v in comp)
    return _power_radius(sub)


def _power_radius(succ: Adjacency) -> float:
    """Rayleigh power iteration on (F + Id) for a strongly connected graph.

    One product per step: y = (F + Id)x both gives the Rayleigh quotient of
    x and, normalised, the next iterate.
    """
    n = len(succ)
    f = np.zeros((n, n))
    for v, out in enumerate(succ):
        f[v, out] = 1.0
    x = np.ones(n) / np.sqrt(n)
    y = x + f @ x
    lam_prev = None
    for _ in range(POWER_MAX_ITER):
        x = y / np.linalg.norm(y)
        y = x + f @ x
        lam = float(x @ y)
        if lam_prev is not None and abs(lam - lam_prev) <= POWER_TOL:
            return lam - 1.0
        lam_prev = lam
    raise NonConvergence(f"power iteration did not converge in {POWER_MAX_ITER} steps")


def basic_flags(radii: Sequence[float]) -> tuple[bool, ...]:
    """Per component with the given radius: whether it is basic, i.e. its
    radius matches the global one, their maximum.

    The match is within ``BASIC_RTOL`` (relative); radii landing between the
    two tolerances are surfaced as an error instead of being guessed either
    way.
    """
    global_rho = max_radius(radii)
    basic = []
    for rho in radii:
        gap = (global_rho - rho) / global_rho if global_rho > 0 else 0.0
        if gap <= BASIC_RTOL:
            basic.append(True)
        elif gap <= AMBIGUOUS_RTOL:
            raise AmbiguousBasic(
                f"component radius {rho} within ambiguity band of {global_rho}"
            )
        else:
            basic.append(False)
    return tuple(basic)


# ---------------------------------------------------------------- spectral property

@dataclass(frozen=True)
class LetterRestriction:
    letter: str
    root: CharacteristicRoot | None  # None encodes an infinite radius
    comparison: int  # sign of (restricted root - system root)

    @property
    def infinite(self) -> bool:
        return self.root is None


@dataclass(frozen=True)
class SpectralPropertyReport:
    root: CharacteristicRoot
    letters: tuple[LetterRestriction, ...]
    holds: bool
    witness: str | None  # a letter whose removal does not shrink the system


def spectral_property_report(
    root: CharacteristicRoot, restricted: dict[str, poly.Poly], precision: Fraction
) -> SpectralPropertyReport:
    """Per-letter restricted roots and the strict-growth verdict.

    ``restricted`` maps each letter, in letter order, to the determinant of
    the matrix without the cliques that contain it.  Restricted systems may
    lose accessibility, so their roots are taken directly from that
    determinant; absence of a root in (0, 1] is reported as an infinite
    radius, which compares above every finite root.
    """
    entries = []
    witness = None
    for a, theta in restricted.items():
        sub_root = root_from_theta(theta, precision)
        if sub_root is None:
            entries.append(LetterRestriction(a, None, 1))
            continue
        cmp, sub_root, root = compare_roots(sub_root, root)
        entries.append(LetterRestriction(a, sub_root, cmp))
        if cmp <= 0 and witness is None:
            witness = a
    return SpectralPropertyReport(
        root=root,
        letters=tuple(entries),
        holds=witness is None,
        witness=witness,
    )
