import math
import random
from fractions import Fraction

import numpy as np
import pytest
from bench_modules import inputs, load_system
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from references import graph_radius, mul, positive_subgraph, restrict

from tracesys import poly, spectral
from tracesys.analysis import (
    Analysis,
    characteristic_root,
    growth_eval,
    spectral_property_report,
    verify_inversion,
)
from tracesys.errors import (
    AmbiguousBasic,
    NonConvergence,
    NoRootInUnitInterval,
    NotAccessible,
    SingularAtT,
    TraceSysError,
    TrivialSystem,
)
from tracesys.fixtures import ALL_SYSTEMS
from tracesys.graphs import build_adsc, build_dsc, count_paths_table, tarjan_sccs
from tracesys.monoid import TraceMonoid
from tracesys.spectral import (
    PolynomialMatrix,
    _refine_step,
    basic_flags,
    compare_roots,
    determinant,
    fraction_free_solve,
    mobius_matrix,
    root_from_theta,
)
from tracesys.system import ConcurrentSystem


# ------------------------------------------------------------ matrix

def test_mobius_matrix_e1(e1):
    pm = mobius_matrix(e1)
    s0, s1 = pm.states.index("s0"), pm.states.index("s1")
    assert pm.entries[s0][s0] == (1, -2, 1)
    assert pm.entries[s0][s1] == (0, -1, 1)
    assert pm.entries[s1][s0] == (0, -1)
    assert pm.entries[s1][s1] == (1, -1)


def test_mobius_matrix_canonical(canonical_abc):
    pm = mobius_matrix(canonical_abc)
    assert pm.dim == 1
    assert pm.entries[0][0] == (1, -3, 1)


def test_mobius_matrix_constant_terms(aztec):
    pm = mobius_matrix(aztec)
    for i in range(pm.dim):
        for j in range(pm.dim):
            entry = pm.entries[i][j]
            constant = entry[0] if entry else 0
            assert constant == (1 if i == j else 0)


def test_mobius_matrix_product_split():
    # two commuting letter groups acting on one state: matrix factors
    monoid = TraceMonoid("ab", [("a", "b")])
    system = ConcurrentSystem.canonical(monoid)
    pm = mobius_matrix(system)
    part_a = mobius_matrix(restrict(system, "b"))
    part_b = mobius_matrix(restrict(system, "a"))
    assert determinant(pm) == mul(determinant(part_a), determinant(part_b))


def test_mobius_matrix_without_letter_is_restricted_matrix(reference_systems):
    for name, system in reference_systems.items():
        for a in system.monoid.letters:
            want = mobius_matrix(restrict(system, a))
            assert mobius_matrix(system, without=a) == want, (name, a)


def test_determinant_examples(e1):
    assert determinant(mobius_matrix(e1)) == (1, -3, 2)
    identity = mobius_matrix(
        ConcurrentSystem(TraceMonoid("a", []), ["s"], {})
    )
    assert determinant(identity) == (1,)
    one_by_one = mobius_matrix(
        ConcurrentSystem.canonical(TraceMonoid("abc", [("a", "b")]))
    )
    assert determinant(one_by_one) == (1, -3, 1)
    assert determinant(PolynomialMatrix((), ())) == poly.ONE


def _fraction_determinant(m) -> Fraction:
    """Reference: Gaussian elimination over the rationals with row swaps."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:  # the matrices are sparse: skip the zero updates
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[k])]
    return det


def _assert_determinant(pm: PolynomialMatrix, theta: poly.Poly) -> None:
    """Prove theta = det M(z): both have degree at most the sum of the row
    degrees, and they agree at one point more than that."""
    bound = sum(max(0, *(poly.degree(e) for e in row)) for row in pm.entries)
    assert poly.degree(theta) <= bound
    for t in range(-(bound // 2), bound - bound // 2 + 1):
        assert poly.evaluate(theta, t) == _fraction_determinant(pm.evaluate(t))


DETERMINANT_SYSTEMS = {
    **ALL_SYSTEMS,
    **{
        f.name: (lambda f=f: load_system(f))
        for f in [*(inputs.phil_file(n) for n in (3, 4, 5, 6)),
                  *(inputs.path_file(k) for k in (8, 10))]
    },
}


@pytest.mark.parametrize("name", sorted(DETERMINANT_SYSTEMS))
def test_determinant_matches_rational_elimination(name):
    system = DETERMINANT_SYSTEMS[name]()
    for a in (None, *system.monoid.letters):
        pm = mobius_matrix(system, without=a)
        _assert_determinant(pm, determinant(pm))


def test_determinant_generic_matrices_with_row_swaps():
    # zero pivots, non-unit constant terms, large coefficients and singular
    # matrices exercise the swap branch, the exact quotients by arbitrary
    # previous pivots and the digit bound
    rng = random.Random(2024)
    for size in (3, 10**9):
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = [
                [
                    poly.normalize(rng.randint(-size, size) for _ in range(rng.randint(0, 3)))
                    if rng.random() < 0.7 else poly.ZERO
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            singular = rng.random() < 0.4
            if singular:
                i, j = rng.randrange(n), rng.randrange(n)
                kind = rng.choice(["row", "column", "repeat"] if n > 1 else ["row", "column"])
                if kind == "row":
                    rows[i] = [poly.ZERO] * n
                elif kind == "column":
                    for row in rows:
                        row[j] = poly.ZERO
                else:
                    rows[(i + 1) % n] = list(rows[i])
            pm = PolynomialMatrix(
                tuple(f"s{i}" for i in range(n)), tuple(map(tuple, rows))
            )
            theta = determinant(pm)
            _assert_determinant(pm, theta)
            if singular:
                assert theta == poly.ZERO


@pytest.mark.parametrize("c", [1, -1, 10**9, -(10**9), 2**40, -(2**40), 2**40 - 1])
@pytest.mark.parametrize("deg", [0, 1, 5])
def test_determinant_one_by_one_coefficient_at_the_bound(c, deg):
    # the coefficient is the whole bound, so it must still be one digit
    entry = (0,) * deg + (c,)
    assert determinant(PolynomialMatrix(("s",), ((entry,),))) == entry


@st.composite
def augmented_matrices(draw):
    """An integer matrix [A | B], A n×n with n <= 5, B with up to 3 columns.

    Small entries and many zeros give zero pivots (row swaps) and singular
    matrices; a repeated row of A makes it singular for certain.
    """
    n = draw(st.integers(0, 5))
    k = draw(st.integers(0, 3))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**12), 10**12))
    m = [draw(st.lists(entry, min_size=n + k, max_size=n + k)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        m[j][:n] = m[i][:n]
    return n, m


@given(augmented_matrices())
@example((0, []))
@example((1, [[0, 5]]))
@example((1, [[-3, 2, 7]]))
@example((2, [[0, 1, 1], [1, 0, 1]]))
@example((2, [[1, 2, 1], [2, 4, 1]]))
@settings(max_examples=300, deadline=None)
def test_fraction_free_solve_det_and_adjugate_product(case):
    n, m = case
    a = [row[:n] for row in m]
    b = [row[n:] for row in m]
    det, x = fraction_free_solve([list(row) for row in m])
    assert det == _fraction_determinant(a)
    assert len(x) == n and all(len(row) == len(b[i]) for i, row in enumerate(x))
    for i in range(n):
        for c in range(len(b[i])):
            assert sum(a[i][j] * x[j][c] for j in range(n)) == det * b[i][c]
    if det == 0:
        assert all(v == 0 for row in x for v in row)


# ------------------------------------------------------------ characteristic root

def test_root_e1_exact(e1):
    root = characteristic_root(e1)
    assert root.exact and root.lo == Fraction(1, 2)
    assert root.width == 0


def test_root_canonical(canonical_abc):
    root = characteristic_root(canonical_abc)
    golden = (3 - 5**0.5) / 2
    assert not root.exact
    assert root.width <= Fraction(1, 10**12)
    assert abs(root.approx - golden) < 1e-12


def test_root_aztec(aztec):
    root = characteristic_root(aztec)
    assert 0.524 <= root.approx <= 0.526
    residual = poly.evaluate((1, -1, -2, 0, 1), root.midpoint)
    assert abs(residual) <= Fraction(1, 10**10)


def test_root_refusals():
    trivial = ConcurrentSystem(TraceMonoid("a", []), ["s"], {})
    with pytest.raises(TrivialSystem):
        characteristic_root(trivial)
    monoid = TraceMonoid("ab", [])
    inaccessible = ConcurrentSystem(
        monoid, ["s", "t"], {("s", "a"): "t", ("t", "b"): "t"}
    )
    with pytest.raises(NotAccessible):
        characteristic_root(inaccessible)
    with pytest.raises(NoRootInUnitInterval):
        root = root_from_theta((1, 1))  # no positive root
        if root is None:
            raise NoRootInUnitInterval("nothing in (0, 1]")


@pytest.mark.parametrize("precision", [0, -1, Fraction(-1, 10**12)])
def test_root_rejects_non_positive_precision(precision):
    with pytest.raises(TraceSysError, match="precision"):
        root_from_theta((1, -3, 1), precision)


def test_root_isolation_sign_change(canonical_abc):
    root = characteristic_root(canonical_abc)
    lo_val = poly.evaluate(root.square_free, root.lo)
    hi_val = poly.evaluate(root.square_free, root.hi)
    assert lo_val * hi_val < 0


def test_compare_roots_equal_irrational():
    # same polynomial, independent isolations: proven equal via common factor
    theta = (1, -3, 1)
    a = root_from_theta(theta, Fraction(1, 10**6))
    b = root_from_theta(mul(theta, (1, -1)), Fraction(1, 10**6))
    cmp, _, _ = compare_roots(a, b)
    assert cmp == 0


def test_compare_roots_orders():
    half = root_from_theta((1, -3, 2))  # 1/2 exact
    golden = root_from_theta((1, -3, 1))  # (3-sqrt5)/2 ~ 0.382
    cmp, _, _ = compare_roots(golden, half)
    assert cmp == -1
    cmp, _, _ = compare_roots(half, golden)
    assert cmp == 1
    cmp, _, _ = compare_roots(half, root_from_theta((1, -2)))
    assert cmp == 0


PRECISIONS = (Fraction(1, 1000), Fraction(1, 10**12), Fraction(1, 10**30))


def _sturm_isolation(theta, precision):
    """Reference: the smallest root of theta in (0, 1] by bisection with a
    Sturm count at every step, as (lo, hi), or None."""
    sf = poly.square_free_part(theta)
    chain = poly.sturm_chain(sf)
    lo, hi = Fraction(0), Fraction(1)
    count = poly.count_roots(chain, lo, hi)
    if count == 0:
        return None
    while True:
        if count == 1:
            if poly.sign_at(sf, hi) == 0:
                return hi, hi
            if hi - lo <= precision:
                return lo, hi
        mid = (lo + hi) / 2
        left = poly.count_roots(chain, lo, mid)
        if left >= 1:
            hi, count = mid, left
        else:
            lo = mid


def _sturm_step(root, exclude):
    """Reference: one bisection step of an isolated root, by Sturm count."""
    mid = exclude if root.lo < exclude < root.hi else root.midpoint
    sf = root.square_free
    if poly.sign_at(sf, mid) == 0:
        return mid, mid
    if poly.count_roots(poly.sturm_chain(sf), root.lo, mid) == 1:
        return root.lo, mid
    return mid, root.hi


def _assert_matches_sturm_reference(theta, precision, exclude):
    root = root_from_theta(theta, precision)
    want = _sturm_isolation(theta, precision)
    assert (None if root is None else (root.lo, root.hi)) == want
    if root is not None and not root.exact:
        x = root.lo + (root.hi - root.lo) * exclude
        step = _refine_step(root, exclude=x)
        assert (step.lo, step.hi) == _sturm_step(root, x)


@st.composite
def rational_and_quadratic_products(draw):
    """Products of factors q·z - p and of irreducible quadratics, some repeated."""
    theta = (1,)
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(st.integers(-5, 45)), draw(st.integers(1, 40))
        theta = mul(theta, (-p, q))
    for _ in range(draw(st.integers(0 if len(theta) > 1 else 1, 2))):
        a, b, c = draw(st.integers(1, 20)), draw(st.integers(-40, 40)), draw(st.integers(-20, 20))
        disc = b * b - 4 * a * c
        assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
        theta = mul(theta, (c, b, a))
    if draw(st.booleans()):
        theta = mul(theta, theta[: draw(st.integers(2, len(theta)))] or (1,))
    assume(poly.degree(theta) >= 1)
    return theta


@given(
    rational_and_quadratic_products(),
    st.sampled_from(PRECISIONS),
    st.fractions(0, 1),
)
@example((-1, 2), Fraction(1, 1000), Fraction(1, 3))  # exact root 1/2
@example((1, -3, 1), Fraction(1, 10**12), Fraction(1, 2))  # (3 - sqrt 5)/2
@example((-1, 1), Fraction(1, 10**30), Fraction(0))  # root at 1
@example((0, -1, 3), Fraction(1, 1000), Fraction(0))  # a root at 0 too: lo may be a root
@settings(max_examples=300, deadline=None)
def test_root_from_theta_matches_sturm_bisection(theta, precision, exclude):
    _assert_matches_sturm_reference(theta, precision, exclude)


def test_root_from_theta_matches_sturm_bisection_on_systems(reference_systems):
    for name, system in reference_systems.items():
        thetas = [determinant(mobius_matrix(system))] + [
            determinant(mobius_matrix(system, without=a)) for a in system.monoid.letters
        ]
        for theta in thetas:
            for precision in PRECISIONS:
                _assert_matches_sturm_reference(theta, precision, Fraction(1, 3))


# ------------------------------------------------------------ growth matrix

def test_growth_eval_identity_at_zero(e1):
    g = growth_eval(e1, 0)
    assert g == [[1, 0], [0, 1]]


def test_growth_eval_e1_quarter(e1):
    root = characteristic_root(e1)
    g = growth_eval(e1, Fraction(1, 4), root)
    mu = mobius_matrix(e1).evaluate(Fraction(1, 4))
    assert mu == [
        [Fraction(9, 16), Fraction(-3, 16)],
        [Fraction(-1, 4), Fraction(3, 4)],
    ]
    # inverse times original is the identity
    for i in range(2):
        for j in range(2):
            acc = sum(mu[i][k] * g[k][j] for k in range(2))
            assert acc == (1 if i == j else 0)
    # cross-check against the truncated counting series
    table = count_paths_table(build_adsc(build_dsc(e1)), "s0", 30)
    t = Fraction(1, 4)
    series = sum(table[n][e1.state_index("s0")] * t**n for n in range(31))
    assert abs(float(g[0][0]) - float(series)) < 1e-6


def test_growth_eval_scalar(canonical_abc):
    root = characteristic_root(canonical_abc)
    t = Fraction(1, 5)
    g = growth_eval(canonical_abc, t, root)
    assert g[0][0] == 1 / poly.evaluate((1, -3, 1), Fraction(t))


def test_growth_eval_rejects_beyond_root(e1):
    root = characteristic_root(e1)
    with pytest.raises(SingularAtT):
        growth_eval(e1, Fraction(1, 2), root)
    with pytest.raises(SingularAtT):
        growth_eval(e1, Fraction(3, 4), root)


def test_growth_positive_entries(aztec):
    root = characteristic_root(aztec)
    g = growth_eval(aztec, Fraction(2, 5), root)
    assert all(v > 0 for row in g for v in row)


def _invert_fraction_matrix(m):
    """Reference: Gauss-Jordan inversion over the rationals."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[p] = a[p], a[k]
        inv[k], inv[p] = inv[p], inv[k]
        pivot = a[k][k]
        a[k] = [x / pivot for x in a[k]]
        inv[k] = [x / pivot for x in inv[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[k])]
    return inv


def test_growth_eval_matches_rational_inverse(reference_systems):
    # at the cocycle cross-check's evaluation point, just below the root
    for name, system in reference_systems.items():
        root = characteristic_root(system)
        t = root.midpoint * (1 - Fraction(1, 10**6))
        want = _invert_fraction_matrix(mobius_matrix(system).evaluate(t))
        assert growth_eval(system, t, root) == want, name
        pm = mobius_matrix(system)
        row_sums = spectral.growth_eval(pm, t, root, [[1]] * pm.dim)
        assert row_sums == [[sum(row)] for row in want], name


# ------------------------------------------------------------ inversion identity

def test_verify_inversion_order0(e1):
    assert verify_inversion(e1, 0).ok


def test_verify_inversion_fixtures(irreducible_fixtures):
    for name, system in irreducible_fixtures.items():
        rep = verify_inversion(system, 10)
        assert rep.ok, (name, rep.failures[:3])


def _count_tables(system, order):
    """One execution-count table per state, in state order."""
    adsc = Analysis.of(system).adsc
    return [count_paths_table(adsc, s, order) for s in system.states]


def _two_sided_inversion(system, tables):
    """Failures of mu*G = I and G*mu = I against the count ``tables``, by the
    dense two-sided convolution that ``verify_inversion`` ran before it
    became one-sided."""
    pm = Analysis.of(system).mobius
    n = pm.dim
    order = len(tables[0]) - 1
    max_deg = max(poly.degree(e) for row in pm.entries for e in row)
    mu = [
        [[e[k] if k < len(e) else 0 for e in row] for row in pm.entries]
        for k in range(max_deg + 1)
    ]
    g = [[tables[i][m] for i in range(n)] for m in range(order + 1)]
    failures = []
    for m in range(order + 1):
        want = [[int(i == j and m == 0) for j in range(n)] for i in range(n)]
        for side in ("mu*G", "G*mu"):
            acc = [[0] * n for _ in range(n)]
            for k in range(min(m, max_deg) + 1):
                left = mu[k] if side == "mu*G" else g[m - k]
                right = g[m - k] if side == "mu*G" else mu[k]
                for i in range(n):
                    for l in range(n):
                        if left[i][l]:
                            for j in range(n):
                                acc[i][j] += left[i][l] * right[l][j]
            for i in range(n):
                for j in range(n):
                    if acc[i][j] != want[i][j]:
                        failures.append(
                            (m, side, system.states[i], system.states[j], acc[i][j])
                        )
    return failures


def test_verify_inversion_matches_two_sided_check(reference_systems):
    for name, system in reference_systems.items():
        rep = verify_inversion(system, 8)
        reference = _two_sided_inversion(system, _count_tables(system, 8))
        assert rep.ok and not reference, name
        assert rep.failures == tuple(f for f in reference if f[1] == "mu*G"), name


@pytest.mark.parametrize("name, m, origin, target", [
    ("aztec", 1, "0", "1"),
    ("aztec", 3, "3p", "3p"),
    ("two_terminal", 5, "0", "11"),
    ("phil3", 2, None, None),
])
def test_verify_inversion_fails_on_a_wrong_count(reference_systems, name, m, origin, target):
    system = reference_systems[name]
    origin = origin or system.states[-1]
    target = target or system.states[0]
    tables = _count_tables(system, 6)
    tables[system.state_index(origin)][m][system.state_index(target)] += 1
    rep = spectral.verify_inversion(Analysis.of(system).mobius, tables, 6)
    assert not rep.ok
    # mu_0 = I: the extra count shows first in row ``origin`` at length m
    assert rep.failures[0] == (m, "mu*G", origin, target, 1)
    reference = _two_sided_inversion(system, tables)
    assert reference and reference[0] == rep.failures[0]
    assert rep.failures == tuple(f for f in reference if f[1] == "mu*G")


# ------------------------------------------------------------ spectral radii

def test_spectral_radius_e1(e1):
    rho = graph_radius(build_adsc(build_dsc(e1)).succ)
    assert abs(rho - 2.0) < 1e-6


def test_spectral_radius_acyclic():
    assert graph_radius(((1,), (2,), ())) == 0.0
    assert graph_radius(()) == 0.0


def test_spectral_radius_matches_root(irreducible_fixtures):
    for name, system in irreducible_fixtures.items():
        root = characteristic_root(system)
        rho = graph_radius(build_adsc(build_dsc(system)).succ)
        assert abs(1 / rho - root.approx) < 1e-6, name


def test_positive_part_same_radius(irreducible_fixtures):
    for name, system in irreducible_fixtures.items():
        adsc = build_adsc(build_dsc(system))
        rho_all = graph_radius(adsc.succ)
        rho_pos = graph_radius(positive_subgraph(adsc).succ)
        assert abs(rho_all - rho_pos) < 1e-6, name


def _positive_radii(system):
    """Radii of the positive adsc components, in condensation order."""
    a = Analysis(system)
    return [a.adsc_radii[ci] for ci in a.adsc.positive_components()[0]]


def test_component_radii_e1(e1):
    radii = _positive_radii(e1)
    assert basic_flags(radii) == (True,)
    assert abs(spectral.max_radius(radii) - 2.0) < 1e-6


def test_component_radii_terminal_equals_basic(aztec, twelve):
    for system in (aztec, twelve):
        terminal = positive_subgraph(build_adsc(build_dsc(system))).condensation().terminal
        assert basic_flags(_positive_radii(system)) == terminal


def test_basic_flags_ambiguity_surfaces(e1, monkeypatch):
    radii = Analysis(e1).adsc_radii
    # an artificial band wide enough to catch the null component's radius
    monkeypatch.setattr(spectral, "BASIC_RTOL", 1e-12)
    monkeypatch.setattr(spectral, "AMBIGUOUS_RTOL", 1.0)
    with pytest.raises(AmbiguousBasic):
        basic_flags(radii)


def _two_product_power_radius(succ):
    """The power iteration as first written: two products (F + Id)x per
    step, one for the next iterate and one for the Rayleigh quotient."""
    n = len(succ)
    f = np.zeros((n, n))
    for v, out in enumerate(succ):
        for w in out:
            f[v, w] = 1.0
    x = np.ones(n) / np.sqrt(n)
    lam_prev = None
    for _ in range(spectral.POWER_MAX_ITER):
        y = x + f @ x
        x = y / np.linalg.norm(y)
        lam = float(x @ (x + f @ x))
        if lam_prev is not None and abs(lam - lam_prev) <= spectral.POWER_TOL:
            return lam - 1.0
        lam_prev = lam
    raise NonConvergence("reference power iteration did not converge")


def _cyclic_components(succ):
    """The subgraph induced on each SCC with a cycle, renumbered from 0."""
    for comp in tarjan_sccs(succ):
        if len(comp) == 1 and comp[0] not in succ[comp[0]]:
            continue
        remap = {v: i for i, v in enumerate(comp)}
        yield tuple(tuple(remap[w] for w in succ[v] if w in remap) for v in comp)


def test_power_radius_bit_equal_to_two_product_loop(reference_systems):
    checked = 0
    for name, system in reference_systems.items():
        dsc = build_dsc(system)
        for graph in (dsc, build_adsc(dsc)):
            for sub in _cyclic_components(graph.succ):
                assert spectral._power_radius(sub) == _two_product_power_radius(sub), name
                checked += 1
    assert checked >= 2 * len(reference_systems)


@st.composite
def strongly_connected_digraphs(draw):
    """A random Hamiltonian cycle (a self-loop when n = 1) plus random arcs."""
    n = draw(st.integers(1, 24))
    order = draw(st.permutations(range(n)))
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    node = st.integers(0, n - 1)
    arcs |= set(draw(st.lists(st.tuples(node, node), max_size=3 * n)))
    return tuple(tuple(sorted(w for u, w in arcs if u == v)) for v in range(n))


@settings(max_examples=150, deadline=None)
@given(strongly_connected_digraphs())
def test_power_radius_bit_equal_on_random_strong_digraphs(succ):
    assert spectral._power_radius(succ) == _two_product_power_radius(succ)


def test_power_radius_one_step_does_not_converge(monkeypatch):
    monkeypatch.setattr(spectral, "POWER_MAX_ITER", 1)
    with pytest.raises(NonConvergence):
        spectral._power_radius(((1,), (0,)))


# ------------------------------------------------------------ spectral property

def test_spectral_property_e1(e1):
    rep = spectral_property_report(e1)
    assert rep.holds and rep.witness is None
    by_letter = {e.letter: e for e in rep.letters}
    assert by_letter["c"].root.exact and by_letter["c"].root.lo == 1
    for e in rep.letters:
        assert e.comparison > 0
        if e.root is not None and not (e.root.exact and rep.root.exact):
            assert e.root.lo >= rep.root.hi  # disjoint isolating intervals


def test_spectral_property_aztec(aztec):
    rep = spectral_property_report(aztec)
    assert rep.holds
    for e in rep.letters:
        assert e.comparison > 0


def test_spectral_property_reducible_canonical():
    system = ConcurrentSystem.canonical(TraceMonoid("ab", [("a", "b")]))
    rep = spectral_property_report(system)
    assert not rep.holds
    assert rep.witness in ("a", "b")
    assert not system.classify().irreducible


def test_restricted_roots_monotone(irreducible_fixtures):
    for system in irreducible_fixtures.values():
        rep = spectral_property_report(system)
        for e in rep.letters:
            assert e.infinite or e.comparison >= 0


def test_infinite_restricted_root():
    # removing the only letter leaves no executions: infinite radius
    system = ConcurrentSystem(
        TraceMonoid("ab", []), ["s"], {("s", "a"): "s"}
    )
    rep = spectral_property_report(system)
    by_letter = {e.letter: e for e in rep.letters}
    assert by_letter["a"].infinite
    assert by_letter["a"].comparison > 0


def test_root_interval_within_unit(irreducible_fixtures):
    for system in irreducible_fixtures.values():
        root = characteristic_root(system)
        assert 0 < root.lo and root.hi <= 1


def test_theta_midpoint_sanity_bound(canonical_abc, aztec):
    for system in (canonical_abc, aztec):
        root = characteristic_root(system)
        if root.exact:
            assert poly.evaluate(root.theta, root.midpoint) == 0
            continue
        mid = root.midpoint
        val = abs(poly.evaluate(root.theta, mid))
        slope = abs(poly.evaluate(poly.derivative(root.theta), mid))
        assert val <= slope * root.width


def test_mobius_matrix_degree_bound(aztec):
    pm = mobius_matrix(aztec)
    max_clique = max(c.size for c in aztec.monoid.cliques())
    for row in pm.entries:
        for entry in row:
            assert poly.degree(entry) <= max_clique
