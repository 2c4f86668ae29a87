from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import mul

from tracesys import poly


def test_normalize_trims_trailing_zeros():
    assert poly.normalize([1, 2, 0, 0]) == (1, 2)
    assert poly.normalize([0, 0]) == ()
    assert poly.degree(()) == -1


def test_arithmetic():
    p = (1, -3, 2)  # (1-z)(1-2z)
    assert mul((1, -1), (1, -2)) == p
    assert poly.neg(p) == (-1, 3, -2)
    assert poly.evaluate(p, Fraction(1, 2)) == 0
    assert poly.evaluate(p, 0) == 1
    assert poly.derivative(p) == (-3, 4)


def test_div_exact():
    assert poly.div_exact((1, -3, 2), (1, -1)) == (1, -2)
    with pytest.raises(ArithmeticError):
        poly.div_exact((1, 1, 1), (1, 1))


def test_div_exact_rejects_non_integer_quotient_and_remainder():
    with pytest.raises(ArithmeticError, match="not an integer"):
        poly.div_exact((1, 2), (2,))  # quotient 1/2 + z
    with pytest.raises(ArithmeticError, match="inexact"):
        poly.div_exact((3, 5, 3), (2, 3))  # (2 + 3z)(1 + z) + 1
    with pytest.raises(ArithmeticError):
        poly.div_exact((1,), (1, 1))  # lower degree, non-zero
    with pytest.raises(ZeroDivisionError):
        poly.div_exact((1,), ())


def test_div_exact_non_unit_constant_term():
    divisor = (6, -4, 9)  # constant term and leading coefficient not ±1
    quotient = (-3, 0, 5, 7)
    assert poly.div_exact(mul(divisor, quotient), divisor) == quotient
    assert poly.div_exact(mul((-2, 3), (5,)), (-2, 3)) == (5,)
    assert poly.div_exact((), (3, 1)) == ()


def test_pseudo_rem_is_positive_multiple_of_remainder():
    p, q = (1, 2, 3, 4), (-1, 0, -3)  # negative leading coefficient
    # over Q, p mod q = (2/3) z; delta = 2 and |lc(q)|^2 = 9
    assert poly.pseudo_rem(p, q) == (0, 6)
    assert poly.pseudo_rem((1, 1), (1, 0, 1)) == (1, 1)  # lower degree: p itself
    assert poly.pseudo_rem(mul((2, 5), q), q) == ()


def test_sign_at():
    p = (1, -3, 2)  # roots 1/2 and 1
    assert poly.sign_at(p, 0) == 1
    assert poly.sign_at(p, Fraction(1, 2)) == 0
    assert poly.sign_at(p, Fraction(3, 4)) == -1
    assert poly.sign_at(p, 2) == 1
    assert poly.sign_at(p, Fraction(-7, 3)) == 1
    assert poly.sign_at((), Fraction(1, 3)) == 0
    assert poly.sign_at((-5,), Fraction(1, 3)) == -1


def test_gcd_and_square_free():
    p = mul((1, -1), (1, -1))  # (1-z)^2
    assert poly.gcd(p, poly.derivative(p)) in ((-1, 1), (1, -1))
    sf = poly.square_free_part(p)
    assert poly.evaluate(sf, 1) == 0
    assert poly.degree(sf) == 1
    assert poly.evaluate(sf, 0) > 0
    # already square-free stays itself up to sign normalization
    assert poly.square_free_part((1, -3, 1)) == (1, -3, 1)


def _product(factors):
    out = poly.ONE
    for f in factors:
        out = mul(out, f)
    return out


@pytest.mark.parametrize(
    "factors, want_gcd, want_sf",
    [
        # (1-z)^2 (1-2z)^3 (2+3z)
        (
            [(1, -1)] * 2 + [(1, -2)] * 3 + [(2, 3)],
            (-1, 5, -8, 4),
            (2, -3, -5, 6),
        ),
        # z^2 (1-3z+z^2)^2 (3-z): a root at 0, so the leading coefficient decides
        (
            [(0, 1)] * 2 + [(1, -3, 1)] * 2 + [(3, -1)],
            (0, 1, -3, 1),
            (0, -3, 10, -6, 1),
        ),
        # (6-4z)^2 (5-7z^2) (2z-1)^4: non-trivial content and non-monic factors
        (
            [(6, -4)] * 2 + [(5, 0, -7)] + [(-1, 2)] * 4,
            (3, -20, 48, -48, 16),
            (15, -40, -1, 56, -28),
        ),
    ],
)
def test_gcd_and_square_free_repeated_factors(factors, want_gcd, want_sf):
    p = _product(factors)
    assert poly.gcd(p, poly.derivative(p)) == want_gcd
    assert poly.square_free_part(p) == want_sf
    assert poly.gcd((), p) == poly.primitive(p)
    assert poly.gcd(p, ()) == poly.primitive(p)
    assert poly.gcd(p, (7,)) == (1,)


def test_sturm_counts():
    # roots of (1-2z)(1-3z) at 1/2 and 1/3
    p = mul((1, -2), (1, -3))
    chain = poly.sturm_chain(p)
    assert poly.count_roots(chain, 0, 1) == 2
    assert poly.count_roots(chain, Fraction(2, 5), 1) == 1
    # half-open convention: a root at the right end is counted
    assert poly.count_roots(chain, Fraction(1, 4), Fraction(1, 3)) == 1
    assert poly.count_roots(chain, Fraction(1, 3), Fraction(2, 5)) == 0


_ROOT = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@settings(max_examples=150, deadline=None)
@given(
    roots=st.lists(_ROOT, min_size=1, max_size=6, unique=True),
    data=st.data(),
)
def test_count_roots_matches_linear_factors(roots, data):
    # product of distinct (q z - p): square-free with roots exactly p/q
    p = _product([(-r.numerator, r.denominator) for r in roots])
    chain = poly.sturm_chain(p)
    endpoint = st.one_of(st.sampled_from(roots), _ROOT)
    a, b = data.draw(endpoint), data.draw(endpoint)
    if a == b:
        b = a + 1
    a, b = min(a, b), max(a, b)
    assert poly.count_roots(chain, a, b) == sum(1 for r in roots if a < r <= b)

