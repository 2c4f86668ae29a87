"""Dense univariate polynomials with exact coefficients.

Polynomials are tuples of coefficients in ascending order of degree,
normalized so the last entry is non-zero; the zero polynomial is ``()``.
Coefficients are integers: division is exact (square-free parts) or
replaced by pseudo-remainders (Sturm chains, gcd), and the sign at a
rational point is decided by exact integer evaluation.  Everything here
is exact; no floats.
"""

from __future__ import annotations

from math import gcd as int_gcd

Poly = tuple  # tuple of int coefficients, ascending

ZERO: Poly = ()
ONE: Poly = (1,)


def normalize(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(p: Poly) -> int:
    """Degree, with the convention deg(0) = -1."""
    return len(p) - 1


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def evaluate(p: Poly, x):
    """Horner evaluation; exact for int/Fraction arguments."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return normalize(i * c for i, c in enumerate(p) if i > 0)


def div_exact(p: Poly, q: Poly) -> Poly:
    """Exact division in Z[z]; raises if q does not divide p over the integers.

    Long division from the top coefficient: each quotient coefficient is an
    integer ``divmod`` by the leading coefficient of q.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead, dq = q[-1], len(q) - 1
    rem = list(p)
    quo = [0] * max(len(p) - dq, 0)
    for shift in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[shift + dq], lead)
        if r:
            raise ArithmeticError("quotient is not an integer polynomial")
        if c:
            quo[shift] = c
            for i, b in enumerate(q):
                rem[shift + i] -= c * b
    if any(rem[:dq]):
        raise ArithmeticError("inexact polynomial division")
    return normalize(quo)


def content(p: Poly) -> int:
    g = 0
    for c in p:
        g = int_gcd(g, abs(int(c)))
    return g


def _divide_content(p: Poly) -> Poly:
    """p over its (positive) content; every sign is kept."""
    g = content(p)
    return tuple(c // g for c in p) if g > 1 else p


def primitive(p: Poly) -> Poly:
    """Divide out the integer content and make the leading coefficient positive."""
    if not p:
        return ZERO
    out = _divide_content(p)
    if out[-1] < 0:
        out = neg(out)
    return out


def pseudo_rem(p: Poly, q: Poly) -> Poly:
    """|lc(q)|^δ · (p mod q) with δ = deg p − deg q + 1, over the integers.

    The factor is positive, so the result has the signs of the rational
    remainder at every point.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead, dq = q[-1], len(q) - 1
    scale_by, sign = abs(lead), (1 if lead > 0 else -1)
    rem = list(p)
    for top in range(len(rem) - 1, dq - 1, -1):
        c = sign * rem[top]
        rem = [scale_by * x for x in rem[:top]]
        if c:
            for i, b in enumerate(q[:-1]):
                rem[top - dq + i] -= c * b
    return normalize(rem)


def gcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd in Z[z], leading coefficient positive; gcd(0, q) = primitive(q)."""
    a, b = p, q
    while b:
        a, b = b, _divide_content(pseudo_rem(a, b))
    return primitive(a)


def square_free_part(p: Poly) -> Poly:
    """p with all root multiplicities reduced to one.

    Normalized so that the value at 0 is positive when it is non-zero,
    otherwise so that the leading coefficient is positive.
    """
    if degree(p) <= 0:
        return primitive(p) if p else ZERO
    g = gcd(p, derivative(p))
    sf = div_exact(primitive(p), g) if degree(g) >= 1 else primitive(p)
    if sf[0] < 0 or (sf[0] == 0 and sf[-1] < 0):
        sf = neg(sf)
    return sf


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of a square-free integer polynomial.

    Each member is a positive integer multiple of the classical rational
    member (negated pseudo-remainders with the content divided out), so
    every sign sequence, and hence every root count, is the classical one.
    """
    chain = [tuple(p)]
    d = derivative(p)
    if d:
        chain.append(_divide_content(d))
        while True:
            r = pseudo_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(neg(_divide_content(r)))
    return chain


def sign_at(p: Poly, x) -> int:
    """Sign of p at the rational x = n/d, by integer Horner on Σ cᵢ nⁱ d^(deg−i).

    That sum is d^deg · p(x) with d > 0, so it has the sign of p(x).
    """
    n, d = x.numerator, x.denominator
    acc, dpow = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def sign_variations(chain: list[Poly], x) -> int:
    signs = [s for s in (sign_at(q, x) for q in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(chain: list[Poly], a, b) -> int:
    """Number of distinct real roots in the half-open interval (a, b].

    Requires the chain of a square-free polynomial and a < b.  With the
    zeros-skipped variation count, a root at b is counted and a root at a
    is not.
    """
    return sign_variations(chain, a) - sign_variations(chain, b)

