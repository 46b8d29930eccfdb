"""Exact Bernoulli numbers and polynomials.

Convention: B1 = -1/2 (the one for which zeta(-m) = -B_{m+1}/(m+1)
holds without sign fixes). Everything here is exact rational arithmetic
on ``fractions.Fraction``; no rounding ever happens in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import CapacityError

# Cost guard: B_n numerators grow super-exponentially and the recurrence is
# quadratic. Exact B_n is read by zeta._beta (B_512 at most), Euler's
# formula for zeta(2k <= 512) and the bernoulli_odd and adamchik_reflection
# identities.
BERNOULLI_INDEX_CAP = 512

_table: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """B_n as an exact rational, via the defining recurrence.

    sum_{k=0}^{n} C(n+1, k) B_k = 0, memoized and extended on demand.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n > BERNOULLI_INDEX_CAP:
        raise CapacityError(
            f"Bernoulli index {n} exceeds guard {BERNOULLI_INDEX_CAP}")
    while len(_table) <= n:
        m = len(_table)
        if m > 2 and m % 2 == 1:
            # Odd-index values vanish; skip the quadratic work.
            _table.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(m):
            bk = _table[k]
            if bk:
                acc += comb(m + 1, k) * bk
        _table.append(-acc / (m + 1))
    return _table[n]


def bernoulli_poly_coeffs(n: int) -> list[Fraction]:
    """Degree-ascending exact coefficients of B_n(x).

    B_n(x) = sum_{k=0}^{n} C(n, k) B_k x^{n-k}, so the coefficient of x^m
    is C(n, m) B_{n-m}.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n > BERNOULLI_INDEX_CAP:
        raise CapacityError(
            f"Bernoulli index {n} exceeds guard {BERNOULLI_INDEX_CAP}")
    return [comb(n, m) * bernoulli_number(n - m) for m in range(n + 1)]


def poly_eval(coeffs, x):
    """Horner evaluation of degree-ascending coefficients.

    Exact when both coefficients and x are rational; otherwise follows
    the arithmetic of x (e.g. mpf).
    """
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def harmonic_number(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n exactly; H_0 = 0."""
    if n < 0:
        raise ValueError("harmonic index must be non-negative")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
