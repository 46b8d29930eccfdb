"""Shared test helpers: independent oracles and frozen reference constants.

Everything here stays independent of the library code paths it is used to
check: the Bernoulli oracle is a different algorithm (Akiyama-Tanigawa),
quadrature is a self-contained Romberg tableau, the series references are
mpmath's Hurwitz zeta and Clausen functions and the printed eta-tail form
(which the library's closed forms no longer use), and the constants are
well-known published decimal expansions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mpmath import mp, mpf

from regsum import eta
from regsum.config import tolerance, working_dps

# Published decimal expansions (90 digits).  Kept as strings: mpf parsing
# happens at the caller's working precision, never at import time.
CATALAN_STR = ("0.91596559417721901505460351493238411077414937428167"
               "2134266498119621763019776254769479356513")
EULER_GAMMA_STR = ("0.57721566490153286060651209008240243104215933593992"
                   "3598805767234884867726777664670936947063")
GAMMA1_STR = ("-0.0728158454836767248605863758749013191377363383343"
              "379525990065597414014335715114848780869282")
ZETA3_STR = ("1.20205690315959428539973816151144999076498629234049"
             "888179227155534183820578631309018645587")


def catalan() -> mpf:
    return mpf(CATALAN_STR)


def euler_gamma_ref() -> mpf:
    return mpf(EULER_GAMMA_STR)


def gamma1_ref() -> mpf:
    return mpf(GAMMA1_STR)


def zeta3_ref() -> mpf:
    return mpf(ZETA3_STR)


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n via the Akiyama-Tanigawa triangle; independent oracle.

    The triangle produces the B1 = +1/2 convention; the sign is flipped to
    match the library's B1 = -1/2.
    """
    A = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def romberg(f, a, b, levels: int = 11) -> mpf:
    """Self-contained Romberg quadrature (trapezoid + h^2 Neville tableau)."""
    a, b = mpf(a), mpf(b)
    h = b - a
    rows = [[h * (f(a) + f(b)) / 2]]
    n = 1
    for i in range(1, levels + 1):
        h /= 2
        n *= 2
        s = mpf(0)
        for k in range(1, n, 2):
            s += f(a + k * h)
        row = [rows[-1][0] / 2 + h * s]
        f4 = mpf(1)
        for j in range(1, i + 1):
            f4 *= 4
            row.append(row[j - 1] + (row[j - 1] - rows[-1][j - 1]) / (f4 - 1))
        rows.append(row)
    return rows[-1][-1]


def central_diff(f, x, h):
    """First derivative by the centered two-point stencil."""
    return (f(x + h) - f(x - h)) / (2 * h)


def termwise_sum(term):
    """term(0) + term(1) + ... in mpf arithmetic at the working precision,
    until three terms in a row fall below tolerance()/100 in magnitude (the
    power-series kernel's stop rule). Returns (sum, terms_used)."""
    stop = tolerance() / 100
    acc, small, n = mpf(0), 0, 0
    while small < 3:
        t = term(n)
        acc += t
        small = small + 1 if abs(t) < stop else 0
        n += 1
    return acc, n


def seeded_uniforms(seed: int, n: int, lo: float, hi: float) -> list[mpf]:
    rng = random.Random(seed)
    return [mpf(lo) + (mpf(hi) - mpf(lo)) * mpf(rng.random()) for _ in range(n)]


def eta_tail(kernel: str, x, s, cfg) -> mpf:
    """The printed alternating closed form for 0 < x < 1/2 (no prefactor):

        sin: sum_n (-1)^n eta(s-2n-1) w^{2n+1}/(2n+1)!
        cos: sum_n (-1)^n eta(s-2n)   w^{2n}/(2n)!,      w = 2 pi x.

    Terms decay like (2x)^{2n}; summation stops after three consecutive
    terms below 10^-(dps-5).
    """
    w = 2 * mp.pi * x
    odd = 1 if kernel == "sin" else 0
    stop = mpf(10) ** -(mp.dps - 5)
    acc, small, n = mpf(0), 0, 0
    while small < 3:
        k = 2 * n + odd
        term = (-1) ** n * eta(s - k, cfg) * mp.power(w, k) / mp.factorial(k)
        acc += term
        small = small + 1 if abs(term) < stop else 0
        n += 1
    return acc


def hurwitz_series(kernel: str, x, s) -> mpf:
    """sum_n trig(2 n pi x)/n^s for non-integer s > 0 from mpmath's Hurwitz
    zeta, at the current precision:

        sin: (2 pi)^s / (4 Gamma(s) sin(pi s/2)) [zeta(1-s, x) - zeta(1-s, 1-x)]
        cos: (2 pi)^s / (4 Gamma(s) cos(pi s/2)) [zeta(1-s, x) + zeta(1-s, 1-x)]
    """
    a, b = mp.zeta(1 - s, x), mp.zeta(1 - s, 1 - x)
    if kernel == "sin":
        return mp.power(2 * mp.pi, s) * (a - b) / (4 * mp.gamma(s) * mp.sinpi(s / 2))
    return mp.power(2 * mp.pi, s) * (a + b) / (4 * mp.gamma(s) * mp.cospi(s / 2))


def clausen(kernel: str, x, s, cfg) -> mpf:
    """sum_n trig(2 n pi x)/n^s by mpmath's Clausen functions clsin/clcos,
    at 40 digits beyond cfg's working precision."""
    with mp.workdps(working_dps(cfg) + 40):
        return (mp.clsin if kernel == "sin" else mp.clcos)(s, 2 * mp.pi * x)


def sin_log_limit(x) -> mpf:
    """lim_{s->0} sum_n log n sin(2 n pi x)/n^s for 0 < x < 1, from mpmath's
    Stieltjes constants at the current precision, by Ramanujan's entry 17(v)
    (the relation the entry17v identity checks):

        (gamma_1(1-x) - gamma_1(x) - pi (gamma + log 2 pi) cot(pi x)) / (2 pi)
    """
    x = mpf(x)
    cot = mp.cospi(x) / mp.sinpi(x)
    return ((mp.stieltjes(1, 1 - x) - mp.stieltjes(1, x)
             - mp.pi * (mp.euler + mp.log(2 * mp.pi)) * cot) / (2 * mp.pi))


def _series_mul(a: list, b: list) -> list:
    """Product of two truncated Taylor series of equal length."""
    return [sum(a[j] * b[m - j] for j in range(m + 1)) for m in range(len(a))]


def _series_exp(a: list) -> list:
    """exp of a truncated Taylor series with a[0] = 0."""
    out = [mpf(1)]
    for n in range(1, len(a)):
        out.append(sum(j * a[j] * out[n - j] for j in range(1, n + 1)) / n)
    return out


def polylog_log_weight(x, s: int, k: int):
    """sum_n log^k(n) e^{2 pi i n x} / n^s = (-d/ds)^k Li_s(e^{2 pi i x}) for
    integer s >= 1 and 0 < x < 1, from mpmath's Hurwitz zeta derivatives at
    the current precision.

    Hurwitz's formula

        Li_{s+t}(e^{2 pi i x}) = Gamma(1-s-t) (2 pi)^{s+t-1}
            [e^{i pi (1-s-t)/2} zeta(1-s-t, x) + e^{-i pi (1-s-t)/2} zeta(1-s-t, 1-x)]

    is expanded in t with mp.zeta(1-s, a, m). Gamma(1-s-t) has a simple pole
    at t = 0 and the bracket a simple zero, so the bracket is carried to
    order k+1 and divided by t, and Gamma(1-s-t) (2 pi)^t is written as
    exp(t (gamma + log 2 pi) + sum_{m>=2} zeta(m) t^m/m) over
    -(-1)(-2)...(-(s-1)) (1 + t)(1 + t/2)...(1 + t/(s-1)).
    """
    x = mpf(x)
    n = k + 1
    H = [mpf(0)] * (n + 1)
    for sigma, a in ((1, x), (-1, 1 - x)):
        e = mp.expjpi(sigma * mpf(1 - s) / 2)
        E = [e * (-sigma * mp.j * mp.pi / 2) ** m / mp.factorial(m)
             for m in range(n + 1)]
        R = [(-1) ** m * mp.zeta(1 - s, a, m) / mp.factorial(m)
             for m in range(n + 1)]
        H = [h + p for h, p in zip(H, _series_mul(E, R))]
    bracket_over_t = H[1:]
    logs = [mpf(0), mp.euler + mp.log(2 * mp.pi)]
    logs += [mp.zeta(m) / m for m in range(2, n)]
    G = [-(2 * mp.pi) ** (s - 1) * c for c in _series_exp(logs[:n])]
    for j in range(1, s):
        G = _series_mul(G, [-mpf(1) / j * (-mpf(1) / j) ** m
                            for m in range(n)])
    c = _series_mul(G, bracket_over_t)
    return (-1) ** k * mp.factorial(k) * c[k]
