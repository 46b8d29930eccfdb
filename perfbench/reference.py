"""Independent reference values for the benchmark's series operations.

Uses mpmath only, never regsum. The series

    sum_n (+-1)^{n+1} log^k(n) trig(2 pi n x) / n^s

is the real (cos) or imaginary (sin) part of (-d/ds)^k Li_s(e^{2 pi i x});
an alternating series is minus the plain one at x + 1/2. Li_s on the unit
circle comes from Hurwitz's formula

    Li_s(e^{2 pi i x}) = Gamma(1-s) (2 pi)^{s-1}
        [e^{i pi (1-s)/2} zeta(1-s, x) + e^{-i pi (1-s)/2} zeta(1-s, 1-x)],

differentiated in s term by term with mp.zeta(..., derivative=m), mp.psi
and the product rule. At s = 0 the two zeta poles cancel and the Laurent
coefficients (digamma, generalized Stieltjes gamma_1) take their place; at
a positive integer s, where Gamma(1-s) has a pole, mp.polylog is used.

Each value is computed at the program's working precision plus 40 digits
and confirmed at plus 80; a disagreement is a benchmark bug.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

GUARD_DIGITS = 15          # regsum's working precision is digits + 15
EXTRA_DIGITS = (40, 80)    # reference precision, confirmation precision
WEIGHT_ORDER = {"unit": 0, "log": 1, "log2": 2}


class ReferenceMismatch(RuntimeError):
    """The two reference precisions disagree."""


def to_mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def _mul(a: list, b: list) -> list:
    """Product of two truncated Taylor series of equal length."""
    return [sum(a[j] * b[m - j] for j in range(m + 1)) for m in range(len(a))]


def _li_taylor(x: mpf, s: Fraction, k: int, want_imag: bool) -> list:
    """Taylor coefficients c_0..c_k of Li_{s+t}(e^{2 pi i x}) in t."""
    sm = to_mpf(s)
    L1 = mp.log(2 * mp.pi) - mp.psi(0, 1 - sm)
    L2 = mp.psi(1, 1 - sm)
    g0 = mp.gamma(1 - sm) * (2 * mp.pi) ** (sm - 1)
    G = [g0, g0 * L1, g0 * (L1 * L1 + L2) / 2][:k + 1]
    H = [mpf(0)] * (k + 1)
    for sigma, a in ((1, x), (-1, 1 - x)):
        e = mp.expjpi(sigma * (1 - sm) / 2)
        E = [e * (-sigma * mp.j * mp.pi / 2) ** m / factorial(m)
             for m in range(k + 1)]
        if s == 0:
            # zeta(1-t, a) = -1/t + gamma_0(a) + gamma_1(a) t + ...; the
            # -1/t parts of both terms sum to the pole term added below.
            # gamma_1 enters only the imaginary part, as i(g1(x) - g1(1-x)).
            if k > 1:
                raise NotImplementedError("log^2 weight at s = 0")
            R = [-mp.psi(0, a)]
            if k == 1:
                R.append(mp.stieltjes(1, a) if want_imag else mpf(0))
        else:
            R = [(-1) ** m * mp.zeta(1 - sm, a, m) / factorial(m)
                 for m in range(k + 1)]
        H = [h + p for h, p in zip(H, _mul(E, R))]
    if s == 0:
        H[0] -= mp.pi  # -2 sin(pi t / 2) / t = -pi + O(t^2)
    return _mul(G, H)


def _li(x: mpf, s: Fraction, k: int, want_imag: bool):
    """(-d/ds)^k Li_s(e^{2 pi i x}) at the current precision, 0 < x < 1."""
    if s.denominator == 1 and s > 0:
        if k:
            raise NotImplementedError("log weights at positive integer s")
        return mp.polylog(int(s), mp.expjpi(2 * x))
    c = _li_taylor(x, s, k, want_imag)
    return (-1) ** k * factorial(k) * c[k]


def series_value(kernel: str, alternating: bool, weight: str, x: Fraction,
                 s: Fraction, dps: int) -> mpf:
    """The series at dps working digits (no confirmation)."""
    if not 0 < x < 1 or (alternating and x == Fraction(1, 2)):
        raise ValueError("x must lie in (0, 1), and not at 1/2 if alternating")
    with mp.workdps(dps):
        sign = 1
        if alternating:
            # (-1)^{n+1} trig(2 pi n x) = -trig(2 pi n (x + 1/2))
            x = (x + Fraction(1, 2)) % 1
            sign = -1
        want_imag = kernel == "sin"
        li = _li(to_mpf(x), s, WEIGHT_ORDER[weight], want_imag)
        part = li.imag if want_imag else li.real
        return +(sign * part)


def reference(op) -> mpf:
    """Reference for a SeriesOp, confirmed at a second precision."""
    dps = op.digits + GUARD_DIGITS
    lo, hi = (series_value(op.kernel, op.alternating, op.weight, op.x, op.s,
                           dps + extra) for extra in EXTRA_DIGITS)
    with mp.workdps(dps + EXTRA_DIGITS[1]):
        if abs(lo - hi) > mpf(10) ** -(dps + 30) * max(1, abs(hi)):
            raise ReferenceMismatch(
                f"{op}: reference at {dps + EXTRA_DIGITS[0]} and "
                f"{dps + EXTRA_DIGITS[1]} digits differs by "
                f"{mp.nstr(abs(lo - hi), 3)}")
    return lo
