"""Riemann/Hurwitz zeta values and s-derivatives, Dirichlet eta, and
generalized Stieltjes constants.

The workhorse is the Euler-Maclaurin formula

    zeta(s, a) = sum_{n<N} (n+a)^-s  +  (N+a)^{1-s}/(s-1)  +  (N+a)^-s / 2
               + sum_{j=1..M} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1} + R

valid for all real s != 1 once M is large enough. Every term is elementary
in s, so one function, _em_taylor, expands the whole formula as a Taylor
series in t about s = s0 -- never by finite differences. Its coefficients
give the s-derivatives of any order at s0 != 1 and, at s0 = 1 with the
1/(s-1) pole separated exactly, the Laurent coefficients of zeta(s, a), i.e.
the generalized Stieltjes constants. Near s = 1 all evaluations switch to
that expansion; every other s uses the formula (zeta(s) at s < 0 after the
functional equation), with no direct Dirichlet sum.

The corrections cost O(M K): the rising product (s0+t)_{2j-1} gains one
quadratic factor per j, and B_{2j}/(2j)! is cached as an mpf. For each M the
smallest N that pushes the first omitted correction, bounded through
|B_{2j}|/(2j)! ~ 2/(2pi)^{2j}, below the working tolerance follows in
closed form; the (N, M) of least cost wins. The omitted term itself is
returned as a conservative error bound where callers need one.

B_{2j}/(2j)!, the Laurent coefficients, log 2pi, zeta(s) and zeta'(-j) are
each kept per (arguments, precision) by config.memo, the one cache rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from mpmath import mp, mpf

from .bernoulli import BERNOULLI_INDEX_CAP, bernoulli_number
from .config import EvalConfig, memo, tolerance, workprec, xreal
from .errors import (ConvergenceError, DomainError, PoleError,
                     PrecisionLossWarning)

_LN10 = math.log(10.0)
_LOG_2PI = math.log(2 * math.pi)

# Candidate correction counts, ~1.2x apart (the cost is flat near its
# minimum), up to the largest whose Laurent error bound, which reads
# B_{2M+2}, stays within BERNOULLI_INDEX_CAP.
_M_STEPS = (1, 2, 4, 6, 8, 10, 12, 14, 17, 20, 24, 29, 34, 41, 50, 59, 71,
            86, 103, 123, 148, 178, 213, BERNOULLI_INDEX_CAP // 2 - 1)

# --------------------------------------------------------------------------
# Euler-Maclaurin parameter selection and core evaluation
# --------------------------------------------------------------------------

def _em_params(sigma: float, a: float, kmax: int, digits: int) -> tuple[int, int]:
    """Pick (N, M) so the first omitted correction is below 10^-(digits+2).

    With Z = N + a and x = sigma + 2M + 1 > 2 that term is at most b, where
        log b = log 8 - (2M+2) log 2pi + sum_{i<=2M} log max(1, |sigma+i|)
                - x log Z + kmax log max(e, log Z).
    log b <= target solves for log Z in closed form up to the kmax term,
    whose fixed-point steps start above the root (log y <= y/e) and stay
    there. The least 3N + (kmax+1)M wins: a head term costs an exp and a
    log, a correction a few multiplications.
    """
    target = -(digits + 2) * _LN10
    lz_min = math.log(max(4.0, a + 4.0, abs(sigma) / 4.0))
    n_min = max(8, int(math.ceil(math.exp(lz_min) - a)) + 1)
    # lp = sum_{i<=2M} log max(1, |sigma+i|), termwise below i0, then lgamma
    i0 = max(0, math.ceil(1 - sigma))
    lp0, i, best = 0.0, 0, None
    for M in _M_STEPS:
        while i < min(2 * M + 1, i0):
            lp0 += math.log(max(1.0, abs(sigma + i)))
            i += 1
        x = sigma + 2 * M + 1
        if x <= 2:
            continue
        lp = lp0
        if x > sigma + i:
            lp += math.lgamma(x) - math.lgamma(sigma + i)
        rhs = math.log(8.0) - (2 * M + 2) * _LOG_2PI + lp - target
        lz = (rhs + kmax) / (x - kmax / math.e)
        if lz > 40:
            continue  # over 10^17 head terms
        for _ in range(3 if kmax else 0):
            lz = (rhs + kmax * math.log(max(math.e, lz))) / x
        N = max(n_min, int(math.ceil(math.exp(max(lz, lz_min)) - a)) + 1)
        cost = 3 * N + (kmax + 1) * M
        if best is None or cost < best[0]:
            best = (cost, N, M)
        if N == n_min or cost > best[0]:
            break  # the cost is convex in M: past its minimum
    if best is None:
        raise ConvergenceError("no Euler-Maclaurin parameters found")
    return best[1], best[2]


@memo
def _beta(j: int) -> mpf:
    """B_{2j} / (2j)! at the current precision."""
    return xreal(bernoulli_number(2 * j) / math.factorial(2 * j))


def _em_taylor(s0, a: mpf, K: int, N: int, M: int) -> list[mpf]:
    """Taylor coefficients c_0..c_K of zeta(s0 + t, a) in t at the current
    precision, less the pole 1/t when s0 = 1.

    s0 is an mpf or an int; an int keeps the rising-product factors exact.

    With Z = N + a the formula is the head
    sum_{n<N} (n+a)^{-s0} e^{-t log(n+a)}, then S(t) Z^{-t} with
    S(t) = Z^{-s0}/2 + sum_j B_{2j}/(2j)! (s0+t)_{2j-1} Z^{-s0-2j+1}, then
    the integral term Z^{1-s0-t}/(s0-1+t), which is (Z^{-t} - 1)/t at
    s0 = 1. Every series is truncated at t^K.
    """
    c = [mpf(0)] * (K + 1)
    for n in range(N):
        p = mp.power(n + a, -s0)
        c[0] += p
        if K:
            L = mp.log(n + a)
            for k in range(1, K + 1):
                p *= -L / k
                c[k] += p
    Z = N + a
    L = mp.log(Z)
    E = [mpf(1)]  # Z^{-t} = sum_i E[i] t^i
    for i in range(1, K + 2):
        E.append(E[-1] * -L / i)
    P = mp.exp(-s0 * L)  # Z^{-s0}
    S = [P / 2] + [mpf(0)] * K
    # R = (s0+t)_{2j-1} gains (m+t)(m+1+t), m = s0+2j-1, per j, updated in
    # place up to its current degree and truncated at t^K
    R = [mpf(s0), mpf(1)][:K + 1]
    pw = P / Z  # Z^{-s0-2j+1} at j = 1
    zm2 = 1 / (Z * Z)
    for j in range(1, M + 1):
        b = _beta(j) * pw
        for k, r in enumerate(R):
            S[k] += b * r
        m = s0 + (2 * j - 1)
        q0 = m * (m + 1)
        if K:
            q1 = 2 * m + 1
            R += [mpf(0)] * min(2, K + 1 - len(R))
            for k in range(len(R) - 1, 1, -1):
                R[k] = q0 * R[k] + q1 * R[k - 1] + R[k - 2]
            R[1] = q0 * R[1] + q1 * R[0]
        R[0] *= q0
        pw *= zm2
    if s0 == 1:
        f = E[1:]  # (Z^{-t} - 1)/t
    else:
        # f = Z^{1-s0} Z^{-t}/(w0 + t): w0 f_k + f_{k-1} = Z^{1-s0} E_k
        w0, zp = s0 - 1, P * Z
        f = [zp / w0]
        for k in range(1, K + 1):
            f.append((zp * E[k] - f[-1]) / w0)
    for k in range(K + 1):
        c[k] += f[k] + mp.fsum(S[i] * E[k - i] for i in range(k + 1))
    return c


def _em_zeta_derivs(s: mpf, a: mpf, kmax: int) -> list[mpf]:
    """[zeta(s,a), zeta'(s,a), ..., zeta^(kmax)(s,a)] at the current precision.

    Requires |s - 1| not tiny (the near-pole band is served by the Laurent
    route) and a > 0. For s < 0 the head terms grow to (N+a)^{-s} and
    cancel down to the result, so the sum carries that many more digits.
    """
    sigma, af = float(s), float(a)
    digits = mp.dps
    N, M = _em_params(sigma, af, kmax, digits)
    if sigma < 0:
        digits += int(math.ceil(-sigma * math.log10(N + af))) + 2
        N, M = _em_params(sigma, af, kmax, digits)
    with mp.workdps(digits):
        c = _em_taylor(s, a, kmax, N, M)
    return [+(math.factorial(k) * v) for k, v in enumerate(c)]


# --------------------------------------------------------------------------
# Laurent expansion about s = 1 (generalized Stieltjes machinery)
# --------------------------------------------------------------------------

@memo
def _laurent_wcoeffs(a: mpf, order: int) -> tuple[list[mpf], mpf]:
    """Coefficients c_0..c_order of zeta(1+w, a) - 1/w in powers of w, and
    an error bound; gamma_n(a) = (-1)^n n! c_n.
    """
    N, M = _em_params(1.0, float(a), 0, mp.dps + 8)
    c = _em_taylor(1, a, order, N, M)
    # error bound from the first omitted correction term; the coefficients
    # of (1+w)...(2M+1+w) sum to its value at w = 1, (2M+2)!
    bound = (abs(_beta(M + 1)) * mp.power(N + a, -(2 * M + 2))
             * mp.factorial(2 * M + 2) * 4)
    return [+v for v in c], +bound


def _hurwitz_near_one(k: int, s: mpf, a: mpf) -> mpf:
    """zeta^{(k)}(s, a) for 0 < |s-1| < 0.1 via the Laurent expansion."""
    w = s - 1
    c, _ = _laurent_wcoeffs(a, mp.dps + 16)  # |w|^n < 0.1^n: dps + 16 terms
    # pole part: d^k/ds^k 1/(s-1) = (-1)^k k! / w^{k+1}
    val = (-1) ** k * mp.factorial(k) / w ** (k + 1)
    wpow = mpf(1)
    for n in range(k, len(c)):
        # d^k/ds^k w^n = n!/(n-k)! w^{n-k}
        val += c[n] * math.perm(n, k) * wpow
        wpow *= w
    return val


# --------------------------------------------------------------------------
# Constants and zeta values
# --------------------------------------------------------------------------

def euler_gamma(cfg: EvalConfig | None = None) -> mpf:
    """Euler's constant, extracted from the Laurent machinery at a = 1."""
    with workprec(cfg):
        c, _ = _laurent_wcoeffs(mpf(1), 2)
        return +c[0]


@memo
def log_two_pi() -> mpf:
    return mp.log(2 * mp.pi)


@memo
def _rz(s: mpf) -> mpf:
    """Riemann zeta at the current working precision (s != 1).

    The Laurent expansion inside |s-1| < 0.1, Euler's formula at positive
    even integers up to BERNOULLI_INDEX_CAP, Euler-Maclaurin at every other
    s > 0, -1/2 at 0 and the functional equation at s < 0 but the zeros.
    """
    if abs(s - 1) < mpf("0.1"):
        v = _hurwitz_near_one(0, s, mpf(1))
    elif s > 0:
        if s == int(s) and int(s) % 2 == 0 and int(s) <= BERNOULLI_INDEX_CAP:
            k = int(s) // 2
            b = bernoulli_number(2 * k)
            v = ((-1) ** (k + 1) * xreal(b) * (2 * mp.pi) ** (2 * k)
                 / (2 * mp.factorial(2 * k)))
        else:
            v = _em_zeta_derivs(s, mpf(1), 0)[0]
    elif s == 0:
        v = mpf(-1) / 2
    elif s == int(s) and int(s) % 2 == 0:
        v = mpf(0)  # trivial zero
    else:
        # functional equation: zeta(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s) zeta(1-s)
        v = (mp.power(2, s) * mp.power(mp.pi, s - 1) * mp.sin(mp.pi * s / 2)
             * mp.gamma(1 - s) * _rz(1 - s))
    return +v


def riemann_zeta(s, cfg: EvalConfig | None = None) -> mpf:
    """zeta(s) for real s != 1.

    Euler-Maclaurin for s > 0 (no direct Dirichlet sum, so the cost stays
    polynomial in the digit count at any s), the functional equation for
    s < 0 but the trivial zeros, the Laurent expansion inside |s-1| < 0.1,
    Euler's formula for positive even s up to BERNOULLI_INDEX_CAP.
    """
    with workprec(cfg):
        s = xreal(s)
        if s == 1:
            raise PoleError("zeta pole at s = 1")
        return _rz(s)


def eta(s, cfg: EvalConfig | None = None) -> mpf:
    """Dirichlet eta (1 - 2^{1-s}) zeta(s); entire, eta(1) = log 2."""
    with workprec(cfg):
        s = xreal(s)
        if s == 1:
            return +mp.ln2
        # -expm1 keeps the simple zero of 1 - 2^{1-s} exact, so the product
        # with the zeta pole near s = 1 cancels nothing
        return +(-mp.expm1((1 - s) * mp.ln2) * _rz(s))


def hurwitz_zeta_deriv(k: int, s, a, cfg: EvalConfig | None = None) -> mpf:
    """d^k/ds^k zeta(s, a) for k in {0, 1, 2}, a > 0, s != 1.

    Taylor coefficients of Euler-Maclaurin; Laurent expansion inside
    |s-1| < 0.1.
    """
    if k not in (0, 1, 2):
        raise DomainError("derivative order must be 0, 1 or 2")
    with workprec(cfg):
        s = xreal(s)
        a = xreal(a)
        if a <= 0:
            raise DomainError("hurwitz zeta requires a > 0")
        if s == 1:
            raise PoleError("hurwitz zeta pole at s = 1")
        if abs(s - 1) < mpf("0.1"):
            return +_hurwitz_near_one(k, s, a)
        return +_em_zeta_derivs(s, a, k)[k]


def zeta_prime_at_zero(cfg: EvalConfig | None = None) -> mpf:
    """zeta'(0) = -log(2 pi)/2."""
    with workprec(cfg):
        return -log_two_pi() / 2


def zeta_sderiv_at_negatives(j: int, cfg: EvalConfig | None = None) -> mpf:
    """zeta'(-j) for integer j >= 1.

    Even j = 2n:  zeta'(-2n) = (-1)^n (2n)!/(2 (2pi)^{2n}) zeta(2n+1).
    Odd j = 2k-1: the functional equation differentiated at s = 2k,
        zeta'(1-2k) = (-1)^{k+1} 2 (2k-1)!/(2pi)^{2k}
                      * [zeta'(2k) + (psi(2k) - log 2pi) zeta(2k)],
    with zeta(2k) and zeta'(2k) from one Euler-Maclaurin pass.
    """
    if j < 1:
        raise DomainError("zeta_sderiv_at_negatives requires j >= 1")
    with workprec(cfg):
        return _zpn(j)


@memo
def _zpn(j: int) -> mpf:
    if j % 2 == 0:
        n = j // 2
        return +((-1) ** n * mpf(math.factorial(2 * n))
                 / (2 * (2 * mp.pi) ** (2 * n)) * _rz(xreal(2 * n + 1)))
    k = (j + 1) // 2
    z, zp = _em_zeta_derivs(xreal(2 * k), mpf(1), 1)
    return +((-1) ** (k + 1) * 2 * mp.factorial(2 * k - 1)
             / (2 * mp.pi) ** (2 * k)
             * (zp + z * (mp.digamma(2 * k) - log_two_pi())))


# --------------------------------------------------------------------------
# Stieltjes constants, phi, and the Stieltjes integral
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentCoeffs:
    """Leading Laurent data of zeta(s, a) about s = 1."""

    gamma0: mpf
    gamma1: mpf
    at_point: mpf
    error_estimates: tuple[mpf, mpf]


def laurent_coefficients(a, cfg: EvalConfig | None = None) -> LaurentCoeffs:
    """gamma_0(a) and gamma_1(a) with conservative error bounds."""
    with workprec(cfg):
        a = xreal(a)
        if a <= 0:
            raise DomainError("Laurent extraction requires a > 0")
        c, bound = _laurent_wcoeffs(a, 2)
        return LaurentCoeffs(gamma0=+c[0], gamma1=+(-c[1]), at_point=a,
                             error_estimates=(bound, bound))


def stieltjes_gamma1(x, cfg: EvalConfig | None = None) -> mpf:
    """First generalized Stieltjes constant gamma_1(x), engine route.

    -d/ds [zeta(s, x) - 1/(s-1)] at s = 1, read off the analytic Laurent
    structure of the Euler-Maclaurin formula.
    """
    with workprec(cfg):
        x = xreal(x)
        if x <= 0:
            raise DomainError("stieltjes_gamma1 requires x > 0")
        c, _ = _laurent_wcoeffs(x, 2)
        return +(-c[1])


# Checkpoints of the limit oracle: N = _LIMIT_N0 * 2^i, i = 0.._LIMIT_LEVELS.
_LIMIT_N0 = 320
_LIMIT_LEVELS = 7


def stieltjes_gamma1_limit(x, cfg: EvalConfig | None = None) -> mpf:
    """gamma_1(x) from the limit formula, reference/oracle route.

    gamma_1(x) = lim_N [ sum_{k=0}^{N} log(k+x)/(k+x) - log^2(N+x)/2 ].
    Partial values at N = _LIMIT_N0 * 2^i are fitted against the exact tail
    basis {1, log Z/Z, log Z/Z^2, 1/Z^2, log Z/Z^4, 1/Z^4, log Z/Z^6, 1/Z^6}
    (Z = N+x), which is the asymptotic form the summation-by-parts
    corrections actually take; the constant term is the limit.

    The checkpoints and the basis are fixed, so the accuracy is too: about
    1e-29. The fit without the first checkpoint and the last basis term
    estimates the error (~1e-25); PrecisionLossWarning is raised when that
    estimate exceeds tolerance(), i.e. above about 55 digits.
    """
    with workprec(cfg):
        x = xreal(x)
        if x <= 0:
            raise DomainError("stieltjes_gamma1_limit requires x > 0")
        checkpoints = [_LIMIT_N0 * 2 ** i for i in range(_LIMIT_LEVELS + 1)]
        acc = mpf(0)
        samples = []
        k = 0
        for N in checkpoints:
            while k <= N:
                acc += mp.log(k + x) / (k + x)
                k += 1
            Z = N + x
            samples.append((Z, acc - mp.log(Z) ** 2 / 2))

        def basis(Z):
            L = mp.log(Z)
            return [mpf(1), L / Z, L / Z**2, 1 / Z**2,
                    L / Z**4, 1 / Z**4, L / Z**6, 1 / Z**6]

        def fit(pts, terms):
            rows = mp.matrix([basis(Z)[:terms] for Z, _ in pts])
            vals = mp.matrix([v for _, v in pts])
            return mp.lu_solve(rows, vals)[0]

        value = fit(samples, len(samples))
        est = abs(value - fit(samples[1:], len(samples) - 1))
        tol = tolerance()
        if est > tol:
            warnings.warn(
                f"gamma1 limit-formula error estimate {mp.nstr(est, 3)} "
                f"exceeds the tolerance {mp.nstr(tol, 3)}",
                PrecisionLossWarning)
        return +value


def phi_ramanujan(x, cfg: EvalConfig | None = None) -> mpf:
    """phi(x) = sum_{n>=1} [log n / n - log(n+x)/(n+x)] for x > -1.

    Direct head plus Euler-Maclaurin tail: the two integrals cancel up to
    log^2 terms and f^{(k)}(t) = (a_k + b_k log t)/t^{k+1} with exact
    integer a_k, b_k.
    """
    with workprec(cfg):
        x = xreal(x)
        if x <= -1:
            raise DomainError("phi requires x > -1")
        if x == 0:
            return mpf(0)
        digits = mp.dps
        N = max(32, digits)
        M = max(10, digits // 2)
        acc = mpf(0)
        for n in range(1, N):
            acc += mp.log(n) / n - mp.log(n + x) / (n + x)
        acc += mp.log(N + x) ** 2 / 2 - mp.log(N) ** 2 / 2

        def fderivs(t):
            # f(t), f'(t), f''' ... odd orders up to 2M-1 for f = log t / t
            L = mp.log(t)
            out = []
            a_k, b_k = 0, 1
            tpow = t
            for k in range(2 * M):
                if k == 0 or k % 2 == 1:
                    out.append(((a_k + b_k * L) / tpow, k))
                a_k, b_k = b_k - (k + 1) * a_k, -(k + 1) * b_k
                tpow *= t
            return out

        fN = dict((k, v) for v, k in fderivs(xreal(N)))
        fNx = dict((k, v) for v, k in fderivs(N + x))
        acc += (fN[0] - fNx[0]) / 2
        for j in range(1, M + 1):
            acc -= _beta(j) * (fN[2 * j - 1] - fNx[2 * j - 1])
        return +acc


def stieltjes_integral(n: int, t, cfg: EvalConfig | None = None) -> mpf:
    """int_1^t gamma_n(x) dx = (-1)^{n+1}/(n+1) [zeta^{(n+1)}(0,t) - zeta^{(n+1)}(0)]."""
    if n not in (0, 1):
        raise DomainError("stieltjes_integral supports n in {0, 1}")
    with workprec(cfg):
        t = xreal(t)
        if t <= 0:
            raise DomainError("stieltjes_integral requires t > 0")
        sign = mpf((-1) ** (n + 1)) / (n + 1)
        d_t = hurwitz_zeta_deriv(n + 1, 0, t)
        d_1 = hurwitz_zeta_deriv(n + 1, 0, 1)
        return +(sign * (d_t - d_1))
