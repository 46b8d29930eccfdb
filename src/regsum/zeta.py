"""Riemann/Hurwitz zeta values and s-derivatives, Dirichlet eta, and
generalized Stieltjes constants.

The workhorse is the Euler-Maclaurin formula

    zeta(s, a) = sum_{n<N} (n+a)^-s  +  (N+a)^{1-s}/(s-1)  +  (N+a)^-s / 2
               + sum_{j=1..M} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1} + R

valid for all real s != 1 once M is large enough. Every term is elementary
in s, so s-derivatives (up to second order) are obtained by differentiating
termwise in closed form -- never by finite differences. The same formula
expanded analytically about s = 1 yields the Laurent coefficients of
zeta(s, a), i.e. the generalized Stieltjes constants; the 1/(s-1) pole
separates exactly. Near s = 1 all evaluations switch to that expansion;
every other s uses the formula (zeta(s) at s < 0 after the functional
equation), with no direct Dirichlet sum.

The corrections cost O(M): (s)_{2j-1} and its s-derivatives advance by two
linear factors per j, and B_{2j}/(2j)! is cached as an mpf. For each M the
smallest N that pushes the first omitted correction, bounded through
|B_{2j}|/(2j)! ~ 2/(2pi)^{2j}, below the working tolerance follows in
closed form; the (N, M) of least cost wins. The omitted term itself is
returned as a conservative error bound where callers need one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .bernoulli import BERNOULLI_INDEX_CAP, bernoulli_number, harmonic_number
from .config import DEFAULT_CONFIG, EvalConfig, cache_put, workprec, xreal
from .errors import ConvergenceError, DomainError, PoleError

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


_BETA_CACHE: dict[tuple[int, int], mpf] = {}


def _beta(j: int) -> mpf:
    """B_{2j} / (2j)! at the current precision."""
    key = (j, mp.prec)
    v = _BETA_CACHE.get(key)
    if v is None:
        v = xreal(bernoulli_number(2 * j) / math.factorial(2 * j))
        cache_put(_BETA_CACHE, key, v)
    return v


def _em_zeta_derivs(s: mpf, a: mpf, kmax: int) -> list[mpf]:
    """[zeta(s,a), zeta'(s,a), ..., up to kmax] at the current precision.

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
        d = [mpf(0) for _ in range(kmax + 1)]
        for n in range(N):
            t = n + a
            L = mp.log(t)
            p = mp.exp(-s * L)
            d[0] += p
            if kmax >= 1:
                d[1] -= L * p
            if kmax >= 2:
                d[2] += L * L * p
        Z = N + a
        L = mp.log(Z)
        w = s - 1
        E = mp.exp((1 - s) * L)  # Z^{1-s}
        d[0] += E / w
        if kmax >= 1:
            d[1] -= E * (L / w + 1 / w**2)
        if kmax >= 2:
            d[2] += E * (L * L / w + 2 * L / w**2 + 2 / w**3)
        P = mp.exp(-s * L)  # Z^{-s}
        d[0] += P / 2
        if kmax >= 1:
            d[1] -= L * P / 2
        if kmax >= 2:
            d[2] += L * L * P / 2
        # p0 = (s)_{2j-1}, p1 = p0', p2 = p0''; each j multiplies in
        # (s+2j-1)(s+2j), differentiated by the product rule
        p0, p1, p2 = s, mpf(1), mpf(0)
        pw = P / Z  # Z^{-s-2j+1} at j=1
        zm2 = 1 / (Z * Z)
        for j in range(1, M + 1):
            b = _beta(j) * pw
            d[0] += b * p0
            if kmax >= 1:
                d[1] += b * (p1 - L * p0)
            if kmax >= 2:
                d[2] += b * (p2 - 2 * L * p1 + L * L * p0)
            for q in (s + (2 * j - 1), s + 2 * j):
                if kmax >= 2:
                    p2 = p2 * q + 2 * p1
                if kmax >= 1:
                    p1 = p1 * q + p0
                p0 = p0 * q
            pw *= zm2
    return [+v for v in d]


# --------------------------------------------------------------------------
# Laurent expansion about s = 1 (generalized Stieltjes machinery)
# --------------------------------------------------------------------------

# (a, dps, order) -> (coeffs list, error bound)
_LAURENT_CACHE: dict[tuple, tuple[list[mpf], mpf]] = {}


def _laurent_wcoeffs(a: mpf, order: int) -> tuple[list[mpf], mpf]:
    """Coefficients c_0..c_order of zeta(1+w, a) - 1/w in powers of w.

    gamma_n(a) = (-1)^n n! c_n. Cached per (a, precision, order).
    """
    key = (a, mp.dps, order)
    hit = _LAURENT_CACHE.get(key)
    if hit is not None:
        return hit
    K = order
    digits = mp.dps
    N, M = _em_params(1.0, float(a), 0, digits + 8)
    c = [mpf(0) for _ in range(K + 1)]
    for n in range(N):
        t = n + a
        Ln = mp.log(t)
        p = 1 / t
        c[0] += p
        for k in range(1, K + 1):
            p *= -Ln / k
            c[k] += p
    Z = N + a
    L = mp.log(Z)
    # Z^{-w} = sum_i E[i] w^i, E[i] = (-L)^i / i!
    E = [mpf(1)]
    for i in range(1, K + 2):
        E.append(E[-1] * (-L) / i)
    # S(w) Z^{-w} holds the half term Z^{-1-w}/2 and the corrections
    # B_{2j}/(2j)! Z^{-2j} (1+w)(2+w)...(2j-1+w) Z^{-w}; the rising product
    # R advances by two linear factors per j, truncated at w^K
    S = [1 / (2 * Z)] + [mpf(0)] * K
    R = [mpf(1), mpf(1)][:K + 1]
    zm2 = 1 / (Z * Z)
    zpow = zm2
    for j in range(1, M + 1):
        b = _beta(j) * zpow
        for k, r in enumerate(R):
            S[k] += b * r
        for m in (2 * j, 2 * j + 1):  # R <- R (m + w)
            top = R[-1:] if len(R) <= K else []
            R = [m * R[0]] + [m * r + q for r, q in zip(R[1:], R)] + top
        zpow *= zm2
    # plus (Z^{-w} - 1)/w, the integral piece less the pole
    for k in range(K + 1):
        c[k] += E[k + 1] + mp.fsum(S[m] * E[k - m] for m in range(k + 1))
    # error bound from the first omitted correction term; the coefficients
    # of (1+w)...(2M+1+w) sum to its value at w = 1, (2M+2)!
    bound = (abs(_beta(M + 1)) * mp.exp(-(2 * M + 2) * L)
             * mp.factorial(2 * M + 2) * 4)
    out = ([+v for v in c], +bound)
    cache_put(_LAURENT_CACHE, key, out)
    return out


def _laurent_order() -> int:
    return mp.dps + 16


def _hurwitz_near_one(k: int, s: mpf, a: mpf) -> mpf:
    """zeta^{(k)}(s, a) for 0 < |s-1| < 0.1 via the Laurent expansion."""
    w = s - 1
    c, _ = _laurent_wcoeffs(a, _laurent_order())
    # pole part: d^k/ds^k 1/(s-1) = (-1)^k k! / w^{k+1}
    val = (-1) ** k * mp.factorial(k) / w ** (k + 1)
    wpow = mpf(1)
    for n in range(k, len(c)):
        # d^k/ds^k w^n = n!/(n-k)! w^{n-k}
        val += c[n] * math.perm(n, k) * wpow
        wpow *= w
    return val


# --------------------------------------------------------------------------
# Constants and caches
# --------------------------------------------------------------------------

_CONST_CACHE: dict[tuple, mpf] = {}


def euler_gamma(cfg: EvalConfig | None = None) -> mpf:
    """Euler's constant, extracted from the Laurent machinery at a = 1."""
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        key = ("gamma", mp.dps)
        v = _CONST_CACHE.get(key)
        if v is None:
            c, _ = _laurent_wcoeffs(mpf(1), 2)
            v = +c[0]
            cache_put(_CONST_CACHE, key, v)
        return v


def log_two_pi() -> mpf:
    key = ("log2pi", mp.dps)
    v = _CONST_CACHE.get(key)
    if v is None:
        v = mp.log(2 * mp.pi)
        cache_put(_CONST_CACHE, key, v)
    return v


_RZ_CACHE: dict[tuple, mpf] = {}


def _rz(s: mpf) -> mpf:
    """Riemann zeta at the current working precision (s != 1).

    The Laurent expansion inside |s-1| < 0.1, Euler's formula at positive
    even integers, Euler-Maclaurin at every other s > 0, Bernoulli numbers
    at integers s <= 0 and the functional equation at other s < 0.
    """
    key = (s, mp.dps)
    hit = _RZ_CACHE.get(key)
    if hit is not None:
        return hit
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
    elif s == int(s):
        m = -int(s)
        if m == 0:
            v = mpf(-1) / 2
        else:
            v = -xreal(bernoulli_number(m + 1)) / (m + 1)
    else:
        # functional equation: zeta(s) = 2^s pi^{s-1} sin(pi s/2) Gamma(1-s) zeta(1-s)
        v = (mp.power(2, s) * mp.power(mp.pi, s - 1) * mp.sin(mp.pi * s / 2)
             * mp.gamma(1 - s) * _rz(1 - s))
    v = +v
    cache_put(_RZ_CACHE, key, v)
    return v


def riemann_zeta(s, cfg: EvalConfig | None = None) -> mpf:
    """zeta(s) for real s != 1.

    Euler-Maclaurin for s > 0 (no direct Dirichlet sum, so the cost stays
    polynomial in the digit count at any s), Bernoulli/functional-equation
    routes for s <= 0, the Laurent expansion inside |s-1| < 0.1, Euler's
    even-integer formula for positive even s.
    """
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        s = xreal(s)
        if s == 1:
            raise PoleError("zeta pole at s = 1")
        return _rz(s)


def eta(s, cfg: EvalConfig | None = None) -> mpf:
    """Dirichlet eta (1 - 2^{1-s}) zeta(s); entire, eta(1) = log 2."""
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        s = xreal(s)
        w = s - 1
        if abs(w) < mpf("0.1"):
            # (1 - 2^{-w}) has a simple zero cancelling the zeta pole:
            # multiply the two expansions.
            K = _laurent_order()
            c, _ = _laurent_wcoeffs(mpf(1), K)
            ln2 = mp.log(2)
            # A_k = coefficient of w^k in 1 - 2^{-w} (A_0 = 0)
            A = [mpf(0)]
            t = mpf(1)
            for k in range(1, K + 2):
                t *= -ln2 / k
                A.append(-t)
            # eta = A(w)/w + A(w) * sum c_n w^n, truncated at w^K
            val = mpf(0)
            wpow = mpf(1)
            for k in range(K + 1):
                coef = A[k + 1]
                for m in range(1, k + 1):
                    coef += A[m] * c[k - m]
                val += coef * wpow
                wpow *= w
            return +val
        return +((1 - mp.power(2, 1 - s)) * _rz(s))


def hurwitz_zeta_deriv(k: int, s, a, cfg: EvalConfig | None = None) -> mpf:
    """d^k/ds^k zeta(s, a) for k in {0, 1, 2}, a > 0, s != 1.

    Termwise-differentiated Euler-Maclaurin; Laurent expansion inside
    |s-1| < 0.1.
    """
    if k not in (0, 1, 2):
        raise DomainError("derivative order must be 0, 1 or 2")
    cfg = cfg or DEFAULT_CONFIG
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
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        return -log_two_pi() / 2


_ZPN_CACHE: dict[tuple, mpf] = {}


def zeta_sderiv_at_negatives(j: int, cfg: EvalConfig | None = None) -> mpf:
    """zeta'(-j) for integer j >= 1.

    Even j = 2n:  zeta'(-2n) = (-1)^n (2n)!/(2 (2pi)^{2n}) zeta(2n+1).
    Odd j = 2k-1: from the reflection-derived substitution
        2k zeta'(1-2k) = [zeta'(2k)/zeta(2k) + H_{2k-1} - gamma - log 2pi] B_{2k}.
    """
    if j < 1:
        raise DomainError("zeta_sderiv_at_negatives requires j >= 1")
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        key = (j, mp.dps)
        hit = _ZPN_CACHE.get(key)
        if hit is not None:
            return hit
        if j % 2 == 0:
            n = j // 2
            v = ((-1) ** n * mpf(math.factorial(2 * n))
                 / (2 * (2 * mp.pi) ** (2 * n)) * _rz(xreal(2 * n + 1)))
        else:
            k = (j + 1) // 2
            s2k = xreal(2 * k)
            z, zp = _em_zeta_derivs(s2k, mpf(1), 1)
            h = xreal(harmonic_number(2 * k - 1))
            v = (xreal(bernoulli_number(2 * k)) / (2 * k)
                 * (zp / z + h - euler_gamma(cfg) - log_two_pi()))
        v = +v
        cache_put(_ZPN_CACHE, key, v)
        return v


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
    cfg = cfg or DEFAULT_CONFIG
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
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        x = xreal(x)
        if x <= 0:
            raise DomainError("stieltjes_gamma1 requires x > 0")
        c, _ = _laurent_wcoeffs(x, 2)
        return +(-c[1])


def _solve_linear(A: list[list[mpf]], b: list[mpf]) -> list[mpf]:
    """Gaussian elimination with partial pivoting (small systems)."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[piv][col] == 0:
            raise ConvergenceError("singular system in oracle fit")
        M[col], M[piv] = M[piv], M[col]
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            for cc in range(col, n + 1):
                M[r][cc] -= f * M[col][cc]
    x = [mpf(0)] * n
    for r in range(n - 1, -1, -1):
        acc = M[r][n]
        for cc in range(r + 1, n):
            acc -= M[r][cc] * x[cc]
        x[r] = acc / M[r][r]
    return x


def stieltjes_gamma1_limit(x, cfg: EvalConfig | None = None,
                           n0: int = 320, levels: int = 7) -> mpf:
    """gamma_1(x) from the limit formula, reference/oracle route.

    gamma_1(x) = lim_N [ sum_{k=0}^{N} log(k+x)/(k+x) - log^2(N+x)/2 ].
    Partial values at N = n0 * 2^i are fitted against the exact tail basis
    {1, log Z/Z, log Z/Z^2, 1/Z^2, log Z/Z^4, 1/Z^4, log Z/Z^6, 1/Z^6}
    (Z = N+x), which is the asymptotic form the summation-by-parts
    corrections actually take; the constant term is the limit.
    """
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        x = xreal(x)
        if x <= 0:
            raise DomainError("stieltjes_gamma1_limit requires x > 0")
        checkpoints = [n0 * 2 ** i for i in range(levels + 1)]
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

        rows = [basis(Z) for Z, _ in samples]
        vals = [v for _, v in samples]
        return +_solve_linear(rows, vals)[0]


def phi_ramanujan(x, cfg: EvalConfig | None = None) -> mpf:
    """phi(x) = sum_{n>=1} [log n / n - log(n+x)/(n+x)] for x > -1.

    Direct head plus Euler-Maclaurin tail: the two integrals cancel up to
    log^2 terms and f^{(k)}(t) = (a_k + b_k log t)/t^{k+1} with exact
    integer a_k, b_k.
    """
    cfg = cfg or DEFAULT_CONFIG
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
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        t = xreal(t)
        if t <= 0:
            raise DomainError("stieltjes_integral requires t > 0")
        sign = mpf((-1) ** (n + 1)) / (n + 1)
        d_t = hurwitz_zeta_deriv(n + 1, 0, t, cfg)
        d_1 = hurwitz_zeta_deriv(n + 1, 0, 1, cfg)
        return +(sign * (d_t - d_1))
