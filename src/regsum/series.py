"""Regularized trigonometric series: sums over n of w(n) trig(2 n pi x)/n^s,
optionally with the alternating factor (-1)^{n+1}.

The alternating factor is a phase, (-1)^{n+1} trig(2 n pi x) =
-trig(2 n pi (x + 1/2)), so an alternating series is the plain one shifted
by half a period and every route below evaluates a plain series. Closed
forms evaluate the analytic continuation in the exponent s; the s -> 0
limits return the regularized values of the divergent cases; exact integer
exponents go through Bernoulli-Fourier / Hurwitz-derivative branches. Two
independent oracles (Abel summation with Richardson extrapolation, and
Cesaro-averaged direct partial sums) provide ground truth for every regime.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from mpmath import mp, mpf

from .bernoulli import bernoulli_poly_coeffs, poly_eval
from .config import DEFAULT_CONFIG, EvalConfig, tolerance, workprec, xreal
from .errors import (CapabilityError, ConvergenceError, DomainError,
                     PoleError, PrecisionLossWarning, RedirectError)
from .gammafn import digamma, gamma_fn
from .kernels import richardson_extrapolate, sum_entire, sum_oscillatory
from .zeta import (euler_gamma, log_two_pi, riemann_zeta, hurwitz_zeta_deriv,
                   zeta_sderiv_at_negatives)

KERNELS = ("sin", "cos")
WEIGHTS = ("unit", "log", "log2")  # log2 means (log n)^2

# Abel oracle: r = 1 - 2^-k for k = 4 .. 4 + ABEL_R_LEVELS, extrapolated to
# r -> 1 by a degree-RICHARDSON_ORDER polynomial in h = 1 - r.
ABEL_R_LEVELS = 12
RICHARDSON_ORDER = 6


@dataclass(frozen=True)
class SeriesSpec:
    """One trigonometric series: kernel, alternation, weight, x in (0,1), s >= 0."""

    kernel: str
    x: object
    s: object
    alternating: bool = False
    weight: str = "unit"

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise DomainError(f"kernel must be one of {KERNELS}")
        if self.weight not in WEIGHTS:
            raise DomainError(f"weight must be one of {WEIGHTS}")
        x = xreal(self.x)
        if not (0 < x < 1):
            raise DomainError("x must lie strictly inside (0, 1)")
        if xreal(self.s) < 0:
            raise DomainError("s must be >= 0")


@dataclass
class RegularizedValue:
    """A computed series value with method tag and effort diagnostics."""

    value: mpf
    method: str  # closed_form | abel | direct | integer_branch
    error_estimate: mpf
    terms_used: int = 0


def _weight_fn(weight: str):
    if weight == "unit":
        return lambda n: mpf(1)
    if weight == "log":
        return lambda n: mp.log(n)
    return lambda n: mp.log(n) ** 2


def _is_int(v: mpf) -> bool:
    return v == mp.floor(v)


def _mirror(kernel: str, x: mpf):
    """Reflect x > 1/2 to 1-x using the termwise parity of the kernel.

    sin(2 n pi (1-x)) = -sin(2 n pi x) and cos(2 n pi (1-x)) = cos(2 n pi x),
    so the reduction is exact for every series here; it keeps the power-series
    tails (ratio x^2) fast and inside the Bernoulli index guard.
    """
    if x > mpf(1) / 2:
        return 1 - x, (mpf(-1) if kernel == "sin" else mpf(1))
    return x, mpf(1)


def _half_shift(kernel: str, x: mpf):
    """(x', sign) with the alternating series at x equal to sign times the
    plain series at x', for x != 1/2.

    The plain series is negated at x + 1/2, which reduces to x - 1/2 by
    periodicity or, for x < 1/2, reflects to 1/2 - x with the kernel's
    mirror sign; 1/2 - x is formed directly so a small x loses no digits.
    """
    half = mpf(1) / 2
    if x > half:
        return x - half, mpf(-1)
    return half - x, (mpf(1) if kernel == "sin" else mpf(-1))


def _half_point_value(kernel: str, weight: str, s: mpf, cfg: EvalConfig) -> mpf:
    """The alternating series at x = 1/2, where the shift would land on 0.

    Every sine term vanishes; the cosine terms are -w(n)/n^s, continued to
    -zeta(s) for unit weight, zeta'(s) for log weight and -zeta''(s) for
    log^2 weight.
    """
    if kernel == "sin":
        return mpf(0)
    if s == 1:
        raise PoleError("alternating cos series at x = 1/2 diverges at s = 1")
    if weight == "unit":
        return -riemann_zeta(s, cfg)
    if weight == "log":
        return hurwitz_zeta_deriv(1, s, 1, cfg)
    return -hurwitz_zeta_deriv(2, s, 1, cfg)


# --------------------------------------------------------------------------
# Closed forms of the plain series
# --------------------------------------------------------------------------

def _plain_tail(kernel: str, x: mpf, s: mpf, cfg: EvalConfig):
    """sum_n (-1)^n zeta(s-2n-1) w^{2n+1}/(2n+1)!  (sin)
       sum_n (-1)^n zeta(s-2n)   w^{2n}/(2n)!      (cos),  w = 2 pi x."""
    w = 2 * mp.pi * x

    if kernel == "sin":
        def term(n):
            return ((-1) ** n * riemann_zeta(s - 2 * n - 1, cfg)
                    * mp.power(w, 2 * n + 1) / mp.factorial(2 * n + 1))
    else:
        def term(n):
            return ((-1) ** n * riemann_zeta(s - 2 * n, cfg)
                    * mp.power(w, 2 * n) / mp.factorial(2 * n))
    return sum_entire(term, cfg)


def _prefactor(kernel: str, x: mpf, s: mpf, cfg: EvalConfig) -> mpf:
    """pi w^{s-1} / (2 Gamma(s) trig(pi s/2)), w = 2 pi x."""
    trig = mp.sin if kernel == "sin" else mp.cos
    return (mp.pi * mp.power(2 * mp.pi * x, s - 1)
            / (2 * gamma_fn(s, cfg) * trig(mp.pi * s / 2)))


def _parity_distance(kernel: str, s: mpf):
    """Distance from s > 0 to the nearest integer where the prefactor is
    singular: even s for sin, odd s for cos."""
    p = 0 if kernel == "sin" else 1
    return abs(s - (2 * mp.nint((s - p) / 2) + p))


def _integer_branch(kernel: str, s: mpf):
    """The exact-integer route where the prefactor is singular (sin at even
    s, cos at odd s), else None."""
    if _parity_distance(kernel, s) != 0:
        return None
    return integer_sin_series if kernel == "sin" else integer_cos_series


def _plain_limit(kernel: str, weight: str, x: mpf, cfg: EvalConfig) -> RegularizedValue:
    """s -> 0 limits of the plain series for unit and log weights."""
    tol = tolerance(cfg)
    if kernel == "cos" and weight == "unit":
        # zeta(-2n) = 0 for n >= 1; only zeta(0) = -1/2 survives.
        return RegularizedValue(mpf(-1) / 2, "closed_form", +tol, 1)
    if kernel == "cos":
        g = euler_gamma(cfg)
        v = (digamma(x, cfg) + mp.pi / 2 * mp.cospi(x) / mp.sinpi(x)
             + g + log_two_pi()) / 2
        series = log_cos_limit_series(x, cfg)
        return RegularizedValue(+v, "closed_form",
                                +max(tol, abs(v - series)), 0)
    x, sign = _mirror(kernel, x)
    w = 2 * mp.pi * x
    if weight == "unit":
        # cot(pi x)/2 through the zeta(-odd) power series
        head = 1 / w

        def term(n):
            return ((-1) ** n * riemann_zeta(-2 * n - 1, cfg)
                    * mp.power(w, 2 * n + 1) / mp.factorial(2 * n + 1))
    else:
        head = -(euler_gamma(cfg) + mp.log(w)) / w

        def term(n):
            return ((-1) ** (n + 1) * zeta_sderiv_at_negatives(2 * n + 1, cfg)
                    * mp.power(w, 2 * n + 1) / mp.factorial(2 * n + 1))
    tail, n = sum_entire(term, cfg)
    return RegularizedValue(+(sign * (head + tail)), "closed_form", +tol, n)


def _plain_value(kernel: str, weight: str, x: mpf, s: mpf,
                 cfg: EvalConfig) -> RegularizedValue:
    """The plain series' one closed-form family: the s -> 0 limit, the
    integer branch where the prefactor is singular, else prefactor plus
    zeta tail at the mirrored x."""
    if s == 0:
        return _plain_limit(kernel, weight, x, cfg)
    branch = _integer_branch(kernel, s)
    if branch is not None:
        return branch(x, int(s), cfg)
    err = tolerance(cfg)
    dist = _parity_distance(kernel, s)
    if dist < mpf("1e-3"):
        warnings.warn(
            f"s within {mp.nstr(dist, 3)} of a singular parity; "
            f"~{int(-mp.log10(dist))} digits lost to prefactor cancellation",
            PrecisionLossWarning)
        err = err / dist
    x, sign = _mirror(kernel, x)
    tail, n = _plain_tail(kernel, x, s, cfg)
    value = sign * (_prefactor(kernel, x, s, cfg) + tail)
    return RegularizedValue(+value, "closed_form", +err, n)


def _closed_form(spec: SeriesSpec, cfg: EvalConfig) -> RegularizedValue:
    """Any spec the closed forms cover, alternating ones through the
    half-period shift. Runs inside the caller's working precision."""
    x = xreal(spec.x)
    s = xreal(spec.s)
    if not spec.alternating:
        return _plain_value(spec.kernel, spec.weight, x, s, cfg)
    if x == mpf(1) / 2:
        v = _half_point_value(spec.kernel, spec.weight, s, cfg)
        return RegularizedValue(+v, "closed_form", +tolerance(cfg), 0)
    xs, sign = _half_shift(spec.kernel, x)
    rv = _plain_value(spec.kernel, spec.weight, xs, s, cfg)
    return replace(rv, value=+(sign * rv.value))


def closed_form_series(spec: SeriesSpec, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Analytic-continuation closed form for unit weight, s > 0.

    Prefactor plus a zeta tail; an alternating series is the plain one
    shifted by half a period. Parity-singular exponents (sin at even s, cos
    at odd s) redirect to the integer branches, which alternating series
    reach through the shift; s = 0 redirects to regularized_limit.
    """
    cfg = cfg or DEFAULT_CONFIG
    if spec.weight != "unit":
        raise CapabilityError("closed_form_series handles unit weight only")
    with workprec(cfg):
        s = xreal(spec.s)
        if s <= 0:
            raise RedirectError("s = 0 is the regularized limit",
                                branch="regularized_limit")
        branch = None if spec.alternating else _integer_branch(spec.kernel, s)
        if branch is not None:
            raise RedirectError(
                f"{spec.kernel} prefactor singular at s = {int(s)}; "
                f"use {branch.__name__}", branch=branch.__name__)
        return _closed_form(spec, cfg)


# --------------------------------------------------------------------------
# s -> 0 regularized limits
# --------------------------------------------------------------------------

def log_cos_limit_series(x, cfg: EvalConfig | None = None) -> mpf:
    """Power-series route for lim_{s->0} sum log n cos(2 n pi x)/n^s:

        -1/(4x) + log(2 pi)/2 - (1/2) sum_{n>=1} zeta(2n+1) x^{2n}
    """
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        x = xreal(x)
        if not (0 < x < 1):
            raise DomainError("x must lie in (0, 1)")
        x, _ = _mirror("cos", x)
        stop = tolerance(cfg) / 100
        acc = mpf(0)
        x2 = x * x
        pw = x2
        n = 1
        while True:
            term = riemann_zeta(2 * n + 1, cfg) * pw
            acc += term
            if term < stop:
                break
            pw *= x2
            n += 1
        return +(-1 / (4 * x) + log_two_pi() / 2 - acc / 2)


def regularized_limit(spec: SeriesSpec, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Analytic-continuation value at s = 0 for unit and log weights; the
    divergent literal series never appears.

    sin/unit -> cot(pi x)/2 through the zeta(-odd) power series;
    cos/unit -> -1/2; sin/log and cos/log -> the zeta'/digamma closed
    forms. An alternating series is the plain one shifted by half a period
    (alt-sin/unit -> tan(pi x)/2, alt-cos/unit -> 1/2).
    """
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        if xreal(spec.s) != 0:
            raise DomainError("regularized_limit requires s = 0")
        if spec.weight == "log2":
            raise CapabilityError(
                f"no regularized limit for kernel={spec.kernel}, "
                f"alternating={spec.alternating}, weight=log2")
        return _closed_form(spec, cfg)


# --------------------------------------------------------------------------
# Exact integer exponents
# --------------------------------------------------------------------------

def integer_sin_series(x, s: int, cfg: EvalConfig | None = None) -> RegularizedValue:
    """sum_n sin(2 n pi x)/n^s at integer s >= 1.

    Odd s = 2m+1: Bernoulli-Fourier closed form
        (-1)^{m+1} (2 pi)^{2m+1} / (2 (2m+1)!) * B_{2m+1}(x).
    Even s = 2m: the L'Hopital limit of the generic closed form,
        (-1)^m w^{2m-1}/(2m-1)! * [log w - psi(2m) - gamma]
        + the finite and infinite zeta tails  (w = 2 pi x).
    """
    cfg = cfg or DEFAULT_CONFIG
    if s != int(s):
        raise DomainError("integer_sin_series requires integer s")
    s = int(s)
    if s == 0:
        raise RedirectError("s = 0 is the regularized limit",
                            branch="regularized_limit")
    if s < 0:
        raise DomainError("s must be >= 1")
    with workprec(cfg):
        x = xreal(x)
        if not (0 < x < 1):
            raise DomainError("x must lie strictly inside (0, 1)")
        tol = tolerance(cfg)
        if s % 2 == 1:
            m = (s - 1) // 2
            coeffs = bernoulli_poly_coeffs(2 * m + 1)
            val = ((-1) ** (m + 1) * (2 * mp.pi) ** (2 * m + 1)
                   / (2 * mp.factorial(2 * m + 1)) * poly_eval(coeffs, x))
            return RegularizedValue(+val, "integer_branch", +tol, 0)
        m = s // 2
        x, sign = _mirror("sin", x)
        w = 2 * mp.pi * x
        g = euler_gamma(cfg)
        head = ((-1) ** m * mp.power(w, 2 * m - 1) / mp.factorial(2 * m - 1)
                * (mp.log(w) - digamma(2 * m, cfg) - g))
        fin = mpf(0)
        for n in range(0, m - 1):
            fin += ((-1) ** n * riemann_zeta(2 * m - 2 * n - 1, cfg)
                    * mp.power(w, 2 * n + 1) / mp.factorial(2 * n + 1))

        def term(i):
            n = m + i
            return ((-1) ** n * riemann_zeta(-2 * i - 1, cfg)
                    * mp.power(w, 2 * n + 1) / mp.factorial(2 * n + 1))
        tail, nterms = sum_entire(term, cfg)
        return RegularizedValue(+(sign * (head + fin + tail)),
                                "integer_branch", +tol, nterms)


def integer_cos_series(x, s: int, cfg: EvalConfig | None = None) -> RegularizedValue:
    """sum_n cos(2 n pi x)/n^s at odd integer s = 2m-1 via Hurwitz derivatives:

        (-1)^m (2 pi)^{2m-2}/(2m-2)! *
            [x^{2m-2} log x - zeta'(2-2m, 1-x) - zeta'(2-2m, 1+x)]

    For m = 1 this reduces to -log(2 sin pi x).
    """
    cfg = cfg or DEFAULT_CONFIG
    if s != int(s):
        raise DomainError("integer_cos_series requires integer s")
    s = int(s)
    if s < 1 or s % 2 == 0:
        raise CapabilityError(
            "integer_cos_series covers odd s >= 1 only; even-s cos is "
            "regular in closed_form_series")
    with workprec(cfg):
        x = xreal(x)
        if not (0 < x < 1):
            raise DomainError("x must lie strictly inside (0, 1)")
        m = (s + 1) // 2
        tol = tolerance(cfg)
        sarg = 2 - 2 * m
        val = ((-1) ** m * (2 * mp.pi) ** (2 * m - 2) / mp.factorial(2 * m - 2)
               * (mp.power(x, 2 * m - 2) * mp.log(x)
                  - hurwitz_zeta_deriv(1, sarg, 1 - x, cfg)
                  - hurwitz_zeta_deriv(1, sarg, 1 + x, cfg)))
        return RegularizedValue(+val, "integer_branch", +tol, 0)


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

def abel_oracle(spec: SeriesSpec, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Abel summation oracle: sum r^n (term), r = 1 - 2^-k for
    k = 4 .. 4 + ABEL_R_LEVELS, extrapolated to r -> 1 in h = 1 - r.

    Independent of every closed form: each Abel sum is an absolutely
    convergent series evaluated by head summation plus the
    forward-difference transform of its tail (to below tolerance/10), and the
    limit is taken by Richardson extrapolation.
    """
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        x = xreal(spec.x)
        s = xreal(spec.s)
        half = mpf(1) / 2
        if spec.kernel == "sin" and x == half:
            # every term sin(n pi) vanishes
            return RegularizedValue(mpf(0), "abel", mpf(0), 0)
        if spec.kernel == "cos" and spec.alternating and x == half:
            # terms are (-1)^{n+1} (-1)^n = -1: the Abel sums -r/(1-r) have
            # no r -> 1 limit even though the exponent regularization does
            raise ConvergenceError(
                "Abel sum diverges for the alternating cosine series at "
                "x = 1/2")
        wfn = _weight_fn(spec.weight)
        if s == 0:
            g = wfn
        elif _is_int(s):
            si = int(s)
            g = (lambda n: wfn(n) / mpf(n) ** si)
        else:
            g = (lambda n: wfn(n) * mp.power(n, -s))
        z0 = mp.expjpi(2 * x)
        tol = tolerance(cfg) / 10
        samples = []
        total = 0
        for i in range(ABEL_R_LEVELS + 1):
            k = 4 + i
            h = mpf(2) ** (-k)
            z = (1 - h) * z0
            if spec.alternating:
                z = -z
            val, used = sum_oscillatory(g, z, tol, start=1,
                                        max_terms=cfg.max_terms)
            total += used
            comp = val.imag if spec.kernel == "sin" else val.real
            if spec.alternating:
                comp = -comp
            samples.append((h, comp))
        value, est = richardson_extrapolate(samples, RICHARDSON_ORDER)
        if not est <= mpf("1e-3") * (1 + abs(value)):
            raise ConvergenceError(
                "Abel extrapolation did not converge toward r = 1")
        return RegularizedValue(+value, "abel", +(est + 10 * tol), total)


def direct_oracle(spec: SeriesSpec, N: int, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Ground truth by partial sums, Cesaro-averaging the last ceil(sqrt(N))
    partial sums to damp the oscillatory tail.

    Needs s > 0: the series converges conditionally for 0 < s <= 1 (Dirichlet
    test) and absolutely for s > 1; the error estimate reflects the O(N^-s)
    tail scale.
    """
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        x = xreal(spec.x)
        s = xreal(spec.s)
        if s <= 0:
            raise DomainError("direct_oracle requires s > 0")
        if N < 0:
            raise DomainError("N must be >= 0")
        if N == 0:
            return RegularizedValue(mpf(0), "direct", mpf("inf"), 0)
        M = int(mp.ceil(mp.sqrt(N)))
        wfn = _weight_fn(spec.weight)
        use_sin = spec.kernel == "sin"
        int_s = _is_int(s)
        si = int(s) if int_s else 0
        c1 = mp.cospi(2 * x)
        s1 = mp.sinpi(2 * x)
        c, sn = mpf(1), mpf(0)  # cos/sin of 2 pi n x, n = 0
        partial = mpf(0)
        window = mpf(0)
        alt = spec.alternating
        for n in range(1, N + 1):
            c, sn = c * c1 - sn * s1, sn * c1 + c * s1
            trig = sn if use_sin else c
            if int_s:
                term = wfn(n) * trig / mpf(n ** si) if spec.weight != "unit" \
                    else trig / mpf(n ** si)
            else:
                term = wfn(n) * trig * mp.power(n, -s)
            if alt and n % 2 == 0:
                term = -term
            partial += term
            if n > N - M:
                window += partial
        value = window / M
        est = 4 * mp.power(N, -s) * (1 + mp.log(N))
        return RegularizedValue(+value, "direct", +est, N)


# --------------------------------------------------------------------------
# Dispatcher
# --------------------------------------------------------------------------

def evaluate_series(spec: SeriesSpec, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Route a spec to the branch the exponent/weight calls for."""
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        s = xreal(spec.s)
        if s == 0:
            return regularized_limit(spec, cfg)
        if spec.weight != "unit":
            # with log weights at s > 0 only the alternating series at
            # x = 1/2 has a closed form (a zeta derivative); elsewhere Abel
            # summation is still well-defined
            if spec.alternating and xreal(spec.x) == mpf(1) / 2:
                return _closed_form(spec, cfg)
            return abel_oracle(spec, cfg)
        branch = None if spec.alternating else _integer_branch(spec.kernel, s)
        if branch is not None:
            return branch(spec.x, int(s), cfg)
        return closed_form_series(spec, cfg)
