"""Regularized trigonometric series: sums over n of w(n) trig(2 n pi x)/n^s,
optionally with the alternating factor (-1)^{n+1}.

The alternating factor is a phase, (-1)^{n+1} trig(2 n pi x) =
-trig(2 n pi (x + 1/2)), so an alternating series is the plain one shifted
by half a period and every route below evaluates a plain series. Closed
forms evaluate the analytic continuation in the exponent s; the s -> 0
limits return the regularized values of the divergent cases; exact integer
exponents go through the Bernoulli-Fourier polynomials or, where the
prefactor is singular, the closed form's L'Hopital limit. The
Abel oracle (Abel summation with Richardson extrapolation) is independent of
every closed form and is the route for log weights at s > 0.

Every zeta power series here, the closed forms' tails and those of the
integer branches, the sine s -> 0 limits and the odd-zeta series of the
cosine log limit, is kernels._power_series at a mirrored or shifted
x <= 1/2 over a coefficient source of this module: its normalised
coefficients are kept per (source, s, precision) as fixed-point integers,
so a closed form at a new x with a seen s is one memo read and a short
integer loop; the parity distance and the prefactor's s-only denominator
are kept per (s, precision) too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from mpmath import mp, mpf

from .bernoulli import bernoulli_poly_coeffs, harmonic_number, poly_eval
from .config import EvalConfig, memo, tolerance, workprec, xreal
from .errors import (CapabilityError, ConvergenceError, DomainError,
                     PoleError, PrecisionLossWarning, RedirectError)
from .gammafn import digamma, gamma_fn
from .kernels import _power_series, richardson_extrapolate, sum_oscillatory
from .zeta import (_rz, _zpn, euler_gamma, log_two_pi, riemann_zeta,
                   hurwitz_zeta_deriv)

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
    method: str  # closed_form | abel | integer_branch
    error_estimate: mpf
    terms_used: int = 0


def _weight_fn(weight: str):
    if weight == "unit":
        return lambda n: mpf(1)
    if weight == "log":
        return lambda n: mp.log(n)
    return lambda n: mp.log(n) ** 2


def _mirror(kernel: str, x: mpf):
    """Reflect x > 1/2 to 1-x using the termwise parity of the kernel.

    sin(2 n pi (1-x)) = -sin(2 n pi x) and cos(2 n pi (1-x)) = cos(2 n pi x),
    so the reduction is exact for every series here; it keeps the power-series
    tails (ratio x^2) fast.
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


def _half_point_value(kernel: str, weight: str, s: mpf) -> mpf:
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
        return -riemann_zeta(s)
    if weight == "log":
        return hurwitz_zeta_deriv(1, s, 1)
    return -hurwitz_zeta_deriv(2, s, 1)


# --------------------------------------------------------------------------
# Closed forms of the plain series
# --------------------------------------------------------------------------

def _zeta_coeff(s: mpf, k: int) -> mpf:
    """zeta(s - k), read from the memoised _rz; 0 in place of zeta(1)."""
    return mpf(0) if s - k == 1 else _rz(s - k)


def _zeta_deriv_coeff(s: mpf, k: int) -> mpf:
    """-zeta'(-k) at odd k, read from the memoised _zpn (s is unused)."""
    return -_zpn(k)


def _odd_zeta_coeff(s: mpf, k: int) -> mpf:
    """-2 zeta'(-k) at even k from riemann_zeta(k + 1) (s is unused): its
    Taylor series at p = 2 is sum_n zeta(2n+3) x^{2n+2}."""
    return ((-1) ** (k // 2 + 1) * mp.factorial(k) * riemann_zeta(k + 1)
            / mp.power(2 * mp.pi, k))


def _plain_tail(kernel: str, x: mpf, s: mpf):
    """sum_n (-1)^n zeta(s-2n-1) w^{2n+1}/(2n+1)!  (sin)
       sum_n (-1)^n zeta(s-2n)   w^{2n}/(2n)!      (cos),  w = 2 pi x,
    for 0 < x <= 1/2, less the zeta(1) term (at the parity-singular
    integers, where _parity_limit's head replaces it), by _power_series
    over the memoised table of (kernel, s, precision)."""
    return _power_series(_zeta_coeff, 1 if kernel == "sin" else 0, s, x)


def _prefactor(kernel: str, x: mpf, s: mpf) -> mpf:
    """pi w^{s-1} / (2 Gamma(s) trig(pi s/2)), w = 2 pi x."""
    return mp.pi * mp.power(2 * mp.pi * x, s - 1) / _prefactor_den(kernel, s)


@memo
def _prefactor_den(kernel: str, s: mpf) -> mpf:
    """2 Gamma(s) trig(pi s/2), the prefactor's part that x leaves alone;
    sinpi/cospi keep trig's relative accuracy next to its zeros, the
    parity-singular integers."""
    trig = mp.sinpi if kernel == "sin" else mp.cospi
    return 2 * gamma_fn(s) * trig(s / 2)


@memo
def _parity_distance(kernel: str, s: mpf) -> mpf:
    """Distance from s > 0 to the nearest integer where the prefactor is
    singular: even s >= 2 for sin (at s = 0 the pole of Gamma(s) cancels
    the zero of sin(pi s/2)), odd s for cos."""
    if kernel == "sin":
        return abs(s - max(2, 2 * mp.nint(s / 2)))
    return abs(s - (2 * mp.nint((s - 1) / 2) + 1))


def _parity_limit(kernel: str, x: mpf, s: int) -> RegularizedValue:
    """The closed form's L'Hopital limit at a parity-singular integer s
    (sin at even s, cos at odd s), m = ceil(s/2), w = 2 pi x mirrored:

        (-1)^m w^{s-1}/(s-1)! * [log w - H_{s-1}]
        + the kernel's zeta tail less its zeta(1) term,

    H_{s-1} = psi(s) + gamma the harmonic number; terms_used counts the
    whole tail."""
    x, sign = _mirror(kernel, x)
    w = 2 * mp.pi * x
    head = ((-1) ** ((s + 1) // 2) * mp.power(w, s - 1) / mp.factorial(s - 1)
            * (mp.log(w) - xreal(harmonic_number(s - 1))))
    tail, n = _plain_tail(kernel, x, xreal(s))
    return RegularizedValue(+(sign * (head + tail)), "integer_branch",
                            +tolerance(), n)


def _integer_branch(kernel: str, s: mpf):
    """The exact-integer route where the prefactor is singular (sin at even
    s, cos at odd s), else None."""
    if _parity_distance(kernel, s) != 0:
        return None
    return integer_sin_series if kernel == "sin" else integer_cos_series


def _plain_limit(kernel: str, weight: str, x: mpf) -> RegularizedValue:
    """s -> 0 limits of the plain series for unit and log weights."""
    tol = tolerance()
    if kernel == "cos" and weight == "unit":
        # zeta(-2n) = 0 for n >= 1; only zeta(0) = -1/2 survives.
        return RegularizedValue(mpf(-1) / 2, "closed_form", +tol, 1)
    if kernel == "cos":
        g = euler_gamma()
        v = (digamma(x) + mp.pi / 2 * mp.cospi(x) / mp.sinpi(x)
             + g + log_two_pi()) / 2
        series = log_cos_limit_series(x)
        return RegularizedValue(+v, "closed_form",
                                +max(tol, abs(v - series)), 0)
    x, sign = _mirror(kernel, x)
    w = 2 * mp.pi * x
    if weight == "unit":
        # cot(pi x)/2 through the zeta(-odd) power series
        head = 1 / w
        tail, n = _plain_tail(kernel, x, mpf(0))
    else:
        head = -(euler_gamma() + mp.log(w)) / w
        tail, n = _power_series(_zeta_deriv_coeff, 1, mpf(0), x)
    return RegularizedValue(+(sign * (head + tail)), "closed_form", +tol, n)


def _plain_value(kernel: str, weight: str, x: mpf, s: mpf) -> RegularizedValue:
    """The plain series' one closed-form family: the s -> 0 limit, the
    integer branch where the prefactor is singular, else prefactor plus
    zeta tail at the mirrored x."""
    if s == 0:
        return _plain_limit(kernel, weight, x)
    branch = _integer_branch(kernel, s)
    if branch is not None:
        return branch(x, int(s))
    err = tolerance()
    dist = _parity_distance(kernel, s)
    if dist < mpf("1e-3"):
        warnings.warn(
            f"s within {mp.nstr(dist, 3)} of a singular parity; "
            f"~{int(-mp.log10(dist))} digits lost to prefactor cancellation",
            PrecisionLossWarning)
        err = err / dist
    x, sign = _mirror(kernel, x)
    tail, n = _plain_tail(kernel, x, s)
    value = sign * (_prefactor(kernel, x, s) + tail)
    return RegularizedValue(+value, "closed_form", +err, n)


def _closed_form(spec: SeriesSpec) -> RegularizedValue:
    """Any spec the closed forms cover, alternating ones through the
    half-period shift. Runs inside the caller's working precision."""
    x = xreal(spec.x)
    s = xreal(spec.s)
    if not spec.alternating:
        return _plain_value(spec.kernel, spec.weight, x, s)
    if x == mpf(1) / 2:
        v = _half_point_value(spec.kernel, spec.weight, s)
        return RegularizedValue(+v, "closed_form", +tolerance(), 0)
    xs, sign = _half_shift(spec.kernel, x)
    rv = _plain_value(spec.kernel, spec.weight, xs, s)
    return replace(rv, value=+(sign * rv.value))


def closed_form_series(spec: SeriesSpec, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Analytic-continuation closed form for unit weight, s > 0.

    Prefactor plus a zeta tail; an alternating series is the plain one
    shifted by half a period. Parity-singular exponents (sin at even s, cos
    at odd s) redirect to the integer branches, which alternating series
    reach through the shift; s = 0 redirects to regularized_limit.
    """
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
        return _closed_form(spec)


# --------------------------------------------------------------------------
# s -> 0 regularized limits
# --------------------------------------------------------------------------

def log_cos_limit_series(x, cfg: EvalConfig | None = None) -> mpf:
    """Power-series route for lim_{s->0} sum log n cos(2 n pi x)/n^s at the
    mirrored x <= 1/2,

        -1/(4x) + log(2 pi)/2 - (1/2) sum_{n>=1} zeta(2n+1) x^{2n},

    the sum by _power_series over the memoised table of _odd_zeta_coeff.
    """
    with workprec(cfg):
        x = xreal(x)
        if not (0 < x < 1):
            raise DomainError("x must lie in (0, 1)")
        x, _ = _mirror("cos", x)
        acc, _ = _power_series(_odd_zeta_coeff, 2, 0, x)
        return +(-1 / (4 * x) + log_two_pi() / 2 - acc / 2)


def regularized_limit(spec: SeriesSpec, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Analytic-continuation value at s = 0 for unit and log weights; the
    divergent literal series never appears.

    sin/unit -> cot(pi x)/2 through the zeta(-odd) power series;
    cos/unit -> -1/2; sin/log and cos/log -> the zeta'/digamma closed
    forms. An alternating series is the plain one shifted by half a period
    (alt-sin/unit -> tan(pi x)/2, alt-cos/unit -> 1/2).
    """
    with workprec(cfg):
        if xreal(spec.s) != 0:
            raise DomainError("regularized_limit requires s = 0")
        if spec.weight == "log2":
            raise CapabilityError(
                f"no regularized limit for kernel={spec.kernel}, "
                f"alternating={spec.alternating}, weight=log2")
        return _closed_form(spec)


# --------------------------------------------------------------------------
# Exact integer exponents
# --------------------------------------------------------------------------

def integer_sin_series(x, s: int, cfg: EvalConfig | None = None) -> RegularizedValue:
    """sum_n sin(2 n pi x)/n^s at integer s >= 1.

    Odd s = 2m+1: Bernoulli-Fourier closed form
        (-1)^{m+1} (2 pi)^{2m+1} / (2 (2m+1)!) * B_{2m+1}(x).
    Even s = 2m: the L'Hopital limit of the generic closed form,
        (-1)^m w^{2m-1}/(2m-1)! * [log w - H_{2m-1}]
        + its sine zeta tail less the zeta(1) term  (w = 2 pi x);
    terms_used counts the whole tail.
    """
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
        if s % 2 == 0:
            return _parity_limit("sin", x, s)
        m = (s - 1) // 2
        coeffs = bernoulli_poly_coeffs(2 * m + 1)
        val = ((-1) ** (m + 1) * (2 * mp.pi) ** (2 * m + 1)
               / (2 * mp.factorial(2 * m + 1)) * poly_eval(coeffs, x))
        return RegularizedValue(+val, "integer_branch", +tolerance(), 0)


def integer_cos_series(x, s: int, cfg: EvalConfig | None = None) -> RegularizedValue:
    """sum_n cos(2 n pi x)/n^s at odd integer s = 2m-1: the L'Hopital limit
    of the generic closed form,

        (-1)^m w^{2m-2}/(2m-2)! * [log w - H_{2m-2}]
        + its cosine zeta tail less the zeta(1) term  (w = 2 pi x);

    terms_used counts the whole tail. For m = 1 this is -log(2 sin pi x).
    """
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
        return _parity_limit("cos", x, s)


# --------------------------------------------------------------------------
# Abel oracle
# --------------------------------------------------------------------------

def abel_oracle(spec: SeriesSpec, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Abel summation oracle: sum r^n (term), r = 1 - 2^-k for
    k = 4 .. 4 + ABEL_R_LEVELS, extrapolated to r -> 1 in h = 1 - r.

    Independent of every closed form: each Abel sum is an absolutely
    convergent series evaluated by head summation plus the
    forward-difference transform of its tail (to below tolerance/20), and
    the limit is taken by Richardson extrapolation. The error estimate is
    the extrapolation's own plus ten times that tail allowance, so half the
    tolerance is left to the extrapolation. The radii share their terms:
    each w(n) n^-s is computed once per call and precision, and nothing is
    kept between calls.
    """
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
            term = wfn
        elif s == mp.floor(s):
            si = int(s)
            term = (lambda n: wfn(n) / mpf(n) ** si)
        else:
            term = (lambda n: wfn(n) * mp.power(n, -s))
        # every radius asks for the same terms, at the working precision in
        # the head and at the transform's in the tail: take each once
        memo: dict[tuple[int, int], mpf] = {}

        def g(n):
            key = (n, mp.prec)
            v = memo.get(key)
            if v is None:
                v = memo[key] = term(n)
            return v

        z0 = mp.expjpi(2 * x)
        tol = tolerance() / 20
        samples = []
        total = 0
        for i in range(ABEL_R_LEVELS + 1):
            k = 4 + i
            h = mpf(2) ** (-k)
            z = (1 - h) * z0
            if spec.alternating:
                z = -z
            val, used = sum_oscillatory(g, z, tol)
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


# --------------------------------------------------------------------------
# Dispatcher
# --------------------------------------------------------------------------

def evaluate_series(spec: SeriesSpec, cfg: EvalConfig | None = None) -> RegularizedValue:
    """Route a spec to the branch the exponent/weight calls for; warn
    PrecisionLossWarning where the Abel route misses tolerance(cfg)."""
    with workprec(cfg):
        s = xreal(spec.s)
        if s == 0:
            return regularized_limit(spec)
        if spec.weight != "unit":
            # with log weights at s > 0 only the alternating series at
            # x = 1/2 has a closed form (a zeta derivative); elsewhere Abel
            # summation is still well-defined
            if spec.alternating and xreal(spec.x) == mpf(1) / 2:
                return _closed_form(spec)
            rv = abel_oracle(spec)
            tol = tolerance()
            if rv.error_estimate > tol:
                warnings.warn(
                    f"Abel error estimate {mp.nstr(rv.error_estimate, 3)} "
                    f"exceeds the tolerance {mp.nstr(tol, 3)}",
                    PrecisionLossWarning)
            return rv
        branch = None if spec.alternating else _integer_branch(spec.kernel, s)
        if branch is not None:
            return branch(spec.x, int(s))
        return closed_form_series(spec)
