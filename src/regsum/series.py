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

Every zeta power series here is kernels._power_series at a mirrored or
shifted x <= 1/2, its coefficients kept per (source, s, precision) as
fixed-point integers. The rest of what x leaves alone, the route and its
constants, is one plan per (kernel, weight, s, precision), so a closed
form at a new x with a seen s is a plan read, a power and a short loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

from mpmath import mp, mpf

from .bernoulli import bernoulli_poly_coeffs, harmonic_number, poly_eval
from .config import CACHE_CAP, EvalConfig, memo, tolerance, workprec, xreal
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


# x = 1/2 at any precision: 0.5 is exact in every mpf.
_HALF = mpf(1) / 2


def _mirror(kernel: str, x: mpf):
    """(x', neg) with the plain series at x equal to that at x', negated if
    neg: x > 1/2 reflects to 1-x by the termwise parity of the kernel.

    sin(2 n pi (1-x)) = -sin(2 n pi x) and cos(2 n pi (1-x)) = cos(2 n pi x),
    so the reduction is exact for every series here; it keeps the power-series
    tails (ratio x^2) fast.
    """
    if x > _HALF:
        return 1 - x, kernel == "sin"
    return x, False


def _half_shift(kernel: str, x: mpf):
    """(x', neg) with the alternating series at x equal to the plain series
    at x', negated if neg, for x != 1/2.

    The plain series is negated at x + 1/2, which reduces to x - 1/2 by
    periodicity or, for x < 1/2, reflects to 1/2 - x with the kernel's
    mirror sign; 1/2 - x is formed directly so a small x loses no digits.
    """
    if x > _HALF:
        return x - _HALF, True
    return _HALF - x, kernel == "cos"


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


class _Plan(NamedTuple):
    """What the plain series needs at one (kernel, weight, s, precision)
    that x leaves alone: eval(x) -> (value, terms_used, error_estimate),
    and the method and warning of each result."""

    eval: Callable
    method: str = "closed_form"
    warning: str | None = None


def _mirrored(kernel: str, head, coeff, s: mpf, err: mpf):
    """eval of head(w) plus the zeta power series of coeff(s, .) at the
    mirrored x, w = 2 pi x: the kernel's tail less its zeta(1) term."""
    p = 1 if kernel == "sin" else 0
    two_pi = 2 * mp.pi

    def value(x):
        x, neg = _mirror(kernel, x)
        tail, n = _power_series(coeff, p, s, x)
        v = head(two_pi * x) + tail
        return (-v if neg else v), n, err
    return value


@memo(cap=CACHE_CAP // 64)
def _plan(kernel: str, weight: str, s) -> _Plan:
    """The plain series' one closed-form family at s >= 0, m = ceil(s/2):
    - weight "bernoulli", integer_sin_series' route at odd s = 2m - 1:
      (-1)^m (2 pi)^s / (2 s!) * B_s(x);
    - s = 0: the regularized limit (unit and log weights);
    - a parity-singular integer (sin at even s, cos at odd s; sin is
      regular at s = 0, where the pole of Gamma(s) cancels sin(pi s/2)):
      the L'Hopital limit (-1)^m w^{s-1}/(s-1)! [log w - H_{s-1}] + tail;
    - else pi w^{s-1} / (2 Gamma(s) trig(pi s/2)) + tail, widening the
      estimate and warning within 1e-3 of a parity-singular s; sinpi and
      cospi keep trig's relative accuracy next to those integers.
    The estimates are tolerance(): inside workprec the precision fixes
    the config."""
    s, tol = xreal(s), tolerance()
    if weight == "bernoulli":
        m = (int(s) - 1) // 2
        coeffs = [mp.convert(c) for c in bernoulli_poly_coeffs(2 * m + 1)]
        scale = ((-1) ** (m + 1) * (2 * mp.pi) ** (2 * m + 1)
                 / (2 * mp.factorial(2 * m + 1)))
        return _Plan(lambda x, t=+tol: (scale * poly_eval(coeffs, x), 0, t),
                     "integer_branch")
    if s == 0 and kernel == "cos":
        if weight == "unit":
            # zeta(-2n) = 0 for n >= 1; only zeta(0) = -1/2 survives.
            return _Plan(lambda x, v=mpf(-1) / 2: (v, 1, +tol))
        g, lg = euler_gamma(), log_two_pi()

        def value(x):
            v = (digamma(x) + mp.pi / 2 * mp.cospi(x) / mp.sinpi(x)
                 + g + lg) / 2
            return +v, 0, +max(tol, abs(v - log_cos_limit_series(x)))
        return _Plan(value)
    if s == 0 and weight == "unit":
        # cot(pi x)/2 through the zeta(-odd) power series
        return _Plan(_mirrored(kernel, lambda w: 1 / w, _zeta_coeff, s, +tol))
    if s == 0:
        g = euler_gamma()
        return _Plan(_mirrored(kernel, lambda w: -(g + mp.log(w)) / w,
                               _zeta_deriv_coeff, s, +tol))
    if kernel == "sin":
        dist = abs(s - max(2, 2 * mp.nint(s / 2)))
    else:
        dist = abs(s - (2 * mp.nint((s - 1) / 2) + 1))
    if dist == 0:
        si = int(s)
        h = xreal(harmonic_number(si - 1))
        den = (-1) ** ((si + 1) // 2) * mp.factorial(si - 1)
        head = lambda w: mp.power(w, si - 1) / den * (mp.log(w) - h)
        return _Plan(_mirrored(kernel, head, _zeta_coeff, s, +tol),
                     "integer_branch")
    err, warning = tol, None
    if dist < mpf("1e-3"):
        warning = (f"s within {mp.nstr(dist, 3)} of a singular parity; "
                   f"~{int(-mp.log10(dist))} digits lost to prefactor "
                   f"cancellation")
        err = tol / dist
    trig = mp.sinpi if kernel == "sin" else mp.cospi
    den = 2 * gamma_fn(s) * trig(s / 2)
    pi, s1 = +mp.pi, s - 1
    head = lambda w: pi * mp.power(w, s1) / den
    return _Plan(_mirrored(kernel, head, _zeta_coeff, s, +err), "closed_form",
                 warning)


def _plain_value(plan: _Plan, x: mpf, neg: bool = False) -> RegularizedValue:
    """The plain series at x by its plan, negated if neg."""
    if plan.warning:
        warnings.warn(plan.warning, PrecisionLossWarning)
    v, n, err = plan.eval(x)
    return RegularizedValue(-v if neg else v, plan.method, err, n)


def _closed_form(spec: SeriesSpec, s: mpf, plan: _Plan) -> RegularizedValue:
    """Any spec the closed forms cover by the plain series' plan,
    alternating ones through the half-period shift; plan goes unread at
    the alternating x = 1/2. Runs inside the caller's working precision."""
    x = xreal(spec.x)
    if not spec.alternating:
        return _plain_value(plan, x)
    if x == _HALF:
        v = _half_point_value(spec.kernel, spec.weight, s)
        return RegularizedValue(+v, "closed_form", +tolerance(), 0)
    return _plain_value(plan, *_half_shift(spec.kernel, x))


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
        plan = _plan(spec.kernel, "unit", s)
        if plan.method == "integer_branch" and not spec.alternating:
            branch = f"integer_{spec.kernel}_series"
            raise RedirectError(
                f"{spec.kernel} prefactor singular at s = {int(s)}; "
                f"use {branch}", branch=branch)
        return _closed_form(spec, s, plan)


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
        s = xreal(spec.s)
        if s != 0:
            raise DomainError("regularized_limit requires s = 0")
        if spec.weight == "log2":
            raise CapabilityError(
                f"no regularized limit for kernel={spec.kernel}, "
                f"alternating={spec.alternating}, weight=log2")
        return _closed_form(spec, s, _plan(spec.kernel, spec.weight, s))


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
        route = "unit" if s % 2 == 0 else "bernoulli"
        return _plain_value(_plan("sin", route, s), x)


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
        return _plain_value(_plan("cos", "unit", s), x)


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
            if spec.alternating and xreal(spec.x) == _HALF:
                return _closed_form(spec, s, None)
            rv = abel_oracle(spec)
            tol = tolerance()
            if rv.error_estimate > tol:
                warnings.warn(
                    f"Abel error estimate {mp.nstr(rv.error_estimate, 3)} "
                    f"exceeds the tolerance {mp.nstr(tol, 3)}",
                    PrecisionLossWarning)
            return rv
        if (spec.alternating
                or _plan(spec.kernel, "unit", s).method != "integer_branch"):
            return closed_form_series(spec)
        branch = integer_sin_series if spec.kernel == "sin" else integer_cos_series
        return branch(spec.x, int(s))
