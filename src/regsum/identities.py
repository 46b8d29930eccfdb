"""Registry of named closed-form identities with machine-checkable reports.

Every identity is evaluated by two maximally independent routes (never the
same closed form on both sides) and produces an IdentityReport with the
raw sides, residuals, tolerance and a note naming both routes. Where the
independent side is a series itself, it is summed on the unit circle,
sum_n log^k(n) z^n/n^s with |z| = 1, by the forward-difference transform
of kernels.sum_oscillatory to tolerance()/10, so its accuracy follows the
working precision. A zeta power series side goes through
kernels._power_series with a coefficient source of this module: its
tables last between points and are never a closed form's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from mpmath import mp, mpf, mpc

from .bernoulli import bernoulli_number, bernoulli_poly_coeffs, poly_eval
from .config import EvalConfig, memo, tolerance, workprec, xreal
from .errors import CapabilityError, DomainError, UnknownIdentityError
from .gammafn import digamma, loggamma
from .kernels import _power_series, sum_oscillatory
from .series import (SeriesSpec, integer_sin_series, log_cos_limit_series,
                     regularized_limit)
from .zeta import (euler_gamma, hurwitz_zeta_deriv, log_two_pi, phi_ramanujan,
                   riemann_zeta, stieltjes_gamma1, stieltjes_gamma1_limit,
                   zeta_prime_at_zero, zeta_sderiv_at_negatives)


@dataclass
class IdentityReport:
    """One verification record; pass iff abs_residual <= tolerance."""

    identity_name: str
    inputs: list
    lhs: mpf
    rhs: mpf
    abs_residual: mpf
    rel_residual: mpf
    tolerance: mpf
    passed: bool
    method_notes: str

    def to_dict(self, digits: int = 50) -> dict:
        def num(v):
            return mp.nstr(v, digits)
        return {
            "identity_name": self.identity_name,
            "inputs": [[n, num(v)] for n, v in self.inputs],
            "lhs": num(self.lhs),
            "rhs": num(self.rhs),
            "abs_residual": num(self.abs_residual),
            "rel_residual": num(self.rel_residual),
            "tolerance": num(self.tolerance),
            "pass": self.passed,
            "method_notes": self.method_notes,
        }


def _unit_circle_sum(z, s: int, k: int = 0):
    """sum_{n>=1} log^k(n) z^n / n^s for |z| = 1, z != 1, integer s >= 1.

    Head summation plus the forward-difference transform of the tail, to
    tolerance()/10; the value is complex when z is. The cost grows like
    1/|1 - z|.
    """
    if k:
        def g(n):
            return mp.log(n) ** k / mpf(n) ** s
    else:
        def g(n):
            return 1 / mpf(n) ** s
    val, _ = sum_oscillatory(g, z, tolerance() / 10)
    return val


def polylog_unimodular(order: int, x, cfg: EvalConfig | None = None):
    """(Re, Im) of Li_order(e^{2 pi i x}) for integer order >= 2, 0 < x < 1."""
    if order < 2 or order != int(order):
        raise CapabilityError("polylog_unimodular needs integer order >= 2")
    with workprec(cfg):
        x = xreal(x)
        if not (0 < x < 1):
            raise DomainError("x must lie strictly inside (0, 1)")
        val = _unit_circle_sum(mp.expjpi(2 * x), int(order))
        return +val.real, +val.imag


# --------------------------------------------------------------------------
# Per-identity evaluators.  Each returns (subchecks, notes) where subchecks
# is a list of (label, lhs, rhs); the report folds the worst residual.
# --------------------------------------------------------------------------

@memo
def _gamma1_oracle(x: mpf) -> mpf:
    """gamma1 by the limit formula; symmetric grids reuse it at x and 1 - x."""
    return stieltjes_gamma1_limit(x)


def _cot_pi(x: mpf) -> mpf:
    return mp.cospi(x) / mp.sinpi(x)


def _id_entry17v(x):
    lhs = _gamma1_oracle(1 - x) - _gamma1_oracle(x)
    c = euler_gamma() + log_two_pi()
    sin_log = regularized_limit(SeriesSpec("sin", x, 0, weight="log"))
    rhs = mp.pi * c * _cot_pi(x) + 2 * mp.pi * sin_log.value
    notes = ("lhs: gamma1 limit-formula oracle at 1-x and x; "
             "rhs: pi(gamma+log 2pi)cot(pi x) plus the zeta'(-odd) series "
             "via the reflection substitution")
    return [("", lhs, rhs)], notes


def _id_cot_limit(x):
    v = regularized_limit(SeriesSpec("sin", x, 0))
    rhs = _cot_pi(x) / 2
    notes = ("lhs: regularized exponent limit via the zeta(-odd) series "
             "from the functional equation; rhs: cot(pi x)/2 by direct "
             "transcendental evaluation")
    return [("", v.value, rhs)], notes


def _em_coeff(alternating: bool, k: int) -> mpf:
    """zeta(-k), or eta(-k) = (1 - 2^{k+1}) zeta(-k) if alternating, with
    zeta by Euler-Maclaurin continuation: the s->0 limit series'
    coefficients, computed rather than taken as the trivial zeros, which
    keeps the constant-limit checks non-vacuous."""
    v = hurwitz_zeta_deriv(0, -k, 1)
    return (1 - mpf(2) ** (k + 1)) * v if alternating else v


def _zeta_sderiv_coeff(s: int, k: int) -> mpf:
    """zeta'(s - k) at integer s <= k, through the public zeta' functions."""
    return zeta_prime_at_zero() if k == s else zeta_sderiv_at_negatives(k - s)


def _id_cos_limit(x):
    lhs, _ = _power_series(_em_coeff, 0, False, x)
    notes = ("lhs: zeta(-2n) series with zeta from Euler-Maclaurin "
             "continuation; rhs: -1/2")
    return [("", lhs, mpf(-1) / 2)], notes


def _id_alt_cos_limit(x):
    lhs, _ = _power_series(_em_coeff, 0, True, x)
    notes = ("lhs: eta(-2n) series with eta from Euler-Maclaurin "
             "continuation; rhs: 1/2")
    return [("", lhs, mpf(1) / 2)], notes


def _id_alt_sin_limit(x):
    v = regularized_limit(SeriesSpec("sin", x, 0, alternating=True))
    rhs = mp.sinpi(x) / mp.cospi(x) / 2
    notes = ("lhs: half-period shift to the plain sine limit at 1/2 - x "
             "(zeta(-odd) series); rhs: tan(pi x)/2 by direct "
             "transcendental evaluation")
    return [("", v.value, rhs)], notes


def _bernoulli_odd_sub(m: int):
    """Exact coefficient check of the truncating odd-index expansion and
    its differentiated even-index companion; returns (label, ok, sample)."""
    # B_{2m+1}(x) = -(2m+1)/2 x^{2m} + sum_n C(2m+1, 2n+1) B_{2(m-n)} x^{2n+1}
    lhs = bernoulli_poly_coeffs(2 * m + 1)
    rhs = [Fraction(0)] * (2 * m + 2)
    rhs[2 * m] = -Fraction(2 * m + 1, 2)
    for n in range(m + 1):
        rhs[2 * n + 1] += comb(2 * m + 1, 2 * n + 1) * bernoulli_number(2 * (m - n))
    ok = lhs == rhs
    # even companion: B_{2m}(x) = -m x^{2m-1} + sum_n C(2m, 2n) B_{2n} x^{2m-2n}
    if m >= 1:
        lhs_e = bernoulli_poly_coeffs(2 * m)
        rhs_e = [Fraction(0)] * (2 * m + 1)
        rhs_e[2 * m - 1] += -Fraction(m)
        for n in range(m + 1):
            rhs_e[2 * m - 2 * n] += comb(2 * m, 2 * n) * bernoulli_number(2 * n)
        ok = ok and lhs_e == rhs_e
    third = Fraction(1, 3)
    return ok, poly_eval(lhs, third), poly_eval(rhs, third)


def _id_bernoulli_odd(m):
    ms = range(0, 21) if m is None else [int(m)]
    subs = []
    all_ok = True
    for mm in ms:
        ok, le, re_ = _bernoulli_odd_sub(mm)
        all_ok = all_ok and ok
        subs.append((f"m={mm}", xreal(le), xreal(re_) if ok else xreal(re_) + 1))
    notes = ("exact rational coefficient comparison of the truncating "
             "expansion (and its derivative companion) against the "
             "binomial Bernoulli expansion; representative values at x=1/3")
    if not all_ok:
        notes += "; EXACT COEFFICIENT MISMATCH"
    return subs, notes


def _id_half_point_value(_):
    """lhs: sum_n (-1)^{n+1} zeta'(-(2n+1)) pi^{2n+1}/(2n+1)!."""
    lhs = -_power_series(_zeta_sderiv_coeff, 1, 0, mpf(1) / 2)[0]
    rhs = (euler_gamma() + mp.log(mp.pi)) / mp.pi
    notes = ("lhs: zeta'(-odd) series at the half point via the reflection "
             "substitution; rhs: (gamma + log pi)/pi")
    return [("", lhs, rhs)], notes


def _log_cos_s1_closed(t):
    """sum_n log n cos(2 pi n t)/n by differentiating the cosine closed form
    at s = 1, where the prefactor pole and the zeta(s) pole cancel:
    value = p2 + gamma1 - sum_{n>=1} (-1)^n zeta'(1-2n) (2 pi t)^{2n}/(2n)!
    with p2 the quadratic coefficient of e^{wL}/Gamma(1+w) * (piw/2)/sin(piw/2).
    The sum is a Taylor series at p = 2, with n shifted down by one.
    """
    if t > mpf(1) / 2:
        t = 1 - t  # cos(2 n pi t) is even about t = 1/2 termwise
    L = mp.log(2 * mp.pi * t)
    g = euler_gamma()
    p2 = L * L / 2 + g * L + g * g / 2 - mp.pi ** 2 / 24
    T, _ = _power_series(_zeta_sderiv_coeff, 2, 1, t)
    return p2 + stieltjes_gamma1(1) + T


def _id_deninger_log_cos(t):
    lhs = _log_cos_s1_closed(t)
    c = euler_gamma() + log_two_pi()
    rhs = ((hurwitz_zeta_deriv(2, 0, t)
            + hurwitz_zeta_deriv(2, 0, 1 - t)) / 2
           + c * mp.log(2 * mp.sinpi(t)))
    notes = ("lhs: log-weighted cosine series closed form from the s=1 "
             "derivative of the cosine expansion (zeta'(1-2n) values); "
             "rhs: Hurwitz zeta'' at (0,t), (0,1-t) by Euler-Maclaurin "
             "plus the log-sine term")
    return [("", lhs, rhs)], notes


def _id_zeta_dd_fourier(t):
    lhs = hurwitz_zeta_deriv(2, 0, t)
    c = euler_gamma() + log_two_pi()
    # the sine and cosine series at s = 1 are Im and Re of three sums
    z = mp.expjpi(2 * t)
    l0, l1, l2 = (_unit_circle_sum(z, 1, k) for k in range(3))
    base = ((l2.imag + 2 * c * l1.imag + c * c * l0.imag) / mp.pi
            + c * l0.real + l1.real)
    z2 = riemann_zeta(2)
    rhs_printed = base - z2 / 4 * l0.imag / mp.pi
    rhs_half = base - z2 / 2 * l0.imag / mp.pi
    notes = ("lhs: zeta''(0,t) by Euler-Maclaurin; rhs: the printed Fourier "
             "form with its five component series (log^2, log and unit "
             "weights) as Im and Re of three Euler-transformed sums on the "
             "unit circle")
    tol = xreal("1e-5")
    if abs(lhs - rhs_printed) > tol and abs(lhs - rhs_half) <= tol:
        notes += ("; SUSPECT CONSTANT: the printed (1/4)zeta(2) sine "
                  "coefficient is inconsistent, residual vanishes with "
                  "(1/2)zeta(2)")
    return [("", lhs, rhs_printed)], notes


def _id_log_cos_limit(x):
    lhs = 2 * log_cos_limit_series(x)
    g = euler_gamma()
    rhs = digamma(x) + mp.pi / 2 * _cot_pi(x) + g + log_two_pi()
    notes = ("lhs: odd-zeta power series route -1/(2x)+log 2pi-sum "
             "zeta(2n+1)x^{2n}; rhs: digamma/cotangent closed form")
    return [("", lhs, rhs)], notes


def _log_sin_s1_closed(t):
    """sum_n log n sin(2 pi n t)/n from the s=1 derivative of the sine closed
    form: -(pi/2)(gamma + log 2 pi t) less its zeta'(-2n) Taylor tail."""
    sign = mpf(1)
    if t > mpf(1) / 2:
        t, sign = 1 - t, mpf(-1)  # sin(2 n pi t) is odd about t = 1/2 termwise
    w = 2 * mp.pi * t
    T, _ = _power_series(_zeta_sderiv_coeff, 1, 1, t)
    return sign * (-mp.pi / 2 * (euler_gamma() + mp.log(w)) - T)


def _id_kummer_log_sin(t):
    lhs = _log_sin_s1_closed(t)
    c = euler_gamma() + log_two_pi()
    rhs = (mp.pi / 2 * (loggamma(t) - loggamma(1 - t))
           + c * mp.pi * (t - mpf(1) / 2))
    notes = ("lhs: log-weighted sine series closed form via zeta'(-even) "
             "values; rhs: log-gamma reflection difference from mpmath's "
             "loggamma")
    return [("", lhs, rhs)], notes


def _id_even_exponent_sin(x):
    z = mp.expjpi(2 * x)
    subs = []
    for m in (1, 2):
        v = integer_sin_series(x, 2 * m)
        subs.append((f"m={m}", v.value, _unit_circle_sum(z, 2 * m).imag))
    notes = ("lhs: even-exponent closed form (log/digamma head plus zeta "
             "tails); rhs: Im Li_2m(e^{2 pi i x}) by the Euler transform "
             "on the unit circle")
    return subs, notes


_ADAMCHIK_PHASES = {0: mpc(1, 0), 1: mpc(0, -1), 2: mpc(-1, 0), 3: mpc(0, 1)}


def _id_adamchik_reflection(x):
    subs = []
    for m in (1, 2, 3):
        lhs = (hurwitz_zeta_deriv(1, -m, x)
               + (-1) ** m * hurwitz_zeta_deriv(1, -m, 1 - x))
        re_li, im_li = polylog_unimodular(m + 1, x)
        phase = _ADAMCHIK_PHASES[m % 4]
        T = phase * mp.factorial(m) / (2 * mp.pi) ** m * mpc(re_li, im_li)
        b = poly_eval(bernoulli_poly_coeffs(m + 1), x)
        subs.append((f"m={m} re", lhs, T.real))
        subs.append((f"m={m} im", mp.pi * b / (m + 1) + T.imag, mpf(0)))
    notes = ("lhs: Hurwitz zeta' reflection combination by Euler-Maclaurin "
             "(imaginary part against the exact Bernoulli-polynomial term); "
             "rhs: unimodular polylogarithm form, real and imaginary parts "
             "checked separately")
    return subs, notes


def _id_alt_log_harmonic(_):
    # sum (-1)^{n+1} log n / n  ==  -sum log n (-1)^n / n
    lhs = -_unit_circle_sum(mpf(-1), 1, 1)
    ln2 = mp.log(2)
    rhs = ln2 ** 2 / 2 - euler_gamma() * ln2
    notes = ("lhs: alternating log-harmonic series by the Euler transform "
             "at z = -1; rhs: log^2(2)/2 - gamma log 2")
    return [("", lhs, rhs)], notes


def _id_phi_gamma1_bridge(x):
    lhs = phi_ramanujan(x - 1) - phi_ramanujan(-x)
    rhs = stieltjes_gamma1(1 - x) - stieltjes_gamma1(x)
    notes = ("lhs: phi by direct summation with Euler-Maclaurin tail; "
             "rhs: gamma1 from the Laurent structure of the "
             "Euler-Maclaurin formula")
    return [("", lhs, rhs)], notes


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityDef:
    tolerance: str          # decimal string; "0" means exact
    point_kind: str         # "x" | "int" | "none"
    evaluate: object = field(repr=False, default=None)
    domain_note: str = ""

    def in_domain(self, x: mpf) -> bool:
        if self.point_kind != "x":
            return True
        if not (0 < x < 1):
            return False
        if self.domain_note == "x != 1/2":
            return x != mpf(1) / 2
        return True


REGISTRY: dict[str, IdentityDef] = {
    "entry17v": IdentityDef("1e-8", "x", _id_entry17v),
    "cot_limit": IdentityDef("1e-10", "x", _id_cot_limit),
    "cos_limit": IdentityDef("1e-10", "x", _id_cos_limit),
    "alt_cos_limit": IdentityDef("1e-10", "x", _id_alt_cos_limit),
    "alt_sin_limit": IdentityDef("1e-10", "x", _id_alt_sin_limit, "x != 1/2"),
    "bernoulli_odd": IdentityDef("0", "int", _id_bernoulli_odd),
    "half_point_value": IdentityDef("1e-10", "none", _id_half_point_value),
    "deninger_log_cos": IdentityDef("1e-8", "x", _id_deninger_log_cos),
    "zeta_dd_fourier": IdentityDef("1e-5", "x", _id_zeta_dd_fourier),
    "log_cos_limit": IdentityDef("1e-8", "x", _id_log_cos_limit),
    "kummer_log_sin": IdentityDef("1e-8", "x", _id_kummer_log_sin),
    "even_exponent_sin": IdentityDef("1e-8", "x", _id_even_exponent_sin),
    "adamchik_reflection": IdentityDef("1e-8", "x", _id_adamchik_reflection),
    "alt_log_harmonic": IdentityDef("1e-8", "none", _id_alt_log_harmonic),
    "phi_gamma1_bridge": IdentityDef("1e-6", "x", _id_phi_gamma1_bridge),
}


def _registry_names() -> str:
    return ", ".join(sorted(REGISTRY))


def verify_identity(name: str, point=None,
                    cfg: EvalConfig | None = None) -> IdentityReport:
    """Verify one identity at one point; see REGISTRY for names.

    point is the integer m for bernoulli_odd, ignored for the
    point-independent identities, and x in (0,1) otherwise.
    """
    if name not in REGISTRY:
        raise UnknownIdentityError(
            f"unknown identity {name!r}; valid names: {_registry_names()}")
    defn = REGISTRY[name]
    with workprec(cfg):
        tol = xreal(defn.tolerance)
        inputs = []
        if defn.point_kind == "x":
            if point is None:
                raise DomainError(f"identity {name} needs a point in (0,1)")
            x = xreal(point)
            if not defn.in_domain(x):
                raise DomainError(
                    f"point {mp.nstr(x, 8)} outside the domain of {name}"
                    + (f" ({defn.domain_note})" if defn.domain_note else ""))
            inputs = [("x", x)]
            subs, notes = defn.evaluate(x)
        elif defn.point_kind == "int":
            m = None if point is None else int(point)
            if m is not None and (isinstance(point, bool) or m != point
                                  or not 0 <= m <= 20):
                raise DomainError(f"{name} expects an integer 0 <= m <= 20")
            if m is not None:
                inputs = [("m", xreal(m))]
            subs, notes = defn.evaluate(m)
        else:
            subs, notes = defn.evaluate(None)
        worst = None
        for label, lhs, rhs in subs:
            res = abs(lhs - rhs)
            if worst is None or res > worst[1]:
                worst = ((label, lhs, rhs), res)
        (label, lhs, rhs), abs_res = worst
        if label:
            notes = f"{notes}; worst at {label}"
        scale = max(abs(lhs), abs(rhs))
        rel = abs_res / scale if scale > 0 else mpf(0)
        return IdentityReport(
            identity_name=name,
            inputs=inputs,
            lhs=+lhs,
            rhs=+rhs,
            abs_residual=+abs_res,
            rel_residual=+rel,
            tolerance=+tol,
            passed=bool(abs_res <= tol),
            method_notes=notes,
        )


def run_suite(names, grid, cfg: EvalConfig | None = None) -> list[IdentityReport]:
    """Verify identities over a grid; one report per (name, applicable point).

    Point-independent identities (and bernoulli_odd, which folds all
    m <= 20) produce exactly one report each. Ordering is deterministic:
    by name, then point. Evaluation errors become failed reports rather
    than aborting the suite.
    """
    for name in names:
        if name not in REGISTRY:
            raise UnknownIdentityError(
                f"unknown identity {name!r}; valid names: {_registry_names()}")
    with workprec(cfg):
        pts = [xreal(g) for g in grid]
        for p in pts:
            if not (0 < p < 1) or min(p, 1 - p) < mpf("1e-3"):
                raise DomainError(
                    "grid points must lie in (0,1), at least 1e-3 from "
                    "the endpoints")
        pts.sort()
        reports: list[IdentityReport] = []
        for name in sorted(set(names)):
            defn = REGISTRY[name]
            if defn.point_kind != "x":
                reports.append(_safe_verify(name, None))
                continue
            for p in pts:
                if not defn.in_domain(p):
                    continue
                rep = _safe_verify(name, p)
                if min(p, 1 - p) < mpf("1e-2"):
                    rep.method_notes += ("; warning: point within 1e-2 of an "
                                         "interval endpoint")
                reports.append(rep)
        return reports


def _safe_verify(name: str, point) -> IdentityReport:
    try:
        return verify_identity(name, point)
    except Exception as exc:  # spec: propagate per-point errors into reports
        nan = mpf("nan")
        return IdentityReport(
            identity_name=name,
            inputs=[("x", xreal(point))] if point is not None else [],
            lhs=nan, rhs=nan,
            abs_residual=mpf("inf"), rel_residual=mpf("inf"),
            tolerance=xreal(REGISTRY[name].tolerance),
            passed=False,
            method_notes=f"error: {type(exc).__name__}: {exc}",
        )
