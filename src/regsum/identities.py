"""Registry of named closed-form identities with machine-checkable reports.

Every identity is evaluated by two maximally independent routes (never the
same closed form on both sides) and produces an IdentityReport with the
raw sides, residuals, tolerance and a note naming both routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from mpmath import mp, mpf, mpc

from .bernoulli import bernoulli_number, bernoulli_poly_coeffs, poly_eval
from .config import (DEFAULT_CONFIG, EvalConfig, cache_put, tolerance, workprec,
                     xreal)
from .errors import CapabilityError, DomainError, UnknownIdentityError
from .gammafn import digamma, loggamma
from .kernels import sum_entire, sum_oscillatory
from .series import (SeriesSpec, abel_oracle, direct_oracle, integer_sin_series,
                     log_cos_limit_series, regularized_limit)
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


def polylog_unimodular(order: int, x, cfg: EvalConfig | None = None):
    """(Re, Im) of Li_order(e^{2 pi i x}) for integer order >= 2, 0 < x < 1.

    The cosine/sine sums converge absolutely; the oscillatory tail is
    carried below the tolerance by the forward-difference transform.
    """
    if order < 2 or order != int(order):
        raise CapabilityError("polylog_unimodular needs integer order >= 2")
    cfg = cfg or DEFAULT_CONFIG
    with workprec(cfg):
        x = xreal(x)
        if not (0 < x < 1):
            raise DomainError("x must lie strictly inside (0, 1)")
        z = mp.expjpi(2 * x)
        val, _ = sum_oscillatory(lambda n: mpf(1) / mpf(n) ** int(order), z,
                                 tolerance(cfg) / 10, max_terms=cfg.max_terms)
        return +val.real, +val.imag


# --------------------------------------------------------------------------
# Per-identity evaluators.  Each returns (subchecks, notes) where subchecks
# is a list of (label, lhs, rhs); the report folds the worst residual.
# --------------------------------------------------------------------------

_G1_ORACLE_CACHE: dict[tuple, mpf] = {}


def _gamma1_oracle(x: mpf, cfg: EvalConfig) -> mpf:
    key = (x, mp.dps)
    v = _G1_ORACLE_CACHE.get(key)
    if v is None:
        v = stieltjes_gamma1_limit(x, cfg)
        cache_put(_G1_ORACLE_CACHE, key, v)
    return v


def _cot_pi(x: mpf) -> mpf:
    return mp.cospi(x) / mp.sinpi(x)


def _id_entry17v(x, cfg):
    lhs = _gamma1_oracle(1 - x, cfg) - _gamma1_oracle(x, cfg)
    c = euler_gamma(cfg) + log_two_pi()
    sin_log = regularized_limit(SeriesSpec("sin", x, 0, weight="log"), cfg)
    rhs = mp.pi * c * _cot_pi(x) + 2 * mp.pi * sin_log.value
    notes = ("lhs: gamma1 limit-formula oracle at 1-x and x; "
             "rhs: pi(gamma+log 2pi)cot(pi x) plus the zeta'(-odd) series "
             "via the reflection substitution")
    return [("", lhs, rhs)], notes


def _id_cot_limit(x, cfg):
    v = regularized_limit(SeriesSpec("sin", x, 0), cfg)
    rhs = _cot_pi(x) / 2
    notes = ("lhs: regularized exponent limit via exact-Bernoulli zeta(-odd) "
             "series; rhs: cot(pi x)/2 by direct transcendental evaluation")
    return [("", v.value, rhs)], notes


def _limit_series_em(kernel: str, alternating: bool, x, cfg):
    """s->0 limit series with zeta/eta taken from Euler-Maclaurin
    continuation (keeps the constant-limit checks non-vacuous)."""
    w = 2 * mp.pi * x

    def zeta_em(s):
        v = hurwitz_zeta_deriv(0, s, 1, cfg)
        if alternating:
            v = -v if s == 0 else (1 - mp.power(2, 1 - s)) * v
        return v

    def term(n):
        return ((-1) ** n * zeta_em(mpf(-2 * n))
                * mp.power(w, 2 * n) / mp.factorial(2 * n))
    val, _ = sum_entire(term, cfg)
    return val


def _id_cos_limit(x, cfg):
    lhs = _limit_series_em("cos", False, x, cfg)
    notes = ("lhs: zeta(-2n) series with zeta from Euler-Maclaurin "
             "continuation; rhs: -1/2")
    return [("", lhs, mpf(-1) / 2)], notes


def _id_alt_cos_limit(x, cfg):
    lhs = _limit_series_em("cos", True, x, cfg)
    notes = ("lhs: eta(-2n) series with eta from Euler-Maclaurin "
             "continuation; rhs: 1/2")
    return [("", lhs, mpf(1) / 2)], notes


def _id_alt_sin_limit(x, cfg):
    v = regularized_limit(SeriesSpec("sin", x, 0, alternating=True), cfg)
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


def _id_bernoulli_odd(m, cfg):
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


def _id_half_point_value(_, cfg):
    def term(n):
        return ((-1) ** (n + 1) * zeta_sderiv_at_negatives(2 * n + 1, cfg)
                * mp.pi ** (2 * n + 1) / mp.factorial(2 * n + 1))
    lhs, _n = sum_entire(term, cfg)
    rhs = (euler_gamma(cfg) + mp.log(mp.pi)) / mp.pi
    notes = ("lhs: zeta'(-odd) series at the half point via the reflection "
             "substitution; rhs: (gamma + log pi)/pi")
    return [("", lhs, rhs)], notes


def _log_cos_s1_closed(t, cfg):
    """sum_n log n cos(2 pi n t)/n by differentiating the cosine closed form
    at s = 1, where the prefactor pole and the zeta(s) pole cancel:
    value = p2 + gamma1 - sum_{n>=1} (-1)^n zeta'(1-2n) (2 pi t)^{2n}/(2n)!
    with p2 the quadratic coefficient of e^{wL}/Gamma(1+w) * (piw/2)/sin(piw/2).
    """
    if t > mpf(1) / 2:
        t = 1 - t  # cos(2 n pi t) is even about t = 1/2 termwise
    L = mp.log(2 * mp.pi * t)
    g = euler_gamma(cfg)
    p2 = L * L / 2 + g * L + g * g / 2 - mp.pi ** 2 / 24
    w = 2 * mp.pi * t

    def term(i):
        n = i + 1
        return ((-1) ** n * zeta_sderiv_at_negatives(2 * n - 1, cfg)
                * mp.power(w, 2 * n) / mp.factorial(2 * n))
    T, _ = sum_entire(term, cfg)
    return p2 + stieltjes_gamma1(1, cfg) - T


def _id_deninger_log_cos(t, cfg):
    lhs = _log_cos_s1_closed(t, cfg)
    c = euler_gamma(cfg) + log_two_pi()
    rhs = ((hurwitz_zeta_deriv(2, 0, t, cfg)
            + hurwitz_zeta_deriv(2, 0, 1 - t, cfg)) / 2
           + c * mp.log(2 * mp.sinpi(t)))
    notes = ("lhs: log-weighted cosine series closed form from the s=1 "
             "derivative of the cosine expansion (zeta'(1-2n) values); "
             "rhs: Hurwitz zeta'' at (0,t), (0,1-t) by Euler-Maclaurin "
             "plus the log-sine term")
    return [("", lhs, rhs)], notes


def _id_zeta_dd_fourier(t, cfg):
    lhs = hurwitz_zeta_deriv(2, 0, t, cfg)
    c = euler_gamma(cfg) + log_two_pi()
    a_sin_log2 = abel_oracle(SeriesSpec("sin", t, 1, weight="log2"), cfg).value
    a_sin_log = abel_oracle(SeriesSpec("sin", t, 1, weight="log"), cfg).value
    a_sin = abel_oracle(SeriesSpec("sin", t, 1), cfg).value
    a_cos_log = abel_oracle(SeriesSpec("cos", t, 1, weight="log"), cfg).value
    a_cos = abel_oracle(SeriesSpec("cos", t, 1), cfg).value
    base = ((a_sin_log2 + 2 * c * a_sin_log + c * c * a_sin) / mp.pi
            + c * a_cos + a_cos_log)
    z2 = riemann_zeta(2, cfg)
    rhs_printed = base - z2 / 4 * a_sin / mp.pi
    rhs_half = base - z2 / 2 * a_sin / mp.pi
    notes = ("lhs: zeta''(0,t) by Euler-Maclaurin; rhs: the printed Fourier "
             "form with all five component series Abel-summed (log^2, log "
             "and unit weights)")
    tol = xreal("1e-5")
    if abs(lhs - rhs_printed) > tol and abs(lhs - rhs_half) <= tol:
        notes += ("; SUSPECT CONSTANT: the printed (1/4)zeta(2) sine "
                  "coefficient is inconsistent, residual vanishes with "
                  "(1/2)zeta(2)")
    return [("", lhs, rhs_printed)], notes


def _id_log_cos_limit(x, cfg):
    lhs = 2 * log_cos_limit_series(x, cfg)
    g = euler_gamma(cfg)
    rhs = digamma(x, cfg) + mp.pi / 2 * _cot_pi(x) + g + log_two_pi()
    notes = ("lhs: odd-zeta power series route -1/(2x)+log 2pi-sum "
             "zeta(2n+1)x^{2n}; rhs: digamma/cotangent closed form")
    return [("", lhs, rhs)], notes


def _log_sin_s1_closed(t, cfg):
    """sum_n log n sin(2 pi n t)/n from the s=1 derivative of the sine
    closed form (regular there): -(pi/2)(gamma + log 2 pi t) - zeta'(-2n) tail."""
    sign = mpf(1)
    if t > mpf(1) / 2:
        t, sign = 1 - t, mpf(-1)  # sin(2 n pi t) is odd about t = 1/2 termwise
    w = 2 * mp.pi * t

    def term(n):
        zp = (zeta_prime_at_zero(cfg) if n == 0
              else zeta_sderiv_at_negatives(2 * n, cfg))
        return (-1) ** n * zp * mp.power(w, 2 * n + 1) / mp.factorial(2 * n + 1)
    T, _ = sum_entire(term, cfg)
    return sign * (-mp.pi / 2 * (euler_gamma(cfg) + mp.log(w)) - T)


def _id_kummer_log_sin(t, cfg):
    lhs = _log_sin_s1_closed(t, cfg)
    c = euler_gamma(cfg) + log_two_pi()
    rhs = (mp.pi / 2 * (loggamma(t, cfg) - loggamma(1 - t, cfg))
           + c * mp.pi * (t - mpf(1) / 2))
    notes = ("lhs: log-weighted sine series closed form via zeta'(-even) "
             "values; rhs: log-gamma reflection difference from mpmath's "
             "loggamma")
    return [("", lhs, rhs)], notes


def _id_even_exponent_sin(x, cfg):
    subs = []
    for m in (1, 2):
        v = integer_sin_series(x, 2 * m, cfg)
        d = direct_oracle(SeriesSpec("sin", x, 2 * m), 4 * 10 ** 4, cfg)
        subs.append((f"m={m}", v.value, d.value))
    notes = ("lhs: even-exponent closed form (log/digamma head plus zeta "
             "tails); rhs: Cesaro-averaged direct summation")
    return subs, notes


_ADAMCHIK_PHASES = {0: mpc(1, 0), 1: mpc(0, -1), 2: mpc(-1, 0), 3: mpc(0, 1)}


def _id_adamchik_reflection(x, cfg):
    subs = []
    for m in (1, 2, 3):
        lhs = (hurwitz_zeta_deriv(1, -m, x, cfg)
               + (-1) ** m * hurwitz_zeta_deriv(1, -m, 1 - x, cfg))
        re_li, im_li = polylog_unimodular(m + 1, x, cfg)
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


def _id_alt_log_harmonic(_, cfg):
    # (-1)^{n+1} log n / n  ==  -(cos series with log weight at x = 1/2, s = 1)
    a = abel_oracle(SeriesSpec("cos", mpf(1) / 2, 1, weight="log"), cfg)
    lhs = -a.value
    ln2 = mp.log(2)
    rhs = ln2 ** 2 / 2 - euler_gamma(cfg) * ln2
    notes = ("lhs: Abel-summed alternating log-harmonic series (cosine "
             "kernel at x=1/2); rhs: log^2(2)/2 - gamma log 2")
    return [("", lhs, rhs)], notes


def _id_phi_gamma1_bridge(x, cfg):
    lhs = phi_ramanujan(x - 1, cfg) - phi_ramanujan(-x, cfg)
    rhs = stieltjes_gamma1(1 - x, cfg) - stieltjes_gamma1(x, cfg)
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
        if self.domain_note == "x<0.45":
            return x < mpf("0.45")
        return True


REGISTRY: dict[str, IdentityDef] = {
    "entry17v": IdentityDef("1e-8", "x", _id_entry17v),
    "cot_limit": IdentityDef("1e-10", "x", _id_cot_limit),
    "cos_limit": IdentityDef("1e-10", "x", _id_cos_limit),
    "alt_cos_limit": IdentityDef("1e-10", "x", _id_alt_cos_limit),
    "alt_sin_limit": IdentityDef("1e-10", "x", _id_alt_sin_limit, "x<0.45"),
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
    cfg = cfg or DEFAULT_CONFIG
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
            subs, notes = defn.evaluate(x, cfg)
        elif defn.point_kind == "int":
            m = None if point is None else int(point)
            if m is not None and not (0 <= m <= 20):
                raise DomainError(f"{name} expects integer m <= 20")
            if m is not None:
                inputs = [("m", xreal(m))]
            subs, notes = defn.evaluate(m, cfg)
        else:
            subs, notes = defn.evaluate(None, cfg)
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
    cfg = cfg or DEFAULT_CONFIG
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
                reports.append(_safe_verify(name, None, cfg))
                continue
            for p in pts:
                if not defn.in_domain(p):
                    continue
                rep = _safe_verify(name, p, cfg)
                if min(p, 1 - p) < mpf("1e-2"):
                    rep.method_notes += ("; warning: point within 1e-2 of an "
                                         "interval endpoint")
                reports.append(rep)
        return reports


def _safe_verify(name: str, point, cfg: EvalConfig) -> IdentityReport:
    try:
        return verify_identity(name, point, cfg)
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
