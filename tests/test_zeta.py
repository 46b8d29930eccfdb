"""Zeta engine: values, s-derivatives, Laurent/Stieltjes machinery.

Expected values come from exact Bernoulli arithmetic, published constants,
transcendental closed forms, or the independent limit-formula oracle --
never from the code path being checked.
"""

import time
import warnings

import pytest
from mpmath import mp, mpf

from regsum import (DEFAULT_CONFIG, DomainError, EvalConfig, PoleError,
                    PrecisionLossWarning, SeriesSpec, bernoulli_number,
                    closed_form_series, digamma, eta, euler_gamma,
                    hurwitz_zeta_deriv,
                    laurent_coefficients, loggamma, phi_ramanujan,
                    riemann_zeta, stieltjes_gamma1, stieltjes_gamma1_limit,
                    stieltjes_integral, workprec, xreal,
                    zeta_prime_at_zero, zeta_sderiv_at_negatives)
from regsum.config import CACHE_CAP, memo, tolerance, working_dps
from regsum.zeta import _em_zeta_derivs, _laurent_wcoeffs

from refs import (euler_gamma_ref, gamma1_ref, hurwitz_series, romberg,
                  seeded_uniforms, zeta3_ref)

CFG = DEFAULT_CONFIG
TOL = "1e-20"


# ------------------------------ riemann zeta ------------------------------

def test_zeta_two_is_pi_squared_over_six():
    with workprec(CFG):
        assert abs(riemann_zeta(2, CFG) - mp.pi ** 2 / 6) < mpf(TOL)


def test_zeta_zero():
    with workprec(CFG):
        assert riemann_zeta(0, CFG) == mpf(-1) / 2


def test_zeta_negative_three():
    # -B_4/4 with B_4 from the exact recurrence
    with workprec(CFG):
        ref = -xreal(bernoulli_number(4)) / 4
        assert ref == mpf(1) / 120
        assert abs(riemann_zeta(-3, CFG) - ref) < mpf(TOL)


def test_zeta_trivial_zeros():
    with workprec(CFG):
        for n in range(1, 6):
            assert riemann_zeta(-2 * n, CFG) == 0


def test_zeta_pole():
    with pytest.raises(PoleError):
        riemann_zeta(1, CFG)


def test_zeta_near_pole_laurent():
    # zeta(1+e) + zeta(1-e) -> 2 gamma + O(e^2)
    with workprec(CFG):
        e = mpf("1e-4")
        sym = riemann_zeta(1 + e, CFG) + riemann_zeta(1 - e, CFG)
        assert abs(sym - 2 * euler_gamma_ref()) < mpf("1e-6")
        # and the defining Laurent limit itself
        e = mpf("1e-8")
        assert abs((riemann_zeta(1 + e, CFG) - 1 / e)
                   - euler_gamma_ref()) < mpf("1e-7")


def test_zeta_functional_equation_nonintegers():
    # continuation route at s<0 against the s>1 Euler-Maclaurin route
    with workprec(CFG):
        s = mpf("-2.5")
        lhs = riemann_zeta(s, CFG)
        rhs = (2 ** s * mp.pi ** (s - 1) * mp.sinpi(s / 2)
               * mp.exp(loggamma(1 - s, CFG)) * riemann_zeta(1 - s, CFG))
        assert abs(lhs - rhs) < mpf(TOL)


# --------------------------------- eta ------------------------------------

def test_eta_zero_and_trivial_zeros():
    with workprec(CFG):
        assert abs(eta(0, CFG) - mpf(1) / 2) < mpf(TOL)
        assert abs(eta(-2, CFG)) < mpf(TOL)


def test_eta_at_one_against_partial_sums():
    # alternating harmonic series, twice-averaged partial sums
    with workprec(CFG):
        N = 4000
        s = mpf(0)
        partials = []
        for n in range(1, N + 4):
            s += mpf((-1) ** (n + 1)) / n
            partials.append(s)
        once = [(a + b) / 2 for a, b in zip(partials[-4:], partials[-3:])]
        ref = (once[0] + once[1]) / 2
        assert abs(eta(1, CFG) - ref) < mpf("1e-8")
        assert abs(eta(1, CFG) - mp.log(2)) < mpf(TOL)


def test_eta_matches_zeta_factor_random_s():
    with workprec(CFG):
        pts = seeded_uniforms(99, 20, -3.0, 4.0)
        for s in pts:
            if abs(s - 1) < mpf("0.02"):
                continue
            ref = (1 - 2 ** (1 - s)) * riemann_zeta(s, CFG)
            assert abs(eta(s, CFG) - ref) < mpf(TOL), s


# ----------------------------- hurwitz zeta -------------------------------

def test_hurwitz_reduces_to_riemann():
    with workprec(CFG):
        for s in (mpf("-2.5"), mpf("0.5"), mpf(3)):
            assert abs(hurwitz_zeta_deriv(0, s, 1, CFG)
                       - riemann_zeta(s, CFG)) < mpf(TOL)


def test_hurwitz_half_argument_formula():
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    with workprec(CFG):
        for s in (mpf("-2.5"), mpf("0.5"), mpf(3)):
            lhs = hurwitz_zeta_deriv(0, s, mpf("0.5"), CFG)
            rhs = (2 ** s - 1) * riemann_zeta(s, CFG)
            assert abs(lhs - rhs) < mpf(TOL), s


def test_lerch_formula_against_integration_route():
    # zeta'(0, a) = log Gamma(a) - log(2 pi)/2, log Gamma by digamma quadrature
    with workprec(CFG):
        for a in (mpf("0.25"), mpf("0.5"), mpf(1), mpf(2)):
            lg = romberg(lambda t: digamma(t, CFG), 1, a, levels=11)
            lhs = hurwitz_zeta_deriv(1, 0, a, CFG)
            assert abs(lhs - (lg - mp.log(2 * mp.pi) / 2)) < mpf("1e-20"), a


def test_second_derivative_at_half():
    with workprec(CFG):
        ref = -mp.log(2 * mp.pi) * mp.log(2) - mp.log(2) ** 2 / 2
        assert abs(hurwitz_zeta_deriv(2, 0, mpf("0.5"), CFG) - ref) < mpf(TOL)


def test_hurwitz_shift_relation():
    # zeta(s, 1+x) = zeta(s, x) - x^{-s}; zeta'(1-2m, 1+x) = zeta'(1-2m, x) + x^{2m-1} log x
    with workprec(CFG):
        x = mpf("0.3")
        s = mpf("-2.5")
        lhs = hurwitz_zeta_deriv(0, s, 1 + x, CFG)
        rhs = hurwitz_zeta_deriv(0, s, x, CFG) - x ** (-s)
        assert abs(lhs - rhs) < mpf(TOL)
        for m in (1, 2):
            lhs = hurwitz_zeta_deriv(1, 1 - 2 * m, 1 + x, CFG)
            rhs = (hurwitz_zeta_deriv(1, 1 - 2 * m, x, CFG)
                   + x ** (2 * m - 1) * mp.log(x))
            assert abs(lhs - rhs) < mpf(TOL), m


def test_hurwitz_domain_and_pole_errors():
    with pytest.raises(DomainError):
        hurwitz_zeta_deriv(0, 2, -1, CFG)
    with pytest.raises(PoleError):
        hurwitz_zeta_deriv(1, 1, mpf("0.5"), CFG)
    with pytest.raises(DomainError):
        hurwitz_zeta_deriv(3, 2, 1, CFG)


# ------------------------- zeta' at negative integers ---------------------

def test_zeta_prime_minus_two():
    # zeta'(-2) = -zeta(3)/(4 pi^2)
    with workprec(CFG):
        ref = -zeta3_ref() / (4 * mp.pi ** 2)
        assert abs(zeta_sderiv_at_negatives(2, CFG) - ref) < mpf(TOL)


def test_zeta_prime_at_zero_exposed_separately():
    with workprec(CFG):
        assert abs(zeta_prime_at_zero(CFG) + mp.log(2 * mp.pi) / 2) < mpf(TOL)
        assert abs(zeta_prime_at_zero(CFG)
                   - hurwitz_zeta_deriv(1, 0, 1, CFG)) < mpf(TOL)
    with pytest.raises(DomainError):
        zeta_sderiv_at_negatives(0, CFG)


def test_zeta_prime_substitution_vs_hurwitz_route():
    # two independent routes must coincide (criterion tolerance 1e-10)
    with workprec(CFG):
        for j in range(1, 10):
            a = zeta_sderiv_at_negatives(j, CFG)
            b = hurwitz_zeta_deriv(1, -j, 1, CFG)
            assert abs(a - b) < mpf("1e-10"), j


# --------------------------- Stieltjes constants --------------------------

def test_gamma0_is_minus_digamma():
    with workprec(CFG):
        for x in (mpf("0.25"), mpf("0.5"), mpf(1), mpf("1.75")):
            lc = laurent_coefficients(x, CFG)
            combined = lc.error_estimates[0] + mpf("1e-20")
            assert abs(lc.gamma0 + digamma(x, CFG)) < combined, x


def test_gamma1_engine_against_published_value():
    with workprec(CFG):
        assert abs(stieltjes_gamma1(1, CFG) - gamma1_ref()) < mpf(TOL)


def test_gamma1_engine_vs_limit_oracle_grid():
    with workprec(CFG):
        for i in range(1, 10):
            x = mpf(i) / 10
            a = stieltjes_gamma1(x, CFG)
            b = stieltjes_gamma1_limit(x, CFG)
            assert abs(a - b) < mpf("1e-8"), x


def test_gamma1_limit_flags_its_accuracy_cap():
    # the limit formula is good to ~1e-29 at any precision: silent at 50
    # digits (tolerance 1e-20), flagged at 100 (tolerance 1e-70)
    x = mpf("0.3")
    with workprec(CFG), warnings.catch_warnings():
        warnings.simplefilter("error", PrecisionLossWarning)
        v50 = stieltjes_gamma1_limit(x)
        assert abs(v50 - stieltjes_gamma1(x)) < mpf("1e-28")
    cfg100 = EvalConfig(100)
    with workprec(cfg100):
        with pytest.warns(PrecisionLossWarning, match="gamma1 limit"):
            v100 = stieltjes_gamma1_limit(x)
        assert abs(v100 - stieltjes_gamma1(x)) < mpf("1e-28")


def test_gamma_constant_consistency():
    # gamma_0 = gamma: the cached constant, the Laurent field and the
    # published value all agree
    with workprec(CFG):
        assert abs(euler_gamma(CFG) - euler_gamma_ref()) < mpf(TOL)
        assert abs(laurent_coefficients(1, CFG).gamma0
                   - euler_gamma_ref()) < mpf(TOL)


def test_gamma1_domain():
    with pytest.raises(DomainError):
        stieltjes_gamma1(0, CFG)
    with pytest.raises(DomainError):
        stieltjes_gamma1_limit(mpf("-0.5"), CFG)


# ------------------------------- phi --------------------------------------

def test_phi_trivial_zeros():
    with workprec(CFG):
        assert phi_ramanujan(0, CFG) == 0
        assert abs(phi_ramanujan(1, CFG)) < mpf(TOL)


def test_phi_gamma1_bridge_point():
    with workprec(CFG):
        x = mpf("0.3")
        lhs = phi_ramanujan(x - 1, CFG) - phi_ramanujan(-x, CFG)
        rhs = stieltjes_gamma1(1 - x, CFG) - stieltjes_gamma1(x, CFG)
        assert abs(lhs - rhs) < mpf(TOL)


def test_phi_domain():
    with pytest.raises(DomainError):
        phi_ramanujan(-1, CFG)


# --------------------------- stieltjes integral ---------------------------

def test_stieltjes_integral_order_zero():
    with workprec(CFG):
        assert stieltjes_integral(0, 1, CFG) == 0
        # -log Gamma(1/2) = -log(pi)/2
        assert abs(stieltjes_integral(0, mpf("0.5"), CFG)
                   + mp.log(mp.pi) / 2) < mpf(TOL)
        a = mpf("0.3")
        assert abs(stieltjes_integral(0, a, CFG) + loggamma(a, CFG)) < mpf(TOL)


def test_stieltjes_integral_order_one_half_point():
    with workprec(CFG):
        dd_half = -mp.log(2 * mp.pi) * mp.log(2) - mp.log(2) ** 2 / 2
        dd_one = hurwitz_zeta_deriv(2, 0, 1, CFG)
        ref = (dd_half - dd_one) / 2
        assert abs(stieltjes_integral(1, mpf("0.5"), CFG) - ref) < mpf(TOL)


def test_stieltjes_integral_domain():
    with pytest.raises(DomainError):
        stieltjes_integral(2, mpf("0.5"), CFG)
    with pytest.raises(DomainError):
        stieltjes_integral(0, 0, CFG)


# ----------------------- precision sweep of the engine --------------------

# Built once from binary floats, so both sides see the same exact values; a
# decimal string parsed at a higher precision would move them by ~1e-17.
SWEEP_S = [mpf(v) for v in (-40.5, -5.5, -0.5, 0.5, 0.95, 2.5, 31.5, 64.25)]
SWEEP_A = [mpf(v) for v in (0.1, 0.3, 1, 1.7)]
SWEEP_DIGITS = [30, 50, 100,
                pytest.param(200, marks=pytest.mark.slow),
                pytest.param(300, marks=pytest.mark.slow)]


def _within_tol(value, ref, cfg):
    # absolute below |ref| = 1, relative above: zeta(-40.5, a) is ~1e17
    return abs(value - ref) <= tolerance(cfg) * max(1, abs(ref))


@pytest.mark.parametrize("digits", SWEEP_DIGITS)
def test_engine_precision_sweep(digits):
    cfg = EvalConfig(precision_digits=digits)
    ref_dps = working_dps(cfg) + 60
    bad = []
    for k in (0, 1, 2):
        for s in SWEEP_S:
            for a in SWEEP_A:
                v = hurwitz_zeta_deriv(k, s, a, cfg)
                with mp.workdps(ref_dps):
                    if not _within_tol(v, mp.zeta(s, a, k), cfg):
                        bad.append(("hurwitz", k, s, a))
    # 31.5 and 64.25 used to take a direct Dirichlet sum, as did odd j >= 29;
    # -513 and j = 513 are where the Bernoulli route would need B_514, past
    # BERNOULLI_INDEX_CAP
    for s in (mpf(31.5), mpf(64.25), mpf(-513)):
        v = riemann_zeta(s, cfg)
        with mp.workdps(ref_dps):
            if not _within_tol(v, mp.zeta(s), cfg):
                bad.append(("riemann", s))
    for j in (1, 2, 29, 41, 61, 513):
        v = zeta_sderiv_at_negatives(j, cfg)
        with mp.workdps(ref_dps):
            # mp.zeta(-513, 1, 1) takes 7-23 s on a 2-core Xeon; mp.diff
            # differentiates mpmath's zeta at non-integer s around -513,
            # through its own functional equation, in 0.1-5 s
            ref = mp.diff(mp.zeta, -j) if j > 100 else mp.zeta(-j, 1, 1)
            if not _within_tol(v, ref, cfg):
                bad.append(("zeta'(-j)", j))
    assert not bad, bad


def test_third_derivative_against_mpmath():
    # hurwitz_zeta_deriv stops at k = 2, but the engine gives any order
    cfg = EvalConfig(precision_digits=50)
    bad = []
    for s in (mpf(-5.5), mpf(0.5), mpf(2.5)):
        for a in (mpf(0.3), mpf(1.7)):
            with workprec(cfg):
                v = _em_zeta_derivs(s, a, 3)[3]
            with mp.workdps(working_dps(cfg) + 60):
                if not _within_tol(v, mp.zeta(s, a, 3), cfg):
                    bad.append((s, a, v))
    assert not bad, bad


@pytest.mark.parametrize(
    "digits", [50, pytest.param(100, marks=pytest.mark.slow)])
def test_laurent_coefficients_against_stieltjes(digits):
    # zeta(1+w, a) - 1/w = sum_n (-1)^n gamma_n(a)/n! w^n
    cfg = EvalConfig(precision_digits=digits)
    bad = []
    for a in (mpf(0.3), mpf(1), mpf(1.7)):
        with workprec(cfg):
            c, _ = _laurent_wcoeffs(a, 6)
        with mp.workdps(working_dps(cfg) + 30):
            for n in range(7):
                ref = (-1) ** n * mp.stieltjes(n, a) / mp.factorial(n)
                if not _within_tol(c[n], ref, cfg):
                    bad.append((a, n, c[n]))
    assert not bad, bad


@pytest.mark.parametrize("digits", [50, 100])
def test_eta_near_one_against_altzeta(digits):
    # the band |s - 1| < 0.02 that the random-s test skips
    cfg = EvalConfig(precision_digits=digits)
    bad = []
    for w in ("1e-30", "-1e-30", "1e-8", "-1e-8", "0.05", "-0.09"):
        with workprec(cfg):
            s = 1 + mpf(w)
            v = eta(s)
        with mp.workdps(working_dps(cfg) + 60):
            if not _within_tol(v, mp.altzeta(s), cfg):
                bad.append((w, v))
    assert not bad, bad


def test_closed_form_has_no_precision_cliff():
    # the zeta tail reaches s up to ~120 through the functional equation; a
    # direct Dirichlet sum there needs 10^((dps+2)/s) terms (~500 s here)
    cfg = EvalConfig(precision_digits=200)
    x, s = mpf(0.3), mpf(0.5)
    t0 = time.perf_counter()
    rv = closed_form_series(SeriesSpec("sin", x, s), cfg)
    elapsed = time.perf_counter() - t0
    with mp.workdps(working_dps(cfg) + 60):
        # equals Im polylog(s, e^{2 pi i x}), which mpmath takes ~15 s for
        assert abs(rv.value - hurwitz_series("sin", x, s)) <= tolerance(cfg)
    assert elapsed < 10, elapsed


def test_memo_is_bounded_lru_and_counted():
    computed = []

    @memo
    def neg(i):
        computed.append(i)
        return -i

    for i in range(CACHE_CAP):
        neg(i)
    assert neg(0) == 0 and computed == list(range(CACHE_CAP))  # a hit
    neg(CACHE_CAP)  # evicts 1, now the least recently used, not 0
    info = neg.cache_info()
    assert (info.currsize, info.maxsize) == (CACHE_CAP, CACHE_CAP)
    assert (info.hits, info.misses) == (1, CACHE_CAP + 1)
    neg(0)
    neg(1)
    assert computed[-1] == 1 and len(computed) == CACHE_CAP + 2
    with mp.workdps(mp.dps + 10):
        neg(0)  # cached, but at another precision
    assert computed[-1] == 0
    info = neg.cache_info()
    assert (info.hits, info.misses) == (2, CACHE_CAP + 3)


def test_memo_keys_on_precision():
    # the same arguments at 50 and then 100 digits: a cache keyed without
    # the precision would hand back the 50-digit values
    for digits in (50, 100):
        cfg = EvalConfig(digits)
        got = (riemann_zeta(mpf(3) / 2, cfg), euler_gamma(cfg),
               zeta_sderiv_at_negatives(3, cfg))
    with mp.workdps(working_dps(cfg) + 20):
        ref = (mp.zeta(mpf(3) / 2), +mp.euler, mp.zeta(-3, derivative=1))
    for v, r in zip(got, ref):
        assert abs(v - r) <= tolerance(cfg), (v, r)
