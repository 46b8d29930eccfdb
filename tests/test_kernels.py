"""The fixed-point power-series kernel behind sum_taylor, Richardson
extrapolation, the oscillatory transform."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from regsum import (ArityError, ConvergenceError, DomainError,
                    DEFAULT_CONFIG, EvalConfig, SeriesSpec,
                    closed_form_series, kernels, regularized_limit, series,
                    richardson_extrapolate, riemann_zeta, sum_oscillatory,
                    sum_taylor, workprec)
from regsum.config import tolerance, xreal

from refs import catalan, polylog_log_weight, termwise_sum

CFG = DEFAULT_CONFIG


def test_domain_errors():
    # extrapolation toward h = 0 needs every sample at h > 0
    with pytest.raises(DomainError):
        richardson_extrapolate([(mpf(1), mpf(1)), (mpf(0), mpf(1))], 1)


def test_power_series_terms_of_the_closed_forms():
    # the stop rule as the closed forms' zeta tails see it
    spec = SeriesSpec("sin", Fraction(5, 16), Fraction(27, 8))
    assert closed_form_series(spec, EvalConfig(50)).terms_used == 22
    spec = SeriesSpec("sin", Fraction(5, 16), 0, weight="log")
    assert regularized_limit(spec).terms_used == 25


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_sum_taylor_trig(digits):
    # c = 1: sin w (p = 1), cos w (p = 0) and 1 - cos w (p = 2)
    cfg = EvalConfig(digits)
    with workprec(cfg):
        for w in (mpf("1e-3"), mpf(1), +mp.pi):
            for p, ref in ((1, mp.sin(w)), (0, mp.cos(w)),
                           (2, 1 - mp.cos(w))):
                val, _ = sum_taylor(lambda n: mpf(1), w, p)
                assert abs(val - ref) < tolerance(cfg), (w, p)


def test_sum_taylor_zeta_tail():
    # the fixed-point kernel against termwise powers and factorials
    with workprec(CFG):
        w = mp.pi / 2

        def term(n):
            return ((-1) ** n * riemann_zeta(-2 * n - 1)
                    * mp.power(w, 2 * n + 1) / mp.factorial(2 * n + 1))
        ref, n_ref = termwise_sum(term)
        val, n = sum_taylor(lambda n: riemann_zeta(-2 * n - 1), w, 1)
        assert abs(val - ref) < tolerance(CFG)
        assert n == n_ref


def _taylor_ref(zeta_c, w, p):
    """sum_n (-1)^n c(n) w^{2n+p}/(2n+p)! by mpmath, p = 0, 1, 2: for c = 1
    the cosine, the sine and 1 - cosine; for c(n) = zeta(-2n-1) the Clausen
    forms Cl_{-1}(w) + 1/w^2, Cl_0(w) - 1/w and -(Cl_1(w) + log w), the
    regularized sums of n cos(n w), sin(n w) and cos(n w)/n less their
    singular parts at w = 0 (the last negated)."""
    if not zeta_c:
        return (mp.cos(w), mp.sin(w), 1 - mp.cos(w))[p]
    return (mp.clcos(-1, w) + 1 / w ** 2, mp.clsin(0, w) - 1 / w,
            -mp.clcos(1, w) - mp.log(w))[p]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(j=st.integers(1, 2**20 - 1), p=st.sampled_from((0, 1, 2)),
       digits=st.sampled_from((30, 50, 100)), zeta_c=st.booleans())
def test_sum_taylor_against_trig_and_clausen(j, p, digits, zeta_c):
    # w in (0, 2 pi); the zeta series converge for w < 2 pi only, and
    # slowly near it, so they take w in (0, 3 pi/2)
    cfg = EvalConfig(digits)
    with workprec(cfg):
        w = 2 * mp.pi * j / 2**20 * (mpf(3) / 4 if zeta_c else 1)
        c = ((lambda n: riemann_zeta(-2 * n - 1)) if zeta_c
             else (lambda n: mpf(1)))
        val, _ = sum_taylor(c, w, p)
        with mp.extradps(30):
            ref = _taylor_ref(zeta_c, w, p)
        assert abs(val - ref) < tolerance(cfg), (w, p)


def _one(s, k):
    return mpf(1)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_power_series_starts_at_y_to_the_p(p):
    # c_k = 1 at y: cos, sin and 1 - cos of w = 2 pi y, the first term y^p
    with workprec(CFG):
        for y in (mpf("0.01"), mpf("0.3"), mpf("0.5"), mpf("0.9")):
            w = 2 * mp.pi * y
            val, _ = kernels._power_series(_one, p, 0, y, [])
            ref = (mp.cos(w), mp.sin(w), 1 - mp.cos(w))[p]
            assert abs(val - ref) < tolerance(CFG), (p, y)


def test_sum_taylor_leaves_the_table_memo_alone():
    # a caller's callables build throwaway tables: 200 fresh lambdas evict
    # no zeta tail table and add no entry
    spec = SeriesSpec("sin", Fraction(5, 16), Fraction(27, 8))
    closed_form_series(spec, CFG)
    with workprec(CFG):
        key = (series._zeta_coeff, 1, xreal(spec.s))
        info = kernels._coeff_table.cache_info()
        table = kernels._coeff_table(*key)
        size = len(table)
        for i in range(200):
            sum_taylor(lambda n, i=i: mpf(i), mpf(1) / 3, i % 3)
        after = kernels._coeff_table.cache_info()
        assert after.currsize == info.currsize
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)
        assert kernels._coeff_table(*key) is table and len(table) == size


def test_sum_taylor_nondecay_raises(monkeypatch):
    # sum_taylor runs the stop rule's MAX_TERMS guard too
    monkeypatch.setattr(kernels, "MAX_TERMS", 100)
    with pytest.raises(ConvergenceError):
        sum_taylor(lambda n: mp.factorial(2 * n + 1), mpf(1), 1)


def test_richardson_linear_exact():
    samples = [(mpf(1) / 2 ** k, 3 + 2 * mpf(1) / 2 ** k) for k in (1, 2, 3)]
    val, _ = richardson_extrapolate(samples, 1)
    assert abs(val - 3) < mpf("1e-40")


def test_richardson_quadratic():
    samples = [(mpf(1) / 2 ** k, 1 + (mpf(1) / 2 ** k) ** 2)
               for k in (1, 2, 3, 4)]
    val, _ = richardson_extrapolate(samples, 2)
    assert abs(val - 1) < mpf("1e-40")


def test_richardson_arity_error():
    with pytest.raises(ArityError):
        richardson_extrapolate([(mpf(1), mpf(1))], 1)


def test_richardson_needs_decreasing_h():
    with pytest.raises(DomainError):
        richardson_extrapolate([(mpf(1), mpf(1)), (mpf(2), mpf(1))], 1)


def test_richardson_abel_geometric():
    # Abel samples of sum r^n sin(n pi/2): closed form r/(1+r^2) -> 1/2
    with workprec(CFG):
        samples = []
        for k in range(4, 17):
            h = mpf(2) ** -k
            r = 1 - h
            samples.append((h, r / (1 + r * r)))
        val, _ = richardson_extrapolate(samples, 6)
        assert abs(val - mpf(1) / 2) < mpf("1e-6")


def test_sum_oscillatory_bernoulli_fourier():
    # sum cos(2 pi n x)/n^2 = pi^2 B_2(x); sin part at x=1/4 gives Catalan
    with workprec(CFG):
        x = mpf("0.25")
        z = mp.expjpi(2 * x)
        val, _ = sum_oscillatory(lambda n: mpf(1) / (n * n), z, mpf("1e-30"))
        b2 = x * x - x + mpf(1) / 6
        assert abs(val.real - mp.pi ** 2 * b2) < mpf("1e-25")
        assert abs(val.imag - catalan()) < mpf("1e-25")


def test_sum_oscillatory_rejects_z_one():
    with pytest.raises(DomainError):
        sum_oscillatory(lambda n: mpf(1) / n, mpf(1), mpf("1e-10"))


def test_sum_oscillatory_budget(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_TERMS", 500)
    with workprec(CFG):
        z = mp.expjpi(mpf(2) / 1000) * (1 - mpf(2) ** -20)
        with pytest.raises(ConvergenceError):
            sum_oscillatory(lambda n: mp.log(n), z, mpf("1e-30"))


# terms_used of each case below, pinned: the exact fixed-point difference
# table and the squared-magnitude stop take the terms that an mpf table and
# an abs() stop take. digits -> ((1/n^2 at x = 1/8, 3/10, 7/10),
# (log n/n at the same x), (-1)^n log n/n)
_OSC_TERMS = {
    50: ((85, 68, 68), (82, 68, 68), 67),
    100: ((492, 175, 175), (489, 174, 174), 149),
    200: ((1497, 902, 902), (1498, 902, 902), 884),
}


@pytest.mark.parametrize(
    "digits", [50, 100, pytest.param(200, marks=pytest.mark.slow)])
def test_sum_oscillatory_against_polylogs(digits):
    cfg = EvalConfig(digits)
    plain, logw, alt = _OSC_TERMS[digits]
    with workprec(cfg):
        tol = tolerance() / 10
        for x, n2, n1 in zip((Fraction(1, 8), Fraction(3, 10),
                              Fraction(7, 10)), plain, logw):
            z = mp.expjpi(2 * xreal(x))
            val, n = sum_oscillatory(lambda n: 1 / mpf(n) ** 2, z, tol)
            assert abs(val - mp.polylog(2, z)) < tol, x
            assert n == n2, x
            val, n = sum_oscillatory(lambda n: mp.log(n) / n, z, tol)
            assert abs(val - polylog_log_weight(xreal(x), 1, 1)) < tol, x
            assert n == n1, x
        # real z: sum (-1)^n log n/n = -eta'(1) = gamma log 2 - log^2 2/2
        val, n = sum_oscillatory(lambda n: mp.log(n) / n, mpf(-1), tol)
        assert abs(val - (mp.euler * mp.log(2) - mp.log(2) ** 2 / 2)) < tol
        assert n == alt
