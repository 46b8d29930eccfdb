"""The rapid-tail summer and its Taylor form, Richardson extrapolation, the
oscillatory transform."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from regsum import (ArityError, ConvergenceError, DomainError,
                    DEFAULT_CONFIG, EvalConfig, SeriesSpec,
                    closed_form_series, kernels, regularized_limit,
                    richardson_extrapolate, riemann_zeta, sum_entire,
                    sum_oscillatory, sum_taylor, workprec)
from regsum.config import tolerance, xreal

from refs import catalan, polylog_log_weight

CFG = DEFAULT_CONFIG
TOL = mpf("1e-20")


def test_domain_errors():
    # extrapolation toward h = 0 needs every sample at h > 0
    with pytest.raises(DomainError):
        richardson_extrapolate([(mpf(1), mpf(1)), (mpf(0), mpf(1))], 1)


def test_sum_entire_exponential():
    with workprec(CFG):
        val, n = sum_entire(lambda k: 1 / mp.factorial(k), CFG)
        assert abs(val - mp.e) < TOL
        assert n < 100


def test_sum_entire_zero_terms():
    val, n = sum_entire(lambda k: mpf(0), CFG)
    assert val == 0
    assert n == 3


def test_sum_entire_zeta_tail():
    # sum (-1)^n zeta(-2n-1) (pi/2)^{2n+1}/(2n+1)!  ==  cot(pi/4)/2 - 2/pi
    with workprec(CFG):
        w = 2 * mp.pi * mpf("0.25")

        def term(n):
            return ((-1) ** n * riemann_zeta(-2 * n - 1, CFG)
                    * w ** (2 * n + 1) / mp.factorial(2 * n + 1))
        val, _ = sum_entire(term, CFG)
        assert abs(val - (mpf(1) / 2 - 2 / mp.pi)) < TOL


def test_sum_entire_terms_of_the_closed_forms():
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
    # the stepped monomial against termwise powers and factorials
    with workprec(CFG):
        w = mp.pi / 2

        def term(n):
            return ((-1) ** n * riemann_zeta(-2 * n - 1)
                    * mp.power(w, 2 * n + 1) / mp.factorial(2 * n + 1))
        ref, n_ref = sum_entire(term)
        val, n = sum_taylor(lambda n: riemann_zeta(-2 * n - 1), w, 1)
        assert abs(val - ref) < tolerance(CFG)
        assert n == n_ref


def _stepped_term(c, w, p):
    """The Taylor term with its monomial stepped as mpf expressions,
    m_{n+1} = (-m_n w^2)/((2n+p+1)(2n+p+2)): sum_taylor's reference."""
    w2, m = w * w, mp.power(w, p) / mp.factorial(p)

    def term(n):
        nonlocal m
        t, m = c(n) * m, -m * w2 / ((2 * n + p + 1) * (2 * n + p + 2))
        return t
    return term


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(j=st.integers(1, 2**20), p=st.sampled_from((0, 1, 2)),
       digits=st.sampled_from((30, 50, 100)), zeta_c=st.booleans())
def test_sum_taylor_bits_equal_sum_entire(j, p, digits, zeta_c):
    # the raw-tuple loop rounds as the mpf expressions do: same bits, same n
    with workprec(EvalConfig(digits)):
        w = mp.pi * j / 2**20  # w in (0, pi]
        c = ((lambda n: riemann_zeta(-2 * n - 1)) if zeta_c
             else (lambda n: mpf(1)))
        val, n = sum_taylor(c, w, p)
        ref, n_ref = sum_entire(_stepped_term(c, w, p))
        assert val._mpf_ == ref._mpf_
        assert n == n_ref


def test_sum_entire_nondecay_raises(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_TERMS", 100)
    with pytest.raises(ConvergenceError):
        sum_entire(lambda k: mpf(1))


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
