from fractions import Fraction
from math import factorial

import pytest
from mpmath import mp, mpf

import reference
from workloads import SeriesOp

DPS = 40
X = Fraction(5, 16)


def value(kernel, s, x=X, weight="unit", alternating=False, dps=DPS):
    return reference.series_value(kernel, alternating, weight, x, Fraction(s),
                                  dps)


def close(a, b, digits=DPS - 5):
    with mp.workdps(DPS + 10):
        return abs(a - b) <= mpf(10) ** -digits * max(1, abs(b))


@pytest.mark.parametrize("x", [Fraction(1, 16), X, Fraction(13, 16)])
def test_sine_at_zero_is_half_cotangent(x):
    with mp.workdps(DPS):
        assert close(value("sin", 0, x), mp.cot(mp.pi * x) / 2)
        assert close(value("cos", 0, x), mpf(-1) / 2)


@pytest.mark.parametrize("x", [Fraction(1, 16), X, Fraction(13, 16)])
def test_cosine_at_one_is_minus_log_two_sine(x):
    with mp.workdps(DPS):
        assert close(value("cos", 1, x), -mp.log(2 * mp.sin(mp.pi * x)))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_sine_at_odd_s_is_a_bernoulli_polynomial(m):
    s = 2 * m + 1
    with mp.workdps(DPS):
        exact = ((-1) ** (m + 1) * (2 * mp.pi) ** s / (2 * factorial(s))
                 * mp.bernpoly(s, reference.to_mpf(X)))
        assert close(value("sin", s), exact)


def test_hurwitz_route_matches_polylog_at_non_integer_s():
    s = Fraction(21, 8)
    with mp.workdps(DPS):
        li = mp.polylog(reference.to_mpf(s), mp.expjpi(2 * reference.to_mpf(X)))
        assert close(value("cos", s), li.real)
        assert close(value("sin", s), li.imag)


@pytest.mark.parametrize("s", [Fraction(-3, 8), Fraction(21, 8)])
@pytest.mark.parametrize("kernel", ["sin", "cos"])
def test_log_weights_are_minus_s_derivatives_of_the_unit_series(s, kernel):
    def unit(t):
        return value(kernel, t, dps=3 * DPS)

    hq = Fraction(1, 2 ** 45)
    with mp.workdps(3 * DPS):
        h = reference.to_mpf(hq)
        d1 = -(unit(s + hq) - unit(s - hq)) / (2 * h)
        d2 = (unit(s + hq) - 2 * unit(s) + unit(s - hq)) / h ** 2
    with mp.workdps(DPS):
        assert close(value(kernel, s, weight="log"), d1, 20)
        assert close(value(kernel, s, weight="log2"), d2, 10)


@pytest.mark.parametrize("kernel", ["sin", "cos"])
def test_log_weight_at_zero_is_the_limit_of_the_derivative(kernel):
    hq = Fraction(1, 2 ** 45)
    with mp.workdps(3 * DPS):
        d1 = -(value(kernel, hq, dps=3 * DPS)
               - value(kernel, -hq, dps=3 * DPS)) / (2 * reference.to_mpf(hq))
    with mp.workdps(DPS):
        assert close(value(kernel, 0, weight="log"), d1, 20)
    with mp.workdps(DPS):
        x = reference.to_mpf(X)
        cos_log = ((mp.euler + mp.log(2 * mp.pi)) / 2
                   + (mp.digamma(x) + mp.digamma(1 - x)) / 4)
        assert close(value("cos", 0, weight="log"), cos_log)


def test_alternating_is_minus_the_plain_series_half_a_period_on():
    for kernel in ("sin", "cos"):
        alt = value(kernel, Fraction(3, 4), alternating=True)
        plain = value(kernel, Fraction(3, 4), X + Fraction(1, 2))
        with mp.workdps(DPS):
            assert close(alt, -plain)


def test_disagreeing_precisions_are_a_benchmark_bug(monkeypatch):
    op = SeriesOp("closed_form", "sin", False, "unit", X, Fraction(3, 2), 30)
    assert close(reference.reference(op), value("sin", Fraction(3, 2)))
    monkeypatch.setattr(reference, "series_value",
                        lambda *args: mpf(args[-1]))
    with pytest.raises(reference.ReferenceMismatch):
        reference.reference(op)
