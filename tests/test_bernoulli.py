"""Exact Bernoulli machinery: recurrence oracle, polynomials, invariants."""

from fractions import Fraction
from math import comb

import pytest

from regsum import (CapacityError, bernoulli_number, bernoulli_poly_coeffs,
                    harmonic_number, poly_eval)

from refs import akiyama_tanigawa


def test_base_cases():
    assert bernoulli_number(0) == Fraction(1)
    assert bernoulli_number(1) == Fraction(-1, 2)


def test_known_value_b12():
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_against_akiyama_tanigawa_oracle():
    ref = akiyama_tanigawa(40)
    for n in range(41):
        assert bernoulli_number(n) == ref[n], n


def test_odd_indices_vanish():
    for n in range(3, 100, 2):
        assert bernoulli_number(n) == 0


def test_defining_recurrence_exact():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    for n in range(1, 41):
        acc = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
        assert acc == 0, n


def test_capacity_guard():
    with pytest.raises(CapacityError):
        bernoulli_number(513)
    with pytest.raises(ValueError):
        bernoulli_number(-1)


def test_poly_coeffs_examples():
    assert bernoulli_poly_coeffs(1) == [Fraction(-1, 2), Fraction(1)]
    assert bernoulli_poly_coeffs(3) == [
        Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1)]


def test_constant_coeff_is_bernoulli_number():
    for n in range(0, 25):
        assert bernoulli_poly_coeffs(n)[0] == bernoulli_number(n)


def test_poly_value_symmetry():
    # B_n(1) = B_n(0) for n >= 2
    for n in range(2, 31):
        coeffs = bernoulli_poly_coeffs(n)
        assert sum(coeffs) == coeffs[0], n


def test_derivative_relation():
    # B'_n(x) = n B_{n-1}(x), coefficient-wise exact
    for n in range(1, 31):
        dn = [k * c for k, c in enumerate(bernoulli_poly_coeffs(n))][1:]
        ref = [n * c for c in bernoulli_poly_coeffs(n - 1)]
        assert dn == ref, n


def test_rational_evaluation_is_exact():
    coeffs = bernoulli_poly_coeffs(3)
    assert poly_eval(coeffs, Fraction(1, 4)) == Fraction(3, 64)
    assert poly_eval(coeffs, Fraction(1, 2)) == 0


def test_harmonic_numbers():
    assert harmonic_number(0) == 0
    assert harmonic_number(3) == Fraction(11, 6)
    with pytest.raises(ValueError):
        harmonic_number(-2)
