"""Generic summation utilities.

A summer for rapidly decaying tails and its stepped Taylor form, which share
one loop and its one stop rule (three consecutive terms below tolerance/100)
and add raw mpf tuples (mpmath.libmp) with the roundings of the mpf
operators; Richardson extrapolation; and a series transform for slowly
convergent oscillatory sums sum_n g(n) z^n with |z| <= 1, z != 1."""

from __future__ import annotations

from typing import Callable, Sequence

from mpmath import mp, mpf
from mpmath.libmp import (fzero, from_int, mpf_abs, mpf_add, mpf_div, mpf_lt,
                          mpf_mul, mpf_neg, to_fixed)

from .config import EvalConfig, tolerance, workprec, xreal
from .errors import ArityError, ConvergenceError, DomainError

# Terms either summer may take before it raises ConvergenceError.
MAX_TERMS = 10**6


def _sum_raw(term):
    """The one stop rule: add the raw mpf tuples term(0), term(1), ... at
    the current precision until three consecutive terms fall below
    tolerance/100 in magnitude (parity-masked zero terms from sin/cos must
    not halt summation early). Returns (sum as an mpf, terms_used)."""
    prec, rnd = mp._prec_rounding
    stop = (tolerance() / 100)._mpf_
    acc = fzero
    small = n = 0
    while small < 3:
        if n >= MAX_TERMS:
            raise ConvergenceError(
                f"series did not decay within {MAX_TERMS} terms")
        t = term(n)
        acc = mpf_add(acc, t, prec, rnd)
        small = small + 1 if mpf_lt(mpf_abs(t, prec, rnd), stop) else 0
        n += 1
    return mp.make_mpf(acc), n


def sum_entire(term: Callable[[int], mpf], cfg: EvalConfig | None = None):
    """Sum the real terms term(0) + term(1) + ... of a rapidly decaying tail,
    calling term with n = 0, 1, 2, ... in order, until the stop rule holds.
    Returns (sum, terms_used)."""
    with workprec(cfg):
        return _sum_raw(lambda n: mp.convert(term(n))._mpf_)


def sum_taylor(c: Callable[[int], mpf], w, p: int,
               cfg: EvalConfig | None = None):
    """sum_{n>=0} (-1)^n c(n) w^{2n+p}/(2n+p)! for real c(n), under the same
    stop rule, with the monomial stepped, m_0 = w^p/p! and
    m_{n+1} = (-m_n w^2)/((2n+p+1)(2n+p+2)), so no term takes a power or a
    factorial. The step rounds as those mpf expressions do, so value and
    terms_used equal sum_entire's on the mpf-stepped term.
    Returns (sum, terms_used)."""
    with workprec(cfg):
        prec, rnd = mp._prec_rounding
        w = xreal(w)
        w2 = (w * w)._mpf_
        m = (mp.power(w, p) / mp.factorial(p))._mpf_

        def term(n):
            nonlocal m
            t = mpf_mul(mp.convert(c(n))._mpf_, m, prec, rnd)
            k = 2 * n + p
            m = mpf_div(mpf_mul(mpf_neg(m), w2, prec, rnd),
                        from_int((k + 1) * (k + 2)), prec, rnd)
            return t
        return _sum_raw(term)


def richardson_extrapolate(samples: Sequence[tuple], order: int):
    """Polynomial (Neville) extrapolation of (h, value) samples to h = 0.

    Needs at least order+1 samples with h strictly decreasing toward 0.
    Returns (value, error_estimate); the estimate is the difference between
    the last entries of the final two extrapolation columns.
    """
    n = len(samples)
    if n < order + 1:
        raise ArityError(
            f"richardson order {order} needs {order + 1} samples, got {n}")
    hs = [xreal(h) for h, _ in samples]
    if hs[-1] <= 0:
        raise DomainError("h values must stay positive")
    for a, b in zip(hs, hs[1:]):
        if not b < a:
            raise DomainError("h values must be strictly decreasing")
    col = [xreal(v) for _, v in samples]
    depth = min(order, n - 1)
    prev_last = col[-1]
    for j in range(1, depth + 1):
        prev_last = col[-1]
        col = [(hs[i + j] * col[i] - hs[i] * col[i + 1]) / (hs[i + j] - hs[i])
               for i in range(n - j)]
    value = col[-1]
    return +value, abs(value - prev_last)


def sum_oscillatory(g: Callable[[int], mpf], z, tol):
    """sum_{n>=1} g(n) z^n for |z| <= 1, z != 1, g real-valued, smooth and
    slowly varying.

    Direct head summation up to a split point N, then the forward-difference
    (Euler) transform of the tail,

        sum_{n>=N} g(n) z^n = z^N/(1-z) * sum_k (z/(1-z))^k D^k g(N),

    which converges geometrically once N is large relative to |z/(1-z)|.
    The head takes g at the caller's precision, the transform at 80 more
    digits. There each g value is truncated to a multiple of 2^-bits, a few
    bits finer than that precision, and the differences D^k are taken
    exactly on those integers. The sum stops after three terms below tol,
    compared as squared magnitudes; it stalls once a term's magnitude
    exceeds 10^6 times the least so far, and then the split point advances.
    Returns (value, terms_used); the value is complex when z is.
    """
    z = mp.mpmathify(z)
    one_minus = 1 - z
    if one_minus == 0:
        raise DomainError("z = 1 is outside the transform's domain")
    u = z / one_minus
    max_diffs = 200
    # Digits lost to difference-table cancellation grow like k*log10(2).
    extra_dps = int(max_diffs * 0.35) + 10
    tol2 = tol * tol
    complex_z = isinstance(z, mp.mpc)

    head = z * 0
    zpow = z  # z^n for the next head term
    n = 1
    terms_used = 0
    headlen = max(48, int(8 * abs(u)))

    while True:
        split = n + headlen
        if terms_used + headlen + max_diffs > MAX_TERMS:
            raise ConvergenceError("oscillatory sum exceeded MAX_TERMS")
        while n < split:
            head += g(n) * zpow
            zpow *= z
            n += 1
            terms_used += 1
        with mp.extradps(extra_dps):
            bits = mp.prec + 8
            pref = zpow / one_minus  # z^split / (1-z)
            acc = z * 0
            upow = pref
            # row[i] = D^i g at sliding offsets, times 2^bits;
            # row[-1] = D^j g(split)
            row: list[int] = []
            small = 0
            best = mpf("inf")
            for j in range(max_diffs + 1):
                v = to_fixed(mpf(g(split + j))._mpf_, bits)
                terms_used += 1
                new = [v]
                for i in range(len(row)):
                    new.append(new[i] - row[i])
                row = new
                term = mpf((row[-1], -bits)) * upow
                acc += term
                upow *= u
                if complex_z:
                    re, im = term.real, term.imag
                    mag2 = re * re + im * im
                else:
                    mag2 = term * term
                small = small + 1 if mag2 < tol2 else 0
                if small >= 3:
                    return +(head + acc), terms_used
                if mag2 < best:
                    best = mag2
                elif j > 24 and mag2 > best * 10**12:
                    break
        # Transform stalled (or ran out of difference orders): grow the head.
        headlen *= 2
