"""Generic summation utilities.

The one power-series kernel, behind every zeta power series in the package
and sum_taylor, with its stop rule (three consecutive terms below
tolerance/100); Richardson extrapolation; and a series transform for slowly
convergent oscillatory sums sum_n g(n) z^n with |z| <= 1, z != 1."""

from __future__ import annotations

from typing import Callable, Sequence

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, to_fixed

from .config import CACHE_CAP, EvalConfig, memo, tolerance, workprec, xreal
from .errors import ArityError, ConvergenceError, DomainError

# Terms any summer may take before it raises ConvergenceError.
MAX_TERMS = 10**6

# Bits the fixed-point power series carry beyond mp.prec.
GUARD_BITS = 16


@memo(cap=CACHE_CAP // 64)
def _coeff_table(coeff, p: int, s) -> list[int]:
    """The b_n of _power_series(coeff, p, s, .) as integers
    b_n 2^(mp.prec + GUARD_BITS); empty until _power_series extends it.
    Each table holds tens to hundreds of values, so fewer are kept."""
    return []


@memo
def _fixed_stop() -> int:
    """_power_series' stop, tolerance()/100 at mp.prec + GUARD_BITS bits."""
    return to_fixed((tolerance() / 100)._mpf_, mp.prec + GUARD_BITS)


def _power_series(coeff, p: int, s, y: mpf, table: list[int] | None = None):
    """sum_n b_n y^k, k = 2n+p, b_n = (-1)^n coeff(s, k) (2 pi)^k/k!: the
    Taylor series sum_n (-1)^n c_k w^k/k! at w = 2 pi y, normalised so that
    |b_n| stays bounded (zeta values grow like k!/(2 pi)^k) and, for
    |y| <= 1, one fixed-point error bound holds at every n. It runs on
    integers at mp.prec + GUARD_BITS bits under the stop rule. The b_n come
    from _coeff_table(coeff, p, s), so coeff must be a module-level function
    for the key to last, or from the caller's own *table*; each is computed
    where the table ends, so the bits are the same warm or cold.
    Returns (sum, terms_used)."""
    prec, rnd = mp._prec_rounding
    bits = prec + GUARD_BITS
    if table is None:
        table = _coeff_table(coeff, p, s)
    yf = to_fixed(y._mpf_, bits)
    y2 = yf * yf >> bits
    yk = yf ** p >> bits * (p - 1) if p else 1 << bits  # y^p
    stop = _fixed_stop()
    acc = small = n = 0
    while small < 3:
        if n == len(table):
            if n >= MAX_TERMS:
                raise ConvergenceError(
                    f"series did not decay within {MAX_TERMS} terms")
            k = 2 * n + p
            b = coeff(s, k) * mp.power(2 * mp.pi, k) / mp.factorial(k)
            table.append(to_fixed((-b if n % 2 else b)._mpf_, bits))
        t = table[n] * yk >> bits
        acc += t
        small = small + 1 if -stop < t < stop else 0
        yk = yk * y2 >> bits
        n += 1
    return mp.make_mpf(from_man_exp(acc, -bits, prec, rnd)), n


def sum_taylor(c: Callable[[int], mpf], w, p: int,
               cfg: EvalConfig | None = None):
    """sum_{n>=0} (-1)^n c(n) w^{2n+p}/(2n+p)! for real c(n), by
    _power_series at y = 1 with c_k = c(n) (w/(2 pi))^k, so each b_n is the
    term itself, over a table built for this call alone: no caller's
    callable enters the table memo. Returns (sum, terms_used)."""
    with workprec(cfg):
        u = xreal(w) / (2 * mp.pi)
        return _power_series(lambda s, k: c((k - p) // 2) * mp.power(u, k),
                             p, None, mpf(1), [])


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
