"""Evaluation configuration and working-precision helpers.

All real-valued quantities are carried as ``mpmath.mpf`` values. The
reporting precision comes from :class:`EvalConfig`; computations run with
:data:`GUARD_DIGITS` extra digits so that rounding in long summations stays
far below the advertised tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

# Intermediate computations carry this many digits beyond reporting precision.
GUARD_DIGITS = 15

# Entries kept by each module-level value cache before the oldest is evicted.
CACHE_CAP = 4096


@dataclass(frozen=True)
class EvalConfig:
    """Process-wide evaluation parameters.

    The absolute tolerance is 10^-(precision_digits - 30), i.e. 1e-20 at the
    default 50-digit precision; see :func:`tolerance`.
    """

    precision_digits: int = 50
    max_terms: int = 10**6

    def __post_init__(self):
        if self.precision_digits < 30:
            raise ValueError("precision_digits must be >= 30")
        if self.max_terms < 100:
            raise ValueError("max_terms must be >= 100")


DEFAULT_CONFIG = EvalConfig()


def working_dps(cfg: EvalConfig) -> int:
    return cfg.precision_digits + GUARD_DIGITS


def workprec(cfg: EvalConfig):
    """Context manager setting mpmath decimal precision for *cfg*."""
    return mp.workdps(working_dps(cfg))


def tolerance(cfg: EvalConfig) -> mpf:
    return mpf(10) ** -(cfg.precision_digits - 30)


def xreal(value) -> mpf:
    """Convert to the mpf carrier at the current working precision."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


def cache_put(cache: dict, key, value) -> None:
    """Store *value*, evicting the oldest entry once *cache* holds CACHE_CAP."""
    if len(cache) >= CACHE_CAP:
        del cache[next(iter(cache))]
    cache[key] = value
