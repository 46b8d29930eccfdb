"""Evaluation configuration and the one owner of the working precision.

All real-valued quantities are carried as ``mpmath.mpf`` values, with
:data:`GUARD_DIGITS` beyond the reporting precision of :class:`EvalConfig`.
The outermost regsum call sets ``mp.dps`` through :func:`workprec`; nested
calls inherit it, so a missing ``cfg`` can never lower the precision.

Caching has one rule, :func:`memo`: a value is kept per (arguments,
``mp.prec``), at most :data:`CACHE_CAP` per function (fewer where a value
is itself a table), least recently used first out, with hits and misses
counted by ``cache_info()`` and gathered for every memo by
:func:`cache_stats`.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

# Intermediate computations carry this many digits beyond reporting precision.
GUARD_DIGITS = 15

# Entries kept by each memo before the least recently used is evicted.
CACHE_CAP = 4096


@dataclass(frozen=True)
class EvalConfig:
    """The precision an outermost regsum call applies; nested calls inherit.

    The absolute tolerance is 10^-(precision_digits - 30), i.e. 1e-20 at the
    default 50-digit precision; see :func:`tolerance`.
    """

    precision_digits: int = 50

    def __post_init__(self):
        if self.precision_digits < 30:
            raise ValueError("precision_digits must be >= 30")


DEFAULT_CONFIG = EvalConfig()

# The config that set mp.dps; None outside workprec.
_ACTIVE: ContextVar[EvalConfig | None] = ContextVar("regsum_cfg", default=None)


def working_dps(cfg: EvalConfig) -> int:
    return cfg.precision_digits + GUARD_DIGITS


@contextmanager
def workprec(cfg: EvalConfig | None = None):
    """Set mp.dps from *cfg* (outermost default: DEFAULT_CONFIG) for the
    block; inside another workprec a missing or equal *cfg* keeps the
    caller's precision, a different one takes over until the block ends."""
    active = _ACTIVE.get()
    if active is not None and cfg in (None, active):
        yield
        return
    cfg = DEFAULT_CONFIG if cfg is None else cfg
    token = _ACTIVE.set(cfg)
    try:
        with mp.workdps(working_dps(cfg)):
            yield
    finally:
        _ACTIVE.reset(token)


def tolerance(cfg: EvalConfig | None = None) -> mpf:
    """10^-(precision_digits - 30) at *cfg*'s working precision, whatever the
    caller's mp.dps; *cfg* defaults to the active config. Memoised."""
    return _tolerance(cfg or _ACTIVE.get() or DEFAULT_CONFIG)


def xreal(value) -> mpf:
    """Convert to the mpf carrier at the current working precision."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


# Every memo by "module.function", the first of a name kept.
_MEMOS: dict = {}


def memo(fn=None, *, cap: int = CACHE_CAP):
    """Cache *fn* per (positional arguments, mp.prec): at most *cap* values,
    least recently used first out, counted by ``cache_info()``. Bare
    ``@memo`` keeps CACHE_CAP values; ``@memo(cap=...)`` fewer, for
    functions whose values hold many numbers each.

    The wrapper is a plain function, so tools that rebind a module's public
    functions still see it; *fn* calls others by their module-global names.
    """
    if fn is None:
        return functools.partial(memo, cap=cap)

    @functools.lru_cache(maxsize=cap)
    def cached(prec, *args):
        return fn(*args)

    @functools.wraps(fn)
    def wrapper(*args):
        return cached(mp.prec, *args)

    wrapper.cache_info = cached.cache_info
    module = fn.__module__.removeprefix("regsum.")
    _MEMOS.setdefault(f"{module}.{fn.__qualname__}", wrapper)
    return wrapper


def cache_stats() -> dict:
    """{"module.function": cache_info()} for every memo."""
    return {name: fn.cache_info() for name, fn in _MEMOS.items()}


@memo
def _tolerance(cfg: EvalConfig) -> mpf:
    with mp.workdps(working_dps(cfg)):
        return mpf(10) ** -(cfg.precision_digits - 30)
