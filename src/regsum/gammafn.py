"""Digamma, log-gamma and gamma at a configurable precision.

Thin checked wrappers over mpmath's ``digamma``, ``loggamma`` and ``gamma``:
they run under :func:`workprec`, reject arguments outside the real domain,
and report the poles at non-positive integers.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .config import EvalConfig, workprec, xreal
from .errors import DomainError, PoleError


def digamma(x, cfg: EvalConfig | None = None) -> mpf:
    """psi(x) for real x > 0."""
    with workprec(cfg):
        x = xreal(x)
        if x <= 0:
            if x == int(x):
                raise PoleError("digamma pole at non-positive integer")
            raise DomainError("digamma requires x > 0")
        return +mp.digamma(x)


def loggamma(x, cfg: EvalConfig | None = None) -> mpf:
    """log Gamma(x) for real x > 0."""
    with workprec(cfg):
        x = xreal(x)
        if x <= 0:
            raise DomainError("loggamma requires x > 0")
        return +mp.loggamma(x)


def gamma_fn(x, cfg: EvalConfig | None = None) -> mpf:
    """Gamma(x) for real non-pole x."""
    with workprec(cfg):
        x = xreal(x)
        if x <= 0 and x == int(x):
            raise PoleError("gamma pole at non-positive integer")
        return +mp.gamma(x)
