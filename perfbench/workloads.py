"""Seeded inputs for the three benchmark workloads.

Every x and s is an exact dyadic rational (a Fraction whose denominator is
a power of two). It converts to mpf without rounding at any precision and
prints as a finite decimal, so the program, the references and the CLI all
see the same number. (A decimal string such as "0.3" parsed at mpmath's
15-digit default would move x by about 1e-17.)

Each generator is infinite; a run takes ops until its time is up, so the
same seed always yields the same prefix whatever the machine's speed.
Prefixes are spread evenly (bit-reversed grid order, additive-recurrence
sampling), which keeps the mix of cheap and costly ops the same from one
seed to the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator

WORKLOADS = ("grid", "scatter", "verify")

# The 15 registry names of regsum.identities.REGISTRY (a test checks this).
IDENTITY_NAMES = (
    "adamchik_reflection", "alt_cos_limit", "alt_log_harmonic",
    "alt_sin_limit", "bernoulli_odd", "cos_limit", "cot_limit",
    "deninger_log_cos", "entry17v", "even_exponent_sin", "half_point_value",
    "kummer_log_sin", "log_cos_limit", "phi_gamma1_bridge", "zeta_dd_fourier",
)

GRID_DIGITS = 50
SCATTER_DIGITS = 100
VERIFY_DIGITS = 50
GRID_POINTS = 64
SCATTER_S_MAX = 6

# Additive-recurrence steps (golden ratio and sqrt 2 conjugates).
_ALPHA = (math.sqrt(5) - 1) / 2
_BETA = math.sqrt(2) - 1
_QBITS = 16

# The alternating sine limit is implemented for x < 0.45 only; scaling a
# point of the band by 1/2 keeps it below 7/16.
_ALT_SIN_SCALE = Fraction(1, 2)


@dataclass(frozen=True)
class SeriesOp:
    """One evaluate_series call; route names the branch it is built to reach."""

    route: str
    kernel: str
    alternating: bool
    weight: str
    x: Fraction
    s: Fraction
    digits: int


@dataclass(frozen=True)
class VerifyOp:
    """One `regsum verify` invocation for one identity at one point."""

    name: str
    point: Fraction
    digits: int = VERIFY_DIGITS

    def argv(self) -> list[str]:
        return ["verify", "--identity", self.name,
                "--points", decimal(self.point),
                "--prec", str(self.digits), "--format", "json"]


def decimal(q: Fraction) -> str:
    """Exact decimal text of a dyadic rational."""
    den = q.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise ValueError(f"{q} is not dyadic")
    digits = q.numerator * 5 ** k
    sign = "-" if digits < 0 else ""
    text = str(abs(digits)).rjust(k + 1, "0")
    return sign + (text[:-k] + "." + text[-k:] if k else text)


def band(y: Fraction) -> Fraction:
    """Map y in [0, 1) onto [1/8, 3/8) U [5/8, 7/8).

    x stays 1/8 away from 0, 1/2 and 1. The Abel sums slow down like 1/x
    near 0 and 1, and the alternating tails like 1/(1 - 2x) near 1/2. Near
    those points a few ops would dominate a run's time, and which few
    depends on the seed, so the run-to-run spread would too.
    """
    x = Fraction(1, 8) + Fraction(1, 2) * y
    return x + Fraction(1, 4) if x >= Fraction(3, 8) else x


def _recurrence(offset: float, step: float, i: int) -> Fraction:
    """floor(frac(offset + i*step) * 2^16) / 2^16, a point of [0, 1)."""
    return Fraction(int(((offset + i * step) % 1.0) * (1 << _QBITS)),
                    1 << _QBITS)


def _bitrev(j: int, bits: int) -> int:
    return int(format(j, f"0{bits}b")[::-1], 2)


def grid_ops(seed: int) -> Iterator[SeriesOp]:
    """Series families covering every evaluate_series route, swept over x.

    Each round visits every family at the next grid point, the way
    `regsum table` sweeps one series over x, so a family's zeta values are
    computed at its first point and hit the engine caches afterwards.
    A family's s is drawn within a fixed stratum, so that every seed has
    the same mix of cheap and costly families.
    """
    rng = random.Random(f"grid-{seed}")

    def s_in(lo: int, hi: int) -> Fraction:
        # Non-integer s in (lo, hi), at least 1/16 from every integer.
        while True:
            n = rng.randrange(16 * lo + 1, 16 * hi)
            if n % 16:
                return Fraction(n, 16)

    zero = Fraction(0)
    families = [("closed_form", kernel, alt, "unit", s_in(k, k + 1))
                for kernel in ("sin", "cos") for alt in (False, True)
                for k in range(4)]
    families += [("integer_sin_series", "sin", False, "unit", Fraction(n))
                 for n in range(1, 6)]
    families += [("integer_cos_series", "cos", False, "unit", Fraction(n))
                 for n in (1, 3, 5)]
    families += [("regularized_limit", kernel, alt, "unit", zero)
                 for kernel in ("sin", "cos") for alt in (False, True)]
    families += [("regularized_limit", kernel, False, "log", zero)
                 for kernel in ("sin", "cos")]
    families += [("abel_oracle", kernel, False, weight, s_in(k, k + 2))
                 for kernel in ("sin", "cos") for weight in ("log", "log2")
                 for k in (0, 2)]
    rng.shuffle(families)
    offset = Fraction(rng.randrange(1, 1024), 1024)
    bits = GRID_POINTS.bit_length() - 1
    xs = [band((_bitrev(j, bits) + offset) / GRID_POINTS)
          for j in range(GRID_POINTS)]
    for r in count():
        x = xs[r % GRID_POINTS]
        for route, kernel, alt, weight, s in families:
            xx = x * _ALT_SIN_SCALE if (s == 0 and kernel == "sin" and alt) else x
            yield SeriesOp(route, kernel, alt, weight, xx, s, GRID_DIGITS)


def scatter_ops(seed: int) -> Iterator[SeriesOp]:
    """Unit-weight closed forms at 100 digits; no s or x ever repeats.

    s is non-integer in (0, 6) and at least 1/512 from every integer, so
    no op redirects to an integer branch and the prefactor loses fewer
    than three digits to parity cancellation. Kernel and alternation are
    drawn as seeded permutations of the four combinations.
    """
    rng = random.Random(f"scatter-{seed}")
    s_off, x_off = rng.random(), rng.random()
    combos = [("sin", False), ("sin", True), ("cos", False), ("cos", True)]
    seen_s: set = set()
    seen_x: set = set()
    block: list = []
    for i in count():
        s = SCATTER_S_MAX * _recurrence(s_off, _ALPHA, i)
        x = band(_recurrence(x_off, _BETA, i))
        near_int = min(s - math.floor(s), math.ceil(s) - s)
        if near_int < Fraction(1, 512) or s in seen_s or x in seen_x:
            continue
        seen_s.add(s)
        seen_x.add(x)
        if not block:
            block = rng.sample(combos, len(combos))
        kernel, alt = block.pop()
        yield SeriesOp("closed_form", kernel, alt, "unit", x, s,
                       SCATTER_DIGITS)


def verify_ops(seed: int) -> Iterator[VerifyOp]:
    """Every registry identity in a seeded order, each at a fresh point."""
    rng = random.Random(f"verify-{seed}")
    names = list(IDENTITY_NAMES)
    rng.shuffle(names)
    offsets = {name: rng.random() for name in names}
    for r in count():
        for name in names:
            x = band(_recurrence(offsets[name], _ALPHA, r))
            if name == "alt_sin_limit":
                x *= _ALT_SIN_SCALE
            yield VerifyOp(name, x)


GENERATORS = {"grid": grid_ops, "scatter": scatter_ops, "verify": verify_ops}
# Ops per round: every grid family, every scatter (kernel, alternation)
# combination, every identity once. Runs measure whole rounds, so every
# seed and every machine speed sees the same mix.
ROUND = {"grid": 38, "scatter": 4, "verify": len(IDENTITY_NAMES)}


def ops(workload: str, seed: int):
    return GENERATORS[workload](seed)
