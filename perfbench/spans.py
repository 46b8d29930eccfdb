"""Spans around every public function of regsum's seven layers.

The wrappers are installed from outside the program: each public function
of a layer module is replaced, in every regsum module namespace that binds
it (``from .zeta import riemann_zeta`` makes a local name), by a wrapper
that appends one span to an in-memory list. A span is

    [name, start, end, parent, op, error, terms, tag]

with parent the index of the enclosing span (-1 at top level), op the id
of the benchmark operation, terms the effort the call reported (the
second element of sum_entire / sum_oscillatory results, terms_used of a
RegularizedValue) and tag the identity name of a verify_identity call.
A span's self time is its duration minus the durations of its direct
children, which nest inside it because the program is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("bernoulli", "kernels", "gammafn", "zeta", "series", "identities",
          "cli")

# Functions with their own per-layer metrics; every other public function
# still counts toward its layer's calls, self_s and errors.
FUNCTIONS = {
    "zeta": ("riemann_zeta", "eta", "hurwitz_zeta_deriv",
             "zeta_sderiv_at_negatives", "stieltjes_gamma1",
             "stieltjes_gamma1_limit", "phi_ramanujan"),
    "kernels": ("sum_entire", "sum_oscillatory", "richardson_extrapolate"),
    "gammafn": ("loggamma", "digamma"),
    "series": ("closed_form_series", "regularized_limit",
               "integer_sin_series", "integer_cos_series", "abel_oracle",
               "direct_oracle"),
}
WITH_TERMS = {"kernels.sum_entire", "kernels.sum_oscillatory"} | {
    f"series.{name}" for name in FUNCTIONS["series"]}
CALLS_ONLY = {"kernels.richardson_extrapolate"}

NAME, START, END, PARENT, OP, ERROR, TERMS, TAG = range(8)


def _terms(out) -> int:
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], int):
        return out[1]
    return getattr(out, "terms_used", 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def install(self) -> int:
        """Wrap the layers' public functions; returns how many were wrapped."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"regsum.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "regsum" or modname.startswith("regsum."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        setattr(mod, attr, wrappers[val])
        return len(wrappers)

    def _wrap(self, qual: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagged = qual == "identities.verify_identity"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [qual, clock(), 0.0, stack[-1] if stack else -1, self.op,
                   False, 0, args[0] if tagged and args else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            rec[TERMS] = _terms(out)
            return out

        return traced

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, covered)]


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    from workloads import IDENTITY_NAMES

    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                (f"{layer}.errors", "count")]
        for fn in FUNCTIONS.get(layer, ()):
            qual = f"{layer}.{fn}"
            out.append((f"{qual}.calls", "count"))
            if qual not in CALLS_ONLY:
                out.append((f"{qual}.self_s", "s"))
            if qual in WITH_TERMS:
                out.append((f"{qual}.terms", "count"))
    out += [(f"identities.{name}.s", "s") for name in IDENTITY_NAMES]
    out += [("trace.overhead_frac", "frac"), ("trace.unattributed_s", "s"),
            ("trace.wall_s", "s")]
    return out


def aggregate(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced phase of `wall` seconds.

    trace.overhead_frac is left for the caller, which has the untraced run.
    """
    values = {name: 0 for name, _ in metric_names()}
    for rec, own in zip(spans, self_times(spans)):
        qual = rec[NAME]
        layer = qual.split(".", 1)[0]
        values[f"{layer}.calls"] += 1
        values[f"{layer}.self_s"] += own
        values[f"{layer}.errors"] += rec[ERROR]
        if f"{qual}.calls" in values:
            values[f"{qual}.calls"] += 1
        if f"{qual}.self_s" in values:
            values[f"{qual}.self_s"] += own
        if f"{qual}.terms" in values:
            values[f"{qual}.terms"] += rec[TERMS]
        tag = f"identities.{rec[TAG]}.s"
        if tag in values:
            values[tag] += rec[END] - rec[START]
    values["trace.wall_s"] = wall
    values["trace.unattributed_s"] = wall - sum(
        values[f"{layer}.self_s"] for layer in LAYERS)
    return values
