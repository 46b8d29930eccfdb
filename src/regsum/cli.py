"""Command-line front end: evaluate series, verify identities, emit tables.

Exit codes: 0 all passed / evaluation done, 1 at least one failing report,
2 usage or I/O error. Numeric output is locale-independent with '.' as the
decimal separator, printed at the configured number of significant digits,
so identical requests give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf

from .config import EvalConfig, workprec, xreal
from .errors import RegsumError
from .identities import REGISTRY, IdentityReport, run_suite
from .series import WEIGHTS, RegularizedValue, SeriesSpec, evaluate_series

PRECISION_ENV = "REGSUM_PRECISION"


class UsageError(Exception):
    pass


@dataclass
class CliRequest:
    command: str                      # eval | verify | table
    series: str | None = None
    alternating: bool = False
    weight: str = "unit"
    s: Fraction | None = None
    identities: list = field(default_factory=list)
    grid: list = field(default_factory=list)   # Fractions
    precision_digits: int = 50
    tol_override: str | None = None
    output_format: str = "text"
    output_path: str | None = None


def _parse_number(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        try:
            return Fraction(*mpf(text).as_integer_ratio())
        except Exception:
            raise UsageError(f"{flag}: cannot parse number {text!r}")


def _parse_grid(spec: str | None, points: str | None) -> list[Fraction]:
    if spec and points:
        raise UsageError("--grid and --points are mutually exclusive")
    out: list[Fraction] = []
    if spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"--grid: expected start:stop:step, got {spec!r}")
        a, b, step = (_parse_number(p, "--grid") for p in parts)
        if step <= 0 or b < a:
            raise UsageError("--grid: need step > 0 and stop >= start")
        v = a
        while v <= b:
            out.append(v)
            v += step
    elif points:
        out = [_parse_number(p, "--points") for p in points.split(",") if p]
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; argparse copies the
    --identity default before appending, so parses share no list."""
    p = argparse.ArgumentParser(
        prog="regsum",
        description="evaluate regularized trigonometric series and verify "
                    "the associated zeta/Stieltjes identities")
    sub = p.add_subparsers(dest="command")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=int, default=None,
                        help="working precision in decimal digits (>= 30)")
    common.add_argument("--tol", default=None,
                        help="override identity tolerance")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    common.add_argument("--out", default=None, help="write output to a file")

    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--series", choices=("sin", "cos"))
    series.add_argument("--alt", action="store_true",
                        help="alternating (-1)^{n+1} factor")
    series.add_argument("--weight", choices=WEIGHTS, default="unit")
    series.add_argument("--s", dest="s", default=None, help="exponent s >= 0")
    series.add_argument("--x", dest="x", default=None,
                        help="frequency argument x in (0,1)")

    pe = sub.add_parser("eval", parents=[common, series],
                        help="evaluate one series at one point")
    pv = sub.add_parser("verify", parents=[common],
                        help="verify identities on a grid")
    pv.add_argument("--identity", action="append", default=[],
                    help="registry name or 'all' (repeatable)")
    pv.add_argument("--grid", default=None, help="start:stop:step")
    pv.add_argument("--points", default=None, help="comma-separated points")
    pt = sub.add_parser("table", parents=[common, series],
                        help="tabulate one series over a grid")
    pt.add_argument("--grid", default=None, help="start:stop:step")
    pt.add_argument("--points", default=None, help="comma-separated points")
    for sp in (pe, pv, pt):
        sp.set_defaults(command=sp.prog.split()[-1])
    return p


def parse_request(argv: list[str]) -> CliRequest:
    """Parse argv into a validated CliRequest; UsageError on any defect."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit:
        raise UsageError("invalid arguments")
    if not ns.command:
        raise UsageError("missing command (eval | verify | table)")

    prec = ns.prec
    if prec is None:
        env = os.environ.get(PRECISION_ENV)
        if env is not None:
            try:
                prec = int(env)
            except ValueError:
                raise UsageError(f"{PRECISION_ENV}: not an integer: {env!r}")
    if prec is None:
        prec = 50
    if prec < 30:
        raise UsageError("--prec: precision_digits must be >= 30")

    req = CliRequest(command=ns.command, precision_digits=prec,
                     tol_override=ns.tol, output_format=ns.format,
                     output_path=ns.out)

    if ns.command in ("eval", "table"):
        if not ns.series:
            raise UsageError(f"{ns.command}: --series is required")
        if ns.s is None:
            raise UsageError(f"{ns.command}: --s is required")
        req.series = ns.series
        req.alternating = ns.alt
        req.weight = ns.weight
        req.s = _parse_number(ns.s, "--s")
        if req.s < 0:
            raise UsageError("--s: exponent must be >= 0")
        if ns.command == "eval":
            if ns.x is None:
                raise UsageError("eval: --x is required")
            req.grid = [_parse_number(ns.x, "--x")]
        else:
            req.grid = _parse_grid(ns.grid, ns.points)
            if not req.grid:
                raise UsageError("table: a non-empty --grid or --points "
                                 "is required")
        for x in req.grid:
            if not (0 < x < 1):
                raise UsageError(f"--x/--grid: point {x} outside (0,1)")
    else:
        wanted = ns.identity or []
        if not wanted:
            raise UsageError("verify: --identity is required "
                             f"(registry: {', '.join(sorted(REGISTRY))})")
        names: list[str] = []
        for w in wanted:
            for nm in w.split(","):
                nm = nm.strip()
                if nm == "all":
                    names.extend(sorted(REGISTRY))
                elif nm:
                    names.append(nm)
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            raise UsageError(
                f"unknown identity {unknown[0]!r}; valid names: "
                f"{', '.join(sorted(REGISTRY))}")
        req.identities = sorted(set(names))
        req.grid = _parse_grid(ns.grid, ns.points)
        point_dep = [n for n in req.identities
                     if REGISTRY[n].point_kind == "x"]
        if point_dep and not req.grid:
            raise UsageError(
                "verify: a non-empty --grid or --points is required for "
                f"point-dependent identities ({', '.join(point_dep)})")
    return req


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------

def _num(v, digits: int) -> str:
    return mp.nstr(v, digits)


def _eval_row(x: Fraction, rv: RegularizedValue, req: CliRequest,
              digits: int) -> dict:
    return {
        "series": req.series,
        "alternating": req.alternating,
        "weight": req.weight,
        "s": _num(xreal(req.s), digits),
        "x": _num(xreal(x), digits),
        "value": _num(rv.value, digits),
        "method": rv.method,
        "error_estimate": _num(rv.error_estimate, digits),
        "terms_used": rv.terms_used,
    }


def emit_report(reports: list, fmt: str, path: str | None,
                digits: int = 50) -> int:
    """Render identity reports or eval rows; return the process exit code."""
    is_identity = bool(reports) and isinstance(reports[0], IdentityReport)
    rows = ([r.to_dict(digits) for r in reports] if is_identity
            else list(reports))
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            fields = list(rows[0].keys())
            writer = csv.DictWriter(buf, fieldnames=fields,
                                    lineterminator="\n")
            writer.writeheader()
            for row in rows:
                flat = dict(row)
                if "inputs" in flat:
                    flat["inputs"] = ";".join(f"{n}={v}"
                                              for n, v in row["inputs"])
                writer.writerow(flat)
        text = buf.getvalue()
    else:
        lines = []
        if is_identity:
            for r in reports:
                pt = (" ".join(f"{n}={_num(v, 8)}" for n, v in r.inputs)
                      or "-")
                lines.append(
                    f"{r.identity_name:22s} {pt:12s} "
                    f"lhs={_num(r.lhs, 12):>20s} rhs={_num(r.rhs, 12):>20s} "
                    f"|res|={_num(r.abs_residual, 3):>10s} "
                    f"{'PASS' if r.passed else 'FAIL'}")
        else:
            for row in rows:
                short_err = _num(mpf(row["error_estimate"]), 3)
                lines.append(
                    f"{row['series']:4s} x={row['x']:>12.12s} "
                    f"s={row['s']:>8.8s} value={row['value']} "
                    f"[{row['method']}, err<={short_err}, "
                    f"terms={row['terms_used']}]")
        text = "\n".join(lines) + ("\n" if lines else "")
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"regsum: cannot write {path}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if is_identity and any(not r.passed for r in reports):
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        req = parse_request(argv)
    except UsageError as exc:
        print(f"regsum: {exc}", file=sys.stderr)
        return 2
    digits = req.precision_digits
    try:
        with workprec(EvalConfig(digits)):
            if req.command in ("eval", "table"):
                rows = []
                for x in req.grid:
                    spec = SeriesSpec(req.series, xreal(x), xreal(req.s),
                                      alternating=req.alternating,
                                      weight=req.weight)
                    rows.append(_eval_row(x, evaluate_series(spec), req,
                                          digits))
                return emit_report(rows, req.output_format,
                                   req.output_path, digits)
            reports = run_suite(req.identities, [xreal(g) for g in req.grid])
            if req.tol_override is not None:
                tol = xreal(req.tol_override)
                for r in reports:
                    r.tolerance = tol
                    r.passed = bool(r.abs_residual <= tol)
            return emit_report(reports, req.output_format,
                               req.output_path, digits)
    except (RegsumError, ValueError) as exc:
        print(f"regsum: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
