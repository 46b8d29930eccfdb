"""regsum benchmark: one run of one workload.

    python3 perfbench/run.py --workload {grid,scatter,verify} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a regsum checkout; the program is imported from
that checkout's src/ directory. perfbench/README.md describes the
workloads and the metrics.

--trace 0 gives the end-to-end metrics. setup_s is the median time fresh
processes take to `import regsum`. One worker process then runs the
workload for S seconds with cold caches, and its outputs are checked
afterwards, outside the timed loop, against mpmath references.

--trace 1 gives the per-layer metrics. A worker runs the workload untraced
for S/2 seconds, a second worker runs the same ops traced, and
trace.overhead_frac compares their scaled op times. The untraced outputs
are checked against the references, and the traced ones must equal them.

Human-readable lines come first. A JSON copy with the environment goes to
perfbench/out/, and the last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path

import mpmath
from mpmath import mp, mpf

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_RUNS = 11
SETUP_CODE = ("import time, statistics; t = time.perf_counter(); "
              "import regsum; t = time.perf_counter() - t; import worker; "
              "print(t, statistics.median(worker.calibration_kernel() "
              "for _ in range(5)), regsum.__file__)")
# The machine's cores are shared: in phases lasting from milliseconds to
# minutes every op runs up to 70% slower, and one grid seed measured four
# times read 43 to 60 ops/s. Times are therefore scaled to a reference
# speed: each op's time is multiplied by CAL_REF_S over the mean time of
# the calibration kernel (worker.py) run just before and just after it.
# The same four runs read 79 to 80 ops/s scaled. CAL_REF_S is about the
# kernel's time on a quiet core of the 2-core Xeon the benchmark was
# written on, so scaled times read as milliseconds there. Raw times are
# reported alongside.
CAL_REF_S = 3.0e-4
# Every op of scatter is checked against its reference; grid checks every
# 53rd op, because a reference at 40 extra digits costs about three times
# the op it checks. 53 is prime to the 38 grid families, so the checks
# rotate through all of them.
CHECK_EVERY = {"grid": 53, "scatter": 1}

END_TO_END = [  # (name, unit) in the JSON result, as in BENCHMARK.json
    ("setup_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"), ("ok_frac", "frac"), ("acc_digits_p50", "digits"),
    ("peak_rss_mb", "MB"),
]


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _check_program_file(path: str) -> None:
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported regsum from {path}, not from {ROOT / 'src'}")


def measure_setup() -> list[float]:
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              capture_output=True, text=True, timeout=20,
                              env=_child_env(), cwd=ROOT)
        if proc.returncode:
            raise BenchError(f"import regsum failed:\n{proc.stderr}")
        seconds, cal, path = proc.stdout.split()
        _check_program_file(path)
        samples.append((float(seconds), float(cal)))
    return samples


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=_child_env(), cwd=ROOT)
    if proc.returncode:
        raise BenchError(f"worker {args} failed:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout)
    _check_program_file(out["regsum_file"])
    return out


def scaled_times(records: list[dict], cal_end: float) -> list[float]:
    """Op times at the reference speed (see CAL_REF_S)."""
    cals = [r["cal"] for r in records] + [cal_end]  # cals[i + 1]: after op i
    return [r["t"] * CAL_REF_S * 2 / (cals[i] + cals[i + 1])
            for i, r in enumerate(records)]


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    has at least ten samples beyond it; the maximum when n < 11."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _mpf(text) -> mpf:
    return mpf((int(text[0]), text[1])) if isinstance(text, list) else mpf(text)


def _digits(err: mpf, cap: int) -> float:
    """Correct decimal digits after the point, between 0 and cap."""
    if err == 0:
        return float(cap)
    return max(0.0, min(float(cap), float(-mp.log10(err))))


def check_series(workload: str, seed: int, records: list[dict],
                 tolerances: dict) -> dict:
    """Compare checked ops with their references. tolerances maps the
    precision in digits, as a string, to the program's tolerance(cfg)."""
    stride = CHECK_EVERY[workload]
    rows = []
    for op, rec in zip(islice(workloads.ops(workload, seed), len(records)),
                       records):
        if "error" in rec or rec["i"] % stride:
            continue
        ref = reference.reference(op)
        with mp.workdps(op.digits + reference.GUARD_DIGITS
                        + reference.EXTRA_DIGITS[1]):
            err = abs(_mpf(rec["value"]) - ref)
            tol = _mpf(tolerances[str(op.digits)])
            rows.append({"within_tol": bool(err <= tol),
                         "within_est": bool(err <= _mpf(rec["est"])),
                         # Gross check: half the tolerance's digits. A
                         # precision shortfall shows in the fractions and
                         # digits; a wrong value fails here.
                         "correct": bool(err <= mp.sqrt(tol)),
                         "digits": _digits(err, op.digits
                                           + reference.GUARD_DIGITS)})
    n = len(rows)
    if not n:
        raise BenchError("no op completed, nothing to check")
    return {"checked": n,
            "within_tol_frac": sum(r["within_tol"] for r in rows) / n,
            "within_est_frac": sum(r["within_est"] for r in rows) / n,
            "digits": [r["digits"] for r in rows],
            "correct": all(r["correct"] for r in rows)}


def check_verify(seed: int, records: list[dict]) -> dict:
    """Reports must be consistent, and only zeta_dd_fourier may fail."""
    rows = []
    correct = True
    for op, rec in zip(islice(workloads.verify_ops(seed), len(records)),
                       records):
        if "reports" not in rec:
            continue
        reps = rec["reports"]
        if len(reps) != 1 or reps[0]["identity_name"] != op.name:
            correct = False
            continue
        r = reps[0]
        with mp.workdps(op.digits + reference.GUARD_DIGITS):
            res = mpf(r["abs_residual"])
            consistent = r["pass"] == bool(res <= mpf(r["tolerance"]))
        correct &= (consistent and (rec["code"] == 1) == (not r["pass"])
                    and (r["pass"] or op.name == "zeta_dd_fourier"))
        rows.append((r["pass"], _digits(res, op.digits
                                        + reference.GUARD_DIGITS),
                     "SUSPECT CONSTANT" in r["method_notes"]))
    n = len(rows)
    if not n:
        raise BenchError("no verify op completed")
    return {"checked": n,
            "within_tol_frac": sum(p for p, _, _ in rows) / n,
            "within_est_frac": None,
            "digits": [d for _, d, _ in rows],
            "suspect_constant": sum(s for _, _, s in rows),
            "correct": correct}


TIMING_KEYS = {"t", "cal"}


def _same_outputs(a: list[dict], b: list[dict]) -> bool:
    """Two runs over the same ops returned the same values and errors."""
    def outputs(rec):
        return {k: v for k, v in rec.items() if k not in TIMING_KEYS}
    return len(a) == len(b) and all(
        outputs(ra) == outputs(rb) for ra, rb in zip(a, b))


def check(workload: str, seed: int, run: dict) -> dict:
    """Check a worker's outputs against the references."""
    if workload == "verify":
        return check_verify(seed, run["ops"])
    return check_series(workload, seed, run["ops"], run["tolerance"])


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup = measure_setup()
    run = run_worker([workload, str(seed), "--seconds", str(seconds)],
                     timeout=seconds + 60)
    records = run["ops"]
    attempted = len(records)
    failed = sum("error" in r for r in records)
    checks = check(workload, seed, run)
    times = scaled_times(records, run["cal_end"])
    tail_s, tail_pct, beyond = tail(times)
    raw = [r["t"] for r in records]
    metrics = {
        "setup_s": statistics.median(t * CAL_REF_S / c for t, c in setup),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": 1000 * tail_s,
        "ops_per_s": attempted / sum(times),
        "ok_frac": (attempted - failed) / attempted,
        "acc_digits_p50": statistics.median(checks["digits"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    report = {
        "error_frac": failed / attempted,
        "within_tol_frac": checks["within_tol_frac"],
        "within_est_frac": checks["within_est_frac"],
        "acc_digits_mean": statistics.fmean(checks["digits"]),
        "samples": attempted, "checked": checks["checked"],
        "tail_percentile": tail_pct, "tail_beyond": beyond,
        "raw_setup_s": statistics.median(t for t, _ in setup),
        "raw_op_p50_ms": 1000 * statistics.median(raw),
        "raw_op_tail_ms": 1000 * tail(raw)[0],
        "raw_ops_per_s": attempted / run["elapsed_s"],
        "calibration_ms": 1000 * statistics.median(r["cal"] for r in records),
        "elapsed_s": run["elapsed_s"], "setup_samples": setup,
        "errors": sorted({r["error"] for r in records if "error" in r}),
    }
    if "suspect_constant" in checks:
        report["suspect_constant"] = checks["suspect_constant"]
    return {"correct": checks["correct"], "attempted": attempted,
            "failed": failed, "metrics": metrics, "report": report}


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    plain = run_worker([workload, str(seed), "--seconds", str(seconds / 2)],
                       timeout=seconds + 30)
    n = len(plain["ops"])
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    traced = run_worker([workload, str(seed), "--ops", str(n),
                         "--spans", str(spans_path)], timeout=seconds + 30)
    metrics = traced["per_layer"]
    metrics["trace.overhead_frac"] = (
        sum(scaled_times(traced["ops"], traced["cal_end"]))
        / sum(scaled_times(plain["ops"], plain["cal_end"])) - 1)
    failed = sum("error" in r for r in traced["ops"])
    correct = (check(workload, seed, plain)["correct"]
               and _same_outputs(plain["ops"], traced["ops"]))
    return {"correct": correct,
            "attempted": n, "failed": failed, "metrics": metrics,
            "report": {"untraced_busy_s": plain["busy_s"],
                       "spans_file": str(spans_path.relative_to(ROOT))}}


def _unit(name: str) -> str:
    """Unit of a report entry, from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_frac", "frac"), ("_ms", "ms"),
                         ("_s", "s"), ("_percentile", "%"),
                         ("digits_mean", "digits")):
        if name.endswith(suffix):
            return unit
    return "count" if name != "spans_file" else ""


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="regsum benchmark, one run")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args(argv)
    if not (ROOT / "src" / "regsum" / "__init__.py").is_file():
        print(f"run.py: no regsum sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = environment()
    try:
        if a.trace:
            result = per_layer(a.workload, a.seed, a.seconds)
            units = dict(spans.metric_names())
        else:
            result = end_to_end(a.workload, a.seed, a.seconds)
            units = dict(END_TO_END)
    except (BenchError, reference.ReferenceMismatch,
            subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"regsum benchmark: workload={a.workload} seed={a.seed} "
          f"seconds={_fmt(a.seconds)} trace={a.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in result["metrics"].items():
        print(f"  {name:36s} {_fmt(value):>14s} {units[name]}")
    for name, value in result["report"].items():
        if not isinstance(value, list):
            print(f"  {name:36s} {_fmt(value):>14s} {_unit(name)}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json"
    out_file.write_text(json.dumps(
        {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
         "trace": a.trace, "environment": env, **result}, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
