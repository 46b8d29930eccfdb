"""Run one workload's ops in a fresh process: a closed loop with one client.

    python3 perfbench/worker.py WORKLOAD SEED (--seconds S | --ops N)
                                [--spans PATH]

regsum is imported from PYTHONPATH when the process starts, so every module
cache is cold, as in a new CLI invocation or library session. With
--seconds the loop takes ops until S seconds have passed, then finishes
the round it is in (every grid family, scatter kernel/alternation pair or
identity once), so every run sees the same mix; it takes at least MIN_OPS
ops. With --ops it runs exactly the first N. --spans installs the tracer and
writes the spans to PATH. Before each op it times a fixed calibration
kernel. The process prints one JSON object: a record per op (seconds,
calibration seconds, outputs), the program's tolerance(cfg) at each
precision used, the elapsed and busy (inside-op) seconds, peak RSS and,
when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time

import workloads

# The tail percentile needs at least 11 samples; scatter ops take ~1 s.
MIN_OPS = 12


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of mpmath arithmetic, no regsum.

    It runs before every op; run.py scales each op's time by it, which
    cancels the speed drift of a machine whose cores are shared.
    """
    from mpmath import mp, mpf

    t0 = time.perf_counter()
    with mp.workdps(65):
        a, acc = mpf(1) / 3, mpf(0)
        for k in range(1, 40):
            acc += a ** k / k
    return time.perf_counter() - t0


def exact(v):
    """An mpf as [signed mantissa text, exponent], exactly; str for inf/nan."""
    sign, man, exp, _ = v._mpf_
    if not man and exp:
        return str(v)
    return [str(-man if sign else man), exp]


def _series_call(regsum, op, configs):
    from mpmath import mpf

    x = mpf(op.x.numerator) / op.x.denominator
    s = mpf(op.s.numerator) / op.s.denominator
    cfg = configs.setdefault(op.digits, regsum.EvalConfig(op.digits))

    def call():
        spec = regsum.SeriesSpec(op.kernel, x, s, alternating=op.alternating,
                                 weight=op.weight)
        return regsum.evaluate_series(spec, cfg)
    return call


def _verify_call(regsum, op, _configs):
    argv = op.argv()

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = regsum.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def _series_record(result) -> dict:
    return {"value": exact(result.value), "est": exact(result.error_estimate),
            "terms": result.terms_used, "method": result.method}


def _verify_record(result) -> dict:
    code, out, err = result
    rec = {"code": code}
    if code == 2:
        rec["error"] = err.strip()
    else:
        rec["reports"] = [
            {k: r[k] for k in ("identity_name", "pass", "abs_residual",
                               "tolerance", "method_notes")}
            for r in json.loads(out)]
    return rec


def run(workload: str, seed: int, seconds: float | None, n_ops: int | None,
        spans_path: str | None) -> dict:
    import regsum
    import regsum.cli
    import regsum.config

    tracer = None
    if spans_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    make = _verify_call if workload == "verify" else _series_call
    configs: dict = {}
    done = []  # (index, seconds, calibration, result, error text)
    round_size = workloads.ROUND[workload]
    start = time.perf_counter()
    for i, op in enumerate(workloads.ops(workload, seed)):
        if n_ops is not None and i >= n_ops:
            break
        if (seconds is not None and i >= MIN_OPS and i % round_size == 0
                and time.perf_counter() - start >= seconds):
            break
        call = make(regsum, op, configs)
        if tracer:
            tracer.op = i
        cal = calibration_kernel()
        t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # an op that raises is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        done.append((i, time.perf_counter() - t0, cal, result, error))
    elapsed = time.perf_counter() - start
    cal_end = calibration_kernel()

    to_record = _verify_record if workload == "verify" else _series_record
    records = []
    for i, t, cal, result, error in done:
        rec = {"i": i, "t": t, "cal": cal}
        rec.update({"error": error} if error else to_record(result))
        records.append(rec)
    busy = sum(rec["t"] for rec in records)
    out = {"workload": workload, "seed": seed, "ops": records,
           "elapsed_s": elapsed, "busy_s": busy, "cal_end": cal_end,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "tolerance": {digits: exact(regsum.config.tolerance(cfg))
                         for digits, cfg in configs.items()},
           "regsum_file": regsum.__file__}
    if tracer:
        from spans import aggregate
        out["per_layer"] = aggregate(tracer.spans, busy)
        tracer.write(spans_path)
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("seed", type=int)
    limit = p.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    p.add_argument("--spans", default=None)
    a = p.parse_args()
    print(json.dumps(run(a.workload, a.seed, a.seconds, a.ops, a.spans)))


if __name__ == "__main__":
    main()
