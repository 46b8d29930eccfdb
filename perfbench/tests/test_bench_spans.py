import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import test_bench_workloads

BENCH = Path(__file__).resolve().parents[1]


def span(name, start, end, parent, tag=None, terms=0, error=False):
    return [name, start, end, parent, 0, error, terms, tag]


def test_self_time_subtracts_direct_children_only():
    tree = [
        span("identities.verify_identity", 0.0, 10.0, -1, tag="entry17v"),
        span("series.regularized_limit", 1.0, 4.0, 0, terms=7),
        span("kernels.sum_entire", 2.0, 3.0, 1, terms=5),
        span("zeta.stieltjes_gamma1_limit", 5.0, 9.0, 0, error=True),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    m = spans.aggregate(tree, wall=10.5)
    assert m["identities.self_s"] == 3.0
    assert m["series.regularized_limit.self_s"] == 2.0
    assert m["series.regularized_limit.terms"] == 7
    assert m["kernels.sum_entire.terms"] == 5
    assert m["zeta.stieltjes_gamma1_limit.calls"] == 1
    assert m["zeta.errors"] == 1 and m["series.errors"] == 0
    assert m["identities.entry17v.s"] == 10.0
    assert m["trace.unattributed_s"] == 0.5
    layer_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_self + m["trace.unattributed_s"] == m["trace.wall_s"]


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (89.0, 90.0, 10)
    assert run.tail(times[:5]) == (4.0, 100.0, 0)


def test_scaled_times_cancel_a_uniform_slowdown():
    quiet = [{"t": 0.002, "cal": 0.0004} for _ in range(30)]
    slow = [dict(r, t=2 * r["t"], cal=2 * r["cal"]) for r in quiet]
    assert run.scaled_times(quiet, 0.0004) == run.scaled_times(slow, 0.0008)
    assert run.scaled_times(quiet, 0.0004)[0] == 0.002 * run.CAL_REF_S / 0.0004
    # A slow phase halfway through is cancelled where it is measured.
    phased = [dict(r, t=2 * r["t"], cal=2 * r["cal"]) if i >= 15 else r
              for i, r in enumerate(quiet)]
    scaled = run.scaled_times(phased, 0.0008)
    assert scaled[:10] == scaled[-10:] == [scaled[0]] * 10


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == spans.metric_names()
    assert [w["name"] for w in spec["workloads"]] == ["grid", "scatter",
                                                      "verify"]


def worker(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "grid", "3", *args],
        capture_output=True, text=True, timeout=300, env=run._child_env(),
        cwd=BENCH.parent, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def grid_round():
    """The first round of grid, traced in a fresh worker process."""
    n = len(test_bench_workloads.grid_round(3))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "spans-test-grid.jsonl.gz"
    out = worker("--ops", str(n), "--spans", str(path))
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        recorded = [json.loads(line) for line in fh]
    path.unlink()
    return out, recorded, n


def test_tracing_does_not_change_outputs(grid_round):
    traced, _, n = grid_round
    assert run._same_outputs(traced["ops"], worker("--ops", str(n))["ops"])


def test_grid_round_reaches_every_evaluate_series_route(grid_round):
    out, _, _ = grid_round
    m = out["per_layer"]
    for route in ("closed_form_series", "regularized_limit",
                  "integer_sin_series", "integer_cos_series", "abel_oracle"):
        assert m[f"series.{route}.calls"] > 0, route
    assert all("error" not in op for op in out["ops"])


def test_wrappers_reach_names_bound_by_from_imports(grid_round):
    _, recorded, n = grid_round
    by_index = dict(enumerate(recorded))
    # series.py binds riemann_zeta and sum_entire with `from .zeta import`
    # and `from .kernels import`; their calls must nest under series spans.
    parents = {by_index[rec[spans.PARENT]][spans.NAME].split(".")[0]
               for rec in recorded
               if rec[spans.NAME] == "zeta.riemann_zeta"
               and rec[spans.PARENT] >= 0}
    assert parents & {"series", "kernels"}
    assert {rec[spans.OP] for rec in recorded} == set(range(n))
