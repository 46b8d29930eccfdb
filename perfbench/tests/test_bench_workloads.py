from fractions import Fraction
from itertools import islice

import pytest

import workloads
from regsum.identities import REGISTRY


def take(workload, seed, n):
    return list(islice(workloads.ops(workload, seed), n))


def grid_round(seed):
    """The ops of grid's first round: every family once."""
    ops = take("grid", seed, 200)
    key = [(op.route, op.kernel, op.alternating, op.weight, op.s)
           for op in ops]
    return ops[:key.index(key[0], 1)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert take(workload, 5, 200) == take(workload, 5, 200)
    assert take(workload, 5, 200) != take(workload, 6, 200)


def test_every_input_is_dyadic_and_exactly_printed():
    for op in take("grid", 1, 2000) + take("scatter", 1, 300):
        for q in (op.x, op.s):
            assert q.denominator & (q.denominator - 1) == 0
    for op in take("verify", 1, 300):
        assert Fraction(workloads.decimal(op.point)) == op.point
    assert workloads.decimal(Fraction(-5, 16)) == "-0.3125"
    assert workloads.decimal(Fraction(3)) == "3"


def test_band_keeps_x_away_from_0_half_and_1():
    for k in range(1 << 10):
        x = workloads.band(Fraction(k, 1 << 10))
        assert min(x, abs(x - Fraction(1, 2)), 1 - x) >= Fraction(1, 8)


def test_grid_covers_every_route_in_each_round():
    first = grid_round(3)
    routes = {op.route for op in first}
    assert routes == {"closed_form", "integer_sin_series",
                      "integer_cos_series", "regularized_limit",
                      "abel_oracle"}
    assert {(op.kernel, op.alternating) for op in first
            if op.route == "closed_form"} == {
        ("sin", False), ("cos", False), ("sin", True), ("cos", True)}
    assert {int(op.s) % 2 for op in first
            if op.route == "integer_sin_series"} == {0, 1}
    assert {(op.kernel, op.alternating, op.weight) for op in first
            if op.route == "regularized_limit"} == {
        ("sin", False, "unit"), ("cos", False, "unit"), ("sin", True, "unit"),
        ("cos", True, "unit"), ("sin", False, "log"), ("cos", False, "log")}
    assert {(op.kernel, op.weight) for op in first
            if op.route == "abel_oracle"} == {
        ("sin", "log"), ("cos", "log"), ("sin", "log2"), ("cos", "log2")}
    for op in first:
        if op.route in ("closed_form", "abel_oracle"):
            assert op.s.denominator > 1
    # A family keeps its s while it sweeps x, so zeta values repeat.
    second = take("grid", 3, 2 * len(first))[len(first):]
    assert [op.s for op in first] == [op.s for op in second]
    assert len({op.x for op in first}) <= 2 and first[0].x != second[0].x


def test_rounds_hold_every_family_combination_and_identity_once():
    assert len(grid_round(3)) == workloads.ROUND["grid"]
    scatter = take("scatter", 3, 12)
    for k in range(0, 12, workloads.ROUND["scatter"]):
        block = scatter[k:k + workloads.ROUND["scatter"]]
        assert len({(op.kernel, op.alternating) for op in block}) == 4
    verify = take("verify", 3, 2 * workloads.ROUND["verify"])
    assert {op.name for op in verify[:15]} == {op.name for op in verify[15:]}


def test_grid_family_mix_is_the_same_for_every_seed():
    def mix(seed):
        width = {"abel_oracle": 2}
        return sorted((op.route, op.kernel, op.alternating, op.weight,
                       int(op.s) // width.get(op.route, 1))
                      for op in grid_round(seed))
    assert mix(1) == mix(2) == mix(3)


def test_grid_alternating_sine_limit_stays_below_045():
    for op in take("grid", 4, 3000):
        if op.route == "regularized_limit" and op.kernel == "sin" \
                and op.alternating:
            assert op.x < Fraction(45, 100)


def test_scatter_never_repeats_s_or_x():
    ops = take("scatter", 9, 2000)
    assert len({op.s for op in ops}) == len(ops)
    assert len({op.x for op in ops}) == len(ops)
    for op in ops:
        assert op.weight == "unit" and op.digits == 100
        assert min(op.s % 1, 1 - op.s % 1) >= Fraction(1, 512)
        assert 0 < op.s < workloads.SCATTER_S_MAX


def test_verify_covers_the_registry_with_in_domain_points():
    assert set(workloads.IDENTITY_NAMES) == set(REGISTRY)
    ops = take("verify", 2, 15 * 20)
    assert {op.name for op in ops[:15]} == set(REGISTRY)
    for op in ops:
        x = op.point
        assert Fraction(1, 1000) <= x <= Fraction(999, 1000)
        if op.name == "alt_sin_limit":
            assert x < Fraction(45, 100)
    entry = [op.point for op in ops if op.name == "entry17v"]
    assert len(set(entry)) == len(entry)
