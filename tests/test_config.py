"""Precision ownership: workprec, the active config and tolerance."""

import dataclasses
import importlib
import inspect
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import regsum
from regsum import (DEFAULT_CONFIG, EvalConfig, PoleError, SeriesSpec,
                    closed_form_series, evaluate_series, riemann_zeta,
                    workprec)
from regsum.config import tolerance, working_dps

from refs import hurwitz_series

LAYERS = ("bernoulli", "kernels", "gammafn", "zeta", "series", "identities",
          "cli")
SPEC = SeriesSpec("sin", Fraction(3, 10), Fraction(1, 2))


def _refs():
    """The Motivation cases' references: the sine series at x = 3/10,
    s = 1/2 and zeta(3/2), far beyond 100 digits."""
    with mp.workdps(200):
        return hurwitz_series("sin", mpf(3) / 10, mpf(1) / 2), mp.zeta(1.5)


def test_nested_calls_without_cfg_inherit_the_precision():
    series_ref, zeta_ref = _refs()
    cfg = EvalConfig(100)
    with workprec(cfg):
        assert mp.dps == working_dps(cfg)
        rv = evaluate_series(SPEC)
        z = riemann_zeta(Fraction(3, 2))
        assert mp.dps == working_dps(cfg)
    assert abs(rv.value - series_ref) < mpf("1e-70")
    assert abs(z - zeta_ref) < mpf("1e-70")


def test_top_level_call_uses_default_config():
    _, zeta_ref = _refs()
    outer = mp.dps
    z = riemann_zeta(Fraction(3, 2))
    assert mp.dps == outer
    assert z == riemann_zeta(Fraction(3, 2), DEFAULT_CONFIG)
    assert abs(z - zeta_ref) < tolerance(DEFAULT_CONFIG)
    assert tolerance() == tolerance(DEFAULT_CONFIG)
    with workprec():
        assert mp.dps == working_dps(DEFAULT_CONFIG)
        assert tolerance() == tolerance(DEFAULT_CONFIG)


def test_nested_call_with_a_different_cfg_wins():
    low, high = EvalConfig(40), EvalConfig(100)
    top = riemann_zeta(Fraction(3, 2), low)
    with workprec(high):
        assert riemann_zeta(Fraction(3, 2), low) == top
        with workprec(low):
            assert mp.dps == working_dps(low)
            assert tolerance() == tolerance(low)
        # an equal config is the one in force, not a new owner
        with workprec(EvalConfig(100)):
            assert mp.dps == working_dps(high)
        assert mp.dps == working_dps(high)
        assert tolerance() == tolerance(high)


def test_precision_restored_after_an_exception():
    outer = mp.dps
    with pytest.raises(PoleError):
        riemann_zeta(1, EvalConfig(80))
    assert mp.dps == outer
    with pytest.raises(RuntimeError):
        with workprec(EvalConfig(80)):
            raise RuntimeError("boom")
    assert mp.dps == outer and tolerance() == tolerance(DEFAULT_CONFIG)
    high = EvalConfig(100)
    with workprec(high):
        with pytest.raises(PoleError):
            riemann_zeta(1, EvalConfig(40))
        assert mp.dps == working_dps(high)
        assert tolerance() == tolerance(high)


def test_no_private_function_takes_cfg():
    takes_cfg = []
    for layer in LAYERS:
        mod = importlib.import_module(f"regsum.{layer}")
        for name, obj in vars(mod).items():
            if (name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and "cfg" in inspect.signature(obj).parameters):
                takes_cfg.append(f"{layer}.{name}")
    assert takes_cfg == []
    for name, defn in regsum.REGISTRY.items():
        assert len(inspect.signature(defn.evaluate).parameters) == 1, name
    assert [f.name for f in dataclasses.fields(EvalConfig)] \
        == ["precision_digits"]


@pytest.mark.parametrize("digits", [50, 100])
def test_tolerance_depends_only_on_cfg(digits):
    cfg = EvalConfig(digits)
    tol = tolerance(cfg)
    with mp.workdps(15):
        assert tolerance(cfg) == tol
    with workprec(EvalConfig(300)):
        assert tolerance(cfg) == tol
    # the estimate is +tolerance, rounded at the working precision; a
    # tolerance rounded at the caller's 15 digits compared below it
    with mp.workdps(15):
        assert closed_form_series(SPEC, cfg).error_estimate <= tolerance(cfg)
