"""Trigonometric series: closed forms, limits, integer branches, oracles."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from regsum import (CapabilityError, DEFAULT_CONFIG, DomainError, EvalConfig,
                    PoleError, PrecisionLossWarning, RedirectError, SeriesSpec,
                    abel_oracle, cache_stats, closed_form_series,
                    evaluate_series,
                    gamma_fn, integer_cos_series, integer_sin_series,
                    log_cos_limit_series,
                    regularized_limit, riemann_zeta, workprec)
from regsum import kernels, series
from regsum.config import CACHE_CAP, memo, tolerance, working_dps, xreal
from regsum.zeta import _rz

from refs import (catalan, clausen, eta_tail, hurwitz_series,
                  polylog_log_weight, seeded_uniforms, sin_log_limit)

CFG = DEFAULT_CONFIG


def _cot(x):
    return mp.cospi(x) / mp.sinpi(x)


# ------------------------------ spec validation ---------------------------

def test_spec_validation():
    with workprec(CFG):
        with pytest.raises(DomainError):
            SeriesSpec("sinh", mpf("0.5"), 1)
        with pytest.raises(DomainError):
            SeriesSpec("sin", mpf(0), 1)
        with pytest.raises(DomainError):
            SeriesSpec("sin", mpf(1), 1)
        with pytest.raises(DomainError):
            SeriesSpec("sin", mpf("0.5"), -1)
        with pytest.raises(DomainError):
            SeriesSpec("sin", mpf("0.5"), 1, weight="sqrt")


# ------------------------------ closed forms ------------------------------

def test_closed_form_fractional_s_vs_oracles():
    with workprec(CFG):
        spec = SeriesSpec("sin", mpf("0.25"), mpf("0.5"))
        cf = closed_form_series(spec, CFG)
        ab = abel_oracle(spec, CFG)
        assert abs(cf.value - ab.value) < mpf("1e-6")
        ref = clausen("sin", spec.x, spec.s, CFG)
        assert abs(cf.value - ref) <= tolerance(CFG)


def test_closed_form_cos_s2_bernoulli_value():
    # truncating case: pi^2 B_2(1/4) = -pi^2/48
    with workprec(CFG):
        cf = closed_form_series(SeriesSpec("cos", mpf("0.25"), 2), CFG)
        assert abs(cf.value + mp.pi ** 2 / 48) < mpf("1e-20")
        ref = clausen("cos", mpf("0.25"), 2, CFG)
        assert abs(cf.value - ref) <= tolerance(CFG)


def test_closed_form_alternating_vs_abel():
    with workprec(CFG):
        spec = SeriesSpec("cos", mpf("0.3"), mpf("0.5"), alternating=True)
        cf = closed_form_series(spec, CFG)
        ab = abel_oracle(spec, CFG)
        assert abs(cf.value - ab.value) < mpf("1e-6")


def test_closed_form_alternating_upper_half_interval():
    # x >= 1/2 goes through the half-period reduction
    with workprec(CFG):
        for spec in (SeriesSpec("sin", mpf("0.7"), mpf("1.5"), alternating=True),
                     SeriesSpec("cos", mpf("0.85"), mpf("2.5"), alternating=True)):
            cf = closed_form_series(spec, CFG)
            ab = abel_oracle(spec, CFG)
            assert abs(cf.value - ab.value) < mpf("1e-6")


def test_closed_form_redirects():
    with workprec(CFG):
        with pytest.raises(RedirectError) as exc:
            closed_form_series(SeriesSpec("sin", mpf("0.3"), 2), CFG)
        assert exc.value.branch == "integer_sin_series"
        with pytest.raises(RedirectError) as exc:
            closed_form_series(SeriesSpec("cos", mpf("0.3"), 3), CFG)
        assert exc.value.branch == "integer_cos_series"
        with pytest.raises(RedirectError) as exc:
            closed_form_series(SeriesSpec("cos", mpf("0.3"), 0), CFG)
        assert exc.value.branch == "regularized_limit"
        with pytest.raises(CapabilityError):
            closed_form_series(SeriesSpec("sin", mpf("0.3"), 1, weight="log"),
                               CFG)


def test_closed_form_near_parity_warns():
    with workprec(CFG):
        spec = SeriesSpec("sin", mpf("0.3"), mpf("2.0005"))
        with pytest.warns(PrecisionLossWarning):
            cf = closed_form_series(spec, CFG)
        # value still accurate to far better than the integer branch scale
        iv = integer_sin_series(mpf("0.3"), 2, CFG)
        assert abs(cf.value - iv.value) < mpf("1e-2")


@pytest.mark.parametrize("digits", [50, 100])
@pytest.mark.parametrize("kernel,base,side", [("sin", 2, 1), ("cos", 3, -1)])
def test_closed_form_next_to_parity_integer(digits, kernel, base, side):
    # s = 2 + 10^-k (sin) and 3 - 10^-k (cos): the prefactor's trig factor
    # nears a zero, and sinpi/cospi keep its relative accuracy
    cfg = EvalConfig(digits)
    with workprec(cfg):
        x = mpf(3) / 10
        for k in (4, 10, 20, 30, 40):
            s = base + side * mpf(10) ** -k
            with pytest.warns(PrecisionLossWarning):
                rv = closed_form_series(SeriesSpec(kernel, x, s), cfg)
            ref = clausen(kernel, x, s, cfg)
            assert abs(rv.value - ref) <= tolerance(cfg), k


def test_sine_next_to_zero_is_not_parity_singular():
    # Gamma(s)'s pole cancels the zero of sin(pi s/2) at s = 0, so a small
    # s loses no digits: no warning and no widened estimate
    with workprec(CFG):
        x = mpf(3) / 10
        for k in (4, 10, 20, 30, 45):
            s = mpf(10) ** -k
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rv = evaluate_series(SeriesSpec("sin", x, s), CFG)
            assert rv.error_estimate == tolerance(CFG), k
            ref = clausen("sin", x, s, CFG)
            assert abs(rv.value - ref) <= tolerance(CFG), k


def test_integer_branch_continuity_bracket():
    # closed form at s = 2 +- 1e-4 brackets the L'Hopital limit within 1e-3
    with workprec(CFG):
        x = mpf("0.3")
        v = integer_sin_series(x, 2, CFG).value
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionLossWarning)
            lo = closed_form_series(SeriesSpec("sin", x, mpf(2) - mpf("1e-4")),
                                    CFG).value
            hi = closed_form_series(SeriesSpec("sin", x, mpf(2) + mpf("1e-4")),
                                    CFG).value
        assert abs(lo - v) < mpf("1e-3")
        assert abs(hi - v) < mpf("1e-3")
        assert (lo - v) * (hi - v) <= 0


# --------------------------- regularized limits ---------------------------

def test_limit_sin_unit_quarter():
    with workprec(CFG):
        rv = regularized_limit(SeriesSpec("sin", mpf("0.25"), 0), CFG)
        assert abs(rv.value - mpf(1) / 2) < mpf("1e-10")
        assert rv.method == "closed_form"


def test_limit_sin_unit_grid_vs_cot():
    with workprec(CFG):
        for i in range(1, 10):
            x = mpf(i) / 10
            rv = regularized_limit(SeriesSpec("sin", x, 0), CFG)
            assert abs(rv.value - _cot(x) / 2) < mpf("1e-10"), x


def test_limit_cos_unit_is_minus_half_everywhere():
    with workprec(CFG):
        vals = set()
        for i in range(1, 10):
            rv = regularized_limit(SeriesSpec("cos", mpf(i) / 10, 0), CFG)
            vals.add(rv.value)
        assert vals == {mpf(-1) / 2}


def test_limit_alt_cos_unit():
    with workprec(CFG):
        rv = regularized_limit(
            SeriesSpec("cos", mpf("0.77"), 0, alternating=True), CFG)
        assert abs(rv.value - mpf(1) / 2) < mpf("1e-20")


def test_limit_alt_sin_tan_route():
    # the half-period shift carries the limit across x = 1/2 (tan(pi x)/2)
    with workprec(CFG):
        for x in (mpf("0.3"), mpf("0.6"), mpf("0.8")):
            rv = regularized_limit(SeriesSpec("sin", x, 0, alternating=True),
                                   CFG)
            assert abs(rv.value - mp.tan(mp.pi * x) / 2) < mpf("1e-10"), x


def test_limit_sin_log_half_point_vanishes():
    with workprec(CFG):
        rv = regularized_limit(
            SeriesSpec("sin", mpf("0.5"), 0, weight="log"), CFG)
        assert abs(rv.value) < mpf("1e-10")


def test_limit_cos_log_routes_agree():
    with workprec(CFG):
        x = mpf("0.3")
        rv = regularized_limit(SeriesSpec("cos", x, 0, weight="log"), CFG)
        series = log_cos_limit_series(x, CFG)
        assert abs(rv.value - series) < mpf("1e-20")
        ab = abel_oracle(SeriesSpec("cos", x, 0, weight="log"), CFG)
        assert abs(rv.value - ab.value) < mpf("1e-5")


def test_limit_unsupported_combinations():
    # alternating log weights at s = 0 have values; log^2 at s = 0 does not
    with workprec(CFG):
        for kernel in ("sin", "cos"):
            for x in (mpf("0.3"), mpf("0.7")):
                spec = SeriesSpec(kernel, x, 0, alternating=True, weight="log")
                rv = regularized_limit(spec, CFG)
                ab = abel_oracle(spec, CFG)
                assert abs(rv.value - ab.value) < mpf("1e-5"), (kernel, x)
        rv = regularized_limit(SeriesSpec("cos", mpf("0.5"), 0, alternating=True,
                                          weight="log"), CFG)
        assert abs(rv.value + mp.log(2 * mp.pi) / 2) < mpf("1e-20")  # zeta'(0)
        with pytest.raises(CapabilityError):
            regularized_limit(
                SeriesSpec("sin", mpf("0.3"), 0, weight="log2"), CFG)
        with pytest.raises(DomainError):
            regularized_limit(SeriesSpec("sin", mpf("0.3"), 1), CFG)


def test_alternating_cos_half_point_log_weights():
    # at x = 1/2 the alternating cosine terms are -w(n)/n^s: zeta'(s) for log
    # weight, -zeta''(s) for log^2; the Abel sums diverge there
    with workprec(CFG):
        half = mpf(1) / 2
        for s in (mpf(0.5), mpf(1.5), mpf(2.5)):
            for weight, k, sign in (("log", 1, 1), ("log2", 2, -1)):
                rv = evaluate_series(SeriesSpec("cos", half, s, alternating=True,
                                                weight=weight), CFG)
                with mp.workdps(mp.dps + 40):
                    ref = sign * mp.zeta(s, 1, k)
                assert abs(rv.value - ref) < tolerance(CFG), (s, weight)
        for weight in ("log", "log2"):
            with pytest.raises(PoleError):
                evaluate_series(SeriesSpec("cos", half, 1, alternating=True,
                                           weight=weight), CFG)
        with pytest.raises(CapabilityError):
            evaluate_series(SeriesSpec("cos", half, 0, alternating=True,
                                       weight="log2"), CFG)


def test_alternating_vs_oracles_across_half():
    # x on both sides of 1/2: tan(pi x)/2 at s = 0, Abel for log weights at
    # s = 0 and for unit weight at s = 1/2
    with workprec(CFG):
        for x in (mpf("0.1"), mpf("0.3"), mpf("0.6"), mpf("0.9")):
            rv = evaluate_series(SeriesSpec("sin", x, 0, alternating=True), CFG)
            assert abs(rv.value - mp.tan(mp.pi * x) / 2) < mpf("1e-20"), x
            for kernel in ("sin", "cos"):
                for s, weight in ((0, "log"), (mpf("0.5"), "unit")):
                    spec = SeriesSpec(kernel, x, s, alternating=True,
                                      weight=weight)
                    rv = evaluate_series(spec, CFG)
                    ab = abel_oracle(spec, CFG)
                    assert abs(rv.value - ab.value) < mpf("1e-5"), \
                        (kernel, x, s, weight)


def test_closed_form_alternating_matches_printed_eta_form():
    # the paper's eta-tail form for x < 1/2 against the half-period shift;
    # s = 2 (sin) and s = 1 (cos) go through the integer branches
    with workprec(CFG):
        x = mpf("0.3")
        cases = [(kernel, mpf(s)) for kernel in ("sin", "cos")
                 for s in ("0.5", "1.5", "2.5", "3.5")]
        cases += [("sin", mpf(2)), ("cos", mpf(1))]
        for kernel, s in cases:
            cf = closed_form_series(SeriesSpec(kernel, x, s, alternating=True),
                                    CFG)
            assert abs(cf.value - eta_tail(kernel, x, s, CFG)) < mpf("1e-20"), \
                (kernel, s)


def test_precision_100_digits_zeta_and_closed_form():
    # zeta at negative non-integer s and the closed forms built on it keep
    # the full working precision (no nested lower-precision context)
    cfg = EvalConfig(100)
    with workprec(cfg):
        s, x = mpf("-2.5"), mpf("0.3")
        z = riemann_zeta(s, cfg)
        with mp.extradps(40):
            ref = mp.zeta(s)
        assert abs(z - ref) < tolerance(cfg)
        cf = closed_form_series(SeriesSpec("sin", x, 1 - s), cfg)
        with mp.extradps(40):
            ref = hurwitz_series("sin", x, 1 - s)
        assert abs(cf.value - ref) < tolerance(cfg)


@pytest.mark.slow
@pytest.mark.parametrize("x", ["0.3", "0.45", "0.5"])
def test_sine_limits_at_300_digits(x):
    # w = 2 pi x reaches pi after the mirror, so the zeta(-odd) and
    # zeta'(-odd) tails run past k = 256, where B_2k is past
    # BERNOULLI_INDEX_CAP
    cfg = EvalConfig(300)
    with workprec(cfg):
        x = mpf(x)
    half = mpf(1) / 2
    bad = []
    for alternating in (False, True):
        if alternating and x == half:
            continue  # tan(pi x)/2 has its pole there
        for weight in ("unit", "log"):
            spec = SeriesSpec("sin", x, 0, alternating, weight)
            v = regularized_limit(spec, cfg).value
            with mp.workdps(working_dps(cfg) + 40):
                # the alternating series is minus the plain one at x + 1/2
                xp = x + half if alternating else x
                ref = (_cot(xp) / 2 if weight == "unit"
                       else sin_log_limit(xp))
                err = abs(v - (-ref if alternating else ref))
            if not err <= tolerance(cfg):
                bad.append((alternating, weight, mp.nstr(err, 3)))
    assert not bad, bad


# ----------------------- precision sweep of the routes --------------------

# (digits, examples): the mpmath references dominate the time, ~2 s a case
# at 140 digits and ~9 s at 240
ROUTE_SWEEP = [(30, 30), (50, 20), (100, 8),
               pytest.param(200, 4, marks=pytest.mark.slow)]


def _clausen(kernel, s, x):
    """sum_n trig(2 n pi x)/n^s from mpmath's Clausen functions."""
    return (mp.clsin if kernel == "sin" else mp.clcos)(s, 2 * mp.pi * x)


@pytest.mark.parametrize("digits,examples", ROUTE_SWEEP)
def test_series_route_precision_sweep(digits, examples):
    # x = j/256 and s = k/16 in [0, 6] are exact binary on both sides; they
    # reach s = 0, both integer branches, and non-integer s at least 1/16
    # from a parity-singular integer. Log weights go through Abel, which
    # misses the tolerance above ~55 digits, so they are left out.
    cfg = EvalConfig(digits)

    @settings(max_examples=examples, deadline=None, derandomize=True,
              database=None)
    @given(j=st.integers(1, 255).filter(lambda j: j != 128),
           k=st.integers(0, 96), kernel=st.sampled_from(("sin", "cos")),
           alternating=st.booleans())
    def check(j, k, kernel, alternating):
        x, s = Fraction(j, 256), Fraction(k, 16)
        rv = evaluate_series(SeriesSpec(kernel, x, s, alternating), cfg)
        with mp.workdps(digits + 40):
            xm, sm = mpf(j) / 256, mpf(k) / 16
            # the alternating series is minus the plain one at x + 1/2
            ref = (-_clausen(kernel, sm, xm + mpf(1) / 2) if alternating
                   else _clausen(kernel, sm, xm))
            err = abs(rv.value - ref) / max(1, abs(ref))
        assert err <= tolerance(cfg), (rv.method, mp.nstr(err, 3))

    check()


# ----------------------------- zeta tail tables ---------------------------

# (digits, examples): refs.clausen takes ~0.3, ~0.5 and ~1.5 s a case at
# 30, 50 and 100 digits
TABLE_SWEEP = [(30, 6), (50, 4), (100, 3)]


@pytest.mark.parametrize("digits,examples", TABLE_SWEEP)
def test_tail_tables_closed_form_sweep(digits, examples):
    # dyadic x, s in (0, 8) at least 1/64 from every integer: the closed
    # forms' fixed-point tails against mpmath's Clausen functions
    cfg = EvalConfig(digits)

    @settings(max_examples=examples, deadline=None, derandomize=True,
              database=None)
    @given(j=st.integers(1, 255).filter(lambda j: j != 128),
           i=st.integers(0, 7), f=st.integers(1, 63),
           kernel=st.sampled_from(("sin", "cos")), alternating=st.booleans())
    def check(j, i, f, kernel, alternating):
        x, s = Fraction(j, 256), i + Fraction(f, 64)
        rv = closed_form_series(SeriesSpec(kernel, x, s, alternating), cfg)
        with mp.workdps(working_dps(cfg) + 40):
            xm, sm = xreal(x), xreal(s)
            # the alternating series is minus the plain one at x + 1/2
            ref = (-clausen(kernel, xm + mpf(1) / 2, sm, cfg) if alternating
                   else clausen(kernel, xm, sm, cfg))
            err = abs(rv.value - ref)
        assert err <= tolerance(cfg), mp.nstr(err, 3)

    check()


# x' = 1/2 - 2^-10 after the mirror or the half-period shift, where the
# tails are longest, and a sine op of the scatter workload (seed 8201)
# whose tail would never stop if its tiny late coefficients, floored to
# -1 ulp, met growing powers of w = 2 pi x instead of x^{2n+1} <= 1
TABLE_PINS = [("sin", False, Fraction(511, 1024), Fraction(37, 16)),
              ("cos", True, Fraction(1, 1024), Fraction(19, 8)),
              ("sin", False, Fraction(24025, 65536), Fraction(159771, 32768))]


@pytest.mark.parametrize(
    "digits", [100, pytest.param(200, marks=pytest.mark.slow)])
def test_tail_tables_pinned(digits):
    cfg = EvalConfig(digits)
    bad = []
    for kernel, alternating, x, s in TABLE_PINS:
        rv = closed_form_series(SeriesSpec(kernel, x, s, alternating), cfg)
        with mp.workdps(working_dps(cfg) + 40):
            xm, sm = xreal(x), xreal(s)
            ref = (-hurwitz_series(kernel, xm + mpf(1) / 2, sm) if alternating
                   else hurwitz_series(kernel, xm, sm))
            err = abs(rv.value - ref)
        if not err <= tolerance(cfg):
            bad.append((kernel, alternating, x, mp.nstr(err, 3)))
    assert not bad, bad


@pytest.mark.parametrize("kernel,alternating",
                         [("sin", False), ("cos", False), ("cos", True)])
def test_tail_table_warm_equals_cold(monkeypatch, kernel, alternating):
    # x2 reads the same bits from a table that a larger x1 extended first,
    # or that a smaller x1 began, as from one built for x2 alone
    s = Fraction(37, 16)
    table = kernels._coeff_table.__wrapped__

    def last_value(*xs):
        # an empty table memo: the zeta values behind it stay memoised
        monkeypatch.setattr(kernels, "_coeff_table", memo(cap=1)(table))
        for x in xs:
            rv = closed_form_series(SeriesSpec(kernel, x, s, alternating), CFG)
        return rv.value._mpf_

    x2 = Fraction(7, 16)
    cold = last_value(x2)
    for x1 in (Fraction(1, 16), Fraction(15, 32)):
        assert last_value(x1, x2) == cold, x1


def test_tail_table_warm_call_computes_no_zeta():
    # after x = 7/16, every x whose mirror is nearer 0 is a table read
    s = Fraction(53, 16)
    closed_form_series(SeriesSpec("cos", Fraction(7, 16), s), CFG)
    misses = _rz.cache_info().misses
    for x in (Fraction(3, 16), Fraction(13, 16), Fraction(5, 16)):
        closed_form_series(SeriesSpec("cos", x, s), CFG)
    assert _rz.cache_info().misses == misses


def test_tail_table_memo_is_bounded():
    cap = CACHE_CAP // 64
    cfg = EvalConfig(30)
    for i in range(cap + 10):
        s = 4 + Fraction(2 * i + 1, 2 * (cap + 10))
        closed_form_series(SeriesSpec("sin", Fraction(1, 64), s), cfg)
    info = kernels._coeff_table.cache_info()
    assert info.maxsize == cap
    assert info.currsize == cap


# The plain-series plan: every route's s-only work, once per (kernel,
# weight, s, precision). Each call is (function, first x, later x), the
# later x reducing to a point nearer 0, so its tail needs no new term.
PLAN_CALLS = [
    (lambda x: closed_form_series(SeriesSpec("sin", x, Fraction(37, 16)),
                                  CFG), Fraction(7, 16), Fraction(11, 16)),
    (lambda x: evaluate_series(SeriesSpec("cos", x, Fraction(21, 16)), CFG),
     Fraction(7, 16), Fraction(5, 16)),
    (lambda x: closed_form_series(
        SeriesSpec("cos", x, Fraction(9, 16), alternating=True), CFG),
     Fraction(1, 16), Fraction(11, 16)),
    (lambda x: integer_sin_series(x, 2, CFG), Fraction(7, 16),
     Fraction(13, 16)),
    (lambda x: evaluate_series(SeriesSpec("sin", x, 4), CFG),
     Fraction(7, 16), Fraction(1, 4)),
    (lambda x: integer_sin_series(x, 3, CFG), Fraction(7, 16),
     Fraction(1, 4)),
    (lambda x: integer_cos_series(x, 3, CFG), Fraction(7, 16),
     Fraction(3, 4)),
    (lambda x: regularized_limit(SeriesSpec("sin", x, 0), CFG),
     Fraction(7, 16), Fraction(3, 16)),
    (lambda x: regularized_limit(SeriesSpec("sin", x, 0, weight="log"), CFG),
     Fraction(7, 16), Fraction(5, 8)),
]


def _bits(rv):
    return rv.value._mpf_, rv.error_estimate._mpf_, rv.terms_used, rv.method


def test_plan_warm_call_misses_no_memo():
    for call, x1, _ in PLAN_CALLS:
        call(x1)
    before = {name: info.misses for name, info in cache_stats().items()}
    for call, _, x2 in PLAN_CALLS:
        call(x2)
    after = {name: info.misses for name, info in cache_stats().items()}
    assert after == before


def test_plan_eviction_keeps_the_bits(monkeypatch):
    warm = [_bits(call(x)) for call, x, _ in PLAN_CALLS]
    # a one-entry plan memo rebuilds the plan at every call here
    monkeypatch.setattr(series, "_plan", memo(cap=1)(series._plan.__wrapped__))
    assert [_bits(call(x)) for call, x, _ in PLAN_CALLS] == warm


def test_plan_memo_is_bounded():
    cap = CACHE_CAP // 64
    with workprec(EvalConfig(30)):
        for i in range(cap + 10):
            series._plan("cos", "unit", 5 + mpf(2 * i + 1) / (2 * cap + 20))
    info = series._plan.cache_info()
    assert info.maxsize == cap
    assert info.currsize == cap


def test_plan_warns_on_every_call():
    spec = SeriesSpec("sin", mpf("0.3"), mpf("2.0005"))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for _ in range(2):
            closed_form_series(spec, CFG)
    assert [w.category for w in seen] == [PrecisionLossWarning] * 2


# ----------------------------- integer branches ---------------------------

def test_integer_sin_sawtooth():
    with workprec(CFG):
        rv = integer_sin_series(mpf("0.25"), 1, CFG)
        assert abs(rv.value - mp.pi / 4) < mpf("1e-20")
        assert rv.method == "closed_form"


@pytest.mark.parametrize("digits", [50, 100])
def test_odd_sine_is_the_closed_form(digits):
    # odd s = 2m+1 has one route: integer_sin_series reads the plan of
    # closed_form_series, whose tail ends at zeta(0), so it runs m + 4
    # terms at most
    cfg = EvalConfig(digits)
    for s in (1, 3, 5, 21):
        for x in (Fraction(1, 20), Fraction(7, 16), Fraction(7, 10)):
            rv = integer_sin_series(x, s, cfg)
            assert _bits(rv) == _bits(
                closed_form_series(SeriesSpec("sin", x, s), cfg)), (s, x)
            assert 0 < rv.terms_used <= (s - 1) // 2 + 4, (s, x)


def test_odd_sine_past_the_bernoulli_cap():
    # B_515 is past BERNOULLI_INDEX_CAP; the closed form needs no B_n
    with workprec(CFG):
        x = mpf("0.3")
        rv = integer_sin_series(x, 515, CFG)
        with mp.extradps(20):
            ref = mp.clsin(515, 2 * mp.pi * x)
        assert abs(rv.value - ref) <= tolerance(CFG)


# One call per plan route, and whether its value sums a series.
TERMS_CALLS = [
    pytest.param(lambda x: regularized_limit(SeriesSpec("cos", x, 0), CFG),
                 False, id="cos-unit-limit"),
    pytest.param(lambda x: regularized_limit(
        SeriesSpec("cos", x, 0, weight="log"), CFG), False, id="cos-log-limit"),
    pytest.param(lambda x: regularized_limit(SeriesSpec("sin", x, 0), CFG),
                 True, id="sin-unit-limit"),
    pytest.param(lambda x: regularized_limit(
        SeriesSpec("sin", x, 0, weight="log"), CFG), True, id="sin-log-limit"),
    pytest.param(lambda x: integer_sin_series(x, 2, CFG), True,
                 id="sin-parity-limit"),
    pytest.param(lambda x: integer_cos_series(x, 3, CFG), True,
                 id="cos-parity-limit"),
    pytest.param(lambda x: integer_sin_series(x, 3, CFG), True,
                 id="sin-odd-s"),
    pytest.param(lambda x: closed_form_series(
        SeriesSpec("cos", x, Fraction(37, 16)), CFG), True, id="closed-form"),
    pytest.param(lambda x: closed_form_series(
        SeriesSpec("cos", Fraction(1, 2), Fraction(37, 16), alternating=True),
        CFG), False, id="alt-half-point"),
    pytest.param(lambda x: evaluate_series(
        SeriesSpec("sin", x, 1, weight="log"), CFG), True, id="abel"),
]


@pytest.mark.parametrize("call, sums", TERMS_CALLS)
def test_terms_used_counts_the_summed_series(call, sums):
    assert (call(Fraction(7, 16)).terms_used > 0) == sums


def test_integer_sin_cubic():
    with workprec(CFG):
        rv = integer_sin_series(mpf("0.25"), 3, CFG)
        assert abs(rv.value - mp.pi ** 3 / 32) < mpf("1e-20")
        ref = clausen("sin", mpf("0.25"), 3, CFG)
        assert abs(rv.value - ref) <= tolerance(CFG)


def test_integer_sin_even_branch_catalan():
    with workprec(CFG):
        rv = integer_sin_series(mpf("0.25"), 2, CFG)
        assert abs(rv.value - catalan()) < mpf("1e-8")
        ref = clausen("sin", mpf("0.25"), 2, CFG)
        assert abs(rv.value - ref) <= tolerance(CFG)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_integer_sin_even_branch_skips_zeta_one(m):
    # the sine tail at s = 2m drops exactly its zeta(1) term, n = m - 1
    with workprec(CFG):
        for x in (Fraction(1, 10), Fraction(3, 10), Fraction(7, 10)):
            rv = integer_sin_series(x, 2 * m, CFG)
            ref = clausen("sin", xreal(x), 2 * m, CFG)
            assert abs(rv.value - ref) <= tolerance(CFG), x


# the ends, and x where w = 2 pi x reaches pi after the mirror, so the
# zeta(-odd) tail is longest
EVEN_SIN_XS = ("0.001", "0.3", "0.45", "0.5", "0.999")


@pytest.mark.parametrize(
    "digits", [30, 50, 100, pytest.param(300, marks=pytest.mark.slow)])
def test_integer_sin_even_branch_against_clausen(digits):
    # the even branch's tail sum skips the zeta(1) term and runs over the
    # finite zeta(odd) terms too, so its stopping rule sees them at small x
    cfg = EvalConfig(digits)
    bad = []
    for xs in EVEN_SIN_XS:
        with workprec(cfg):
            x = mpf(xs)
        for m in (1, 2, 3):
            v = integer_sin_series(x, 2 * m, cfg).value
            with mp.workdps(working_dps(cfg) + 40):
                err = abs(v - mp.clsin(2 * m, 2 * mp.pi * x))
            if not err <= tolerance(cfg):
                bad.append((xs, 2 * m, mp.nstr(err, 3)))
    assert not bad, bad


def test_integer_sin_redirect_and_domain():
    with pytest.raises(RedirectError) as exc:
        integer_sin_series(mpf("0.25"), 0, CFG)
    assert exc.value.branch == "regularized_limit"
    with pytest.raises(DomainError):
        integer_sin_series(mpf("0.25"), -2, CFG)


def test_integer_cos_log_sine_reduction():
    with workprec(CFG):
        rv = integer_cos_series(mpf("0.25"), 1, CFG)
        assert abs(rv.value + mp.log(2) / 2) < mpf("1e-20")
        rv = integer_cos_series(mpf("0.5"), 1, CFG)
        assert abs(rv.value + mp.log(2)) < mpf("1e-20")


def test_integer_cos_cubic_vs_direct():
    # odd s = 2m - 1: the log head plus the cosine zeta tail, which skips
    # its zeta(1) term n = m - 1; terms_used counts that tail
    bad = []
    for digits in (50, 100):
        cfg = EvalConfig(digits)
        for s in (1, 3, 5, 7):
            for xs in ("0.01", "0.3", "0.45", "0.99"):
                with workprec(cfg):
                    x = mpf(xs)
                rv = integer_cos_series(x, s, cfg)
                with mp.workdps(working_dps(cfg) + 40):
                    err = abs(rv.value - clausen("cos", x, s, cfg))
                if not (err <= tolerance(cfg) and rv.terms_used > 0):
                    bad.append((digits, s, xs, mp.nstr(err, 3)))
    assert not bad, bad


def test_integer_cos_rejects_even_s():
    with pytest.raises(CapabilityError):
        integer_cos_series(mpf("0.3"), 2, CFG)


# --------------------------------- oracles --------------------------------

def test_abel_sin_limit_quarter():
    with workprec(CFG):
        rv = abel_oracle(SeriesSpec("sin", mpf("0.25"), 0), CFG)
        assert abs(rv.value - mpf(1) / 2) < mpf("1e-6")
        assert rv.method == "abel"


def test_abel_alt_cos_limit():
    with workprec(CFG):
        rv = abel_oracle(SeriesSpec("cos", mpf("0.42"), 0, alternating=True),
                         CFG)
        assert abs(rv.value - mpf(1) / 2) < mpf("1e-6")


def test_abel_route_flags_a_missed_tolerance():
    # the identities' oracle stays silent; evaluate_series flags the miss
    spec = SeriesSpec("sin", Fraction(3, 10), Fraction(1, 2), weight="log")
    cfg = EvalConfig(60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rv = abel_oracle(spec, cfg)
    assert rv.error_estimate > tolerance(cfg)
    with pytest.warns(PrecisionLossWarning, match="Abel"):
        assert evaluate_series(spec, cfg).value == rv.value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rv = evaluate_series(spec, CFG)
    assert rv.method == "abel" and rv.error_estimate <= tolerance(CFG)


def test_abel_takes_each_term_once(monkeypatch):
    # the 13 radii share their terms: one weight call per (n, precision);
    # the value, terms_used and estimate are pinned to those of radii that
    # each computed every term themselves
    calls = {}
    weight_fn = series._weight_fn

    def counting(weight):
        w = weight_fn(weight)

        def counted(n):
            key = (n, mp.prec)
            calls[key] = calls.get(key, 0) + 1
            return w(n)
        return counted

    monkeypatch.setattr(series, "_weight_fn", counting)
    spec = SeriesSpec("sin", Fraction(3, 10), Fraction(1, 2), weight="log")
    cfg = EvalConfig(50)
    rv = abel_oracle(spec, cfg)
    assert calls and set(calls.values()) == {1}
    assert len({prec for _, prec in calls}) == 2  # head and transform
    assert rv.terms_used == 893
    with workprec(cfg):
        assert rv.value == mpf(
            "-0.264866830738341224901935799462286042131033436044832348387270"
            "2040077940732605117809849269352729798614")
        assert rv.error_estimate == mpf(
            "5.000001227156504265332961198736539543085633040287426100737400"
            "217123969781857365577274006934946715207e-21")


@pytest.mark.parametrize("digits", [50, 100])
def test_abel_error_estimates_hold(digits):
    # log and log^2 weights at integer s against mpmath's Hurwitz zeta
    # derivatives; at 100 digits the estimate misses the tolerance and the
    # route says so
    cfg = EvalConfig(digits)
    with workprec(cfg):
        for kernel in ("sin", "cos"):
            for k, weight in ((1, "log"), (2, "log2")):
                for s in (1, 2):
                    for x in (Fraction(3, 10), Fraction(7, 10)):
                        spec = SeriesSpec(kernel, x, s, weight=weight)
                        rv = abel_oracle(spec)
                        ref = polylog_log_weight(xreal(x), s, k)
                        ref = ref.imag if kernel == "sin" else ref.real
                        assert abs(rv.value - ref) <= rv.error_estimate, spec
                        if digits == 100:
                            with pytest.warns(PrecisionLossWarning,
                                              match="Abel"):
                                assert (evaluate_series(spec).value
                                        == rv.value)


# ------------------------------- invariants -------------------------------

def test_oracle_agreement_grid():
    # 20 (x, s) pairs: abel for s < 1 within 1e-5, mpmath's Clausen
    # functions for s > 1 within tolerance
    with workprec(CFG):
        xs = [mpf(i) / 10 for i in range(1, 10)]
        cases = []
        for j, x in enumerate(xs):
            cases.append((x, mpf("0.25") if j % 2 == 0 else mpf("0.5")))
        for j, x in enumerate(xs):
            cases.append((x, mpf("1.5") if j % 2 == 0 else mpf("2.5")))
        cases.append((mpf("0.35"), mpf("0.75")))
        cases.append((mpf("0.65"), mpf("3.5")))
        assert len(cases) == 20
        for x, s in cases:
            kernel = "sin" if (int(10 * x) + int(2 * s)) % 2 == 0 else "cos"
            spec = SeriesSpec(kernel, x, s)
            cf = closed_form_series(spec, CFG)
            if s < 1:
                ref = abel_oracle(spec, CFG).value
                tol = mpf("1e-5")
            else:
                ref = clausen(kernel, x, s, CFG)
                tol = tolerance(CFG)
            assert abs(cf.value - ref) <= tol, (kernel, x, s)


def test_parity_symmetry():
    with workprec(CFG):
        for s in (mpf("0.5"), mpf("2.5")):
            for x in (mpf("0.2"), mpf("0.35")):
                spec = SeriesSpec("sin", x, s)
                mirror = SeriesSpec("sin", 1 - x, s)
                a = closed_form_series(spec, CFG).value
                b = closed_form_series(mirror, CFG).value
                assert abs(a + b) < mpf("1e-20")
                spec = SeriesSpec("cos", x, s)
                mirror = SeriesSpec("cos", 1 - x, s)
                a = closed_form_series(spec, CFG).value
                b = closed_form_series(mirror, CFG).value
                assert abs(a - b) < mpf("1e-20")


def test_differentiation_link():
    # d/dx of the sine series at (x, s) equals 2 pi times the cosine series
    # at (x, s-1)
    with workprec(CFG):
        h = mpf("1e-12")
        for s in (mpf("2.5"), mpf("3.5")):
            for x in (mpf("0.3"), mpf("0.62")):
                up = closed_form_series(SeriesSpec("sin", x + h, s), CFG).value
                dn = closed_form_series(SeriesSpec("sin", x - h, s), CFG).value
                deriv = (up - dn) / (2 * h)
                cos_v = closed_form_series(SeriesSpec("cos", x, s - 1),
                                           CFG).value
                assert abs(deriv - 2 * mp.pi * cos_v) < mpf("1e-6"), (x, s)


def test_prefactor_equivalences_random_s():
    # the two printed prefactor forms for each kernel agree at random
    # non-integer s in (0, 4)
    with workprec(CFG):
        x = mpf("0.3")
        w = 2 * mp.pi * x
        for s in seeded_uniforms(1234, 10, 0.05, 3.95):
            if abs(s - mp.floor(s)) < mpf("1e-3") or \
               abs(s - mp.ceil(s)) < mpf("1e-3"):
                s += mpf("0.01")
            sin_a = mp.pi * w ** (s - 1) / (2 * gamma_fn(s, CFG)
                                            * mp.sin(mp.pi * s / 2))
            sin_b = (w ** (s - 1) * gamma_fn(1 + s / 2, CFG)
                     * gamma_fn(1 - s / 2, CFG) / gamma_fn(1 + s, CFG))
            assert abs(sin_a - sin_b) < mpf("1e-20") * max(1, abs(sin_a)), s
            cos_a = mp.pi * w ** (s - 1) / (2 * gamma_fn(s, CFG)
                                            * mp.cos(mp.pi * s / 2))
            cos_b = (w ** (s - 1) * gamma_fn((1 + s) / 2, CFG)
                     * gamma_fn((1 - s) / 2, CFG) / (2 * gamma_fn(s, CFG)))
            assert abs(cos_a - cos_b) < mpf("1e-20") * max(1, abs(cos_a)), s


def test_dispatcher_routes():
    with workprec(CFG):
        rv = evaluate_series(SeriesSpec("sin", mpf("0.25"), 0), CFG)
        assert abs(rv.value - mpf(1) / 2) < mpf("1e-10")
        rv = evaluate_series(SeriesSpec("sin", mpf("0.25"), 2), CFG)
        assert rv.method == "integer_branch"
        rv = evaluate_series(SeriesSpec("cos", mpf("0.25"), 2), CFG)
        assert rv.method == "closed_form"
        rv = evaluate_series(SeriesSpec("sin", mpf("0.3"), 1, weight="log"),
                             CFG)
        assert rv.method == "abel"
