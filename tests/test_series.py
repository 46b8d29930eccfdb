"""Trigonometric series: closed forms, limits, integer branches, oracles."""

import pytest
from mpmath import mp, mpf

from regsum import (CapabilityError, DEFAULT_CONFIG, DomainError, EvalConfig,
                    PoleError, PrecisionLossWarning, RedirectError, SeriesSpec,
                    abel_oracle, closed_form_series, direct_oracle,
                    evaluate_series, gamma_fn, integer_cos_series,
                    integer_sin_series, log_cos_limit_series,
                    regularized_limit, riemann_zeta, workprec)
from regsum.config import tolerance

from refs import catalan, eta_tail, hurwitz_series, seeded_uniforms

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
        dr = direct_oracle(spec, 2 * 10 ** 5, CFG)
        assert abs(cf.value - dr.value) < mpf("1e-5")


def test_closed_form_cos_s2_bernoulli_value():
    # truncating case: pi^2 B_2(1/4) = -pi^2/48
    with workprec(CFG):
        cf = closed_form_series(SeriesSpec("cos", mpf("0.25"), 2), CFG)
        assert abs(cf.value + mp.pi ** 2 / 48) < mpf("1e-20")
        dr = direct_oracle(SeriesSpec("cos", mpf("0.25"), 2), 10 ** 5, CFG)
        assert abs(cf.value - dr.value) < mpf("1e-7")


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


# ----------------------------- integer branches ---------------------------

def test_integer_sin_sawtooth():
    with workprec(CFG):
        rv = integer_sin_series(mpf("0.25"), 1, CFG)
        assert abs(rv.value - mp.pi / 4) < mpf("1e-20")
        assert rv.method == "integer_branch"


def test_integer_sin_cubic():
    with workprec(CFG):
        rv = integer_sin_series(mpf("0.25"), 3, CFG)
        assert abs(rv.value - mp.pi ** 3 / 32) < mpf("1e-20")
        dr = direct_oracle(SeriesSpec("sin", mpf("0.25"), 3), 10 ** 5, CFG)
        assert abs(rv.value - dr.value) < mpf("1e-8")


def test_integer_sin_even_branch_catalan():
    with workprec(CFG):
        rv = integer_sin_series(mpf("0.25"), 2, CFG)
        assert abs(rv.value - catalan()) < mpf("1e-8")
        dr = direct_oracle(SeriesSpec("sin", mpf("0.25"), 2), 10 ** 5, CFG)
        assert abs(rv.value - dr.value) < mpf("1e-8")


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
    with workprec(CFG):
        rv = integer_cos_series(mpf("0.3"), 3, CFG)
        dr = direct_oracle(SeriesSpec("cos", mpf("0.3"), 3), 10 ** 5, CFG)
        assert abs(rv.value - dr.value) < mpf("1e-8")


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


def test_direct_empty_sum():
    rv = direct_oracle(SeriesSpec("sin", mpf("0.3"), 2), 0, CFG)
    assert rv.value == 0
    assert rv.error_estimate == mpf("inf")
    assert rv.terms_used == 0


def test_direct_requires_positive_s():
    with pytest.raises(DomainError):
        direct_oracle(SeriesSpec("sin", mpf("0.3"), 0), 100, CFG)


# ------------------------------- invariants -------------------------------

def test_oracle_agreement_grid():
    # 20 (x, s) pairs: abel for s < 1, direct for s > 1, all within 1e-5
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
                ref = abel_oracle(spec, CFG)
            else:
                ref = direct_oracle(spec, 3 * 10 ** 4, CFG)
            assert abs(cf.value - ref.value) < mpf("1e-5"), (kernel, x, s)


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
