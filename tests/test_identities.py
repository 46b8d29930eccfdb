"""Identity registry: verification reports, suite semantics, equivalences."""

import warnings

import pytest
from mpmath import mp, mpf

from regsum import (CapabilityError, DEFAULT_CONFIG, DomainError, EvalConfig,
                    PrecisionLossWarning, REGISTRY, SeriesSpec,
                    UnknownIdentityError,
                    euler_gamma, hurwitz_zeta_deriv,
                    integer_sin_series, polylog_unimodular, regularized_limit,
                    cache_stats, run_suite, verify_identity, workprec)
import regsum.identities as identities_mod
import regsum.kernels as kernels_mod
import regsum.series as series_mod
from regsum.config import memo, tolerance

from refs import catalan, polylog_log_weight

CFG = DEFAULT_CONFIG

GRID = [mpf(i) / 10 for i in range(1, 10)]


# ------------------------------ polylog ----------------------------------

def test_polylog_order2_quarter():
    with workprec(CFG):
        re_, im_ = polylog_unimodular(2, mpf("0.25"), CFG)
        assert abs(re_ + mp.pi ** 2 / 48) < mpf("1e-20")
        assert abs(im_ - catalan()) < mpf("1e-20")


def test_polylog_order2_half():
    with workprec(CFG):
        re_, im_ = polylog_unimodular(2, mpf("0.5"), CFG)
        assert abs(re_ + mp.pi ** 2 / 12) < mpf("1e-20")
        assert abs(im_) < mpf("1e-20")


def test_polylog_guards():
    with pytest.raises(CapabilityError):
        polylog_unimodular(1, mpf("0.3"), CFG)
    with pytest.raises(DomainError):
        polylog_unimodular(2, mpf(0), CFG)


# --------------------------- verify_identity ------------------------------

def test_cot_limit_at_one_sixth():
    with workprec(CFG):
        r = verify_identity("cot_limit", mpf(1) / 6, CFG)
        assert r.passed
        ref = mp.sqrt(3) / 2
        assert abs(r.lhs - ref) < mpf("1e-10")
        assert abs(r.rhs - ref) < mpf("1e-10")


def test_deninger_at_half_reduces_to_log_two_form():
    with workprec(CFG):
        r = verify_identity("deninger_log_cos", mpf("0.5"), CFG)
        assert r.passed
        ref = euler_gamma(CFG) * mp.log(2) - mp.log(2) ** 2 / 2
        assert abs(r.lhs - ref) < mpf("1e-10")
        assert abs(r.rhs - ref) < mpf("1e-10")


@pytest.mark.parametrize("t", ["0.01", "0.3", "0.5", "0.99"])
def test_deninger_lhs_against_the_log_weighted_polylog(t):
    # the s = 1 derivative's zeta'(1-2n) series starts at w^2 (p = 2)
    with workprec(CFG):
        r = verify_identity("deninger_log_cos", mpf(t), CFG)
        assert r.passed
        with mp.extradps(20):
            ref = polylog_log_weight(mpf(t), 1, 1).real
        assert abs(r.lhs - ref) < tolerance(CFG), t


def test_bernoulli_odd_single_m():
    r = verify_identity("bernoulli_odd", 1, CFG)
    assert r.passed
    assert r.abs_residual == 0


def test_unknown_identity_lists_names():
    with pytest.raises(UnknownIdentityError) as exc:
        verify_identity("nosuch", mpf("0.5"), CFG)
    assert "entry17v" in str(exc.value)


def test_point_requirements():
    with pytest.raises(DomainError):
        verify_identity("entry17v", None, CFG)
    with pytest.raises(DomainError):
        verify_identity("cot_limit", mpf("1.5"), CFG)
    with pytest.raises(DomainError):
        verify_identity("alt_sin_limit", mpf("0.5"), CFG)
    with pytest.raises(DomainError):
        verify_identity("bernoulli_odd", 21, CFG)
    with pytest.raises(DomainError):
        verify_identity("bernoulli_odd", mpf("2.5"), CFG)
    with pytest.raises(DomainError):
        verify_identity("bernoulli_odd", True, CFG)


def test_zeta_dd_fourier_suspect_flag():
    # the printed sine constant fails off the symmetric point and must be
    # flagged, never silently adjusted
    with workprec(CFG):
        r = verify_identity("zeta_dd_fourier", mpf("0.25"), CFG)
        assert not r.passed
        assert "SUSPECT CONSTANT" in r.method_notes
        r = verify_identity("zeta_dd_fourier", mpf("0.5"), CFG)
        assert r.passed


def test_report_fields_consistent():
    with workprec(CFG):
        r = verify_identity("log_cos_limit", mpf("0.3"), CFG)
        assert r.passed == (r.abs_residual <= r.tolerance)
        assert r.abs_residual >= 0 and r.rel_residual >= 0
        assert "lhs" not in r.method_notes or r.method_notes
        d = r.to_dict(CFG.precision_digits)
        assert set(d) == {"identity_name", "inputs", "lhs", "rhs",
                          "abs_residual", "rel_residual", "tolerance",
                          "pass", "method_notes"}


# ------------------------------ run_suite ---------------------------------

def test_suite_point_independent_names():
    reports = run_suite(["half_point_value"], GRID, CFG)
    assert len(reports) == 1
    assert reports[0].passed


def test_suite_empty_grid_point_dependent():
    assert run_suite(["cot_limit"], [], CFG) == []


def test_suite_grid_validation():
    with pytest.raises(DomainError):
        run_suite(["cot_limit"], [mpf("0.00001")], CFG)
    with pytest.raises(UnknownIdentityError):
        run_suite(["nope"], GRID, CFG)


def test_suite_ordering_and_domain_filter():
    reports = run_suite(["cot_limit", "alt_sin_limit", "bernoulli_odd"],
                        [mpf("0.3"), mpf("0.1"), mpf("0.5")], CFG)
    names = [r.identity_name for r in reports]
    assert names == (["alt_sin_limit"] * 2 + ["bernoulli_odd"]
                     + ["cot_limit"] * 3)
    # alt_sin_limit skips x = 1/2, the pole of tan(pi x)
    pts = [r.inputs[0][1] for r in reports if r.identity_name == "alt_sin_limit"]
    assert pts == sorted(pts) and all(p != mpf("0.5") for p in pts)


def test_suite_near_endpoint_warning():
    reports = run_suite(["cot_limit"], [mpf("0.995")], CFG)
    assert len(reports) == 1
    assert "warning" in reports[0].method_notes
    assert reports[0].passed


def test_suite_error_becomes_failed_report(monkeypatch):
    broken = identities_mod.IdentityDef(
        "1e-10", "x", lambda x: (_ for _ in ()).throw(RuntimeError("boom")))
    monkeypatch.setitem(identities_mod.REGISTRY, "cot_limit", broken)
    reports = run_suite(["cot_limit"], [mpf("0.3")], CFG)
    assert len(reports) == 1
    assert not reports[0].passed
    assert "boom" in reports[0].method_notes
    assert reports[0].abs_residual == mpf("inf")


def test_flagship_suite_all_names():
    # every identity passes at its registry tolerance over the grid, with
    # the single documented exception: zeta_dd_fourier as printed fails off
    # t = 1/2 and must carry the suspect-constant flag instead
    reports = run_suite(sorted(REGISTRY), GRID, CFG)
    assert len(reports) > 60
    for r in reports:
        assert r.passed == (r.abs_residual <= r.tolerance)  # report integrity
        if r.identity_name == "zeta_dd_fourier" and not r.passed:
            assert "SUSPECT CONSTANT" in r.method_notes
        else:
            assert r.passed, (r.identity_name, r.inputs, r.method_notes)


# ------------------------- structural invariants --------------------------

def test_entry17v_two_rhs_compositions_agree():
    # explicit closed form vs cot-term + 2 pi * (log-weighted sine limit)
    with workprec(CFG):
        g = euler_gamma(CFG)
        c = g + mp.log(2 * mp.pi)
        for x in (mpf("0.25"), mpf("0.7")):
            sl = regularized_limit(SeriesSpec("sin", x, 0, weight="log"), CFG)
            routeA = (mp.pi * c * mp.cospi(x) / mp.sinpi(x)
                      + 2 * mp.pi * sl.value)
            w = 2 * mp.pi * x
            from regsum import zeta_sderiv_at_negatives, sum_entire
            def term(n):
                return ((-1) ** (n + 1)
                        * zeta_sderiv_at_negatives(2 * n + 1, CFG)
                        * w ** (2 * n + 1) / mp.factorial(2 * n + 1))
            tail, _ = sum_entire(term, CFG)
            routeB = (-(g + mp.log(w)) / x
                      + mp.pi * c * mp.cospi(x) / mp.sinpi(x)
                      + 2 * mp.pi * tail)
            assert abs(routeA - routeB) < mpf("1e-9"), x


def test_adamchik_trickovic_equivalence():
    # the Hurwitz-derivative forms and the polylog form agree with the
    # actual series values for m = 1..3 at x in {1/4, 1/3}
    with workprec(CFG):
        for x in (mpf("0.25"), mpf(1) / 3):
            for mt in (1, 2):
                # sine form, exponent 2*mt
                S = integer_sin_series(x, 2 * mt, CFG).value
                lhs = ((-1) ** mt * mp.factorial(2 * mt - 1)
                       / (2 * mp.pi) ** (2 * mt - 1) * S)
                rhs = (x ** (2 * mt - 1) * mp.log(x)
                       + hurwitz_zeta_deriv(1, 1 - 2 * mt, 1 - x, CFG)
                       - hurwitz_zeta_deriv(1, 1 - 2 * mt, 1 + x, CFG))
                assert abs(lhs - rhs) < mpf("1e-8"), (x, mt)
            # cosine form at exponent 1: reduces to -log(2 sin pi x)
            C = -mp.log(2 * mp.sinpi(x))
            lhs = -C
            rhs = (mp.log(x) - hurwitz_zeta_deriv(1, 0, 1 - x, CFG)
                   - hurwitz_zeta_deriv(1, 0, 1 + x, CFG))
            assert abs(lhs - rhs) < mpf("1e-8"), x
            r = verify_identity("adamchik_reflection", x, CFG)
            assert r.passed and r.abs_residual < mpf("1e-8")


# ---------------------- unit-circle oracle sums ---------------------------

# (s, log power) of every sum the registry takes on the unit circle:
# zeta_dd_fourier's three sums at s = 1 (Re and Im give its five series) and
# even_exponent_sin's Li_2 and Li_4 (Im)
UNIT_CIRCLE_SUMS = [(1, 0), (1, 1), (1, 2), (2, 0), (4, 0)]
ORACLE_XS = ["0.3", "0.1328125", "0.7109375"]
ORACLE_DIGITS = [50, 100, pytest.param(200, marks=pytest.mark.slow)]


def _check_unit_circle_sums(x, digits):
    cfg = EvalConfig(digits)
    with workprec(cfg):
        x = mpf(x)
        z = mp.expjpi(2 * x)
        for s, k in UNIT_CIRCLE_SUMS:
            got = identities_mod._unit_circle_sum(z, s, k)
            with mp.extradps(20):
                ref = polylog_log_weight(x, s, k)
            assert abs(got - ref) <= tolerance(cfg), (digits, x, s, k)


def test_refs_polylog_log_weight_matches_mp_polylog():
    # the reference's pole/zero division at integer s, checked at k = 0
    with mp.workdps(40):
        for s in (1, 2, 4):
            for x in (mpf("0.3"), mpf("0.5"), mpf("0.9")):
                ref = mp.polylog(s, mp.expjpi(2 * x))
                assert abs(polylog_log_weight(x, s, 0) - ref) < mpf("1e-35")


@pytest.mark.parametrize("digits", ORACLE_DIGITS)
@pytest.mark.parametrize("x", ORACLE_XS)
def test_unit_circle_sums_against_hurwitz_refs(x, digits):
    _check_unit_circle_sums(x, digits)


@pytest.mark.parametrize("x", ["0.01", "0.99"])
def test_unit_circle_sums_near_the_ends(x):
    _check_unit_circle_sums(x, 50)


@pytest.mark.parametrize("digits", ORACLE_DIGITS)
def test_transform_oracle_identities_meet_the_tolerance(digits):
    # the independent sides used to cap these at 1e-14 (direct sum) and
    # 1e-30 (Abel); now they follow the precision
    cfg = EvalConfig(digits)
    tol = tolerance(cfg)
    for x in ORACLE_XS:
        r = verify_identity("even_exponent_sin", mpf(x), cfg)
        assert r.passed and r.abs_residual <= tol, (x, r.abs_residual)
    r = verify_identity("alt_log_harmonic", None, cfg)
    assert r.passed and r.abs_residual <= tol, r.abs_residual
    r = verify_identity("zeta_dd_fourier", mpf("0.5"), cfg)
    assert r.passed and r.abs_residual <= tol, r.abs_residual
    r = verify_identity("zeta_dd_fourier", mpf("0.3"), cfg)
    assert not r.passed and "SUSPECT CONSTANT" in r.method_notes


# the identities whose zeta(-odd) or zeta'(-odd) tails run past k = 256 at
# 300 digits, where B_2k is past BERNOULLI_INDEX_CAP
CAP_CASES = ([("half_point_value", None)]
             + [(name, x) for name in ("cot_limit", "deninger_log_cos",
                                       "entry17v", "even_exponent_sin")
                for x in ("0.3", "0.45", "0.5")])


@pytest.mark.slow
@pytest.mark.parametrize("name,x", CAP_CASES)
def test_identities_at_300_digits(name, x):
    cfg = EvalConfig(300)
    with warnings.catch_warnings():
        # entry17v's gamma1 limit oracle stops near 1e-30 and says so
        warnings.simplefilter("ignore" if name == "entry17v" else "error",
                              PrecisionLossWarning)
        r = verify_identity(name, x, cfg)
    assert r.passed, (r.abs_residual, r.method_notes)
    if name != "entry17v":
        assert r.abs_residual <= tolerance(cfg), r.abs_residual


def test_no_identity_calls_the_abel_or_direct_oracle(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("registry identity called a slow oracle")
    monkeypatch.setattr(series_mod, "abel_oracle", boom)
    monkeypatch.setattr(identities_mod, "abel_oracle", boom, raising=False)
    for name, defn in sorted(REGISTRY.items()):
        point = {"x": mpf("0.3"), "int": 3, "none": None}[defn.point_kind]
        r = verify_identity(name, point, CFG)
        assert r.passed or name == "zeta_dd_fourier", name


# ------------------------- coefficient tables ----------------------------

TABLE_SIDES = ["cos_limit", "alt_cos_limit", "half_point_value",
               "deninger_log_cos", "log_cos_limit", "kummer_log_sin"]


@pytest.mark.parametrize("name", TABLE_SIDES)
def test_table_sides_warm_equal_cold(monkeypatch, name):
    # the lhs at x2 has the same bits from a table that a smaller or a
    # larger x1 began as from one built for x2 alone
    table = kernels_mod._coeff_table.__wrapped__

    def lhs(*xs):
        # an empty table memo: the zeta values behind it stay memoised
        monkeypatch.setattr(kernels_mod, "_coeff_table", memo(cap=8)(table))
        for x in xs:
            r = verify_identity(name, mpf(x), CFG)
        return r.lhs._mpf_

    cold = lhs("0.3")
    for x1 in ("0.1", "0.45", "0.9"):
        assert lhs(x1, "0.3") == cold, x1


def test_second_cos_limit_point_runs_no_em_pass(monkeypatch):
    calls = []
    real = identities_mod.hurwitz_zeta_deriv

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(identities_mod, "hurwitz_zeta_deriv", counted)
    monkeypatch.setattr(kernels_mod, "_coeff_table",
                        memo(cap=8)(kernels_mod._coeff_table.__wrapped__))
    verify_identity("cos_limit", mpf("0.7"), CFG)
    first = len(calls)
    r = verify_identity("cos_limit", mpf("0.3"), CFG)
    assert r.passed
    assert first > 0 and len(calls) == first


def test_power_series_identities_pass_at_30_digits():
    # with a tolerance of 1 the stop rules stopped at 1e-2 and these failed
    names = ["alt_sin_limit", "cot_limit", "deninger_log_cos",
             "half_point_value", "kummer_log_sin", "log_cos_limit"]
    points = [mpf(i) / 100 for i in (1, 30, 50, 70, 99)]
    reports = run_suite(names, points, EvalConfig(30))
    assert {r.identity_name for r in reports} == set(names)
    assert [r for r in reports if not r.passed] == []


def test_cache_stats_counts_the_table_reads():
    verify_identity("cos_limit", mpf("0.7"), CFG)
    before = cache_stats()
    verify_identity("cos_limit", mpf("0.3"), CFG)
    after = cache_stats()
    assert {"kernels._coeff_table", "zeta._rz", "series._plan",
            "identities._gamma1_oracle", "config._tolerance"} <= set(after)
    table = "kernels._coeff_table"
    assert after[table].hits > before[table].hits
    assert after[table].misses == before[table].misses
    assert after[table].maxsize == before[table].maxsize
