"""Identity registry: verification reports, suite semantics, equivalences."""

import pytest
from mpmath import mp, mpf

from regsum import (CapabilityError, DEFAULT_CONFIG, DomainError,
                    REGISTRY, SeriesSpec, UnknownIdentityError,
                    euler_gamma, hurwitz_zeta_deriv,
                    integer_sin_series, polylog_unimodular, regularized_limit,
                    run_suite, verify_identity, workprec)
import regsum.identities as identities_mod

from refs import catalan

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
