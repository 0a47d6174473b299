"""Identity verifiers: residuals, guards, cross-routes, golden anchors."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_rel, golden_value, rel
from whitadd.errors import (
    GeometryViolation,
    NearPole,
    NoConvergence,
    ParameterPole,
    PoleHit,
    UnsupportedOrder,
)
from whitadd.identities import (
    addition_terms,
    coefficient_delta_sum,
    geometry_from,
    geometry_from_cosine,
    pi_addition_terms,
    verify_gamma_pi,
    verify_gamma_zero,
    verify_gegenbauer_addition,
    verify_graf_2d,
    verify_kappa_integer_limit,
    verify_laguerre_addition,
    verify_laguerre_symmetric,
    verify_lemma_binomial,
    verify_m_exp_sum,
    verify_m_gegenbauer_sum,
    verify_pi_addition_general,
    verify_spherical_addition,
    verify_w_downward_sum,
    verify_whittaker_addition,
)
from whitadd.scalar import extended
from whitadd.summation import SeriesOptions, mu_large_term_surrogate


# --- geometry ---------------------------------------------------------------

def test_geometry_endpoints():
    g = geometry_from(2.0, 1.0, 0.0)
    assert (g.R, g.x, g.y) == pytest.approx((1.0, 4.0, 2.0), abs=1e-15)
    g = geometry_from(2.0, 1.0, math.pi)
    assert (g.R, g.x) == pytest.approx((3.0, 6.0), abs=1e-15)
    assert g.y == 0.0
    # x*y = 4 r r0 cos^2(gamma/2) + ... collapses to 4 r r0 - (x+y) terms;
    # at a right angle the product is 2 r r0 (1 + cos gamma) = 2 r r0
    g = geometry_from(2.0, 1.0, math.pi / 2)
    assert g.x * g.y == pytest.approx(4.0, abs=1e-14)
    g.check()


def test_geometry_exact_rational():
    ge = geometry_from_cosine(Fraction(2), Fraction(1), Fraction(1, 4))
    assert isinstance(ge.R, Fraction) and ge.R == 2
    assert ge.x == 5 and ge.y == 1
    ge.check()
    with pytest.raises(GeometryViolation):
        geometry_from_cosine(2.0, 1.0, 1.5)


def test_ring_ordering_enforced_by_verifier():
    with pytest.raises(GeometryViolation):
        verify_whittaker_addition(-0.7, geometry_from(1.0, 2.0, 1.0))
    with pytest.raises(GeometryViolation):
        verify_whittaker_addition(-0.7, geometry_from(1.0, 1.0, 1.0))


# --- main addition theorem ----------------------------------------------------

GEO = geometry_from(3.0, 1.0, 2 * math.pi / 3)


def test_addition_kappa_zero_closed_form():
    # kappa = 0 collapses to the screened-Coulomb form e^{-R/2}/R
    rep = verify_whittaker_addition(0.0, GEO)
    assert rep.rel_err < 1e-12
    assert_rel(rep.rhs, math.exp(-GEO.R / 2) / GEO.R, 1e-14)
    assert rep.lhs_diag.n_terms > 3
    assert rep.lhs_diag.condition_number >= 1.0


@pytest.mark.parametrize("kappa,tol", [
    (-0.7, 1e-11),
    (0.4 + 0.3j, 1e-11),
    (2.5, 1e-10),
    (-2.0, 1e-11),  # negative integers are not poles of the normalization
])
def test_addition_generic_kappa(kappa, tol):
    assert verify_whittaker_addition(kappa, GEO).rel_err < tol


def test_addition_extended_precision():
    opts = SeriesOptions(precision=("extended", 40), rel_tol=1e-30)
    rep = verify_whittaker_addition(0.4 + 0.3j, GEO, opts=opts)
    assert rep.rel_err < 1e-28


def test_addition_near_positive_integer_kappa_guarded():
    with pytest.raises(NearPole):
        verify_whittaker_addition(3.0005, GEO)
    with pytest.raises(NearPole):
        verify_whittaker_addition(1.0, GEO)
    assert verify_whittaker_addition(0.0, GEO).ok(1e-11)


def test_addition_right_angle_parity_split():
    # odd-order terms are suppressed ~17 orders at a right angle; the tail
    # estimator must still certify the stop at the even-train rate
    rep = verify_whittaker_addition(-0.7, geometry_from(2.0, 1.0, math.pi / 2))
    assert rep.rel_err < 1e-11
    assert rep.lhs_diag.n_terms < 120


def test_addition_hardware_range_exhaustion_is_honest():
    # nearly equal radii: factor magnitudes span the double range long before
    # the slow (r0/r)^l decay meets tolerance; silence is not an option
    with pytest.raises(NoConvergence):
        verify_whittaker_addition(-0.7, geometry_from(2.0, 1.99, 1.0))


@settings(max_examples=15, deadline=None)
@given(
    kappa=st.floats(min_value=-1.5, max_value=0.6),
    r0=st.floats(min_value=0.2, max_value=1.2),
    scale=st.floats(min_value=1.8, max_value=4.0),
    gamma=st.floats(min_value=0.0, max_value=math.pi),
)
def test_addition_property(kappa, r0, scale, gamma):
    rep = verify_whittaker_addition(kappa, geometry_from(r0 * scale, r0, gamma))
    assert rep.rel_err < 1e-9


# --- endpoint specializations -------------------------------------------------

def test_gamma_endpoint_forms():
    assert verify_gamma_zero(-0.7, 1.0, 3.0).rel_err < 1e-11
    assert verify_gamma_zero(0.3, 1.0, 3.0).rel_err < 1e-11
    assert verify_gamma_pi(-0.7, 1.0, 3.0).rel_err < 1e-11
    assert verify_gamma_pi(0.3, 1.0, 3.0).rel_err < 1e-11


def test_addition_forms_collapse_at_the_origin():
    # r0 = 0: M_{k,l+1/2}(r0) ~ r0^(l+1) leaves only the l = 0 term, W_{k,1/2}(r)/r,
    # times Gamma(1-k) in the gamma = 0 and gamma = pi forms
    w = float(mpmath.whitw(-0.7, 0.5, 3.0)) / 3.0
    rep = verify_whittaker_addition(-0.7, geometry_from(3.0, 0.0, 1.0))
    assert rep.lhs_diag.n_terms == 1
    assert rel(rep.lhs, w) < 1e-13 and rep.rel_err < 1e-13
    for verify in (verify_gamma_zero, verify_gamma_pi):
        rep = verify(-0.7, 0.0, 3.0)
        assert rel(rep.lhs, math.gamma(1.7) * w) < 1e-13 and rep.rel_err < 1e-13


def test_endpoint_forms_consistent_with_full_verifier():
    assert verify_whittaker_addition(-0.7, geometry_from(3.0, 1.0, 0.0)).rel_err < 1e-10
    geopi = geometry_from(3.0, 1.0, math.pi)
    repB = verify_whittaker_addition(-0.7, geopi)
    assert repB.rel_err < 1e-10
    # at gamma=pi the bracket collapses: x/2 = r+r0, y = 0, so the full-form
    # rhs is Gamma(1-k) W(r+r0)/((r+r0) R) in the dedicated form's terms
    assert geopi.x / 2 == pytest.approx(4.0, abs=1e-14)
    reppi = verify_gamma_pi(-0.7, 1.0, 3.0)
    ratio = repB.rhs * geopi.R / (reppi.rhs / math.gamma(1 - (-0.7)) * (3.0 + 1.0))
    assert abs(ratio - 1) < 1e-13


def test_addition_terms_from_a_later_order():
    # a series started at l = 2 continues the one started at l = 0
    geo = geometry_from(3.0, 1.0, 0.7)
    ctx = extended(30)
    for normalized in (True, False):
        full = list(itertools.islice(addition_terms(-0.7, geo, normalized)(ctx), 8))
        later = addition_terms(-0.7, geo, normalized, first=2)(ctx)
        for want, got in zip(full[2:], later):
            assert rel(got, want) < 1e-25


def test_kappa_integer_limit():
    rep = verify_kappa_integer_limit(1, GEO)
    assert rep.rel_err < 1e-8
    with pytest.raises(UnsupportedOrder):
        verify_kappa_integer_limit(2, GEO)


def test_kappa_integer_limit_reports_its_precision():
    # the limit always runs at extended precision, hardware request or not
    assert verify_kappa_integer_limit(1, GEO).precision == ("extended", 40)
    rep = verify_kappa_integer_limit(1, GEO, opts=SeriesOptions(rel_tol=1e-10))
    assert rep.precision == ("extended", 40)


# --- exponential / Bessel / Gegenbauer sums ------------------------------------

def test_m_exp_sum():
    assert verify_m_exp_sum(-0.7, 2.5).rel_err < 1e-12
    assert verify_m_exp_sum(0.3, 1.0 + 2.0j).rel_err < 1e-12
    # entire in z; the left half-plane goes through the Kummer transform
    assert verify_m_exp_sum(0.3 + 0.2j, -1.5 + 0.5j).rel_err < 1e-11
    with pytest.raises(GeometryViolation):
        verify_m_exp_sum(0.3, 0.0)
    with pytest.raises(NearPole):
        verify_m_exp_sum(2.0, 1.0)


@pytest.mark.parametrize("verify", [
    lambda: verify_m_exp_sum(0.3, 250.0),
    lambda: verify_m_gegenbauer_sum(0.3, 1.5, 200.0, 1.0),
])
def test_m_sums_refuse_terms_outside_the_double_range(verify):
    # near l = 140 the coefficient flushes to zero while M overflows; their
    # product is a NaN, which the sum must refuse, not add up to max_terms
    with pytest.raises(NoConvergence, match="range"):
        verify()


def test_graf_2d():
    assert verify_graf_2d(1.0, 1.0, 3.0, 2.0).rel_err < 1e-12
    assert verify_graf_2d(0.7, 0.5, 2.0, 0.0).rel_err < 1e-12
    assert verify_graf_2d(1.0, 0.0, 3.0, 1.0).rel_err < 1e-14  # r0=0 degenerate
    with pytest.raises(GeometryViolation):
        verify_graf_2d(1.0, 3.0, 1.0, 0.5)


def test_gegenbauer_addition():
    assert verify_gegenbauer_addition(0.5, 1.0, 3.0, 2 * math.pi / 3).rel_err < 1e-12
    assert verify_gegenbauer_addition(1.0, 1.0, 3.0, 1.0).rel_err < 1e-12
    assert verify_gegenbauer_addition(2.5, 0.8, 2.5, 0.3).rel_err < 1e-11
    with pytest.raises(UnsupportedOrder):
        verify_gegenbauer_addition(0.3, 1.0, 3.0, 1.0)
    with pytest.raises(GeometryViolation):
        verify_gegenbauer_addition(1.0, 0.0, 3.0, 1.0)


def test_bessel_sums_on_the_order_ladder_at_hardware():
    # evaluated per order, K_n(36) is off by up to 100% from n = 10 on (the
    # large-z branch of kummer_u) and r^(mu+1/2) overflows at high orders;
    # the kappa = 0 ladders are neither
    assert verify_graf_2d(3.0, 5.0, 12.0, 0.628).rel_err < 1e-10
    assert verify_gegenbauer_addition(0.5, 2.0, 2.5, 2.0).rel_err < 1e-10
    # r0/r = 0.9: the terms leave the double range before the tail meets
    # tolerance, which must be refused, not returned truncated
    with pytest.raises(NoConvergence):
        verify_gegenbauer_addition(1.5, 9.0, 10.0, 0.3)
    with pytest.raises(NoConvergence):
        verify_graf_2d(1.0, 9.0, 10.0, 2.0)


def test_spherical_addition():
    assert verify_spherical_addition(7, 0.7, 1.1, 2.0, -0.4).rel_err < 1e-12
    assert verify_spherical_addition(0, 0.7, 1.1, 2.0, -0.4).rel_err < 1e-14
    assert verify_spherical_addition(3, 0.0, 0.0, 1.3, 2.2).rel_err < 1e-12


# --- Laguerre forms -----------------------------------------------------------

def test_laguerre_addition_exact():
    ge = geometry_from_cosine(Fraction(2), Fraction(1), Fraction(1, 4))
    collinear = geometry_from_cosine(Fraction(2), Fraction(1), 1)  # integer cosine
    for n in (1, 3, 6):
        for geo in (ge, collinear):
            rep = verify_laguerre_addition(n, geo)
            assert rep.exact and rep.residual == 0
    repf = verify_laguerre_addition(4, geometry_from(2.0, 1.0, 1.1))
    assert repf.rel_err < 1e-12


def test_laguerre_symmetric_variants():
    rep = verify_laguerre_symmetric(0, Fraction(1), Fraction(2))
    assert rep.exact and rep.residual == 0 and rep.lhs == 1
    assert verify_laguerre_symmetric(2, Fraction(1), Fraction(2)).residual == 0
    assert verify_laguerre_symmetric(5, 0.7, 1.9).rel_err < 1e-12
    assert verify_laguerre_symmetric(4, 1.0 + 0.5j, 0.3 - 0.2j, variant="pi").rel_err < 1e-12
    assert verify_laguerre_symmetric(3, Fraction(2), Fraction(5), variant="pi").residual == 0


def test_laguerre_symmetric_confluent_point():
    # at u = v the interior form is its limit, the density polynomial
    rep = verify_laguerre_symmetric(3, 1.5, 1.5)
    assert rep.rel_err < 1e-12
    rep = verify_laguerre_symmetric(3, Fraction(3, 2), Fraction(3, 2))
    assert rep.exact and rep.residual == 0
    rep = verify_laguerre_symmetric(0, Fraction(3, 2), Fraction(3, 2))
    assert rep.exact and rep.residual == 0 and isinstance(rep.rhs, Fraction)


# --- downward W sum and its coefficient corollary -------------------------------

def test_w_downward_sum():
    assert verify_w_downward_sum(0, 0.3, 0.8, 2.0).rel_err < 1e-14
    assert verify_w_downward_sum(1, 0.3, 0.8, 2.0).rel_err < 1e-12
    assert verify_w_downward_sum(7, 0.3, 0.8, 2.0).rel_err < 1e-10
    assert verify_w_downward_sum(4, 0.5 + 0.2j, 1.3, 3.0).rel_err < 1e-11
    assert verify_w_downward_sum(3, 0.3, 0.8, 12.0).rel_err < 1e-11
    with pytest.raises(ParameterPole):
        verify_w_downward_sum(2, 0.3, -0.5, 2.0)


def test_w_downward_sum_reports_its_precision():
    # large r escalates a hardware request to 40 digits; small r stays
    assert verify_w_downward_sum(2, 0.3, 1.0, 12.0).precision == ("extended", 40)
    assert verify_w_downward_sum(2, 0.3, 1.0, 2.0).precision == "hardware"


def test_coefficient_delta_sum():
    for mu, n_top in ((Fraction(4, 7), 20), (Fraction(3), 14)):
        for n in range(n_top + 1):
            assert coefficient_delta_sum(n, mu) == (1 if n == 0 else 0)
    with pytest.raises(PoleHit):
        coefficient_delta_sum(2, Fraction(-1, 2))


# --- general-order antipodal form ----------------------------------------------

def test_pi_addition_general():
    assert verify_pi_addition_general(0.9, 2.2, 1.0, 3.0).rel_err < 1e-11
    assert verify_pi_addition_general(-0.4, 0.7, 0.5, 2.0).rel_err < 1e-11


def test_pi_addition_half_order_matches_gamma_pi():
    rep_half = verify_pi_addition_general(-0.7, 0.5, 1.0, 3.0)
    assert rep_half.rel_err < 1e-11
    reppi = verify_gamma_pi(-0.7, 1.0, 3.0)
    # same identity in two normalizations: the lhs/rhs ratios must agree
    assert abs(rep_half.lhs / rep_half.rhs - reppi.lhs / reppi.rhs) < 1e-12


def test_pi_addition_large_order_stress(stress):
    # kappa=1, mu=20, r0=1, r=2: terms inflate ~17 orders above the unit sum
    assert abs(stress["t0"] / 1.0723911e7 - 1) < 1e-6
    assert abs(stress["t145"] / 3215.83030983 - 1) < 1e-8
    assert abs(stress["normalized_sum"] - 1) < 1e-6
    assert stress["digits_lost"] > 15
    assert tuple(stress["precision"]) == ("extended", 60)
    assert stress["surrogate_drop_l"] == 168


def test_pi_addition_escalates_from_hardware():
    # the growth forecast (or a range fault) must push the run to extended
    # precision on its own, and the report must say where it settled
    rep = verify_pi_addition_general(1.0, 20.0, 1.0, 2.0, SeriesOptions(rel_tol=1e-10))
    assert rep.rel_err < 1e-9
    assert rep.precision is not None
    kind, digits = rep.precision
    assert kind == "extended" and digits >= 30
    assert rep.lhs_diag.digits_lost() > 15


def test_pi_form_outside_the_double_range_is_no_convergence():
    # on hardware the mu = 20 terms leave the double range before l = 150; a
    # tolerance beyond every escalation rung leaves the verifier that one run
    with pytest.raises(NoConvergence, match="range"):
        pi_addition_terms(1.0, 20.0, 1.0, 2.0, 150)
    with pytest.raises(NoConvergence, match="range"):
        verify_pi_addition_general(1.0, 20.0, 1.0, 2.0, SeriesOptions(rel_tol=1e-230))


def test_surrogate_tracks_true_terms_within_factor_ten(stress):
    # the closed-form term prediction is an envelope, good to one order of
    # magnitude across growth, peak, and decay
    ctx = extended(60)
    terms = pi_addition_terms(1.0, 20.0, 1.0, 2.0, 200, ctx=ctx)
    # the terms peak near 5e17 against a unit sum
    assert 1e17 < max(abs(float(t)) for t in terms) < 1e18
    for ell in (0, 25, 50, 80, 120, 145, 168, 200):
        pred = float(mu_large_term_surrogate(1.0, 20.0, 1.0, 2.0, ell, ctx=ctx))
        true = abs(float(terms[ell]))
        ratio = pred / true
        assert 0.1 < ratio < 10.0, f"l={ell}: pred={pred:.3e} true={true:.3e}"


# --- M-Gegenbauer product sum ---------------------------------------------------

def test_m_gegenbauer_sum():
    assert verify_m_gegenbauer_sum(1.1, 0.8, 1.5 + 0.5j, math.pi / 3).rel_err < 1e-11
    assert verify_m_gegenbauer_sum(-0.3, 1.5, 2.0, 0.0).rel_err < 1e-11
    rep = verify_m_gegenbauer_sum(-0.3, 1.5, 2.0, math.pi)
    assert rep.rel_err < 1e-11
    # antipodal angle: the confluent factor is at z=0, leaving a bare e^{-z/2}
    assert abs(rep.rhs - math.exp(-1.0)) < 1e-14
    with pytest.raises(ParameterPole):
        verify_m_gegenbauer_sum(1.1, -0.2, 2.0, 1.0)


def test_m_gegenbauer_sum_takes_the_cosine_at_working_precision():
    # a cosine rounded to a double would leave the 50-digit series 2e-18 off
    # the sum it states, e^{-z/2} 1F1(mu-k+1/2; mu+1/2; cos^2(g/2) z)
    gamma, z = math.pi / 3, mpmath.mpc(1.5, 0.5)
    opts = SeriesOptions(rel_tol=1e-48, precision=("extended", 50))
    rep = verify_m_gegenbauer_sum(1.1, 0.8, complex(z), gamma, opts=opts)
    with mpmath.workdps(70):
        mu, half = mpmath.mpf(0.8), mpmath.mpf(1) / 2
        ref = mpmath.exp(-z / 2) * mpmath.hyp1f1(
            mu - mpmath.mpf(1.1) + half, mu + half, mpmath.cos(mpmath.mpf(gamma) / 2) ** 2 * z)
        assert abs(mpmath.mpmathify(rep.lhs) - ref) < 1e-45 * abs(ref)


@pytest.mark.parametrize("verify", [
    lambda opts: verify_gamma_pi(0.3, 1, 2, opts=opts),
    # the two sides differ in their last digits here; at 1.5+0.5j they round alike
    lambda opts: verify_m_gegenbauer_sum(1.1, 0.8, 1.4 + 0.5j, math.pi / 3, opts=opts),
    lambda opts: verify_whittaker_addition(complex(0.4, 0.3), geometry_from(4.0, 1.5, 1.0),
                                           opts=opts),
])
def test_extended_residual_is_taken_at_working_precision(verify):
    # a residual below 1e-16 is invisible in doubles; at 50 digits the report
    # must give the residual of its own lhs and rhs
    rep = verify(SeriesOptions(rel_tol=1e-30, precision=("extended", 50)))
    with mpmath.workdps(60):
        lhs, rhs = mpmath.mpmathify(rep.lhs), mpmath.mpmathify(rep.rhs)
        gap = abs(lhs - rhs)
        want = float(gap / max(abs(lhs), abs(rhs)))
        assert rep.abs_err == pytest.approx(float(gap), rel=1e-12)
    assert want > 0 and want / 2 <= rep.rel_err <= 2 * want


# --- exact binomial lemma --------------------------------------------------------

def test_lemma_binomial():
    rep = verify_lemma_binomial(0, Fraction(3, 2))
    assert rep.exact and rep.residual == 0 and rep.lhs == rep.rhs
    rep = verify_lemma_binomial(2, Fraction(1))
    assert rep.residual == 0 and rep.lhs == Fraction(4, 15)
    assert verify_lemma_binomial(25, Fraction(7, 3)).residual == 0
    with pytest.raises(TypeError):
        verify_lemma_binomial(3, 1.5)
    with pytest.raises(PoleHit):
        verify_lemma_binomial(3, Fraction(0))
    with pytest.raises(PoleHit):
        verify_lemma_binomial(4, Fraction(-3, 2))


# --- independent cross-route and golden anchors ----------------------------------

def test_addition_against_direct_mpmath_route():
    kappa, (r, r0, gam) = -0.7, (3.0, 1.0, 2 * math.pi / 3)
    with mpmath.workdps(30):
        lhs_mp = mpmath.mpf(0)
        for l in range(60):
            coef = mpmath.gamma(l + 1 - kappa) / (mpmath.gamma(1 - kappa)
                                                  * mpmath.factorial(2 * l))
            lhs_mp += (coef * mpmath.whitm(kappa, l + mpmath.mpf(1) / 2, r0)
                       * mpmath.whitw(kappa, l + mpmath.mpf(1) / 2, r)
                       * mpmath.legendre(l, mpmath.cos(gam)))
        lhs_mp = float(lhs_mp / (r * r0))
    rep = verify_whittaker_addition(kappa, geometry_from(r, r0, gam))
    assert rel(rep.lhs, lhs_mp) < 1e-12
    assert rel(rep.rhs, lhs_mp) < 1e-12


GOLDEN_RUNS = {
    "whittaker_addition_complex_kappa":
        lambda: verify_whittaker_addition(0.4 + 0.3j, geometry_from(4.0, 1.5, 1.0)),
    "kappa_integer_limit_n1":
        lambda: verify_kappa_integer_limit(1, geometry_from(3.0, 1.0, math.pi / 2),
                                           step=1e-4),
    "collinear_closed_form": lambda: verify_gamma_zero(-0.7, 2.0, 5.0),
    "antipodal_closed_form": lambda: verify_gamma_pi(0.3, 1.0, 4.0),
    "exponential_sum": lambda: verify_m_exp_sum(1.7, 2.0 + 1.0j),
    "planar_bessel_addition": lambda: verify_graf_2d(1.0, 1.0, 3.0, 2.0),
    "gegenbauer_bessel_addition": lambda: verify_gegenbauer_addition(1.0, 1.0, 4.0, 1.2),
    "whittaker_downward_sum": lambda: verify_w_downward_sum(7, 0.6 + 0.2j, 1.3, 2.5),
    "antipodal_general_order": lambda: verify_pi_addition_general(0.9, 2.2, 1.0, 3.0),
    "gegenbauer_m_sum":
        lambda: verify_m_gegenbauer_sum(1.1, 0.8, 1.5 + 0.5j, math.pi / 3),
}


@pytest.mark.parametrize("identity_id", sorted(GOLDEN_RUNS))
def test_identity_matches_golden(identity_id, golden):
    rep = GOLDEN_RUNS[identity_id]()
    tol = 1e-9 if identity_id == "kappa_integer_limit_n1" else 1e-10
    assert_rel(rep.lhs, golden_value(golden, identity_id, "lhs"), tol, f"{identity_id} lhs")
    assert_rel(rep.rhs, golden_value(golden, identity_id, "rhs"), tol, f"{identity_id} rhs")
