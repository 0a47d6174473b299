"""Coulomb Green's function: compact form, partial waves, spectral pieces."""

import math

import mpmath
import numpy as np
import pytest

from helpers import assert_rel, golden_value, rel
from whitadd.errors import (
    CoincidentPoints,
    CoincidentRadii,
    GeometryViolation,
    IndexOutOfRange,
    NearPole,
    NoConvergence,
    UnsupportedRegion,
)
from whitadd.green import (
    CoulombParams,
    QuantumNumbers,
    SphericalPoint,
    angle_cosine,
    bound_energy,
    degeneracy,
    density_polynomial,
    diagonal_density,
    gauss_laguerre_integral,
    hostler_green,
    hydrogen_eigenfunction,
    partial_wave_green,
    projection_kernel,
    radial_distribution,
    radial_norm,
    separation,
    spectral_k,
)
from whitadd.scalar import extended
from whitadd.special_core import laguerre, whittaker_w
from whitadd.summation import SeriesOptions

P = SphericalPoint(2.0, 1.1, 0.7)
P0 = SphericalPoint(1.0, 2.0, 4.0)
PARAMS = CoulombParams(1.0, 0.7)


# --- value types --------------------------------------------------------------

def test_spherical_point_validation():
    with pytest.raises(GeometryViolation):
        SphericalPoint(0.0, 1.0, 1.0)
    with pytest.raises(GeometryViolation):
        SphericalPoint(1.0, 3.5, 1.0)
    with pytest.raises(GeometryViolation):
        SphericalPoint(1.0, 1.0, 7.0)


def test_coulomb_params():
    assert CoulombParams(2.0, 0.5).kappa == 2.0
    with pytest.raises(UnsupportedRegion):
        CoulombParams(0.0, 1.0)


def test_quantum_numbers():
    QuantumNumbers(3, 2, -2)
    with pytest.raises(IndexOutOfRange):
        QuantumNumbers(2, 2, 0)
    with pytest.raises(IndexOutOfRange):
        QuantumNumbers(3, 1, 2)


def test_spectral_accessors():
    assert bound_energy(1, 2.0) == -1.0
    assert bound_energy(2, 2.0) == -0.25
    assert degeneracy(3) == 9
    assert spectral_k(-4.0) == 2.0
    with pytest.raises(UnsupportedRegion):
        spectral_k(1.0)
    with pytest.raises(IndexOutOfRange):
        bound_energy(0, 2.0)


def test_separation_and_angle():
    q = SphericalPoint(2.0, 1.1, 0.7)
    assert angle_cosine(P, q) == pytest.approx(1.0, abs=1e-15)
    assert separation(P, q) < 1e-7
    north = SphericalPoint(1.0, 0.0, 0.0)
    south = SphericalPoint(2.0, math.pi, 0.0)
    assert separation(north, south) == pytest.approx(3.0, abs=1e-14)


# --- eigenfunctions -------------------------------------------------------------

def test_hydrogen_ground_state():
    pt = SphericalPoint(1.3, 0.9, 2.1)
    psi = hydrogen_eigenfunction(QuantumNumbers(1, 0, 0), 2.0, pt)
    assert abs(psi - 2.0 * math.exp(-1.3) / math.sqrt(4 * math.pi)) < 1e-15


def test_hydrogen_conjugation():
    pt = SphericalPoint(1.3, 0.9, 2.1)
    pa = hydrogen_eigenfunction((3, 2, 1), 1.7, pt)
    pb = hydrogen_eigenfunction((3, 2, -1), 1.7, pt)
    assert abs(pb + pa.conjugate()) < 1e-15 * abs(pa)


def test_radial_norm_by_quadrature():
    # integral |R_{21}|^2 r^2 dr recovered through the t = g r / n map
    g, n, l = 1.7, 2, 1

    def radial_sq(t):
        r = n * t / g
        pref = (g ** 1.5 / n ** (l + 2)) * math.sqrt(
            math.factorial(n - l - 1) / (2 * math.factorial(n + l)))
        poly = pref * (g * r) ** l * np.array(
            [float(laguerre(n - l - 1, 2 * l + 1, ti)) for ti in t])
        return poly * poly * r * r * (n / g)

    assert gauss_laguerre_integral(radial_sq, tol=1e-12) == pytest.approx(1.0, abs=1e-10)


# --- compact two-point form -----------------------------------------------------

def test_hostler_symmetry():
    gv = hostler_green(PARAMS, P, P0)
    assert rel(gv, hostler_green(PARAMS, P0, P)) < 1e-12


def test_hostler_free_field_limit():
    # the deviation from e^{-kR}/(4 pi R) is first order in g/(2k)
    R = separation(P, P0)
    free = math.exp(-0.7 * R) / (4 * math.pi * R)
    dev = [abs(hostler_green(CoulombParams(g, 0.7), P, P0) - free) / free
           for g in (1e-4, 5e-5, 1e-9)]
    assert dev[0] / dev[1] == pytest.approx(2.0, abs=1e-3)
    assert dev[2] < 1e-8


def test_hostler_guards():
    q = SphericalPoint(2.0, 1.1, 0.7)
    with pytest.raises(CoincidentPoints):
        hostler_green(PARAMS, P, q)
    with pytest.raises(NearPole):
        hostler_green(CoulombParams(2.0, 0.9999), P, P0)


def test_hostler_matches_golden(golden):
    pa = SphericalPoint(3.0, 0.4, 0.0)
    pb = SphericalPoint(1.2, 2.2, 5.1)
    want = golden_value(golden, "hostler_point_value")
    assert_rel(hostler_green(CoulombParams(1.0, 0.7), pa, pb), want, 1e-11)


def test_hostler_against_direct_mpmath_route():
    gv = hostler_green(PARAMS, P, P0)
    kpa = PARAMS.kappa
    with mpmath.workdps(30):
        c = angle_cosine(P, P0)
        Rm = mpmath.sqrt(P.r ** 2 + P0.r ** 2 - 2 * P.r * P0.r * c)
        xm, ym = P.r + P0.r + Rm, P.r + P0.r - Rm
        km = mpmath.mpf("0.7")
        Mf = lambda z: mpmath.whitm(kpa, 0.5, z)
        Wf = lambda z: mpmath.whitw(kpa, 0.5, z)
        Gm = (mpmath.gamma(1 - kpa) / (4 * mpmath.pi * Rm)
              * (mpmath.diff(Mf, km * ym) * Wf(km * xm)
                 - Mf(km * ym) * mpmath.diff(Wf, km * xm)))
        Gm = float(Gm)
    assert rel(gv, Gm) < 1e-11


# --- partial-wave route ----------------------------------------------------------

def test_partial_wave_matches_hostler():
    gv = hostler_green(PARAMS, P, P0)
    ev = partial_wave_green(PARAMS, P, P0)
    assert rel(ev.value, gv) < 1e-10
    # the smaller radius always goes inside; point order cannot matter
    ev2 = partial_wave_green(PARAMS, P0, P)
    assert abs(ev2.value - ev.value) <= 1e-13 * abs(ev.value)
    assert ev.series.condition_number >= 1.0


@pytest.mark.parametrize("g, k", [(1.0, 0.7), (2.3, 0.4)])
def test_routes_agree_at_50_digits(g, k):
    # both routes take R, x, y and the 2k-scaled radii at the working
    # precision from the same doubles, so they agree to it, not to 1e-16
    ctx = extended(50)
    opts = SeriesOptions(rel_tol=1e-48, max_terms=100_000, precision=("extended", 50))
    params = CoulombParams(g, k)
    for p, p0 in ((SphericalPoint(3.0, 0.4, 0.0), SphericalPoint(1.2, 2.2, 5.1)), (P, P0)):
        hv = hostler_green(params, p, p0, ctx=ctx)
        pw = partial_wave_green(params, p, p0, opts=opts).value
        assert abs(pw - hv) <= 1e-45 * abs(hv), (g, k, p)


def test_partial_wave_colinear():
    pc, pc0 = SphericalPoint(3.0, 1.0, 1.0), SphericalPoint(1.0, 1.0, 1.0)
    assert rel(partial_wave_green(PARAMS, pc, pc0).value,
               hostler_green(PARAMS, pc, pc0)) < 1e-10


def test_partial_wave_inner_point_at_origin():
    # r0 -> 0: only l=0 survives; value tends to Gamma(1-kappa) W(2kr)/(4 pi r)
    small = SphericalPoint(1e-7, 2.0, 1.0)
    pw = partial_wave_green(PARAMS, P, small)
    assert pw.series.n_terms <= 40  # one live term plus the estimator window
    lim = (math.gamma(1 - PARAMS.kappa)
           * whittaker_w((PARAMS.kappa, 0.5), 2 * 0.7 * 2.0) / (4 * math.pi * 2.0))
    assert rel(pw.value, lim) < 1e-5


def test_partial_wave_equal_radii_contract():
    # at r = r0 the term decay is algebraic and the factor magnitudes exhaust
    # the double range: either the value is close or the sum refuses honestly;
    # a silent wrong answer is the one forbidden outcome
    pe, pe0 = SphericalPoint(2.0, 1.1, 0.7), SphericalPoint(2.0, 2.0, 4.0)
    try:
        ev = partial_wave_green(PARAMS, pe, pe0, SeriesOptions(rel_tol=1e-4, max_terms=4000))
        assert rel(ev.value, hostler_green(PARAMS, pe, pe0)) < 1e-3
    except NoConvergence:
        pass


def test_partial_wave_coincident_points():
    q = SphericalPoint(2.0, 1.1, 0.7)
    with pytest.raises(CoincidentRadii):
        partial_wave_green(PARAMS, P, q)


# --- bound-state projections -------------------------------------------------------

def test_projection_kernel_ground_state_closed_form():
    g = 1.3
    closed = g ** 3 / (8 * math.pi) * math.exp(-g * (P.r + P0.r) / 2)
    assert_rel(projection_kernel(1, g, P, P0, method="residue"), closed, 1e-15)
    assert_rel(projection_kernel(1, g, P, P0, method="eigen_sum"), closed, 1e-13)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_projection_kernel_cross_method(n):
    g = 1.3
    a = projection_kernel(n, g, P, P0, method="residue")
    b = projection_kernel(n, g, P, P0, method="eigen_sum")
    assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)


def test_projection_kernel_rotation_invariance():
    delta = 0.83
    p_rot = SphericalPoint(P.r, P.theta, P.phi + delta)
    p0_rot = SphericalPoint(P0.r, P0.theta, P0.phi + delta)
    a = projection_kernel(3, 1.3, P, P0, method="eigen_sum")
    b = projection_kernel(3, 1.3, p_rot, p0_rot, method="eigen_sum")
    assert abs(a - b) <= 1e-12 * abs(a)


def test_projection_kernel_guards():
    q = SphericalPoint(2.0, 1.1, 0.7)
    with pytest.raises(CoincidentPoints):
        projection_kernel(2, 1.3, P, q, method="residue")
    with pytest.raises(ValueError):
        projection_kernel(2, 1.3, P, P0, method="nope")
    with pytest.raises(IndexOutOfRange):
        projection_kernel(0, 1.3, P, P0)


@pytest.mark.parametrize("n", [1, 2])
def test_residue_of_green_function_is_projection(n):
    # (z - E_n) G(z) -> -P_n as z -> E_n; the gap closes first order in d
    g = 1.3
    E = bound_energy(n, g)
    target = projection_kernel(n, g, P, P0, method="residue")
    errs = []
    for d in (1e-3, 1e-4, 1e-5):
        kk = spectral_k(E + d)
        G = hostler_green(CoulombParams(g, kk), P, P0, kappa_guard=0.0)
        errs.append(abs(d * G + target) / abs(target))
    for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
        assert 5 < ratio < 20


# --- densities and integrals ----------------------------------------------------

def test_radial_distribution_closed_form():
    assert radial_distribution(1, 2.0, 1.3) == pytest.approx(
        4 * 1.3 ** 2 * math.exp(-2 * 1.3), abs=1e-15)
    vals = [radial_distribution(1, 2.0, x) for x in (0.9, 0.99, 1.0, 1.01, 1.1)]
    assert vals[2] == max(vals)  # D_1 peaks at r = 1 for g = 2


def test_diagonal_density_is_kernel_limit():
    g = 1.3
    dd = diagonal_density(3, g, 1.7)
    rr = SphericalPoint(1.7, 0.4, 1.0)
    rr2 = SphericalPoint(1.7, 0.4 + 1e-7, 1.0)
    assert rel(projection_kernel(3, g, rr, rr2, method="residue"), dd) < 1e-5
    assert rel(projection_kernel(3, g, rr, rr, method="eigen_sum"), dd) < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_radial_norm_is_n_squared(n):
    assert radial_norm(n, 1.9) == pytest.approx(n * n, rel=1e-8)


@pytest.mark.parametrize("n", range(2, 7))
def test_density_second_moment(n):
    v = gauss_laguerre_integral(
        lambda t: np.array([ti * ti * density_polynomial(n, ti) for ti in t]))
    assert v == pytest.approx(2 * n ** 3, rel=1e-8)
