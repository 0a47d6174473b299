"""Scalar special functions against closed forms, scipy, and golden values."""

import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from helpers import assert_rel, golden_value, rel
from whitadd.errors import (
    IndexOutOfRange,
    PoleAtNonpositiveB,
    PoleHit,
    UnsupportedOrder,
    UnsupportedRegion,
)
from whitadd.scalar import HARDWARE, extended
from whitadd.special_core import (
    bessel_modified,
    binomial,
    gegenbauer_c,
    gegenbauer_ladder,
    kummer_m,
    kummer_u,
    laguerre,
    legendre_p,
    log_pochhammer,
    pochhammer,
    spherical_harmonic,
    whittaker_m,
    whittaker_w,
)


# --- rising factorials ------------------------------------------------------

def test_pochhammer_exact():
    assert pochhammer(3, 4) == 360
    assert pochhammer(5, 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(-2, 5) == 0  # hits zero factor exactly
    with pytest.raises(IndexOutOfRange):
        pochhammer(1, -1)


def test_binomial():
    assert binomial(7, 3) == 35
    assert binomial(0, 0) == 1
    with pytest.raises(IndexOutOfRange):
        binomial(3, 5)
    with pytest.raises(IndexOutOfRange):
        binomial(3, -1)


def test_log_pochhammer_matches_golden(golden):
    want = golden_value(golden, "pochhammer_log_scaled")
    assert_rel(log_pochhammer(40, 290), want, 1e-13, "log_pochhammer")
    with pytest.raises(PoleHit):
        log_pochhammer(-3, 10)


# --- orthogonal polynomials ------------------------------------------------

def test_legendre_polynomial_values():
    assert legendre_p(2, 0, 0.5) == -0.125
    assert legendre_p(0, 0, 0.3) == 1
    # the partial-wave series take P_l(+-1) from the ladder with no endpoint
    # shortcut, so the endpoint values must come out exact
    for ctx in (HARDWARE, extended(50)):
        half, one = ctx.convert(1) / 2, ctx.convert(1)
        for x in (one, -one):
            run = itertools.islice(gegenbauer_ladder(half, x), 2001)
            for l, p in enumerate(run):
                assert p == (x if l % 2 else one), f"l={l} x={x} {ctx.kind}"
    # exact over the rationals when m = 0
    assert legendre_p(3, 0, Fraction(1, 2)) == Fraction(-7, 16)


def test_legendre_associated_edges():
    with pytest.raises(IndexOutOfRange):
        legendre_p(2, 3, 0.5)
    with pytest.raises(IndexOutOfRange):
        legendre_p(-1, 0, 0.5)
    with pytest.raises(ValueError):
        legendre_p(2, 1, 1.5)
    # cos-roundoff just past |x| = 1 clamps instead of raising
    assert legendre_p(2, 1, 1.0 + 1e-15) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=8),
    m=st.integers(min_value=-8, max_value=8),
    x=st.floats(min_value=-0.999, max_value=0.999),
)
def test_legendre_matches_scipy(l, m, x):
    if abs(m) > l:
        return
    got, want = legendre_p(l, m, x), sp.lpmv(m, l, x)
    # scale floor of 1: both conventions share the Condon-Shortley phase, and
    # near a polynomial root relative error is meaningless
    assert abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0)


def test_gegenbauer_values():
    # C_3^{(3/2)}(1) = (3)_3 / 3!
    assert gegenbauer_c(3, 1.5, 1.0) == pytest.approx(10.0)
    x = 0.37
    assert gegenbauer_c(2, 1, x) == pytest.approx(4 * x * x - 1)
    # half-unit weight reduces to Legendre
    assert gegenbauer_c(4, Fraction(1, 2), Fraction(1, 3)) == legendre_p(4, 0, Fraction(1, 3))
    with pytest.raises(IndexOutOfRange):
        gegenbauer_c(2, 0, 0.5)
    with pytest.raises(IndexOutOfRange):
        gegenbauer_c(2, -1.0, 0.5)


def _rising(a, n):
    return math.prod((a + j for j in range(n)), start=Fraction(1))


def _legendre_sum(l, x):
    # P_l(x) = 2^-l sum_k (-1)^k C(l,k) C(2l-2k,l) x^(l-2k)
    return sum(Fraction((-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l), 2 ** l)
               * x ** (l - 2 * k) for k in range(l // 2 + 1))


def _gegenbauer_sum(n, mu, x):
    # C_n^(mu)(x) = sum_k (-1)^k (mu)_(n-k) (2x)^(n-2k) / (k! (n-2k)!)
    return sum((-1) ** k * _rising(Fraction(mu), n - k) * (2 * x) ** (n - 2 * k)
               / (math.factorial(k) * math.factorial(n - 2 * k)) for k in range(n // 2 + 1))


def _laguerre_sum(n, alpha, x):
    # L_n^(alpha)(x) = sum_k (-1)^k C(n+alpha, n-k) x^k / k!
    return sum((-1) ** k * _rising(Fraction(alpha) + k + 1, n - k) / math.factorial(n - k)
               * Fraction(x) ** k / math.factorial(k) for k in range(n + 1))


def test_polynomials_exact_for_int_and_fraction_inputs():
    # integer inputs used to fall into float division from degree 2 on
    # (laguerre(2, 0, 1) was -0.5, gegenbauer_c(2, 1, 1) was 3.0)
    for l, x in itertools.product(range(6), (1, -2, 0, Fraction(1, 3))):
        got = legendre_p(l, 0, x)
        assert type(got) is Fraction and got == _legendre_sum(l, x), f"P_{l}({x})"
        for mu in (1, 2, Fraction(3, 2)):
            got = gegenbauer_c(l, mu, x)
            assert type(got) is Fraction and got == _gegenbauer_sum(l, mu, x), (
                f"C_{l}^({mu})({x})")
        for alpha in (0, 2, Fraction(1, 2)):
            got = laguerre(l, alpha, x)
            assert type(got) is Fraction and got == _laguerre_sum(l, alpha, x), (
                f"L_{l}^({alpha})({x})")
    # a float anywhere keeps the float path
    assert type(laguerre(2, 0, 1.0)) is float and laguerre(2, 0, 1.0) == -0.5
    assert type(gegenbauer_c(2, 1.0, 1)) is float
    assert type(legendre_p(2, 0, 0.5)) is float


def test_laguerre_exact_rational(golden):
    want = golden_value(golden, "laguerre_exact_rational")
    got = laguerre(3, 2, Fraction(11, 10))
    assert isinstance(got, Fraction) and got == want
    assert laguerre(0, 5, 0.9) == 1
    assert laguerre(2, 0, 0.0) == 1  # L_n(0) = 1
    assert_rel(laguerre(4, 1.5, 0.8), sp.eval_genlaguerre(4, 1.5, 0.8), 1e-13)


def test_spherical_harmonic_closed_forms():
    y00 = spherical_harmonic(0, 0, 1.1, 2.2)
    assert_rel(y00, 1 / math.sqrt(4 * math.pi), 1e-15)
    th, ph = 0.8, 1.3
    want = -math.sqrt(3 / (8 * math.pi)) * math.sin(th) * complex(math.cos(ph), math.sin(ph))
    assert_rel(spherical_harmonic(1, 1, th, ph), want, 1e-14)
    # conjugation symmetry carried by the Condon-Shortley phase
    y = spherical_harmonic(3, 2, th, ph)
    assert_rel(spherical_harmonic(3, -2, th, ph), y.conjugate(), 1e-14)
    with pytest.raises(IndexOutOfRange):
        spherical_harmonic(1, 2, th, ph)


# --- Kummer functions -------------------------------------------------------

def test_kummer_m_basics(golden):
    assert kummer_m(0.7, 1.3, 0.0) == 1.0
    z = 1.7
    assert_rel(kummer_m(1, 2, z), (math.exp(z) - 1) / z, 1e-14)
    want = golden_value(golden, "confluent_first_kind")
    assert_rel(kummer_m(0.5, 1.5, 2.0), want, 1e-13)
    with pytest.raises(PoleAtNonpositiveB):
        kummer_m(0.5, -2, 1.0)
    # polynomial case: series terminates even where b is otherwise poisonous
    assert_rel(kummer_m(-2, 0.5, 1.5), 1 - 2 * 1.5 / 0.5 + 1.5**2 / (0.5 * 1.5), 1e-14)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-3, max_value=3),
    b=st.floats(min_value=0.3, max_value=4),
    z=st.floats(min_value=-5, max_value=5),
)
# scipy's hyp1f1 returns nan here (and inf at z = -1e-300); the value is 1.0
@example(a=0.0625, b=1.0, z=-7.294164954660905e-183)
def test_kummer_m_matches_scipy(a, b, z):
    got, want = kummer_m(a, b, z), sp.hyp1f1(a, b, z)
    if not math.isfinite(want):
        with mpmath.workdps(30):
            want = float(mpmath.hyp1f1(a, b, z))
    assert abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0)


def test_kummer_u_values(golden):
    z = 1.3
    assert_rel(kummer_u(1, 1, z), math.exp(z) * sp.exp1(z), 1e-12)
    want = golden_value(golden, "confluent_second_kind_log_case")
    assert_rel(kummer_u(0.5, 1, 2.0), want, 1e-12)
    # reflection branch (b > 1)
    assert_rel(kummer_u(0.3, 2.4, 1.5), sp.hyperu(0.3, 2.4, 1.5), 1e-11)
    # asymptotic branch: optimal truncation leaves ~e^{-z} relative error,
    # still far better than the ~0.434*z digits the convergent route sheds
    assert_rel(kummer_u(1.2, 0.7, 25.0), sp.hyperu(1.2, 0.7, 25.0), 1e-6)
    assert_rel(kummer_u(1.2, 0.7, 40.0), sp.hyperu(1.2, 0.7, 40.0), 1e-11)
    # polynomial case a = -n
    assert_rel(kummer_u(-2, 0.8, 1.1), sp.hyperu(-2, 0.8, 1.1), 1e-13)


@pytest.mark.parametrize("ctx, tol", [(None, 1e-11), (extended(40), 1e-38)],
                         ids=["hardware", "extended"])
def test_kummer_u_nonpositive_integer_b(ctx, tol):
    # b = 0, -1, -2, ... goes through U(a, b, z) = z^(1-b) U(a-b+1, 2-b, z)
    for a, b, z in ((0.3, 0, 1.5), (1.7, -2, 4.0), (-0.4, -1, 10.0), (0.5, -3, 0.2),
                    (0.3 + 0.4j, -1, 2.5)):
        with mpmath.workdps(60):
            want = mpmath.hyperu(a, b, z)
            assert abs(kummer_u(a, b, z, ctx=ctx) - want) <= tol * abs(want), (a, b, z)


@pytest.mark.parametrize("ctx", [None, extended(40)], ids=["hardware", "extended"])
def test_kummer_u_refuses_its_excluded_arguments(ctx):
    for z in (2 + 1j, -2.0, 0.0):
        with pytest.raises(UnsupportedRegion, match="real z > 0"):
            kummer_u(0.5, 1.5, z, ctx=ctx)
    # the integer-b log expansion below SMALL_Z_CUTOFF, b = 2 directly and
    # b = 0 through the shift to b = 2
    for b in (2, 0):
        with pytest.raises(UnsupportedRegion, match="refused below"):
            kummer_u(0.5, b, 1e-9, ctx=ctx)


@pytest.mark.parametrize("ctx", [None, extended(50)], ids=["hardware", "extended"])
def test_non_finite_parameters_are_unsupported(ctx):
    # -inf used to escape as a bare OverflowError from round(-inf)
    for fn, args in ((kummer_m, (-math.inf, 1.0, 1.0)), (kummer_u, (-math.inf, 1.5, 2.0)),
                     (kummer_m, (0.5, -math.inf, 1.0)), (kummer_m, (0.5, 1.0, math.nan)),
                     (kummer_u, (0.5, math.inf, 2.0))):
        with pytest.raises(UnsupportedRegion):
            fn(*args, ctx=ctx)


def test_kummer_u_extended_agrees_with_hardware():
    ctx = extended(40)
    for a, b, z in [(0.5, 1, 2.0), (1.7, 3, 0.9), (0.9, 1.4, 6.0)]:
        assert_rel(kummer_u(a, b, z), complex(kummer_u(a, b, z, ctx=ctx)), 1e-11)


# --- Whittaker functions ----------------------------------------------------

def test_whittaker_closed_forms():
    x = 2.7
    assert_rel(whittaker_w((0, 0.5), x), math.exp(-x / 2), 1e-13)
    assert_rel(whittaker_m((0, 0.5), x), 2 * math.sinh(x / 2), 1e-13)
    # derivative flag returns d/dx of the same closed forms
    assert_rel(whittaker_w((0, 0.5), x, deriv=True), -0.5 * math.exp(-x / 2), 1e-12)
    assert_rel(whittaker_m((0, 0.5), x, deriv=True), math.cosh(x / 2), 1e-12)


def test_whittaker_large_order_matches_golden(golden):
    want = golden_value(golden, "whittaker_m_large_order")
    assert_rel(whittaker_m((1, 20), 1.0), want, 1e-12)


def test_whittaker_wronskian_constant(golden):
    # MW' - M'W is x-independent: -Gamma(2mu+1)/Gamma(mu-kappa+1/2)
    want = golden_value(golden, "whittaker_wronskian_constant")
    kappa, mu = -0.7, 0.5
    values = []
    for x in (0.5, 1.0, 2.0, 5.0, 10.0):
        w = (whittaker_m((kappa, mu), x) * whittaker_w((kappa, mu), x, deriv=True)
             - whittaker_m((kappa, mu), x, deriv=True) * whittaker_w((kappa, mu), x))
        values.append(w)
    for v in values:
        assert rel(v, values[0]) < 1e-9
    assert_rel(values[2], want, 1e-9, "wronskian")
    assert_rel(want, -1 / math.gamma(mu - kappa + 0.5), 1e-12)


def test_whittaker_complex_kappa():
    kappa, mu = 0.3 + 0.4j, 1.0
    v = whittaker_w((kappa, mu), 2.5)
    assert isinstance(v, complex) and abs(v) > 0
    m = whittaker_m((kappa, mu), 2.5)
    # both solve the same ODE; the Wronskian pins the joint normalization
    wr = m * whittaker_w((kappa, mu), 2.5, deriv=True) - whittaker_m((kappa, mu), 2.5, deriv=True) * v
    want = -complex(sp.gamma(2 * mu + 1)) / complex(sp.gamma(mu - kappa + 0.5))
    assert_rel(wr, want, 1e-10)


# --- modified Bessel reductions ----------------------------------------------

def test_bessel_modified(golden):
    want = golden_value(golden, "macdonald_integer_order")
    assert_rel(bessel_modified(2, 1.5, "K"), want, 1e-11)
    z = 1.9
    assert_rel(bessel_modified(0.5, z, "I"), math.sqrt(2 / (math.pi * z)) * math.sinh(z), 1e-12)
    assert_rel(bessel_modified(0.5, z, "K"), math.sqrt(math.pi / (2 * z)) * math.exp(-z), 1e-12)
    assert_rel(bessel_modified(3, 2.2, "I"), sp.iv(3, 2.2), 1e-11)
    with pytest.raises(UnsupportedOrder):
        bessel_modified(0.3, 1.0, "K")
    with pytest.raises(UnsupportedOrder):
        bessel_modified(1, 1.0, "J")
