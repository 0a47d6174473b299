"""Precision contexts: conversion, branch choices, escalation."""

import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from whitadd import scalar
from whitadd.mpcontext import ExtendedContext
from whitadd.scalar import HARDWARE, extended, is_nonpositive_integer, nearest_integer, resolve


def test_nonpositive_integer_exact_types():
    assert is_nonpositive_integer(0)
    assert is_nonpositive_integer(-3)
    assert not is_nonpositive_integer(1)
    assert is_nonpositive_integer(Fraction(-2, 1))
    assert not is_nonpositive_integer(Fraction(-1, 2))


def test_nonpositive_integer_mpmath_values_at_their_precision():
    # extended values snap to the integer branches only within their own eps
    ctx = extended(50)
    assert is_nonpositive_integer(ctx.convert(-2))
    assert is_nonpositive_integer(ctx.convert(-2) + ctx.convert("1e-52"))
    assert is_nonpositive_integer(ctx.convert(complex(-3.0, 0.0)))
    assert not is_nonpositive_integer(ctx.convert(-1.9999999999999991))
    assert not is_nonpositive_integer(ctx.convert(-2) + ctx.convert("1e-30"))
    assert not is_nonpositive_integer(ctx.convert(complex(-3.0, 1e-40)))
    assert not is_nonpositive_integer(ctx.convert(2))


def test_nonpositive_integer_float_tolerance():
    assert is_nonpositive_integer(-2.0 + 1e-13)
    assert not is_nonpositive_integer(-2.0 + 1e-9)
    assert not is_nonpositive_integer(0.5)
    # a genuinely complex value never hits the pole branch
    assert not is_nonpositive_integer(-1.0 + 0.1j)
    assert is_nonpositive_integer(complex(-1.0, 0.0))


def test_nearest_integer():
    assert nearest_integer(2.4) == 2
    assert nearest_integer(-3.6) == -4
    assert nearest_integer(complex(5.0, 0.3)) == 5


def test_hardware_convert_and_mag():
    assert HARDWARE.convert(Fraction(1, 4)) == 0.25
    assert isinstance(HARDWARE.convert(3), float)
    # mpmath scalars collapse to native types, real when possible
    assert HARDWARE.convert(mpmath.mpf("1.5")) == 1.5
    assert HARDWARE.convert(mpmath.mpc(1, 2)) == 1 + 2j
    assert HARDWARE.convert(complex(2.0, 0.0)) == 2.0 + 0.0j
    assert HARDWARE.mag(-3 - 4j) == 5.0


def _general_convert(x):
    """HardwareContext.convert without its exact float/complex fast path."""
    if isinstance(x, complex):
        return complex(x)  # a numpy complex128 leaves as a builtin complex
    if isinstance(x, (int, float, Fraction)):
        return float(x)
    if isinstance(x, (mpmath.mpf, mpmath.mpc)):
        c = complex(x)
        return c.real if c.imag == 0.0 else c
    c = complex(x)
    return c.real if c.imag == 0.0 else c


def _general_nonpositive_integer(x, tol=1e-12):
    """is_nonpositive_integer without its exact float fast path."""
    if isinstance(x, int):
        return x <= 0
    if isinstance(x, Fraction):
        return x.denominator == 1 and x <= 0
    if isinstance(x, complex):
        if abs(x.imag) > tol:
            return False
        x = x.real
    try:
        xr = float(getattr(x, "real", x))
        xi = float(getattr(x, "imag", 0.0))
    except TypeError:
        return False
    if abs(xi) > tol:
        return False
    return xr < 0.5 and abs(xr - round(xr)) <= tol


FAST_PATH_INPUTS = [
    1.5, -2.25, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
    complex(2.0, 0.0), complex(-0.0, -0.0), complex(3.0, -4.0),
    complex(math.nan, 1.0), complex(math.inf, 0.0),
    3, -7, 0, True, False, Fraction(1, 3), Fraction(-4, 1),
    mpmath.mpf("1.5"), mpmath.mpf("-0.25"), mpmath.mpc(1, 2), mpmath.mpc(1, 0),
    np.float64(2.5), np.float64(-0.0), np.float64(math.nan),
    np.complex128(1 + 2j), np.complex128(3 + 0j),
]


@pytest.mark.parametrize("x", FAST_PATH_INPUTS, ids=repr)
def test_hardware_fast_paths_match_the_general_path(x):
    want = _general_convert(x)
    got = HARDWARE.convert(x)
    assert type(got) is type(want) and repr(got) == repr(want)
    want_mag, got_mag = abs(want), HARDWARE.mag(x)
    assert type(got_mag) is type(want_mag) and repr(got_mag) == repr(want_mag)
    if type(x) in (float, complex):
        assert repr(HARDWARE.abs(x)) == repr(got_mag)


def test_numpy_complex_leaves_as_builtin_complex():
    # a numpy complex128 used to pass through convert and reach the results
    from whitadd.special_core import kummer_m

    assert type(HARDWARE.convert(np.complex128(0.3))) is complex
    assert type(HARDWARE.mag(np.complex128(1 + 1j))) is float
    assert type(kummer_m(np.complex128(0.3), 1.7, 2.0)) is complex


@pytest.mark.parametrize("x", [0.0, -0.0, -3.0, -3.0 + 1e-13, -3.0 + 1e-11, 0.49,
                               0.5, 1.0, -1e300, math.nan, math.inf, -math.inf],
                         ids=repr)
def test_nonpositive_integer_float_fast_path(x):
    def outcome(fn):
        try:
            return fn(x)
        except OverflowError as exc:
            return type(exc)

    assert outcome(is_nonpositive_integer) == outcome(_general_nonpositive_integer)


def test_hardware_power_branches():
    assert HARDWARE.power(2.0, 3.0) == 8.0
    assert HARDWARE.power(0.0, 2.5) == 0.0
    assert HARDWARE.power(0.0, -1.0) == math.inf
    v = HARDWARE.power(-1.0, 0.5)
    assert isinstance(v, complex) and abs(v - 1j) < 1e-15


def test_hardware_negative_arguments_go_complex():
    assert isinstance(HARDWARE.log(-2.0), complex)
    assert isinstance(HARDWARE.sqrt(-4.0), complex)
    assert HARDWARE.sqrt(-4.0) == 2j
    assert isinstance(HARDWARE.loggamma(-0.5), complex)
    assert HARDWARE.loggamma(3.0) == pytest.approx(math.log(2.0))


def test_hardware_rgamma_finite_at_poles():
    assert HARDWARE.rgamma(0.0) == 0.0
    assert HARDWARE.rgamma(-2.0) == 0.0
    assert HARDWARE.rgamma(4.0) == pytest.approx(1.0 / 6.0)


def test_extended_requires_30_digits():
    with pytest.raises(ValueError):
        ExtendedContext(20)
    assert ExtendedContext(30).digits == 30


def test_extended_eps_and_fraction_conversion():
    ctx = extended(40)
    assert ctx.eps == pytest.approx(1e-39)
    third = ctx.convert(Fraction(1, 3))
    assert ctx.mag(third * 3 - 1) < 1e-38


def test_extended_magnitudes_are_float_hypot():
    ctx = extended(50)
    for x in (mpmath.mpf("-2.5"), mpmath.mpc(3, -4), mpmath.mpc("1e200", "1e200"),
              mpmath.mpc("1e-200", "-3e-200"), mpmath.mpf("1e-400")):
        x = ctx.convert(x)
        want = math.hypot(float(x.real), float(x.imag))
        assert ctx.mag(x) == ctx.abs(x) == want
        assert type(ctx.mag(x)) is float
    assert ctx.mag(3) == 3.0


def test_extended_fixed_point_round_trip():
    ctx = extended(50)
    wp = ctx.prec + 20
    for x, real in ((ctx.convert(1) / 3, True), (ctx.convert(-2.75), True),
                    (ctx.convert(0.3 - 1.7j), False)):
        re, im = ctx.fixed(x, wp)
        assert (im is None) == real
        back = ctx.from_fixed(re, im, wp)
        assert type(back) is type(x) and ctx.mag(back - x) <= 2.0 ** -ctx.prec
    assert ctx.fixed(ctx.convert(0.75), 4) == (12, None)
    base = ctx.prec
    with ctx.workprec(300):
        assert ctx.prec == 300
    assert ctx.prec == base


def test_extended_contexts_are_independent():
    a = extended(30)
    b = extended(50)
    # each context owns its precision; creating b must not widen a
    assert a._mp.dps == 30 and b._mp.dps == 50
    assert abs(float(a.pi) - math.pi) < 1e-15


def test_extended_contexts_are_memoized_per_thread():
    # one clone per (thread, digits): reused within a thread, never shared
    # across threads, whose mpmath calls would race on its precision
    assert extended(45) is extended(45)
    assert extended(45) is not extended(46)
    other = []
    worker = threading.Thread(target=lambda: other.append(extended(45)))
    worker.start()
    worker.join()
    assert other[0] is not extended(45)
    assert other[0].digits == 45


def test_extended_constructs_through_the_module_attribute(monkeypatch):
    # the benchmark's tracer counts contexts by replacing scalar.ExtendedContext
    made = []

    class Counted(ExtendedContext):
        def __init__(self, digits):
            made.append(digits)
            super().__init__(digits)

    assert scalar.ExtendedContext is ExtendedContext
    monkeypatch.setattr(scalar, "ExtendedContext", Counted)
    monkeypatch.setattr(scalar, "_thread_contexts", threading.local())
    assert type(extended(41)) is Counted and made == [41]


def test_extended_extra_digits_scopes_precision():
    ctx = extended(30)
    with ctx.extra_digits(10):
        assert ctx._mp.dps >= 40
    assert ctx._mp.dps == 30


def test_resolve():
    assert resolve(None) is HARDWARE
    ctx = extended(35)
    assert resolve(ctx) is ctx


GAMMA_FAMILY = ("gamma", "loggamma", "rgamma", "digamma")
# the poles 0, -1, -2, negative reals (where loggamma is complex), gamma's
# overflow above 171.6 and underflow below -171, a subnormal, the infinities
GAMMA_FAMILY_ARGS = (2.3, 0.5, 1e-300, 7.25, 171.5, 171.7, 250.0, 0.0, -0.0, -1.0,
                     -2.0, -0.5, -2.5, -171.5, -180.5, 1e-320, math.inf, -math.inf,
                     math.nan)


def _check_scipy_bits(name, x):
    # repr equality: == on every bit, NaN matching NaN and -0.0 told from 0.0
    if name == "loggamma" and not x > 0:
        return  # complex: test_hardware_gamma_family_complex_against_mpmath
    assert repr(getattr(HARDWARE, name)(x)) == repr(float(getattr(special, name)(x))), (name, x)


@pytest.mark.parametrize("name", GAMMA_FAMILY)
def test_hardware_gamma_family_is_scipy_bit_for_bit(name):
    for x in GAMMA_FAMILY_ARGS:
        _check_scipy_bits(name, x)


_near_integers = st.builds(lambda n, d: n + d, st.integers(min_value=-40, max_value=40),
                           st.floats(min_value=-1e-6, max_value=1e-6))
# psi's Taylor window about its negative root, |x + 0.504...| < 0.3, and its edges
_psi_root_window = st.floats(min_value=-0.81, max_value=-0.2)


@settings(max_examples=600, deadline=None)
@given(x=st.one_of(st.floats(min_value=-180, max_value=180), _near_integers, _psi_root_window))
@example(x=-0.5040830082644554)
@example(x=3.9999999999999996)
@example(x=-33.5)
def test_hardware_gamma_family_real_draws_are_scipy_bit_for_bit(x):
    for name in GAMMA_FAMILY:
        _check_scipy_bits(name, x)


# largest error seen over 9000 points of Re in [-30, 40], |Im| <= 40 (near
# the real axis, the integers and the origin included), in units of 2^-52:
# 46 for log Gamma, Gamma and 1/Gamma, relative to max(1, |log Gamma|) (an
# error in log Gamma is a relative error of Gamma), and 4 for psi relative to
# max(1, |psi|)
GAMMA_FAMILY_COMPLEX_ULPS = {"gamma": 128, "loggamma": 128, "rgamma": 128, "digamma": 16}


def _check_against_mpmath(name, z, got):
    """``got``, the hardware value at z, against mpmath's at 30 digits."""
    if z.imag == 0 and z.real <= 0 and z.real == math.floor(z.real):
        assert repr(got) == ("0j" if name == "rgamma" else "(nan+nanj)"), (name, z)
        return
    with mpmath.workdps(30):
        w = mpmath.mpc(z)
        if name == "digamma":
            want = mpmath.psi(0, w)
            scale = max(1, abs(want))
        else:
            # the principal branch; mpmath drops the sign of a zero
            # imaginary part, which picks the side of the cut
            below = math.copysign(1.0, z.imag) < 0
            lg = mpmath.loggamma(w.conjugate() if below else w)
            lg = lg.conjugate() if below else lg
            want = {"gamma": mpmath.exp(lg), "rgamma": mpmath.exp(-lg), "loggamma": lg}[name]
            scale = max(1, abs(lg)) * (abs(want) if name != "loggamma" else 1)
        if abs(want) > sys.float_info.max:
            assert math.isinf(got.real), (name, z)
            return
        err = abs(mpmath.mpc(got) - want) / scale
    assert type(got) is complex
    assert err <= GAMMA_FAMILY_COMPLEX_ULPS[name] * 2.0 ** -52, (name, z, float(err))


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(GAMMA_FAMILY), re=st.floats(min_value=-30, max_value=40),
       im=st.floats(min_value=-40, max_value=40))
@example(name="gamma", re=0.5, im=1.0)
@example(name="loggamma", re=-2.5, im=0.3)
@example(name="loggamma", re=-2.5, im=-0.0)
@example(name="rgamma", re=30.0, im=-40.0)
@example(name="digamma", re=-1.0, im=0.0)
@example(name="gamma", re=171.7, im=0.0)
# far out on the left, where shifting up to Stirling's region would take
# a million steps
@example(name="loggamma", re=-1e6 - 0.5, im=0.0)
@example(name="digamma", re=-1e8, im=5.0)
# subnormal, where the reflection's 2 pi (z - round z) keeps only a few bits
@example(name="loggamma", re=-5e-324, im=0.0)
@example(name="loggamma", re=-5e-324, im=1e-320)
def test_hardware_gamma_family_complex_against_mpmath(name, re, im):
    z = complex(re, im)
    _check_against_mpmath(name, z, getattr(HARDWARE, name)(z))
    if name == "loggamma" and im == 0 and re <= 0:
        # a real x <= 0 has a complex log Gamma, on the side Im z = +0
        _check_against_mpmath(name, complex(re, 0.0), HARDWARE.loggamma(re))


def test_hardware_loggamma_near_its_zeros():
    # 3000 points of |Re z|, |Im z| <= 3 and one next to z = 2, where log
    # Gamma passes through its zeros at 1 and 2: within 20 units of 2^-52 of
    # mpmath relative to max(1, |log Gamma|), as scipy's loggamma stays
    rng = random.Random(4)
    points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3000)]
    worst = 0.0
    with mpmath.workdps(30):
        for z in points + [complex(1.9995, 0.0063)]:
            want = mpmath.loggamma(mpmath.mpc(z))
            err = abs(mpmath.mpc(HARDWARE.loggamma(z)) - want) / max(1, abs(want))
            worst = max(worst, float(err) / 2.0 ** -52)
    assert worst <= 20, worst


@pytest.mark.parametrize("name", GAMMA_FAMILY)
def test_hardware_gamma_family_complex_not_finite_is_nan(name):
    for z in (complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(math.nan, 0.0),
              complex(0.0, math.inf)):
        assert repr(getattr(HARDWARE, name)(z)) == "(nan+nanj)", (name, z)


def _check_psi(digits, a):
    """ExtendedContext.digamma within 4 units of 2^-prec relative to mpmath's
    psi at 64 more bits, plus twice the bits by which a nears a pole: mpmath's
    own fixed-point recurrence loses those there."""
    ctx = extended(digits)
    a = ctx.convert(a)
    pole = nearest_integer(a)
    if pole <= 0 and a == pole:
        with pytest.raises(ValueError):
            ctx.digamma(a)
        return
    ref = mpmath.mp.clone()
    near = max(0, -mpmath.mag(a - pole)) if pole <= 0 else 0
    ref.prec = ctx.prec + 64 + 2 * near
    want = ref.psi(0, ref.convert(a))
    got = ctx.digamma(a)
    assert type(got) is type(a)
    assert abs(ref.convert(got) - want) <= 4 * ref.ldexp(abs(want), -ctx.prec), (digits, a)


_psi_digits = st.sampled_from([50, 100])
_psi_re = st.floats(min_value=-30, max_value=200)


@settings(max_examples=60, deadline=None)
@given(digits=_psi_digits, re=_psi_re, im=st.floats(min_value=-40, max_value=40))
# Re a < -8, where mpmath's psi reflects
@example(digits=50, re=-17.3, im=0.2)
def test_extended_digamma_complex(digits, re, im):
    _check_psi(digits, complex(re, im))


@settings(max_examples=60, deadline=None)
@given(digits=_psi_digits, a=_psi_re)
@example(digits=50, a=-25.5)
# the double nearest psi's positive zero: the sum cancels and is redone
@example(digits=100, a=1.4616321449683622)
def test_extended_digamma_real(digits, a):
    _check_psi(digits, a)


@settings(max_examples=60, deadline=None)
@given(digits=_psi_digits, n=st.integers(min_value=0, max_value=30),
       d=st.floats(min_value=-1e-6, max_value=1e-6), im=st.sampled_from([None, 0.0, 1e-7, -3e-9]))
@example(digits=50, n=3, d=1e-30, im=None)
def test_extended_digamma_near_a_pole(digits, n, d, im):
    ctx = extended(digits)
    a = ctx.convert(-n) + ctx.convert(d)  # mpf sum: -n + d keeps d's bits
    _check_psi(digits, a if im is None else ctx._mp.mpc(a, im))
