"""Extended-precision Kummer series: the fixed-point loops against the mpf
loops they replaced, their stop rule, retry and cap, and the accuracy of
kummer_m / kummer_u and of the one-pass kummer_pair at 50 digits against
mpmath at 70 and 80."""

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitadd import special_core
from whitadd.errors import PrecisionExhausted, WhitaddError
from whitadd.identities import verify_gegenbauer_addition
from whitadd.scalar import HARDWARE, extended
from whitadd.special_core import (
    bessel_modified,
    kummer_m,
    kummer_pair,
    kummer_u,
    whittaker_m,
    whittaker_w,
)
from whitadd.summation import SeriesOptions

# relative agreement demanded at 50 digits, fixed before measuring
TOL_50 = 1e-45


def _rel(got, want) -> float:
    with mpmath.workdps(80):
        return float(abs(mpmath.mpmathify(got) - want) / abs(want))


# --- the generic mpf loops the fixed-point bodies replaced (the oracle) ------

def _mp_hyp1f1_poly(m, b, z, ctx):
    term = ctx.convert(1)
    total = term
    for k in range(m):
        term = term * (k - m) * z / ((b + k) * (k + 1))
        total = total + term
    return total


def _mp_hyp1f1_series(a, b, z, ctx):
    eps, mag = ctx.eps, ctx.mag
    term = ctx.convert(1)
    total = term
    small = 0
    for k in range(special_core.MAX_TERMS):
        term = term * (a + k) * z / ((b + k) * (k + 1))
        total = total + term
        if mag(term) <= eps * mag(total):
            small += 1
            if small >= special_core.CONSECUTIVE_SMALL:
                return total
        else:
            small = 0
    raise AssertionError("oracle series did not converge")


def _mp_log_series(a, n, z, ctx):
    eps, mag = ctx.eps, ctx.mag
    lnz = ctx.log(z)
    # mpmath's own psi: ctx.digamma is the fixed-point code under test
    psi_a, psi_1, psi_n1 = (ctx._mp.psi(0, x) for x in (a, ctx.convert(1), ctx.convert(n + 1)))
    one = ctx.convert(1)
    coeff = one
    total = coeff * (lnz + psi_a - psi_1 - psi_n1)
    small = 0
    for r in range(special_core.MAX_TERMS):
        a_r = a + r
        coeff = coeff * a_r * z / ((n + 1 + r) * (1 + r))
        psi_a = psi_a + 1 / a_r
        psi_1 = psi_1 + one / (1 + r)
        psi_n1 = psi_n1 + one / (1 + n + r)
        term = coeff * (lnz + psi_a - psi_1 - psi_n1)
        total = total + term
        if mag(term) <= eps * mag(total):
            small += 1
            if small >= special_core.CONSECUTIVE_SMALL:
                return total
        else:
            small = 0
    raise AssertionError("oracle log series did not converge")


# (a, b, z) with little cancellation, so the oracle keeps its 50 digits
SERIES_CASES = [(0.37, 1.7, 10.0), (2.5, 0.6, 3.3), (0.37 + 0.5j, 1.7, 10.0),
                (1.2, 2.5 - 0.4j, 4.0), (0.8, 1.9, 6.0 + 2.0j), (3.0, 7.5, 0.02)]
POLY_CASES = [(6, 1.5, -2.5), (12, 0.75 + 0.5j, -4.0), (3, 2.0, 0.25)]
LOG_CASES = [(2.5, 0, 0.7), (1.3, 1, 2.0), (0.6 + 0.3j, 2, 1.5), (4.2, 5, 6.0)]


def _series(ctx, a, b, z):
    return special_core._hyp1f1_series(ctx.convert(a), ctx.convert(b), ctx.convert(z), ctx)


def _log_series(ctx, a, n, z):
    return special_core._fixed_point(special_core._log_series_fixed,
                                     (ctx.convert(a), n, ctx.convert(z), False), ctx)[0]


@pytest.mark.parametrize("a, b, z", SERIES_CASES)
def test_fixed_1f1_matches_the_mpf_loop(a, b, z):
    ctx = extended(50)
    want = _mp_hyp1f1_series(ctx.convert(a), ctx.convert(b), ctx.convert(z), ctx)
    got = _series(ctx, a, b, z)
    assert type(got) is type(want)
    assert _rel(got, want) <= TOL_50


@pytest.mark.parametrize("m, b, z", POLY_CASES)
def test_fixed_poly_matches_the_mpf_loop(m, b, z):
    ctx = extended(50)
    b, z = ctx.convert(b), ctx.convert(z)
    assert _rel(special_core._hyp1f1_poly(m, b, z, ctx), _mp_hyp1f1_poly(m, b, z, ctx)) <= TOL_50


@pytest.mark.parametrize("a, n, z", LOG_CASES)
def test_fixed_log_series_matches_the_mpf_loop(a, n, z):
    ctx = extended(50)
    want = _mp_log_series(ctx.convert(a), n, ctx.convert(z), ctx)
    assert _rel(_log_series(ctx, a, n, z), want) <= TOL_50


def test_fixed_loops_sum_to_the_working_precision():
    # inside extra_digits the loops owe the raised precision, not ctx.eps:
    # the mpf oracle at 80 digits is the reference, 1e-72 the bound
    ctx, ref = extended(50), extended(80)
    with ctx.extra_digits(25):
        for a, b, z in SERIES_CASES[:3]:
            want = _mp_hyp1f1_series(ref.convert(a), ref.convert(b), ref.convert(z), ref)
            assert _rel(_series(ctx, a, b, z), want) <= 1e-72, (a, b, z)
        for a, n, z in LOG_CASES[:3]:
            want = _mp_log_series(ref.convert(a), n, ref.convert(z), ref)
            assert _rel(_log_series(ctx, a, n, z), want) <= 1e-72, (a, n, z)


def _record_wp(monkeypatch):
    seen = []
    body = special_core._hyp1f1_fixed

    def recording(*args):
        out = body(*args)
        seen.append(args[-1])  # wp
        return out

    monkeypatch.setattr(special_core, "_hyp1f1_fixed", recording)
    return seen


def test_cancelling_series_is_summed_again_with_more_guard(monkeypatch):
    # 1F1(-20.5; 1.5; 30) cancels about 40 bits, more than GUARD_BITS
    seen = _record_wp(monkeypatch)
    got = kummer_m(-20.5, 1.5, 30.0, ctx=extended(50))
    assert len(seen) == 2 and seen[1] > seen[0]
    with mpmath.workdps(70):
        assert _rel(got, mpmath.hyp1f1(-20.5, 1.5, 30)) <= TOL_50


def test_guard_cap_raises_precision_exhausted(monkeypatch):
    monkeypatch.setattr(special_core, "MAX_GUARD_BITS", special_core.GUARD_BITS + 8)
    with pytest.raises(PrecisionExhausted):
        kummer_m(-20.5, 1.5, 30.0, ctx=extended(50))


# --- kummer_m / kummer_u at 50 digits over a wide domain --------------------

_real = st.floats(min_value=-8, max_value=8)
_param_a = st.one_of(_real, st.builds(complex, _real, st.floats(min_value=-2, max_value=2)))
_param_b = st.one_of(st.floats(min_value=0.2, max_value=8).filter(lambda b: b > 0.2),
                     st.integers(min_value=1, max_value=8).map(float))
_arg_z = st.floats(min_value=0.1, max_value=30).filter(lambda z: z > 0.1)


def _check_50_digits(fn, ref, a, b, z):
    try:
        got = fn(a, b, z, ctx=extended(50))
    except WhitaddError:
        return
    with mpmath.workdps(70):
        want = ref(mpmath.mpmathify(a), mpmath.mpf(b), mpmath.mpf(z))
    assert _rel(got, want) <= TOL_50, f"{fn.__name__}({a!r}, {b!r}, {z!r})"


@settings(max_examples=25, deadline=None)
@given(a=_param_a, b=_param_b, z=_arg_z)
@example(a=-7.572851285404717, b=4.929439658482908, z=17.320993146143067)
# within 1e-12 of -2, which used to select the terminating polynomial
@example(a=-1.9999999999999991, b=1.0, z=1.0)
# within the context's eps of 0, which took the polynomial and returned 1
@example(a=4.689370205157982e-52, b=1.0, z=18.0)
def test_extended_kummer_m_keeps_50_digits(a, b, z):
    _check_50_digits(kummer_m, mpmath.hyp1f1, a, b, z)


@settings(max_examples=25, deadline=None)
@given(a=_param_a, b=_param_b, z=_arg_z)
# the 1F1 loops stopped at ctx.eps and left 4.4e-30 here
@example(a=6.954274660239715 + 0.20876428328904462j, b=3.529202139198231, z=23.877086797110653)
# the reflection's two parts cancel past their initial guard digits
@example(a=8.0, b=0.2, z=30.0)
@example(a=8.0 + 2.0j, b=0.7, z=30.0)
@example(a=7.555740879603491, b=2.0218545499464087, z=25.956824643626646)
@example(a=8.0, b=8.0, z=30.0)
# the log case formed a - 1 at the working precision, leaving 3.6e-14
@example(a=5.014099354713429e-49, b=2.0, z=1.0)
def test_extended_kummer_u_keeps_50_digits(a, b, z):
    _check_50_digits(kummer_u, mpmath.hyperu, a, b, z)


@pytest.mark.parametrize("a, n, z", [(0.37 + 0.5j, 1, 10.0), (2.6 - 3.1j, 0, 0.8),
                                     (-7.3 + 0.4j, 3, 4.5)])
def test_complex_log_case_never_calls_mpmath_psi(monkeypatch, a, n, z):
    # mpmath's complex psi costs 5-10 times the fixed-point one in ExtendedContext
    ctx, bodies = extended(50), []

    def refuse(*args, **kwargs):
        raise AssertionError("reached mpmath's psi")

    monkeypatch.setattr(ctx._mp, "psi", refuse)
    monkeypatch.setattr(ctx._mp, "digamma", refuse)
    body = special_core._log_series_fixed
    monkeypatch.setattr(special_core, "_log_series_fixed",
                        lambda *args: bodies.append(args) or body(*args))
    got = kummer_u(a, n + 1, z, ctx=ctx)
    assert bodies, "U did not take the logarithmic case"
    monkeypatch.undo()
    with mpmath.workdps(70):
        want = mpmath.hyperu(mpmath.mpmathify(a), n + 1, z)
    assert _rel(got, want) <= TOL_50


@pytest.mark.parametrize("z", [5.0, 20.0])
def test_terminating_whittaker_m_keeps_50_digits(z):
    # M_{41,1/2} sums the terminating 1F1(-40; 2; z), which cancels at large z
    got = whittaker_m((41, 0.5), z, ctx=extended(50))
    with mpmath.workdps(70):
        assert _rel(got, mpmath.whitm(41, 0.5, z)) <= TOL_50


@pytest.mark.parametrize("z", [0.5, 3.7, 25.0])
def test_empty_terminating_sum_keeps_50_digits(z):
    # U(1, 2, z) = 1/z takes the terminating 1F1(0; 0; z): the empty sum,
    # whose b = 0 has no bits for the fixed-point body to count as lost
    ctx = extended(50)
    with mpmath.workdps(70):
        zz = mpmath.mpf(z)
        assert _rel(kummer_u(1, 2, z, ctx=ctx), mpmath.hyperu(1, 2, zz)) <= TOL_50
        assert _rel(whittaker_w((0, 0.5), z, ctx=ctx), mpmath.exp(-zz / 2)) <= TOL_50
        assert _rel(bessel_modified(0.5, z, "K", ctx=ctx), mpmath.besselk(0.5, zz)) <= TOL_50
    rep = verify_gegenbauer_addition(0.5, 0.5, z + 1, 1.0,
                                     opts=SeriesOptions(rel_tol=1e-46, precision=("extended", 50)))
    assert rep.rel_err <= TOL_50
    # on hardware the early return gives the loop's own 1.0
    assert special_core._hyp1f1_poly(0, 0.0, z, HARDWARE) == 1.0


# --- the contiguous pair in one pass -----------------------------------------

_pair_b = st.integers(min_value=1, max_value=6).map(float)
_pair_z = st.floats(min_value=0.05, max_value=20).filter(lambda z: z > 0.05)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from("MW"), a=_param_a, b=_pair_b, z=_pair_z)
@example(kind="M", a=1e-40, b=2.0, z=3.0)  # the partner sum is ~a: summed again
@example(kind="W", a=-8.881784197001252e-16, b=6.0, z=3.0)  # c_r stuck at -1
@example(kind="M", a=-1e-20, b=2.0, z=3.0)
@example(kind="W", a=0.4 + 0.3j, b=2.0, z=3.0)
def test_kummer_pair_keeps_50_digits(kind, a, b, z):
    # both members against mpmath at 80 digits, or a typed refusal
    try:
        got = kummer_pair(kind, a, b, z, ctx=extended(50))
    except WhitaddError:
        return
    ref = mpmath.hyp1f1 if kind == "M" else mpmath.hyperu
    with mpmath.workdps(80):
        aa = mpmath.mpmathify(a)
        want = (ref(aa, b, mpmath.mpf(z)), ref(aa + 1, b + 1, mpmath.mpf(z)))
    for member, value, ref_value in zip("fg", got, want):
        assert _rel(value, ref_value) <= TOL_50, (member, kind, a, b, z)


@pytest.mark.parametrize("kind, a, b", [("M", 1.3, 2.5), ("M", 0.4 - 0.7j, 3.0),
                                        ("W", 1.3, 2.0), ("W", -2.6 + 0.5j, 4.0)])
def test_kummer_pair_takes_one_pass(monkeypatch, kind, a, b):
    # the 1F1 series and U's log case: one fixed-point body call, no
    # kummer_m or kummer_u; on hardware the pair is the two calls, bit for bit
    calls = []
    for name in ("kummer_m", "kummer_u", "_hyp1f1_fixed", "_log_series_fixed"):
        fn = getattr(special_core, name)
        monkeypatch.setattr(special_core, name,
                            lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
    kummer_pair(kind, a, b, 4.0, ctx=extended(50))
    assert calls == ["_hyp1f1_fixed" if kind == "M" else "_log_series_fixed"]
    monkeypatch.undo()
    single = kummer_m if kind == "M" else kummer_u
    assert kummer_pair(kind, a, b, 4.0) == (single(a, b, 4.0), single(a + 1, b + 1, 4.0))


def test_kummer_pair_other_routes_take_two_calls():
    # reflection (non-integer b) and a terminating U: the pair is the two calls
    ctx = extended(50)
    for a, b in ((1.3, 2.5), (-3.0, 2.0), (1.0, 2.0)):
        a, b = ctx.convert(a), ctx.convert(b)
        assert kummer_pair("W", a, b, 4.0, ctx=ctx) == (
            kummer_u(a, b, 4.0, ctx=ctx), kummer_u(a + 1, b + 1, 4.0, ctx=ctx))
