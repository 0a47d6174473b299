"""The order ladder behind every partial-wave series, against routes that do
not use it: mpmath's whitm/whitw, and one direct evaluation per order."""

import itertools
import math

import mpmath
import pytest

from whitadd import identities, special_core
from whitadd.errors import NoConvergence
from whitadd.green import CoulombParams, SphericalPoint, partial_wave_green
from whitadd.identities import (_mu_ladder, geometry_from, hostler_bracket, verify_gamma_pi,
                                verify_gamma_zero, verify_gegenbauer_addition, verify_graf_2d,
                                verify_whittaker_addition)
from whitadd.scalar import HARDWARE, extended
from whitadd.special_core import whittaker_m, whittaker_w
from whitadd.summation import SeriesOptions

KAPPAS = (-2.5, 0.3, 3.7, complex(0.4, -0.9))
ARGS = (0.2, 5.0, 40.0, 150.0)
ORDERS = 60


def _w_orders(z):
    # mpmath's whitw costs up to 0.6 s a call at z = 150, so the recurred W
    # is checked just past the turning index, where forward steps have lost
    # the most, and at the top of the run
    return (math.ceil(math.sqrt(z)) + 1, ORDERS - 1)


@pytest.fixture(scope="module")
def references():
    """(kappa, z) -> ({order: M}, {order: W}) from mpmath at 60 digits."""
    refs = {}
    with mpmath.workdps(60):
        half = mpmath.mpf(1) / 2
        for kappa, z in itertools.product(KAPPAS, ARGS):
            k = mpmath.mpmathify(kappa)
            m = {l: mpmath.whitm(k, l + half, z) for l in range(ORDERS)}
            w = {l: mpmath.whitw(k, l + half, z) for l in _w_orders(z)}
            refs[kappa, z] = (m, w)
    return refs


def _run(kind, kappa, z, ctx):
    half = ctx.convert(1) / 2
    return list(itertools.islice(
        _mu_ladder(kind, ctx.convert(kappa), half, ctx.convert(z), ctx), ORDERS))


def _gap(value, ref) -> float:
    with mpmath.workdps(60):
        return float(abs(mpmath.mpmathify(value) - ref) / abs(ref))


def _per_order(kind, k, mu0, z, ctx):
    """Drop-in for _mu_ladder that evaluates every order directly."""
    fn = whittaker_m if kind == "M" else whittaker_w
    for ell in itertools.count():
        yield fn((k, mu0 + ell), z, ctx=ctx)


def _per_order_ratios(kind, k, mu0, z, ctx, wp):
    """Drop-in for _fixed_ladder whose ratios are quotients of direct values."""
    values = _per_order(kind, k, mu0, z, ctx)
    first = next(values)

    def ratios(prev):
        for v in values:
            with ctx.workprec(wp):
                re, im = ctx.fixed(v / prev, wp)
            yield re, im or 0
            prev = v
    return first, ratios(first)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_ladder_extended_accuracy(kappa, references):
    ctx = extended(50)
    for z in ARGS:
        m_ref, w_ref = references[kappa, z]
        ms, ws = _run("M", kappa, z, ctx), _run("W", kappa, z, ctx)
        m_gap = max(_gap(ms[l], ref) for l, ref in m_ref.items())
        w_gap = max(_gap(ws[l], ref) for l, ref in w_ref.items())
        assert m_gap < 1e-49, f"M kappa={kappa} z={z}: {m_gap:.2e}"
        # the direct W seeds themselves lose digits at large z (W below
        # 1e-38 at z = 150 is not guaranteed even per order)
        w_tol = 1e-45 if z <= 40 else 1e-42
        assert w_gap < w_tol, f"W kappa={kappa} z={z}: {w_gap:.2e}"


@pytest.mark.parametrize("kappa", KAPPAS)
def test_ladder_hardware_no_worse_than_per_order(kappa):
    # the reference is the 50-digit run, held to mpmath by the test above.  A
    # run is as good as its seeds: a seed off by 1e-10 (ROADMAP item 2)
    # carries into every recurred order, so runs are compared worst to worst
    ctx = extended(50)
    for z in ARGS:
        for kind, fn in (("M", whittaker_m), ("W", whittaker_w)):
            refs = _run(kind, kappa, z, ctx)
            run = _run(kind, kappa, z, HARDWARE)
            ladder = max(_gap(run[l], ref) for l, ref in enumerate(refs))
            direct = max(_gap(fn((kappa, l + 0.5), z), ref) for l, ref in enumerate(refs))
            assert ladder <= 10 * direct + 1e-13, (
                f"{kind} kappa={kappa} z={z}: ladder {ladder:.2e}, per order {direct:.2e}")


@pytest.mark.parametrize("kappa", [1 + 1.1e-3, 2 - 1.1e-3, 2 + 1.1e-3, 3 + 1e-7])
def test_w_ladder_steps_over_the_pole(kappa):
    # the forward W step divides by nu+1-kappa; stepping through it would
    # lose log10(1/|kappa-n|) digits from order n+1/2 on
    ctx = extended(50)
    ws = _run("W", kappa, 3.0, ctx)
    with mpmath.workdps(60):
        for l in range(8):
            ref = mpmath.whitw(kappa, l + mpmath.mpf(1) / 2, 3)
            assert _gap(ws[l], ref) < 1e-49, f"l={l}"


def _residual(rep) -> float:
    with mpmath.workdps(60):
        return float(abs(mpmath.mpmathify(rep.lhs) - rep.rhs) / abs(rep.rhs))


@pytest.mark.parametrize("n, precision", [(1, "hardware"), (2, "hardware"), (3, "hardware"),
                                          (2, ("extended", 30))])
def test_addition_near_pole_no_worse_than_per_order(n, precision, monkeypatch):
    geo = geometry_from(3.0, 1.4, 0.6)
    opts = SeriesOptions(precision=precision,
                         rel_tol=1e-12 if precision == "hardware" else 1e-29)
    floor = 1e-15 if precision == "hardware" else 1e-29
    # the terms read _mu_ladder on hardware and _fixed_ladder's ratios on an
    # extended context; each is replaced by direct evaluations per order
    seam, per_order = (("_mu_ladder", _per_order) if precision == "hardware"
                       else ("_fixed_ladder", _per_order_ratios))
    for kappa in (n - 1.1e-3, n + 1.1e-3):
        ladder = _residual(verify_whittaker_addition(kappa, geo, opts=opts))
        with monkeypatch.context() as patch:
            patch.setattr(identities, seam, per_order)
            direct = _residual(verify_whittaker_addition(kappa, geo, opts=opts))
        assert ladder <= 10 * max(direct, floor), (
            f"kappa={kappa}: ladder {ladder:.2e}, per order {direct:.2e}")


def test_hardware_m_ratio_run_underflows_like_the_direct_values():
    # M ~ z^(l+1): at z = 1e-3 the values leave the normal doubles near
    # order 100, inside a run of ratios; the product M_(l-1) rho_l must stay
    # accurate while the direct value is normal and then underflow gradually,
    # not flush a whole run to zero
    run = list(itertools.islice(_mu_ladder("M", 0.3, 0.5, 1e-3, HARDWARE), 130))
    normal = 0
    for l, value in enumerate(run):
        direct = whittaker_m((0.3, l + 0.5), 1e-3)
        if abs(direct) >= 2.2250738585072014e-308:
            normal += 1
            assert abs(value - direct) <= 1e-13 * abs(direct), f"l={l}"
    assert 100 < normal < 130


# a_j = nu((nu+1)^2 - k^2)/((nu+1)(2nu+3)) vanishes at kappa = mu0 + j + 1/2:
# at z = 3 (l_t = 2) j = 5 lies inside the first run of ratios; at z = 0.2
# (l_t = 1) j = M_RATIO_RUN is the top of that run, where the continued
# fraction starts, and j = M_RATIO_RUN + 1 its next partial numerator.  The
# direct orders below j are terminating 1F1 polynomials that cancel, so z
# stays small enough for them to keep 50 digits
@pytest.mark.parametrize("kappa, mu0, z", [
    (6, 0.5, 3.0), (7.25, 0.75, 3.0),
    (identities.M_RATIO_RUN + 1, 0.5, 0.2), (identities.M_RATIO_RUN + 2, 0.5, 0.2)])
def test_m_ladder_where_a_recurrence_coefficient_vanishes(kappa, mu0, z):
    ctx = extended(50)
    run = list(itertools.islice(
        _mu_ladder("M", ctx.convert(kappa), ctx.convert(mu0), ctx.convert(z), ctx), ORDERS))
    with mpmath.workdps(60):
        for l, value in enumerate(run):
            ref = mpmath.whitm(kappa, mpmath.mpf(mu0) + l, z)
            assert _gap(value, ref) < 1e-49, f"l={l}"


def test_work_per_point(monkeypatch):
    # the Hostler bracket takes (W, W') and (M, M') from one Kummer pair each:
    # two Kummer calls each on hardware, one fixed-point pass each at extended
    # precision; the partial-wave sum evaluates M directly only below l_t
    calls = {"kummer_m": 0, "kummer_u": 0, "kummer_pair": 0}

    def counted(name):
        fn = getattr(special_core, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(special_core, name, counted(name))
    for ctx, kummer_calls in ((HARDWARE, 2), (extended(30), 0)):
        for kappa, x_half, y_half in ((0.3, 4.2, 1.1), (-1.7, 9.5, 0.02), (2.6, 20.0, 6.0)):
            calls.update(kummer_m=0, kummer_u=0, kummer_pair=0)
            hostler_bracket(ctx.convert(kappa), ctx.convert(x_half), ctx.convert(y_half), ctx)
            assert calls == {"kummer_m": kummer_calls, "kummer_u": kummer_calls,
                             "kummer_pair": 2}, (kappa, ctx.kind)

    direct_orders = []

    def whittaker_m_counted(order, r, ctx=None):
        direct_orders.append(order[1])
        return whittaker_m(order, r, ctx=ctx)

    monkeypatch.setattr(identities, "whittaker_m", whittaker_m_counted)
    for g, k, r, r0 in ((1.0, 0.8, 3.0, 1.2), (0.3, 2.4, 7.5, 5.1), (2.2, 0.35, 0.9, 0.4)):
        direct_orders.clear()
        p = SphericalPoint(r, 0.7, 0.1)
        p0 = SphericalPoint(r0, 1.9, 2.3)
        try:
            partial_wave_green(CoulombParams(g, k), p, p0)
        except NoConvergence:
            pass
        ell_t = math.ceil(math.sqrt(2 * k * min(r, r0)))
        assert direct_orders == [l + 0.5 for l in range(ell_t)], (g, k, r, r0)


@pytest.mark.parametrize("r0, r", [(2.0, 2.1), (0.05, 0.055), (30.0, 40.0)])
def test_overflowing_w_ladder_is_no_convergence(r0, r):
    # nearly equal radii, or radii large enough that the terms leave the
    # double range at l = 139 (r0 = 30, r = 40): the forward W run overflows
    # before the (r0/r)^l decay meets tolerance, and the sum must refuse,
    # not truncate, in the full form and in its gamma = 0 and gamma = pi forms
    with pytest.raises(NoConvergence):
        verify_whittaker_addition(0.3, geometry_from(r, r0, 1.0))
    with pytest.raises(NoConvergence):
        verify_gamma_zero(0.3, r0, r)
    with pytest.raises(NoConvergence):
        verify_gamma_pi(0.3, r0, r)


@pytest.mark.parametrize("nu0", [0, 0.5, 1, 2.5])
def test_bessel_products_keep_50_digits(nu0):
    # I_{nu0+n}(v) K_{nu0+n}(u) from the kappa = 0 ladders against mpmath's
    # Bessel functions, which share no code with them
    ctx = extended(50)
    for v, u in ((0.375, 1.25), (2.0, 3.0), (19.0, 20.0)):
        run = list(itertools.islice(identities._bessel_terms(
            ctx.convert(nu0), ctx.convert(v), ctx.convert(u), itertools.repeat(1), ctx), ORDERS))
        with mpmath.workdps(60):
            for n in (0, 1, 5, 20, ORDERS - 1):
                nu = mpmath.mpf(nu0) + n
                ref = mpmath.besseli(nu, v) * mpmath.besselk(nu, u)
                assert _gap(run[n], ref) < 1e-49, f"v={v} u={u} n={n}"


def test_bessel_sums_call_bessel_modified_only_for_the_closed_side(monkeypatch):
    calls = []

    def counted(nu, z, kind, ctx=None):
        calls.append((nu, kind))
        return special_core.bessel_modified(nu, z, kind, ctx=ctx)

    monkeypatch.setattr(identities, "bessel_modified", counted)
    for opts in (SeriesOptions(), SeriesOptions(rel_tol=1e-28, precision=("extended", 30))):
        calls.clear()
        assert verify_graf_2d(1.0, 1.0, 3.0, 2.0, opts=opts).rel_err < 1e-12
        assert calls == [(0, "K")]
        calls.clear()
        assert verify_gegenbauer_addition(1, 1.0, 4.0, 1.2, opts=opts).rel_err < 1e-12
        assert calls == [(1, "K")]


TERM_KAPPAS = (-1.7, 0.3, complex(0.4, -0.9))
TERM_MUS = (0.5, 0.8, complex(2.2, 0.7))
TERM_RADII = ((1e-3, 0.5), (1.5, 4.0), (2.9, 3.1))
TERM_COSINES = (-1.0, 0.3, 1.0)
TERM_ORDERS = 60

# (kappa, mu values, (r0, r) pairs, with W or not): the generic grid, then
# the cases where the integer ladders take their special steps, each at one mu
# and one pair.  a' vanishes at kappa = mu + j + 1/2, and the coefficients
# with it from order j + 1 on: at r0 = 3 (l_t = 2) j = 5 and 6 lie inside the
# first run of M ratios; at r0 = 0.2 (l_t = 1) j = M_RATIO_RUN is the top of
# that run, where the continued fraction starts, and j = M_RATIO_RUN + 1 its
# next partial numerator.  Below order j W is then the recessive solution, and
# at r = 0.5 with j = 32 no forward run can follow it: those two go without W.
# Near kappa = mu + l + 1/2 the forward W step divides by almost zero and is
# taken directly; 1e-15 from it the recurrence would lose 15 of the ladder's
# digits
BOTH = (True, False)
TERM_CASES = [(kappa, TERM_MUS, TERM_RADII, BOTH) for kappa in TERM_KAPPAS] + [
    (6, (0.5,), ((3.0, 3.5),), BOTH), (7.25, (0.75,), ((3.0, 3.5),), BOTH),
    (identities.M_RATIO_RUN + 1, (0.5,), ((0.2, 0.5),), (False,)),
    (identities.M_RATIO_RUN + 2, (0.5,), ((0.2, 0.5),), (False,)),
    (2 + 1.1e-3, (0.5,), ((1.4, 3.0),), BOTH), (3 + 1e-15, (0.5,), ((1.4, 3.0),), BOTH)]


@pytest.fixture(scope="module")
def term_factors():
    """(kappa, mu, r0, r) -> (M_{k,mu+l}(r0), W_{k,mu+l}(r)) for l <
    TERM_ORDERS from mpmath at 60 digits.  M is mpmath's whitm per order.
    whitw costs about 30 ms a call at these orders, so W is mpmath's whitw at
    l = 0 and 1 carried up by its forward recurrence at 120 digits (the
    dominant direction, where the extra digits are not needed but cost
    nothing), and held to whitw at two higher orders below; None for the
    cases without W."""
    refs = {}
    cases = ((kappa, mu, radii, with_ws) for kappa, mus, pairs, with_ws in TERM_CASES
             for mu, radii in itertools.product(mus, pairs))
    for kappa, mu, (r0, r), with_ws in cases:
        with mpmath.workdps(60):
            k, m = mpmath.mpmathify(kappa), mpmath.mpmathify(mu)
            mv = [mpmath.whitm(k, m + ell, r0) for ell in range(TERM_ORDERS)]
        refs[kappa, mu, r0, r] = (mv, None)
        if True not in with_ws:
            continue
        with mpmath.workdps(120):
            k, m, z = mpmath.mpmathify(kappa), mpmath.mpmathify(mu), mpmath.mpf(r)
            w = [mpmath.whitw(k, m, z), mpmath.whitw(k, m + 1, z)]
            for ell in range(1, TERM_ORDERS):
                nu = m + ell - mpmath.mpf(1) / 2
                if nu + 1 == k:  # the step's divisor vanishes
                    w.append(mpmath.whitw(k, nu + mpmath.mpf(3) / 2, z))
                    continue
                w.append(((2 * nu + 1) * (2 * nu * (nu + 1) / z - k) * w[ell]
                          + (nu + 1) * (nu + k) * w[ell - 1]) / (nu * (nu + 1 - k)))
        with mpmath.workdps(60):
            for ell in (TERM_ORDERS // 2, TERM_ORDERS - 1):
                direct = mpmath.whitw(k, m + ell, z)
                assert abs(w[ell] - direct) <= 1e-55 * abs(direct), (kappa, mu, r, ell)
        refs[kappa, mu, r0, r] = (mv, w)
    return refs


@pytest.fixture(scope="module")
def gegenbauer_values():
    """(mu, x) -> C_l^{(mu)}(x) for l < TERM_ORDERS from mpmath at 60 digits."""
    with mpmath.workdps(60):
        return {(mu, x): [mpmath.gegenbauer(ell, mpmath.mpmathify(mu), x)
                          for ell in range(TERM_ORDERS)]
                for mu, x in itertools.product({mu for case in TERM_CASES for mu in case[1]},
                                               TERM_COSINES)}


@pytest.mark.parametrize("kappa, mus, radii, with_ws", TERM_CASES,
                         ids=[str(case[0]) for case in TERM_CASES])
def test_extended_addition_terms_match_per_order_products(kappa, mus, radii, with_ws,
                                                          term_factors, gegenbauer_values):
    # (1/(r r0)) (mu+first-k+1/2)_{l-first}/(2mu)_{2l} M_{k,mu+l}(r0)
    # W_{k,mu+l}(r) C_l^{(mu)}(x), every factor from mpmath per order, against
    # the integer-built terms, with and without W; mu = 1/2 is the addition
    # theorem, x = +-1 the pi form.  A vanishing coefficient must give an
    # exact zero
    ctx = extended(50)
    with mpmath.workdps(60):
        k, half = mpmath.mpmathify(kappa), mpmath.mpf(1) / 2
        coeffs = {}
        for mu, first in itertools.product(mus, (0, 1, 2)):
            m = mpmath.mpmathify(mu)
            coeffs[mu, first] = [
                mpmath.rf(m + first - k + half, ell - first) / mpmath.rf(2 * m, 2 * ell)
                for ell in range(TERM_ORDERS)]
    cases = itertools.product(mus, with_ws, (0, 1, 2), TERM_COSINES, radii)
    for mu, with_w, first, x, (r0, r) in cases:
        scale = 1 / (ctx.convert(r) * ctx.convert(r0))
        terms = identities._gegenbauer_terms(
            ctx.convert(kappa), ctx.convert(mu), ctx.convert(x), scale, ctx.convert(r0),
            ctx.convert(r) if with_w else None, first, ctx)
        got = list(itertools.islice(terms, TERM_ORDERS - first))
        mv, wv = term_factors[kappa, mu, r0, r]
        with mpmath.workdps(60):
            for ell, value in enumerate(got, start=first):
                ref = (coeffs[mu, first][ell] / r / r0 * mv[ell] * gegenbauer_values[mu, x][ell]
                       * (wv[ell] if with_w else 1))
                assert value == 0 if ref == 0 else _gap(value, ref) < 1e-48, (
                    mu, with_w, first, x, r0, r, ell)


@pytest.mark.parametrize("kappa", (0.3, complex(0.4, -0.9)))
def test_extended_addition_terms_hold_past_order_1000(kappa):
    # M_l/M_{l-1} tends to r0 and W_l/W_{l-1} grows like 4 l^2/r, so a long
    # run loses no bits to the size of its ratios; the terms at l = 1000 and
    # 2000 carry the roundings of every step before them
    ctx = extended(50)
    r0, r, cos_g = 1.5, 1.6, 0.3
    geo = identities.geometry_from_cosine(r, r0, cos_g)
    terms = list(itertools.islice(
        identities.addition_terms(kappa, geo, normalized=False)(ctx), 2001))
    with mpmath.workdps(60):
        k, half = mpmath.mpmathify(kappa), mpmath.mpf(1) / 2
        for ell in (1000, 2000):
            ref = (mpmath.gamma(ell + 1 - k) / mpmath.factorial(2 * ell) / r / r0
                   * mpmath.whitm(k, ell + half, r0) * mpmath.whitw(k, ell + half, r)
                   * mpmath.legendre(ell, cos_g))
            assert _gap(terms[ell], ref) < 1e-48, ell


def test_pi_terms_carry_a_complex_order_at_extended_precision():
    # the ladders step nu = mu + l with the imaginary part of mu: every term
    # against mpmath per order
    kappa, mu, r0, r = 0.9, complex(2.2, 0.7), 1.0, 3.0
    lmax = 60
    terms = identities.pi_addition_terms(kappa, mu, r0, r, lmax, ctx=extended(50))
    with mpmath.workdps(60):
        k, m = mpmath.mpf(kappa), mpmath.mpmathify(mu)
        pref = (mpmath.power(mpmath.mpf(r + r0) / (r * r0), m + mpmath.mpf(1) / 2)
                / mpmath.whitw(k, m, r + r0))
        for ell, value in enumerate(terms):
            ref = (pref * mpmath.rf(m - k + mpmath.mpf(1) / 2, ell)
                   / (mpmath.rf(ell + 2 * m, ell) * mpmath.factorial(ell))
                   * mpmath.whitm(k, m + ell, r0) * mpmath.whitw(k, m + ell, r))
            assert _gap(value, ref) < 1e-47, ell


# --- the W seeds from one Kummer pair, and the real steps ----------------------

@pytest.mark.parametrize("kappa, mu", [(0.3, 0.5), (-1.7, 1.5), (2.3, 0.5),
                                       (complex(0.4, -0.9), 0.5), (complex(-1.2, 0.6), 2.5)])
def test_w_seeds_satisfy_the_contiguous_relation(kappa, mu):
    # W_{k,mu+1} = W_{k,mu} + (2mu+1) e^{-z/2} z^{mu+1/2} U(a+1, b+1, z):
    # the ratio less one against mpmath's whitw at 80 digits
    ctx = extended(50)
    for z in (0.4, 3.0, 17.0):
        w, step = special_core.whittaker_w_seeds((kappa, mu), z, ctx=ctx)
        with mpmath.workdps(80):
            k, m = mpmath.mpmathify(kappa), mpmath.mpf(mu)
            w0, w1 = mpmath.whitw(k, m, z), mpmath.whitw(k, m + 1, z)
            assert _gap(w, w0) < 1e-48, z
            assert abs(step - (w1 / w0 - 1)) < 1e-48 * abs(w1 / w0), z


# W_{2.3,3/2} vanishes at z ~= 1.688134: there W_1/W_0 = 1 + s cancels all the
# bits of s, and the ladder evaluates W_1 directly.  A ratio is a fixed-point
# number, so it is held to the working precision relative to 1 where it is
# below 1
W1_ZERO = (2.3, 1.688134022459946)


@pytest.mark.parametrize("kappa, z", [(2.3, 3.0), (complex(0.4, -0.9), 3.0), W1_ZERO,
                                      (complex(2.3, 1e-9), W1_ZERO[1])])
def test_w_ladder_seed_ratio_keeps_the_working_precision(monkeypatch, kappa, z):
    direct = []

    def counted(order, r, ctx=None):
        direct.append(order)
        return whittaker_w(order, r, ctx=ctx)

    monkeypatch.setattr(identities, "whittaker_w", counted)
    ctx = extended(50)
    wp = ctx.prec + identities.LADDER_GUARD_BITS
    k, mu0, zz = ctx.convert(kappa), ctx.convert(0.5), ctx.convert(z)
    seed, ratios = identities._fixed_ladder("W", k, mu0, zz, ctx, wp)
    sigma = ctx.from_fixed(*next(ratios), wp)
    with mpmath.workdps(60):  # whitw costs seconds at 80 digits next to its zero
        kk = mpmath.mpmathify(kappa)
        want = mpmath.whitw(kk, 1.5, z) / mpmath.whitw(kk, 0.5, z)
        assert abs(sigma - want) < 1e-48 * max(1, abs(want))
    assert len(direct) == ((kappa, z) in (W1_ZERO, (complex(2.3, 1e-9), W1_ZERO[1])))


@pytest.mark.parametrize("kappa, mus, radii, with_ws", [
    case for case in TERM_CASES if not isinstance(case[0], complex)],
    ids=[str(case[0]) for case in TERM_CASES if not isinstance(case[0], complex)])
def test_real_term_steps_are_the_complex_steps(kappa, mus, radii, with_ws):
    # every real input, once as it is and once with kappa an mpc of zero
    # imaginary part: the real steps drop only products with an exact zero
    # factor, so the terms are the same numbers, guarded W steps included
    ctx = extended(50)
    for mu, with_w, first, x, (r0, r) in itertools.product(
            [m for m in mus if not isinstance(m, complex)], with_ws, (0, 1), TERM_COSINES,
            radii):
        runs = []
        for k in (ctx.convert(kappa), ctx.convert(complex(kappa, 0.0))):
            scale = 1 / (ctx.convert(r) * ctx.convert(r0))
            runs.append(list(itertools.islice(identities._fixed_terms(
                k, ctx.convert(mu), ctx.convert(x), scale, ctx.convert(r0),
                ctx.convert(r) if with_w else None, first, ctx), 40)))
        real, cplx = runs
        assert all(getattr(t, "_mpc_", None) is None for t in real)
        assert [c.imag for c in cplx] == [0] * len(cplx)
        assert real == [c.real for c in cplx], (kappa, mu, with_w, first, x, r0, r)
    # the terms round to the context; the ladders' own integers agree too
    wp = ctx.prec + identities.LADDER_GUARD_BITS
    for kind, mu, (r0, r) in itertools.product(
            "MW", [m for m in mus if not isinstance(m, complex)], radii):
        if kind == "W" and True not in with_ws:
            continue
        z = ctx.convert(r0 if kind == "M" else r)
        runs = [list(itertools.islice(identities._fixed_ladder(
            kind, k, ctx.convert(mu), z, ctx, wp)[1], 40))
            for k in (ctx.convert(kappa), ctx.convert(complex(kappa, 0.0)))]
        assert runs[0] == runs[1], (kind, kappa, mu, r0, r)
