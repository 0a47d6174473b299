"""Machine verification of the Whittaker/Laguerre/Gegenbauer addition formulas.

Each verifier evaluates the two sides of one identity through deliberately
disjoint code paths -- the expansion side through the diagnosed series engine,
the compact side through closed-form Whittaker/Bessel/Laguerre brackets -- and
reports the residual, taken at the working precision of the two sides,
together with the series diagnostics. A small residual is then genuine
evidence: a bug in a shared intermediate cannot cancel itself.

The identities covered, in the order they appear below:

* geometry of the two-center configuration (R, x = r+r0+R, y = r+r0-R)
* the partial-wave expansion of the Coulomb-type kernel against the compact
  two-point Whittaker bracket, with its gamma=0, gamma=pi and kappa->integer
  limiting forms and the exponential M-sum that follows from them
* the 2D modified-Bessel (Graf) and 3D Gegenbauer addition theorems and the
  spherical-harmonic addition theorem they hinge on
* the finite Laguerre addition formula and its symmetric polynomial variants
* the binomial downward W-sum, its pi-form generalization to general mu with
  per-term cancellation accounting, the M-Gegenbauer summation, and the
  exact rational binomial lemma underlying all of them

The addition theorem, the pi form and the two M-sums are cases of one
general-mu series, whose terms ``_gegenbauer_terms`` yields for all four.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    DerivativeStepUnderflow,
    GeometryViolation,
    NearPole,
    NoConvergence,
    ParameterPole,
    PoleHit,
    PrecisionExhausted,
    UnsupportedOrder,
)
from .scalar import is_nonpositive_integer, resolve
from .special_core import (
    bessel_modified,
    binomial,
    density_polynomial,
    gegenbauer_ladder,
    kummer_m,
    laguerre,
    laguerre_bracket,
    legendre_p,
    pochhammer,
    spherical_harmonic,
    whittaker_m,
    whittaker_w,
    whittaker_with_derivative,
)
from .summation import (
    SeriesOptions,
    SeriesOutcome,
    context_for,
    exact_rational_sum,
    sum_series,
)

logger = logging.getLogger(__name__)

REL_ERR_FLOOR = 1e-300

# refuse the addition-theorem series when kappa sits this close to a positive
# integer: the Gamma(1-kappa) normalization blows up and the identity only
# survives as a combined limit (see verify_kappa_integer_limit)
KAPPA_GUARD = 1e-3

# escalation ladder for the badly cancelling pi-form series
ESCALATION_DIGITS = (60, 120, 240)

# orders per backward run of M ratios; a continued fraction seeds each run's
# top order, so a longer run costs fewer fractions and wastes more ratios
# past the order where the series stops
M_RATIO_RUN = 32

# iterations after which the continued fraction of an M ratio is abandoned
CF_MAX_TERMS = 10_000

# the forward W step divides by nu+1-kappa; closer than this to zero (kappa
# near a bound-state pole) the next order is evaluated directly instead
W_STEP_GUARD = 0.5

# bits above the working precision that the fixed-point ladders carry, on top
# of the bits that |z| away from 1 costs their ratios and 1/z.  The ratios
# never shrink with the order: M_l/M_{l-1} tends to z and W_l/W_{l-1} grows
# like 4 l^2/z, so each keeps ctx.prec + LADDER_GUARD_BITS significant bits
# or more, and a run of L orders spends about log2 L of the guard on the
# roundings of its running product
LADDER_GUARD_BITS = 32

# the continued fraction of an M ratio stops once a step changes it by at
# most 2^-(ctx.prec + CF_TOL_BITS)
CF_TOL_BITS = 12


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _exact_sqrt(q: Fraction):
    """Square root of a Fraction if it is exactly rational, else None."""
    if q < 0:
        return None
    n = math.isqrt(q.numerator)
    d = math.isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return Fraction(n, d)
    return None


@dataclass(frozen=True)
class GeometryConfig:
    """Two-point configuration: radii r > r0 >= 0 separated by angle gamma.

    R is the chord distance, x and y the Hostler variables r+r0 +- R.
    cos_gamma is carried explicitly so exact rational configurations
    (Fraction radii with rational cosine and perfect-square R^2) stay exact.
    """

    r: object
    r0: object
    gamma: float
    R: object
    x: object
    y: object
    cos_gamma: object

    def check(self, tol: float = 1e-14) -> None:
        """Assert the defining relations to relative tolerance tol."""
        scale = abs(float(self.x)) + abs(float(self.R))
        assert abs(float(self.R * self.R
                         - (self.r * self.r + self.r0 * self.r0
                            - 2 * self.r * self.r0 * self.cos_gamma))) <= tol * scale * scale
        assert abs(float(self.x - (self.r + self.r0 + self.R))) <= tol * scale
        assert abs(float(self.y - (self.r + self.r0 - self.R))) <= tol * scale
        assert float(self.x) >= float(self.y) >= -tol * scale
        # x y = 4 r r0 cos^2(gamma/2)
        assert abs(float(self.x * self.y
                         - 2 * self.r * self.r0 * (1 + self.cos_gamma))) <= tol * scale * scale

    def at(self, ctx):
        """R, x, y at the context's working precision.

        A float configuration carries a square root rounded to double, which
        would floor any extended-precision residual near 1e-16; rebuilding
        the derived quantities from (r, r0, cos_gamma) keeps both sides of an
        identity consistent at full precision.  Rational configurations
        convert exactly and are left alone.
        """
        if ctx.kind == "hardware" or isinstance(self.R, Fraction):
            return ctx.convert(self.R), ctx.convert(self.x), ctx.convert(self.y)
        r, r0, c = ctx.convert(self.r), ctx.convert(self.r0), ctx.convert(self.cos_gamma)
        R = ctx.sqrt(r * r + r0 * r0 - 2 * r * r0 * c)
        x = r + r0 + R
        y = 2 * r * r0 * (1 + c) / x
        return R, x, y


def geometry_from(r, r0, gamma: float) -> GeometryConfig:
    """Build the configuration from radii and the angle in radians."""
    return geometry_from_cosine(r, r0, math.cos(gamma), gamma=gamma)


def geometry_from_cosine(r, r0, cos_gamma, gamma: float | None = None) -> GeometryConfig:
    """Build the configuration from cos(gamma) directly.

    Fraction inputs with a perfect-square R^2 produce a fully rational
    configuration, which the finite Laguerre identities can verify exactly.
    """
    if not float(r) > 0 or float(r0) < 0:
        raise GeometryViolation(f"need r > 0 and r0 >= 0, got r={r}, r0={r0}")
    if not -1 <= float(cos_gamma) <= 1:
        raise GeometryViolation(f"cos(gamma)={cos_gamma} outside [-1, 1]")
    r2 = r * r + r0 * r0 - 2 * r * r0 * cos_gamma
    exact = isinstance(r2, Fraction)
    R = _exact_sqrt(r2) if exact else None
    if R is None:
        R = math.sqrt(float(r2)) if float(r2) > 0 else 0.0
        if exact:
            r, r0, cos_gamma = float(r), float(r0), float(cos_gamma)
    x = r + r0 + R
    # y = r+r0-R cancels near gamma=pi; the product form 4 r r0 cos^2(g/2)/x
    # = 2 r r0 (1+cos gamma)/x is exact there
    y = 2 * r * r0 * (1 + cos_gamma) / x if float(x) > 0 else r + r0 - R
    if gamma is None:
        gamma = math.acos(min(1.0, max(-1.0, float(cos_gamma))))
    return GeometryConfig(r=r, r0=r0, gamma=float(gamma), R=R, x=x, y=y,
                          cos_gamma=cos_gamma)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    """Residual of one identity check plus the series diagnostics behind it."""

    lhs: object
    rhs: object
    abs_err: float
    rel_err: float
    # precision the check actually ran at: "hardware" or ("extended", digits),
    # which differs from the request when a verifier escalated
    precision: object
    lhs_diag: SeriesOutcome | None = None

    def ok(self, tol: float) -> bool:
        return self.rel_err <= tol


@dataclass
class ExactReport:
    """Outcome of an exact rational identity check."""

    exact: bool
    residual: Fraction
    lhs: Fraction
    rhs: Fraction


def _report(lhs, rhs, precision, lhs_diag=None) -> IdentityReport:
    """The residual of lhs against rhs, computed in the arithmetic of the
    sides (mpmath at its working precision when either side is an mpmath
    value, else doubles) and rounded to floats only at the end."""
    mp = getattr(lhs, "context", None) or getattr(rhs, "context", None)
    if mp is None:
        abs_err = abs(complex(lhs) - complex(rhs))
        scale = max(abs(complex(lhs)), abs(complex(rhs)), REL_ERR_FLOOR)
        rel_err = abs_err / scale
    else:
        a, b = mp.convert(lhs), mp.convert(rhs)
        diff = abs(a - b)
        abs_err = float(diff)
        rel_err = float(diff / max(abs(a), abs(b), REL_ERR_FLOOR))
    return IdentityReport(lhs=lhs, rhs=rhs, abs_err=abs_err, rel_err=rel_err,
                          lhs_diag=lhs_diag, precision=precision)


def _series_check(terms, closed, opts: SeriesOptions) -> IdentityReport:
    """The series of ``terms`` summed under ``opts`` against ``closed(ctx)``,
    the closed side at the context of ``opts``."""
    out = sum_series(terms, opts)
    return _report(out.value, closed(context_for(opts)), opts.precision, lhs_diag=out)


def _finite_check(terms, rhs, exact: bool) -> IdentityReport | ExactReport:
    """A finite sum against its closed side: exactly on Fractions when
    ``exact`` (an ExactReport), else in doubles through ``sum_series``."""
    terms = list(terms)
    if exact:
        lhs = exact_rational_sum(terms)
        residual = lhs - rhs
        return ExactReport(exact=residual == 0, residual=residual, lhs=lhs, rhs=rhs)
    return _series_check(terms, lambda _ctx: rhs, SeriesOptions(max_terms=len(terms) + 1))


def near_positive_integer(kappa, guard: float = KAPPA_GUARD) -> bool:
    """True when kappa lies within guard of a positive integer, where
    Gamma(1-kappa) and the Coulomb kernel have their bound-state poles."""
    re = float(getattr(kappa, "real", kappa))
    im = float(getattr(kappa, "imag", 0.0))
    n = round(re)
    return n >= 1 and abs(re - n) <= guard and abs(im) <= guard


def require_off_pole(kappa, guard: float = KAPPA_GUARD) -> None:
    """Raise NearPole when ``near_positive_integer(kappa, guard)``."""
    if near_positive_integer(kappa, guard):
        raise NearPole(f"kappa={kappa} within {guard} of a positive integer, "
                       "where Gamma(1-kappa) has a pole")


def _require_ring(r0, r) -> None:
    if not 0 <= float(r0) < float(r):
        raise GeometryViolation(f"series side requires 0 <= r0 < r, got r0={r0}, r={r}")


# ---------------------------------------------------------------------------
# the central addition theorem and its limits
# ---------------------------------------------------------------------------

def hostler_bracket(kappa, x_half, y_half, ctx):
    """M'_{k,1/2}(y/2) W_{k,1/2}(x/2) - M_{k,1/2}(y/2) W'_{k,1/2}(x/2).

    At y = 0 the bracket degenerates to W_{k,1/2}(x/2): M vanishes linearly
    with derivative exactly 1 at the origin.
    """
    order = (kappa, ctx.convert(1) / 2)
    if float(ctx.mag(y_half)) == 0.0:
        return whittaker_w(order, x_half, ctx=ctx)
    w, wp = whittaker_with_derivative("W", order, x_half, ctx)
    m, mp = whittaker_with_derivative("M", order, y_half, ctx)
    return mp * w - m * wp


def _term_product(base, mv, wv, p_val, ell, ctx):
    """One partial-wave term base * mv * wv * p_val, without lying in doubles.

    Near equal radii the M and W factors span hundreds of orders of
    magnitude while their product stays moderate; a partial product can
    then flush to an exact zero (or overflow, making 0*inf NaNs) and
    silently truncate the series.  On hardware, honest, negligible underflow
    is told apart from range exhaustion by the factor log-magnitudes;
    exhaustion surfaces as OverflowError, which ``sum_series`` turns into
    NoConvergence, instead of returning a truncated sum.
    """
    if ctx.kind != "hardware":
        return base * mv * wv * p_val
    if p_val == 0:
        return 0.0 * base
    t = base * mv * wv * p_val
    a = abs(t)
    if a != 0.0 and math.isfinite(a):
        return t
    logs = 0.0
    for f in (base, mv, wv, p_val):
        af = abs(f)
        if af == 0.0:
            logs += -323.0  # most a flushed double can hide
        elif not math.isfinite(af):
            raise OverflowError(
                f"partial-wave factor overflowed the double range at l={ell}")
        else:
            logs += math.log10(af)
    if logs > -300.0:
        raise OverflowError(
            f"partial-wave term at l={ell} is not representable in doubles; "
            "the factor magnitudes span the full range")
    return t  # a true underflow: the term is negligible


def _m_ratio(j: int, abc, ctx):
    """rho_j = M_j/M_{j-1} of the minimal solution, from its continued fraction

        rho_j = c_j / (-b_j + a_j c_{j+1} / (-b_{j+1} + a_{j+1} c_{j+2} / ...)),

    where a_i, b_i, c_i = abc(i) are the coefficients of the M recurrence
    a_i M_{i+1} = b_i M_i + c_i M_{i-1}.  Evaluated by modified Lentz
    (Thompson & Barnett, J. Comput. Phys. 64 (1986) 490) until a step
    changes it by at most ctx.eps; a vanishing a_i ends the fraction exactly.
    """
    eps, mag = ctx.eps, ctx.abs
    tiny = ctx.convert(1e-300)
    a, b, c = abc(j)
    f = -b if b != 0 else tiny
    num_ratio, den_ratio = f, 0
    for n in range(1, CF_MAX_TERMS):
        a_next, b_n, c_n = abc(j + n)
        part = a * c_n  # the partial numerator a_{j+n-1} c_{j+n}
        den_ratio = -b_n + part * den_ratio
        den_ratio = 1 / (den_ratio if den_ratio != 0 else tiny)
        num_ratio = -b_n + part / num_ratio
        if num_ratio == 0:
            num_ratio = tiny
        delta = num_ratio * den_ratio
        f = f * delta
        if mag(delta - 1) <= eps:
            return c / f
        a = a_next
    raise NoConvergence(f"M ratio continued fraction at order {j} did not "
                        f"converge in {CF_MAX_TERMS} terms")


def _mu_ladder(kind: str, k, mu0, z, ctx):
    """Yield M_{k,mu0+l}(z) (kind "M") or W_{k,mu0+l}(z) (kind "W") for
    l = 0, 1, 2, ... from a few direct evaluations and the three-term
    recurrences stated in ``_gegenbauer_terms``.

    W runs forward from its values at mu0 and mu0+1; the one step (if any)
    whose divisor nu+1-k lies within W_STEP_GUARD of zero is replaced by a
    direct evaluation.  M is evaluated per order below l_t = ceil(sqrt|z|)
    and continued past it as M_l = M_{l-1} rho_l with the ratios
    rho_l = M_l/M_{l-1} of the minimal solution, in runs of M_RATIO_RUN
    orders: the ratio at a run's top order comes from the continued fraction
    (``_m_ratio``), the ones below it from the backward ratio recurrence
    rho_l = c_l/(a_l rho_{l+1} - b_l), where a_l, b_l, c_l are the
    coefficients of the M recurrence a_l M_{l+1} = b_l M_l + c_l M_{l-1}.
    No M is evaluated directly from l_t on, and on hardware a run that
    leaves the double range underflows gradually, as the direct values do.
    On an extended context the values are v_{l-1} rho_l with the ratios of
    ``_fixed_ladder``, for ``_bessel_terms`` alone.  ``k``, ``mu0`` and
    ``z`` are values of ``ctx``.
    """
    if ctx.kind == "hardware":
        return _hardware_ladder(kind, k, mu0, z, ctx)
    return _fixed_values(kind, k, mu0, z, ctx)


def _hardware_ladder(kind: str, k, mu0, z, ctx):
    """The hardware body of ``_mu_ladder``."""
    half = ctx.convert(1) / 2
    if kind == "W":
        guarded = _guarded_w_steps(k, mu0, ctx)
        prev = whittaker_w((k, mu0), z, ctx=ctx)
        yield prev
        cur = whittaker_w((k, mu0 + 1), z, ctx=ctx)
        ell = 1
        while True:
            yield cur
            if ell in guarded:
                nxt = whittaker_w((k, mu0 + ell + 1), z, ctx=ctx)
            else:
                nu = mu0 + ell - half
                nu1, two_nu = nu + 1, 2 * nu
                nxt = ((two_nu + 1) * (two_nu * nu1 / z - k) * cur
                       + nu1 * (nu + k) * prev) / (nu * (nu1 - k))
            prev, cur = cur, nxt
            ell += 1

    k2 = k * k

    def abc(j):
        nu = mu0 + j - half
        nu1, two_nu = nu + 1, 2 * nu
        return (nu * (nu1 ** 2 - k2) / (nu1 * (two_nu + 3)),
                2 * (two_nu + 1) * (k - two_nu * nu1 / z),
                4 * nu * nu1 * (two_nu + 1))

    ell_t = math.ceil(math.sqrt(ctx.mag(z)))
    for ell in range(ell_t):
        m = whittaker_m((k, mu0 + ell), z, ctx=ctx)
        yield m
    for lo in itertools.count(ell_t, M_RATIO_RUN):
        rho = _m_ratio(lo + M_RATIO_RUN - 1, abc, ctx)
        ratios = [rho]
        for j in range(lo + M_RATIO_RUN - 2, lo - 1, -1):
            a, b, c = abc(j)
            rho = c / (a * rho - b)
            ratios.append(rho)
        for rho in reversed(ratios):
            m = m * rho
            yield m


def _guarded_w_steps(k, mu0, ctx) -> set:
    """The orders l >= 1 whose forward W step divisor nu+1-k lies within
    W_STEP_GUARD of zero, nu = mu0+l-1/2.  nu+1-k is nearest zero at the two
    orders around Re(k-mu0-1/2); the test is the step's own divisor, bit for
    bit."""
    half = ctx.convert(1) / 2
    d = float(ctx.re(k - mu0 - half))
    near = math.floor(d) if math.isfinite(d) else -1
    return {ell for ell in (near, near + 1)
            if ell >= 1 and ctx.mag(mu0 + ell - half + 1 - k) < W_STEP_GUARD}


# ---------------------------------------------------------------------------
# the ladders on fixed-point integers (extended contexts)
# ---------------------------------------------------------------------------
#
# A fixed-point number with wp fractional bits is an integer pair (re, im)
# standing for (re + i im) / 2^wp; a real value has im = 0.  A floating one
# is (re, im, s) for (re + i im) / 2^s, with the larger part kept at wp bits.

def _ladder_precision(ctx, *zs) -> int:
    """Fractional bits of the fixed-point ladders at the arguments zs:
    ctx.prec + LADDER_GUARD_BITS + the bits of |z| away from 1."""
    extra = max((abs(ctx.exponent(z)) for z in zs if z != 0), default=0)
    return ctx.prec + LADDER_GUARD_BITS + extra


def _pair(ctx, v, wp: int) -> tuple:
    re, im = ctx.fixed(v, wp)
    return re, im or 0


def _floating(ctx, v, wp: int) -> tuple:
    """The ctx value v as a floating (re, im, s) with wp bits."""
    s = wp - ctx.exponent(v)
    return (*_pair(ctx, v, s), s)


def _fixed_quotient(ctx, num, den, wp: int) -> tuple:
    """num/den of two ctx values as a fixed-point pair."""
    with ctx.workprec(wp):
        q = num / den
    return _pair(ctx, q, wp)


def _cdiv(xr: int, xi: int, yr: int, yi: int, wp: int) -> tuple:
    """(xr + i xi) / (yr + i yi) of fixed-point pairs."""
    if not yi:
        return (xr << wp) // yr, (xi << wp) // yr
    d = yr * yr + yi * yi
    return ((xr * yr + xi * yi) << wp) // d, ((xi * yr - xr * yi) << wp) // d


def _renormalize(re: int, im: int, s: int, wp: int) -> tuple:
    """Round the floating (re, im, s) down to wp bits."""
    n = max(abs(re), abs(im)).bit_length() - wp
    if n > 0:
        return re >> n, im >> n, s - n
    return re, im, s


def _fixed_ladder(kind: str, k, mu0, z, ctx, wp: int):
    """(v_0, ratios): the value at mu0 of the M or W ladder of ``_mu_ladder``
    and an iterator of its ratios v_l/v_{l-1}, l = 1, 2, ..., as fixed-point
    pairs with wp fractional bits, for an extended ctx (``_fixed_terms``,
    ``_fixed_values``); k, mu0, z, nu and every coefficient may be complex.

    The recurrences of ``_gegenbauer_terms`` run in ratio form with every
    coefficient divided by 2(2nu+1), nu = mu0+l-1/2:
    a' = nu((nu+1)^2-k^2)/(2(nu+1)(2nu+1)(2nu+3)), b' = k - 2nu(nu+1)/z and
    c' = 2nu(nu+1), so that rho_l = c'_l/(a'_l rho_{l+1} - b'_l) keeps all
    three near their natural sizes (1/8, 2nu^2/z, 2nu^2).  Below l_t the M
    ratios are quotients of direct values; past it each run of M_RATIO_RUN
    orders starts at its top from the continued fraction, by modified Lentz
    (Thompson & Barnett, J. Comput. Phys. 64 (1986) 490) with level n
    scaled by a power of two that brings b'_{l+n} below 1.  A vanishing a'
    is an exact integer zero and ends the fraction.  W ratios
    sigma_l = W_l/W_{l-1} come from the forward recurrence divided by W_l,

        sigma_{l+1} = ((2nu+1)(2nu(nu+1)/z - k) + (nu+1)(nu+k)/sigma_l)
                      / (nu(nu+1-k)),

    except at a step of ``_guarded_w_steps``, where W_{l+1} is evaluated
    directly and divided by the running product W_l.
    """
    seed = (whittaker_w if kind == "W" else whittaker_m)((k, mu0), z, ctx=ctx)
    one = 1 << wp
    kr, ki = _pair(ctx, k, wp)
    # nu_l = nu0 + l + i ni: only the real part moves with the order
    nu0, ni = _pair(ctx, mu0, wp)
    nu0 -= one >> 1
    with ctx.workprec(wp):
        izr, izi = _pair(ctx, 1 / z, wp)

    if kind == "W":
        guarded = _guarded_w_steps(k, mu0, ctx)

        def w_ratios():
            w1 = whittaker_w((k, mu0 + 1), z, ctx=ctx)
            sr, si = _fixed_quotient(ctx, w1, seed, wp)
            # W_l as a floating product, needed only at a guarded step
            wr, wi, ws = _floating(ctx, w1, wp) if guarded else (0, 0, 0)
            for ell in itertools.count(1):
                yield sr, si
                if ell in guarded:
                    nxt = whittaker_w((k, mu0 + ell + 1), z, ctx=ctx)
                    sr, si = _fixed_quotient(
                        ctx, nxt, ctx.from_fixed(wr, wi, ws), wp)
                else:
                    n = nu0 + ell * one
                    n1 = n + one
                    tr, ti = 2 * (n * n1 - ni * ni) >> wp, 2 * ni * (n + n1) >> wp
                    ur = (tr * izr - ti * izi >> wp) - kr
                    ui = (tr * izi + ti * izr >> wp) - ki
                    mr, mi = 2 * n + one, 2 * ni
                    pr, pi = n + kr, ni + ki
                    qr, qi = _cdiv(n1 * pr - ni * pi >> wp, n1 * pi + ni * pr >> wp,
                                   sr, si, wp)
                    dr, di = n1 - kr, ni - ki
                    sr, si = _cdiv((mr * ur - mi * ui >> wp) + qr,
                                   (mr * ui + mi * ur >> wp) + qi,
                                   n * dr - ni * di >> wp, n * di + ni * dr >> wp, wp)
                if guarded:
                    wr, wi, ws = _renormalize(wr * sr - wi * si, wr * si + wi * sr,
                                              ws + wp, wp)
        return seed, w_ratios()

    kkr, kki = kr * kr - ki * ki, 2 * kr * ki
    nn = ni * ni

    def coefficients(j):
        # a' = nu((nu+1)^2 - k^2)/(2(nu+1)(2nu+1)(2nu+3)) as a quotient of
        # two pairs at 3 wp bits; b' = k - c'/z; c' = 2nu(nu+1)
        n = nu0 + j * one
        n1 = n + one
        sr, si = n1 * n1 - nn - kkr, 2 * n1 * ni - kki
        er = (2 * n + one) * (2 * n + 3 * one) - 4 * nn
        ei = 8 * ni * n1
        ar, ai = _cdiv(n * sr - ni * si, n * si + ni * sr,
                       2 * (n1 * er - ni * ei), 2 * (n1 * ei + ni * er), wp)
        cr, ci = 2 * (n * n1 - nn) >> wp, 2 * ni * (n + n1) >> wp
        return (ar, ai, kr - (cr * izr - ci * izi >> wp),
                ki - (cr * izi + ci * izr >> wp), cr, ci)

    tol = 1 << (wp - ctx.prec - CF_TOL_BITS)

    def top_ratio(j):
        # rho_j = c'_j/(-b'_j + a'_j c'_{j+1}/(-b'_{j+1} + a'_{j+1} c'_{j+2}/...))
        ar, ai, br, bi, c0r, c0i = coefficients(j)
        s0 = max(0, max(abs(br), abs(bi)).bit_length() - wp)
        fr, fi = -br >> s0, -bi >> s0
        if not (fr or fi):
            fr = 1
        cr, ci, dr, di, s = fr, fi, 0, 0, s0
        for n in range(1, CF_MAX_TERMS):
            a_nr, a_ni, br, bi, gr, gi = coefficients(j + n)
            s_n = max(0, max(abs(br), abs(bi)).bit_length() - wp)
            br, bi = -br >> s_n, -bi >> s_n
            shift = wp + s + s_n
            pr, pi = ar * gr - ai * gi >> shift, ar * gi + ai * gr >> shift
            dr, di = br + (pr * dr - pi * di >> wp), bi + (pr * di + pi * dr >> wp)
            if not (dr or di):
                dr = 1
            dd = dr * dr + di * di
            dr, di = (dr << 2 * wp) // dd, (-di << 2 * wp) // dd
            qr, qi = _cdiv(pr, pi, cr, ci, wp)
            cr, ci = br + qr, bi + qi
            if not (cr or ci):
                cr = 1
            er, ei = cr * dr - ci * di >> wp, cr * di + ci * dr >> wp
            fr, fi = fr * er - fi * ei >> wp, fr * ei + fi * er >> wp
            if abs(er - one) <= tol and abs(ei) <= tol:
                return _cdiv(c0r, c0i, fr << s0, fi << s0, wp)
            ar, ai, s = a_nr, a_ni, s_n
        raise NoConvergence(f"M ratio continued fraction at order {j} did not "
                            f"converge in {CF_MAX_TERMS} terms")

    ell_t = math.ceil(math.sqrt(ctx.mag(z)))

    def m_ratios():
        prev = seed
        for ell in range(1, ell_t):
            m = whittaker_m((k, mu0 + ell), z, ctx=ctx)
            yield _fixed_quotient(ctx, m, prev, wp)
            prev = m
        for lo in itertools.count(ell_t, M_RATIO_RUN):
            top = lo + M_RATIO_RUN - 1
            rho = top_ratio(top)
            ratios = [rho]
            for j in range(top - 1, lo - 1, -1):
                ar, ai, br, bi, cr, ci = coefficients(j)
                rr, ri = rho
                rho = _cdiv(cr, ci, (ar * rr - ai * ri >> wp) - br,
                            (ar * ri + ai * rr >> wp) - bi, wp)
                ratios.append(rho)
            yield from reversed(ratios)
    return seed, m_ratios()


def _fixed_values(kind: str, k, mu0, z, ctx):
    """The extended body of ``_mu_ladder``, for the Bessel sums: v_0, then
    v_{l-1} rho_l with the ratios of ``_fixed_ladder``, product on integers."""
    wp = _ladder_precision(ctx, z)
    v, ratios = _fixed_ladder(kind, k, mu0, z, ctx, wp)
    yield v
    real = _is_real(k, mu0, z)
    vr, vi, s = _floating(ctx, v, wp)
    for rr, ri in ratios:
        vr, vi, s = _renormalize(vr * rr - vi * ri, vr * ri + vi * rr, s + wp, wp)
        yield ctx.from_fixed(vr, None if real else vi, s)


def _is_real(*values) -> bool:
    """True when no value is an mpmath complex."""
    return all(getattr(v, "_mpc_", None) is None for v in values)


def _gegenbauer_terms(k, mu, x, scale, z_m, z_w, first: int, ctx):
    """Yield scale c_l M_{k,mu+l}(z_m) W_{k,mu+l}(z_w) C_l^{(mu)}(x) for
    l = first, first+1, ..., without W when z_w is None, where c_l =
    (mu-k+1/2)_l/(2mu)_{2l} over the (mu-k+1/2)_first that scale carries.
    mu = 1/2 is the addition theorem (``addition_terms``); x = +-1 the pi
    form, as C_l^{(mu)}(+-1) = (+-1)^l (2mu)_l/l! (DLMF 18.6.1); no W the
    M-Gegenbauer sum, and at mu = 1/2, x = -1 the exponential M-sum.

    The coefficients run by their ratio c_{l+1}/c_l = (l+mu+1/2-k)/((2mu+2l)
    (2mu+2l+1)) from 1/(2mu)_{2 first}, so no Gamma quotient is formed; at
    kappa = 1 with first = 1 and mu = 1/2 they are the (l-1)!/(2l)! of the
    integer limit.  C comes from l C_l = 2(l+mu-1) x C_{l-1} - (l+2mu-2)
    C_{l-2} (DLMF 18.9.1), exact (+-1)^l at mu = 1/2, x = +-1.

    The Whittaker factors come from ``_mu_ladder``, not from one evaluation
    per order.  With nu = mu - 1/2 both functions obey three-term
    recurrences in mu (contiguous relations, DLMF §13.15):

        nu(nu+1-k) W_{k,mu+1}(z) = (2nu+1)(2nu(nu+1)/z - k) W_{k,mu}(z)
                                   + (nu+1)(nu+k) W_{k,mu-1}(z)
        nu((nu+1)^2-k^2)/((nu+1)(2nu+3)) M_{k,mu+1}(z)
            = 2(2nu+1)(k - 2nu(nu+1)/z) M_{k,mu}(z)
              + 4nu(nu+1)(2nu+1) M_{k,mu-1}(z)

    W is the dominant solution as mu grows and is recurred forward from two
    direct evaluations.  M is the minimal solution: it is evaluated per
    order below the turning index l_t = ceil(sqrt|z|), where it still grows
    with the order, and continued past it by its ratios M_l/M_{l-1}, which
    the backward ratio recurrence and its continued fraction give stably
    (Gautschi, SIAM Rev. 9 (1967) 24; the Coulomb l-recurrences of DLMF
    §33.4, Barnett's COULFG, Comput. Phys. Commun. 27 (1982) 147, and
    Thompson & Barnett's COULCC, J. Comput. Phys. 64 (1986) 490).  A run of
    L orders costs l_t + 2 direct evaluations plus O(L) arithmetic instead
    of 2L evaluations.  On hardware each term is ``_term_product`` of
    scale c_l and the three factors; on an extended context ``_fixed_terms``
    builds it on integers.  All inputs are ctx values; x is real.
    """
    c = 1 / pochhammer(2 * mu, 2 * first)
    if ctx.kind != "hardware":
        yield from _fixed_terms(k, mu, x, scale * c, z_m, z_w, first, ctx)
        return
    two_mu, mu_half = 2 * mu, mu + ctx.convert(1) / 2
    mu0 = mu + first
    terms = zip(itertools.count(first),
                itertools.islice(gegenbauer_ladder(mu, x), first, None),
                _mu_ladder("M", k, mu0, z_m, ctx),
                itertools.repeat(1) if z_w is None else _mu_ladder("W", k, mu0, z_w, ctx))
    for ell, g_val, mv, wv in terms:
        yield _term_product(scale * c, mv, wv, g_val, ell, ctx)
        c = c * (ell + mu_half - k) / ((two_mu + 2 * ell) * (two_mu + 2 * ell + 1))


def _fixed_terms(k, mu, x, scale, z_m, z_w, first: int, ctx):
    """The extended body of ``_gegenbauer_terms``: T_l C_l(x), l = first, ...,
    on integers at the ladder precision.  T_first = scale M_first W_first,
    and each step multiplies T by rho_l, sigma_l (1 without W) and the
    coefficient step; C runs on pairs beside it.  No factor is formed alone,
    and one rounding to the context is made per term."""
    zs = (z_m,) if z_w is None else (z_m, z_w)
    wp = _ladder_precision(ctx, *zs)
    one = 1 << wp
    mu0 = mu + first
    m, rhos = _fixed_ladder("M", k, mu0, z_m, ctx, wp)
    w, sigmas = ((1, itertools.repeat((one, 0))) if z_w is None
                 else _fixed_ladder("W", k, mu0, z_w, ctx, wp))
    tr, ti, s = _floating(ctx, scale * m * w, wp)
    real = _is_real(scale, k, mu, *zs)
    kr, ki = _pair(ctx, k, wp)
    mr, mi = _pair(ctx, mu, wp)
    xr = _pair(ctx, x, wp)[0]
    # the coefficient step to order l: (l one + h) / ((2mu+2l-2)(2mu+2l-1))
    hr, hi = mr - (one >> 1) - kr, mi - ki
    # 2mu with e fractional bits, e = 0 when 2mu is an integer: the C
    # multipliers and coefficient divisors are then integers, and mu = 1/2
    # rounds as the Legendre recurrence does
    e, m2r, m2i = wp, 2 * mr, 2 * mi
    if not m2i and not m2r % one:
        e, m2r = 0, m2r >> wp
    unit = 1 << e
    # C_{l-2}, C_{l-1}:  l C_l = 2(l+mu-1) x C_{l-1} - (l+2mu-2) C_{l-2}
    (pr, pi), (cr, ci) = (0, 0), (one, 0)
    for ell in itertools.count(1):
        # 2(l+mu-1) = 2mu+2l-2, the first coefficient divisor too
        ar, ai = m2r + (2 * ell - 2) * unit, m2i
        if ell > first:
            yield ctx.from_fixed(tr * cr - ti * ci, None if real else tr * ci + ti * cr,
                                 s + wp)
            rr, ri = next(rhos)
            sr, si = next(sigmas)
            tr, ti = tr * rr - ti * ri, tr * ri + ti * rr
            tr, ti = tr * sr - ti * si, tr * si + ti * sr
            nr = ell * one + hr
            br = ar + unit
            tr, ti = _cdiv(tr * nr - ti * hi, tr * hi + ti * nr,
                           ar * br - ai * ai >> e, ai * (ar + br) >> e, e)
            tr, ti, s = _renormalize(tr, ti, s + 3 * wp, wp)
        ur, ui = xr * cr >> wp, xr * ci >> wp
        gr = ar - ell * unit
        (pr, pi), (cr, ci) = (cr, ci), (
            ((ar * ur - ai * ui >> e) - (gr * pr - ai * pi >> e)) // ell,
            ((ar * ui + ai * ur >> e) - (gr * pi + ai * pr >> e)) // ell)


def addition_terms(kappa, geo: GeometryConfig, normalized: bool, first: int = 0):
    """Term factory for the partial-wave side of the addition theorem,
    (1/(r r0)) Gamma(l+1-kappa)/(2l)! M_{k,l+1/2}(r0) W_{k,l+1/2}(r) P_l(cos g)
    for l = first, first+1, ..., the mu = 1/2 case of ``_gegenbauer_terms``.

    ``normalized=True`` divides the series by Gamma(1-kappa); the gamma=0 /
    gamma=pi displays and the Green function sum it undivided.  The Bessel
    sums of Graf and Gegenbauer run on the same ladders at kappa = 0
    (``_bessel_terms``).
    """
    def factory(ctx):
        k = ctx.convert(kappa)
        r = ctx.convert(geo.r)
        r0 = ctx.convert(geo.r0)
        pref = 1 / (r * r0)
        if not normalized:
            pref = pref * ctx.gamma(first + 1 - k)
        elif first:
            pref = pref * pochhammer(1 - k, first)
        return _gegenbauer_terms(k, ctx.convert(1) / 2, ctx.convert(geo.cos_gamma), pref,
                                 r0, r, first, ctx)
    return factory


def _addition_check(kappa, geo: GeometryConfig, normalized: bool,
                    opts: SeriesOptions | None, closed) -> IdentityReport:
    """The partial-wave series of ``addition_terms`` against ``closed(ctx)``,
    the closed side of verify_whittaker_addition or of its gamma=0 and
    gamma=pi displays.  Valid for 0 <= r0 < r and kappa off the positive
    integers, where Gamma(1-kappa) has a pole."""
    _require_ring(geo.r0, geo.r)
    require_off_pole(kappa)
    if float(geo.r0) == 0.0:
        # M_{k,l+1/2}(r0) ~ r0^(l+1), so only l = 0 survives the 1/(r r0)
        # prefactor and the series collapses to W_{k,1/2}(r)/r
        def terms(ctx):
            r = ctx.convert(geo.r)
            lhs = whittaker_w((kappa, 0.5), r, ctx=ctx) / r
            if not normalized:
                lhs = lhs * ctx.gamma(1 - ctx.convert(kappa))
            return [lhs]
    else:
        terms = addition_terms(kappa, geo, normalized)
    return _series_check(terms, closed, opts or SeriesOptions())


def verify_whittaker_addition(kappa, geo: GeometryConfig,
                              opts: SeriesOptions | None = None) -> IdentityReport:
    """Partial-wave expansion against the compact two-point bracket.

    LHS: (1/(r r0)) sum_l [Gamma(l+1-k)/(Gamma(1-k)(2l)!)] M_{k,l+1/2}(r0)
    W_{k,l+1/2}(r) P_l(cos gamma).  RHS: (1/R) [M'(y/2) W(x/2) - M(y/2) W'(x/2)]
    at order (k, 1/2).  Valid for 0 <= r0 < r and kappa off the positive
    integers, where the normalization has a pole.
    """
    def closed(ctx):
        R, x, y = geo.at(ctx)
        return hostler_bracket(ctx.convert(kappa), x / 2, y / 2, ctx) / R

    return _addition_check(kappa, geo, True, opts, closed)


def verify_gamma_zero(kappa, r0, r, opts: SeriesOptions | None = None) -> IdentityReport:
    """Collinear (gamma=0) form: the series times Gamma(1-k) against the
    Wronskian-like bracket Gamma(1-k)/(r-r0) [M'(r0) W(r) - M(r0) W'(r)] at
    order (k, 1/2)."""
    def closed(ctx):
        k, rr0, rr = ctx.convert(kappa), ctx.convert(r0), ctx.convert(r)
        return ctx.gamma(1 - k) * hostler_bracket(k, rr, rr0, ctx) / (rr - rr0)

    geo = geometry_from_cosine(r, r0, 1.0, gamma=0.0)
    return _addition_check(kappa, geo, False, opts, closed)


def verify_gamma_pi(kappa, r0, r, opts: SeriesOptions | None = None) -> IdentityReport:
    """Antipodal (gamma=pi) form: the alternating series times Gamma(1-k)
    against Gamma(1-k) W_{k,1/2}(r+r0)/(r+r0)."""
    def closed(ctx):
        k = ctx.convert(kappa)
        s = ctx.convert(r) + ctx.convert(r0)
        return ctx.gamma(1 - k) * whittaker_w((k, ctx.convert(1) / 2), s, ctx=ctx) / s

    geo = geometry_from_cosine(r, r0, -1.0, gamma=math.pi)
    return _addition_check(kappa, geo, False, opts, closed)


def verify_kappa_integer_limit(n: int, geo: GeometryConfig,
                               opts: SeriesOptions | None = None,
                               step: float = 1e-2) -> IdentityReport:
    """The kappa=1 limiting form of the addition theorem.

    At kappa=1 the l=0 term and the closed form both blow up; the finite
    statement equates the l >= 1 series with coefficients (l-1)!/(2l)! to
    minus the kappa-derivative of the regularized combination

        B(k) = (1/R) bracket(k) - (1/(r r0)) M_{k,1/2}(r0) W_{k,1/2}(r)

    at kappa=1.  The derivative is taken by central differences in kappa with
    two Richardson extrapolation levels, at extended precision so the
    difference quotient is not noise-limited.
    """
    if n != 1:
        raise UnsupportedOrder(
            "only the n=1 limiting combination has a displayed closed form; "
            f"got n={n}")
    _require_ring(geo.r0, geo.r)
    opts = opts or SeriesOptions(precision=("extended", 40))
    if context_for(opts).kind == "hardware":
        opts = replace(opts, precision=("extended", 40))

    def closed(ctx):
        R, x, y = geo.at(ctx)
        xh, yh = x / 2, y / 2
        r = ctx.convert(geo.r)
        r0 = ctx.convert(geo.r0)
        half = ctx.convert(1) / 2

        def regularized(k):
            order = (k, half)
            return (hostler_bracket(k, xh, yh, ctx) / R
                    - whittaker_m(order, r0, ctx=ctx) * whittaker_w(order, r, ctx=ctx) / (r * r0))

        h = ctx.convert(step)
        one = ctx.convert(1)
        if (one + h / 4) - one == 0:
            raise DerivativeStepUnderflow(
                f"kappa step {step}/4 is below resolution at {ctx.digits} digits")
        diffs = []
        for i in range(3):
            hi = h / (2 ** i)
            diffs.append((regularized(one + hi) - regularized(one - hi)) / (2 * hi))
        # two Richardson levels: error h^2 -> h^4 -> h^6
        r1 = [(4 * diffs[i + 1] - diffs[i]) / 3 for i in range(2)]
        return -(16 * r1[1] - r1[0]) / 15

    # Gamma(l+1-kappa)/(2l)! at kappa = 1 is (l-1)!/(2l)!
    return _series_check(addition_terms(1, geo, normalized=False, first=1), closed, opts)


def verify_m_exp_sum(kappa, z, opts: SeriesOptions | None = None) -> IdentityReport:
    """Exponential sum: (1/z) sum_l (-1)^l [Gamma(l+1-k)/(Gamma(1-k)(2l)!)]
    M_{k,l+1/2}(z) = e^{-z/2}, entire in z."""
    require_off_pole(kappa)
    if complex(z) == 0:
        raise GeometryViolation("z=0 is the removable point; evaluate nearby instead")

    def terms(ctx):
        zz = ctx.convert(z)
        return _gegenbauer_terms(ctx.convert(kappa), ctx.convert(1) / 2, ctx.convert(-1),
                                 1 / zz, zz, None, 0, ctx)

    return _series_check(terms, lambda ctx: ctx.exp(-ctx.convert(z) / 2),
                         opts or SeriesOptions())


# ---------------------------------------------------------------------------
# Bessel-side addition theorems
# ---------------------------------------------------------------------------

def _bessel_terms(nu0, v, u, weights, ctx):
    """Yield w_n I_{nu0+n}(v) K_{nu0+n}(u), n = 0, 1, ..., with w_n from
    ``weights``.  The Bessel pair is the Whittaker pair at kappa = 0 (DLMF
    §13.18(iii)): I_nu(v) = M_{0,nu}(2v)/(4^nu Gamma(nu+1) sqrt(2v)) and
    K_nu(u) = sqrt(pi/(2u)) W_{0,nu}(2u), so both come from ``_mu_ladder``.
    I runs by its ratio I_n = I_{n-1} (M_n/M_{n-1})/(4(nu0+n)), so 1/(4^n n!)
    is never formed alone.  ``nu0``, ``v`` and ``u`` are values of ``ctx``.
    """
    zero = ctx.convert(0)
    ms = _mu_ladder("M", zero, nu0, 2 * v, ctx)
    ws = _mu_ladder("W", zero, nu0, 2 * u, ctx)
    i_scale = 1 / (ctx.power(4, nu0) * ctx.gamma(nu0 + 1) * ctx.sqrt(2 * v))
    k_scale = ctx.sqrt(ctx.pi / (2 * u))
    for n, (weight, m, w) in enumerate(zip(weights, ms, ws)):
        i_val = m * i_scale if n == 0 else i_val * (m / m_prev) / (4 * (nu0 + n))
        m_prev = m
        yield _term_product(k_scale, i_val, w, weight, n, ctx)


def verify_graf_2d(k, r0, r, phi, opts: SeriesOptions | None = None) -> IdentityReport:
    """2D modified-Bessel addition: I0(k r0) K0(k r) + 2 sum I_n K_n cos(n phi)
    against K0(k R) with R the planar chord."""
    _require_ring(r0, r)
    if not float(k) > 0:
        raise GeometryViolation(f"need k > 0, got {k}")
    opts = opts or SeriesOptions()
    ctx = context_for(opts)
    kk, u, v, angle = (ctx.convert(x) for x in (k, r, r0, phi))
    R = ctx.sqrt(u * u + v * v - 2 * u * v * ctx.cos(angle))
    if float(r0) == 0.0:
        # I_n(0) = 0 for n >= 1 and I_0(0) = 1: only the n=0 term survives
        terms = [bessel_modified(0, kk * u, "K", ctx=ctx)]
    else:
        weights = (ctx.cos(n * angle) * (2 if n else 1) for n in itertools.count())
        terms = _bessel_terms(ctx.convert(0), kk * v, kk * u, weights, ctx)
    return _series_check(terms, lambda _ctx: bessel_modified(0, kk * R, "K", ctx=ctx), opts)


def verify_gegenbauer_addition(nu, r0, r, gamma, opts: SeriesOptions | None = None) -> IdentityReport:
    """Gegenbauer's addition theorem for the modified Bessel pair:
    (2^nu Gamma(nu)/(r r0)^nu) sum (nu+n) K_{nu+n}(r) I_{nu+n}(r0) C_n^{(nu)}(cos g)
    against K_nu(R)/R^nu, for 2 nu a positive integer."""
    _require_ring(r0, r)
    if float(r0) == 0.0:
        raise GeometryViolation("r0 must be positive for the (r r0)^-nu prefactor")
    two_nu = 2 * float(nu)
    if abs(two_nu - round(two_nu)) > 1e-12 or round(two_nu) < 1:
        raise UnsupportedOrder(f"need 2*nu a positive integer, got nu={nu}")
    opts = opts or SeriesOptions()
    ctx = context_for(opts)
    nn, u, v = ctx.convert(nu), ctx.convert(r), ctx.convert(r0)
    c = ctx.convert(math.cos(float(gamma)))
    pref = ctx.power(2, nn) * ctx.gamma(nn) / ctx.power(u * v, nn)
    weights = (pref * (nn + n) * g_val for n, g_val in enumerate(gegenbauer_ladder(nn, c)))
    R = ctx.sqrt(u * u + v * v - 2 * u * v * c)
    return _series_check(_bessel_terms(nn, v, u, weights, ctx),
                         lambda _ctx: bessel_modified(nu, R, "K", ctx=ctx) / ctx.power(R, nn),
                         opts)


def verify_spherical_addition(l: int, theta, phi, theta0, phi0) -> IdentityReport:
    """Spherical-harmonic addition: sum_m Y_l^m(n) conj(Y_l^m(n0)) against
    (2l+1)/(4 pi) P_l(cos gamma)."""
    def terms(_ctx):
        for m in range(-l, l + 1):
            yield (spherical_harmonic(l, m, theta, phi)
                   * spherical_harmonic(l, m, theta0, phi0).conjugate())

    cg = (math.cos(theta) * math.cos(theta0)
          + math.sin(theta) * math.sin(theta0) * math.cos(phi - phi0))
    return _series_check(terms, lambda _ctx: (2 * l + 1) / (4 * math.pi) * legendre_p(l, 0, cg),
                         SeriesOptions(max_terms=2 * l + 2))


# ---------------------------------------------------------------------------
# Laguerre addition formulas (finite sums, rational-exact capable)
# ---------------------------------------------------------------------------

def verify_laguerre_addition(n: int, geo: GeometryConfig) -> IdentityReport | ExactReport:
    """Finite Laguerre addition formula of degree n:

    sum_{l=0}^{n-1} (2l+1) (n-l-1)!/(n+l)! (r r0)^l L^{2l+1}_{n-l-1}(r)
    L^{2l+1}_{n-l-1}(r0) P_l(cos g)  =  (1/2R)[x L^1_{n-1}(x/2) L_n(y/2)
    - y L^1_{n-1}(y/2) L_n(x/2)].

    A fully rational GeometryConfig (Fraction radii and cosine with rational R)
    is verified exactly and returns an ExactReport.
    """
    if n < 1:
        raise UnsupportedOrder(f"need n >= 1, got {n}")
    _require_ring(geo.r0, geo.r)
    exact = all(isinstance(q, (Fraction, int)) for q in
                (geo.r, geo.r0, geo.R, geo.x, geo.y, geo.cos_gamma))
    r, r0, c, R, x, y = map(Fraction if exact else float,
                            (geo.r, geo.r0, geo.cos_gamma, geo.R, geo.x, geo.y))

    def term(l):
        w = Fraction((2 * l + 1) * math.factorial(n - l - 1), math.factorial(n + l))
        return (w * (r * r0) ** l * laguerre(n - l - 1, 2 * l + 1, r)
                * laguerre(n - l - 1, 2 * l + 1, r0) * legendre_p(l, 0, c))

    rhs = laguerre_bracket(n, x, y, Fraction(1, 2)) / (2 * R)
    return _finite_check((term(l) for l in range(n)), rhs, exact)


def verify_laguerre_symmetric(n: int, u, v,
                              variant: str = "interior") -> IdentityReport | ExactReport:
    """Symmetric-polynomial Laguerre identities for arbitrary complex u, v.

    variant="interior":
        sum_{l=0}^n (2l+1)(n-l)!/(n+l+1)! (uv)^l L^{2l+1}_{n-l}(u) L^{2l+1}_{n-l}(v)
        = [u L^1_n(u) L_{n+1}(v) - v L^1_n(v) L_{n+1}(u)] / (u - v)
    variant="pi": the alternating sum against L^1_n(u+v).

    At u = v the interior quotient is 0/0 and its limit, the density
    polynomial L^1_n L_{n+1} + u ((L^1_n)^2 - L^2_{n-1} L_{n+1}) of degree
    n+1, is used.  Exact Fraction inputs yield an ExactReport.
    """
    if n < 0:
        raise UnsupportedOrder(f"need n >= 0, got {n}")
    if variant not in ("interior", "pi"):
        raise ValueError(f"unknown variant {variant!r}")
    exact = all(isinstance(q, (Fraction, int)) for q in (u, v))
    if exact:
        u, v = Fraction(u), Fraction(v)

    def term(l):
        w = Fraction(math.factorial(n - l) * (2 * l + 1), math.factorial(n + l + 1))
        t = (w * (u * v) ** l * laguerre(n - l, 2 * l + 1, u)
             * laguerre(n - l, 2 * l + 1, v))
        return -t if (variant == "pi" and l % 2) else t

    if variant == "pi":
        rhs = laguerre(n, 1, u + v)
    elif u == v:
        rhs = density_polynomial(n + 1, u)
    else:
        rhs = laguerre_bracket(n + 1, u, v) / (u - v)
    return _finite_check((term(l) for l in range(n + 1)), rhs, exact)


# ---------------------------------------------------------------------------
# downward W-sum, pi-form generalization, M-Gegenbauer sum, binomial lemma
# ---------------------------------------------------------------------------

def _binomial_weights(n: int, two_mu):
    """C(n,l) (2mu+2l)/(2mu+l)_{n+1} for l = 0, ..., n, the weights of the
    downward W-sum, of its coefficient sum and of the binomial lemma, in
    the arithmetic of two_mu; PoleHit where (2mu+l)_{n+1} vanishes."""
    for l in range(n + 1):
        den = pochhammer(two_mu + l, n + 1)
        if den == 0:
            raise PoleHit(f"(2mu+{l})_{n + 1} = 0 at 2mu={two_mu}")
        yield binomial(n, l) * (two_mu + 2 * l) / den


def verify_w_downward_sum(n: int, kappa, mu, r, opts: SeriesOptions | None = None) -> IdentityReport:
    """Binomial downward sum of W along the second order:

    sum_{l=0}^n (-1)^l C(n,l) (2mu+2l)/(2mu+l)_{n+1} W_{k,mu+l}(r)
    = (-1)^n r^{-n/2} W_{k-n/2, mu+n/2}(r).

    Escalates internally when the convergent U route at hardware would lose
    enough digits to endanger a 1e-10 comparison (large r), since both sides
    would otherwise drift together only partially.
    """
    if n < 0:
        raise UnsupportedOrder(f"need n >= 0, got {n}")
    if is_nonpositive_integer(2 * complex(mu)):
        raise ParameterPole(f"2*mu={2 * mu} hits the excluded non-positive integers")
    opts = opts or SeriesOptions()
    # forecast: convergent-branch cancellation ~ 0.434*r digits; escalate
    # when fewer than (tolerance digits + 3) would survive at hardware
    if opts.precision == "hardware" and 16 - 0.434 * float(r) < 13:
        opts = replace(opts, precision=("extended", 40))

    def terms(ctx):
        k = ctx.convert(kappa)
        m = ctx.convert(mu)
        rr = ctx.convert(r)
        for l, weight in enumerate(_binomial_weights(n, 2 * m)):
            t = weight * whittaker_w((k, m + l), rr, ctx=ctx)
            yield -t if l % 2 else t

    def closed(ctx):
        k = ctx.convert(kappa)
        m = ctx.convert(mu)
        rr = ctx.convert(r)
        half_n = ctx.convert(n) / 2
        return ((-1) ** n * ctx.power(rr, -half_n)
                * whittaker_w((k - half_n, m + half_n), rr, ctx=ctx))

    # per order on purpose: the identity is itself a contiguous relation in
    # mu, so a recurred W would make the check circular
    return _series_check(terms, closed, replace(opts, max_terms=n + 2))


def coefficient_delta_sum(n: int, mu) -> Fraction:
    """Exact rational value of sum_{l=0}^n (-1)^l C(n,l)(2mu+2l)/(2mu+l)_{n+1},
    which the large-r asymptotics of the downward W-sum forces to delta_{n,0}."""
    return sum((-w if l % 2 else w)
               for l, w in enumerate(_binomial_weights(n, 2 * Fraction(mu))))


def pi_addition_terms(kappa, mu, r0, r, lmax: int, ctx=None) -> list:
    """Normalized terms t_l of the pi-form general addition series:

    t_l = ((r+r0)/(r r0))^{mu+1/2} (mu-k+1/2)_l M_{k,l+mu}(r0) W_{k,l+mu}(r)
          / ((l+2mu)_l l! W_{k,mu}(r+r0)),

    so that sum (-1)^l t_l = 1: ``_gegenbauer_terms`` at x = 1.  Published
    for cancellation studies; the values grow factorially large before
    decaying when Re mu is large, past the double range (NoConvergence).
    """
    ctx = resolve(ctx)
    k = ctx.convert(kappa)
    m = ctx.convert(mu)
    rr = ctx.convert(r)
    rr0 = ctx.convert(r0)
    half = ctx.convert(1) / 2
    pref = (ctx.power((rr + rr0) / (rr * rr0), m + half)
            / whittaker_w((k, m), rr + rr0, ctx=ctx))
    terms = _gegenbauer_terms(k, m, ctx.convert(1), pref, rr0, rr, 0, ctx)
    try:
        return list(itertools.islice(terms, lmax + 1))
    except OverflowError as exc:
        raise NoConvergence("pi-form terms left the hardware range") from exc


def verify_pi_addition_general(kappa, mu, r0, r,
                               opts: SeriesOptions | None = None) -> IdentityReport:
    """General-mu antipodal addition formula:

    (r r0)^{-mu-1/2} sum_l (-1)^l [(mu-k+1/2)_l / ((l+2mu)_l l!)]
    M_{k,l+mu}(r0) W_{k,l+mu}(r)  =  (r+r0)^{-mu-1/2} W_{k,mu}(r+r0).

    The series alternates and can inflate enormously before converging (for
    mu of large real part the largest term exceeds the sum by many orders of
    magnitude); the verifier sums with cancellation accounting and escalates
    through extended precision until enough digits survive, raising
    PrecisionExhausted with the diagnostics if even the top of the ladder
    cannot deliver the requested tolerance (NoConvergence when the terms
    leave the range of the top rung).
    """
    _require_ring(r0, r)
    if float(r0) == 0.0:
        raise GeometryViolation("r0 must be positive for the (r r0) prefactor")
    if not float(complex(mu).real) > 0:
        raise ParameterPole(f"need Re mu > 0, got mu={mu}")
    opts = opts or SeriesOptions()

    def terms(ctx):
        m = ctx.convert(mu)
        rr0 = ctx.convert(r0)
        rr = ctx.convert(r)
        pref = ctx.power(rr * rr0, -(m + ctx.convert(1) / 2))
        return _gegenbauer_terms(ctx.convert(kappa), m, ctx.convert(-1), pref, rr0, rr, 0, ctx)

    needed = -math.log10(opts.rel_tol) + 2
    ladder = [opts.precision] + [("extended", d) for d in ESCALATION_DIGITS
                                 if d > 10 + needed]
    out = None
    for precision in ladder:
        run_opts = replace(opts, precision=precision)
        ctx = context_for(run_opts)
        try:
            out = sum_series(terms, run_opts)
        except NoConvergence as exc:
            # the inflated terms exceed the rung's representable range
            if not isinstance(exc.__cause__, OverflowError):
                raise
            if precision == ladder[-1]:
                raise NoConvergence(f"pi-form terms left the range of {precision} and no "
                                    f"rung of the ladder reaches rel_tol={opts.rel_tol}") from exc
            logger.info("pi-form terms overflow at %s; escalating", precision)
            continue
        surviving = ctx.digits - out.digits_lost()
        if surviving >= needed:
            rhs = (ctx.power(ctx.convert(r) + ctx.convert(r0),
                             -(ctx.convert(mu) + ctx.convert(1) / 2))
                   * whittaker_w((ctx.convert(kappa), ctx.convert(mu)),
                                 ctx.convert(r) + ctx.convert(r0), ctx=ctx))
            report = _report(out.value, rhs, precision, lhs_diag=out)
            if precision != opts.precision:
                logger.info("pi-form series escalated to %s (lost %.1f digits)",
                            precision, out.digits_lost())
            return report
    raise PrecisionExhausted(
        f"series loses {out.digits_lost():.1f} digits; ladder top "
        f"{ESCALATION_DIGITS[-1]} digits cannot reach rel_tol={opts.rel_tol}",
        outcome=out)


def verify_m_gegenbauer_sum(kappa, mu, z, gamma,
                            opts: SeriesOptions | None = None) -> IdentityReport:
    """M-Gegenbauer summation:

    z^{-mu-1/2} sum_l [(mu-k+1/2)_l/(2mu)_{2l}] M_{k,l+mu}(z) C_l^{(mu)}(cos g)
    = e^{-z/2} 1F1(mu-k+1/2; mu+1/2; cos^2(g/2) z),

    entire in z (principal powers; consistent for Re z > 0).
    """
    if not float(complex(mu).real) > 0 or complex(mu).imag != 0:
        raise ParameterPole(f"need real mu > 0, got {mu}")

    def terms(ctx):
        m = ctx.convert(mu)
        zz = ctx.convert(z)
        pref = ctx.power(zz, -(m + ctx.convert(1) / 2))
        return _gegenbauer_terms(ctx.convert(kappa), m, ctx.cos(ctx.convert(gamma)), pref,
                                 zz, None, 0, ctx)

    def closed(ctx):
        k = ctx.convert(kappa)
        m = ctx.convert(mu)
        zz = ctx.convert(z)
        half = ctx.convert(1) / 2
        chalf = ctx.cos(ctx.convert(gamma) / 2)
        return ctx.exp(-zz / 2) * kummer_m(m - k + half, m + half, chalf * chalf * zz, ctx=ctx)

    return _series_check(terms, closed, opts or SeriesOptions())


def verify_lemma_binomial(N: int, nu) -> ExactReport:
    """Exact rational check of the binomial lemma

    sum_{l=0}^N C(N,l) (2nu+2l)/(2nu+l)_{N+1} = 1/(nu+1/2)_N

    for rational nu off the poles {0, -1/2, -1, ..., -N}."""
    if N < 0:
        raise UnsupportedOrder(f"need N >= 0, got {N}")
    if isinstance(nu, float):
        raise TypeError("verify_lemma_binomial is exact; pass Fraction or int nu")
    nu = Fraction(nu)
    rhs_den = pochhammer(nu + Fraction(1, 2), N)
    if rhs_den == 0:
        raise PoleHit(f"(nu+1/2)_{N} = 0 at nu={nu}")
    lhs = sum(_binomial_weights(N, 2 * nu))
    rhs = 1 / rhs_den
    residual = lhs - rhs
    return ExactReport(exact=residual == 0, residual=residual, lhs=lhs, rhs=rhs)
