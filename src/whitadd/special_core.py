"""Kummer and Whittaker functions plus the classical polynomial families.

Evaluates 1F1(a;b;z) and U(a,b,z) -- including the logarithmic case of U at
integer second parameter -- Whittaker M/W and their first r-derivatives, the
modified Bessel reductions, and Legendre / associated Legendre / Gegenbauer /
Laguerre polynomials and spherical harmonics.

Arguments are real (U requires z > 0); parameters may be complex. Every
evaluator is generic over the scalar context (hardware float/complex by
default, arbitrary-precision via ``scalar.extended``); polynomial recurrences
additionally accept exact ``fractions.Fraction`` inputs and then return exact
rationals.

The three Kummer series loops -- the 1F1 power series, its terminating
polynomial and the infinite sum of U's logarithmic case -- have one float
body for the hardware context and one fixed-point body for extended
contexts, where values are Python integers scaled by 2^wp (complex values
as pairs, real ones without the zero imaginary half) and wp is the
context's working precision ``ctx.prec`` (raised inside ``extra_digits``)
plus guard bits, the technique of mpmath's ``hypsum`` [J].  The float body
of the terminating polynomial runs its three-term recurrence in the degree
instead, since its terms cancel for z > 0.  A fixed-point loop stops once
its terms fall below the working precision relative to its sum, never at
the context's base ``eps``; it counts the sum's bits only for a term that
could pass that test. It tracks its peak term and the bits of its sum;
when cancellation leaves fewer than ``ctx.prec`` bits it is summed again
with more guard bits, and past ``MAX_GUARD_BITS`` it raises
PrecisionExhausted.  U's convergent routes add the parts of their
connection formulas with guard digits and retry the same way when the
parts cancel more than those.

``kummer_pair`` returns f(a, b, z) with its contiguous partner
f(a+1, b+1, z), which up to a factor is the z-derivative; on an extended
context the 1F1 series and U's logarithmic case sum the partner in the
same fixed-point pass, the way ``hypsum`` carries a derivative.  The
Whittaker derivatives and the seeds of the extended W ladder take it.

References
----------
.. [AS] Abramowitz & Stegun, Handbook of Mathematical Functions, ch. 13
        (13.1.2, 13.1.3, 13.1.6, 13.4.21, 13.5.1, 13.5.2).
.. [DLMF] NIST Digital Library of Mathematical Functions, ch. 13, 13.2.9,
        13.3.1, 13.3.15, 13.3.22, 13.7.3, 18.9.
.. [J] F. Johansson, Computing hypergeometric functions rigorously,
       ACM Trans. Math. Software 45 (2019) 30.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    IndexOutOfRange,
    NoConvergence,
    PoleAtNonpositiveB,
    PoleHit,
    PrecisionExhausted,
    UnsupportedOrder,
    UnsupportedRegion,
)
from .scalar import is_nonpositive_integer, nearest_integer, resolve

# hard ceiling on series length everywhere in this module
MAX_TERMS = 10_000

# terms must stay below rel_tol*|partial| this many consecutive times
CONSECUTIVE_SMALL = 3

# integer-b U expansions are refused below this argument
SMALL_Z_CUTOFF = 1e-8

# at hardware precision, switch U to the optimally-truncated large-z expansion
# beyond this point; near z ~= 18.4 the convergent route and the divergent
# route both retain roughly half the mantissa, so either side of the switch
# is defensible
ASYMPTOTIC_Z_SWITCH = 18.0

# bits above the working precision that a fixed-point series starts with,
# and the most it may grow to when cancellation eats them
GUARD_BITS = 24
MAX_GUARD_BITS = 4096

# a sum of at most MAX_TERMS terms has at most this many bits more than its
# largest term
SUM_BITS = MAX_TERMS.bit_length()


# ---------------------------------------------------------------------------
# rising factorials and friends
# ---------------------------------------------------------------------------

def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), exact for exact inputs.

    Computed as an explicit product, never as a quotient of two Gamma values,
    so zeros are exact and there is no large-argument cancellation.
    """
    if n < 0:
        raise IndexOutOfRange("pochhammer order n must be >= 0")
    result = a * 0 + 1  # one in the arithmetic of a
    for j in range(n):
        result = result * (a + j)
    return result


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        raise IndexOutOfRange(f"binomial({n}, {k}) outside the triangle")
    return math.comb(n, k)


def log_pochhammer(a, n: int, ctx=None):
    """log((a)_n) as a sum of factor logarithms.

    The imaginary part accumulates the factor phases (it is not reduced to the
    principal branch); exponentiating recovers (a)_n. This is the scaled
    representation for products far beyond floating-point range, e.g.
    (2*mu)_{2*l} in the mu=20 stress regime.
    """
    ctx = resolve(ctx)
    a = ctx.convert(a)
    total = ctx.convert(0)
    for j in range(n):
        f = a + j
        if f == 0:
            raise PoleHit(f"({a})_{n} contains an exactly zero factor")
        total = total + ctx.log(f)
    return total


# ---------------------------------------------------------------------------
# orthogonal polynomial families (generic three-term recurrences)
# ---------------------------------------------------------------------------

def _exact(*args) -> tuple:
    """args with every int made a Fraction when all of them are ints or
    Fractions, so the recurrences' true divisions stay exact; else args."""
    if all(isinstance(v, (int, Fraction)) for v in args):
        return tuple(Fraction(v) for v in args)
    return args


def _check_degree(l, name="l"):
    if not isinstance(l, int) or l < 0:
        raise IndexOutOfRange(f"{name} must be a non-negative integer, got {l!r}")


def legendre_p(l: int, m: int = 0, x=0.0):
    """Associated Legendre P_l^m(x) on [-1, 1], Condon-Shortley phase included.

    m = 0 gives the Legendre polynomial P_l(x); that path is a pure field
    recurrence and returns a Fraction for int or Fraction x. Negative m uses
    P_l^{-m} = (-1)^m (l-m)!/(l+m)! P_l^m.
    """
    _check_degree(l)
    if not isinstance(m, int) or abs(m) > l:
        raise IndexOutOfRange(f"order m={m!r} invalid for degree l={l}")
    if m < 0:
        m = -m
        num = math.factorial(l - m)
        den = math.factorial(l + m)
        sign = -1 if m % 2 else 1
        return legendre_p(l, m, x) * sign * num / den

    if m == 0:
        x, = _exact(x)
        return next(itertools.islice(gegenbauer_ladder((x * 0 + 1) / 2, x), l, None))

    if isinstance(x, Fraction):
        x = float(x)  # sqrt(1-x^2) leaves the rationals for m != 0
    s2 = 1 - x * x
    if not isinstance(x, complex) and float(s2) < 0:
        if float(s2) < -1e-12:
            raise ValueError(f"legendre_p requires |x| <= 1, got x={x!r}")
        s2 = s2 * 0  # clamp cos-roundoff spill
    s = s2 ** 0.5
    # P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}, then climb the degree
    pmm = x * 0 + 1
    for k in range(1, m + 1):
        pmm = pmm * (-(2 * k - 1)) * s
    if l == m:
        return pmm
    pm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pm1
    for k in range(m + 1, l):
        pm1, pmm = ((2 * k + 1) * x * pm1 - (k + m) * pmm) / (k - m + 1), pm1
    return pm1


def gegenbauer_c(l: int, mu, x):
    """Gegenbauer (ultraspherical) polynomial C_l^{(mu)}(x), mu > 0, taken
    from ``gegenbauer_ladder``; exact for exact inputs."""
    _check_degree(l)
    if not float(getattr(mu, "real", mu)) > 0:
        raise IndexOutOfRange(f"gegenbauer_c requires mu > 0, got {mu!r}")
    return next(itertools.islice(gegenbauer_ladder(mu, x), l, None))


def gegenbauer_ladder(mu, x):
    """Yield C_0^{(mu)}(x), C_1^{(mu)}(x), C_2^{(mu)}(x), ... without end.

    Recurrence l C_l = 2x(l+mu-1) C_{l-1} - (l+2mu-2) C_{l-2}; exact
    (Fraction) when mu and x are ints or Fractions.  mu = 1/2 gives the
    Legendre polynomials, with the same rounding as the Legendre recurrence
    (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}, and exactly (+-1)^l at x = +-1.
    """
    mu, x = _exact(mu, x)
    c_prev = x * 0 + 1
    yield c_prev
    two_mu, two_x = 2 * mu, 2 * x
    c = two_mu * x
    k = 2
    while True:
        yield c
        c, c_prev = (two_x * (k + mu - 1) * c - (k + two_mu - 2) * c_prev) / k, c
        k += 1


def laguerre(n: int, alpha=0, x=0.0):
    """Generalized Laguerre polynomial L_n^{(alpha)}(x).

    Recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1};
    exact (Fraction) when alpha and x are ints or Fractions, accepts complex x.
    """
    _check_degree(n, "n")
    alpha, x = _exact(alpha, x)
    p_prev = x * 0 + 1
    if n == 0:
        return p_prev
    p = 1 + alpha - x
    for k in range(1, n):
        p, p_prev = ((2 * k + 1 + alpha - x) * p - (k + alpha) * p_prev) / (k + 1), p
    return p


def laguerre_bracket(n: int, x, y, s=1):
    """x L^1_{n-1}(s x) L_n(s y) - y L^1_{n-1}(s y) L_n(s x).

    The Laguerre bracket of the finite addition formulas and of the
    projection kernel; exact for exact inputs, like ``laguerre``.
    """
    sx, sy = s * x, s * y
    return (x * laguerre(n - 1, 1, sx) * laguerre(n, 0, sy)
            - y * laguerre(n - 1, 1, sy) * laguerre(n, 0, sx))


def density_polynomial(n: int, t):
    """L_n(t) L^1_{n-1}(t) - t L_n(t) L^2_{n-2}(t) + t (L^1_{n-1}(t))^2.

    The polynomial part of the diagonal projection kernel, and the u = v
    limit of laguerre_bracket(n, u, v)/(u - v); integrating it against
    e^{-t} t^2 gives 2 n^3.  The middle term is absent for n=1.
    """
    mid = -t * laguerre(n, 0, t) * laguerre(n - 2, 2, t) if n >= 2 else t * 0
    return (laguerre(n, 0, t) * laguerre(n - 1, 1, t) + mid
            + t * laguerre(n - 1, 1, t) ** 2)


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_l^m(theta, phi).

    Y_l^m = sqrt((2l+1)(l-m)! / (4 pi (l+m)!)) P_l^m(cos theta) e^{i m phi},
    with the Condon-Shortley phase carried by P_l^m, so that
    Y_l^{-m} = (-1)^m conj(Y_l^m).
    """
    _check_degree(l)
    if not isinstance(m, int) or abs(m) > l:
        raise IndexOutOfRange(f"order m={m!r} invalid for degree l={l}")
    ratio = Fraction(math.factorial(l - m), math.factorial(l + m))
    norm = math.sqrt((2 * l + 1) / (4 * math.pi) * ratio.numerator / ratio.denominator)
    plm = legendre_p(l, m, math.cos(theta))
    return norm * plm * complex(math.cos(m * phi), math.sin(m * phi))


# ---------------------------------------------------------------------------
# Kummer functions
# ---------------------------------------------------------------------------

def _hyp1f1_poly(m: int, b, z, ctx):
    """Terminating 1F1(-m; b; z); needs (b)_k != 0 only for k < m.

    On hardware p_k = 1F1(-k; b; z) = k!/(b)_k L_k^{(b-1)}(z) runs up the
    contiguous relation in a (DLMF 13.3.1), the Laguerre recurrence
    normalized as it goes,

        p_{k+1} = ((2k + b - z) p_k - k p_{k-1}) / (b + k),   p_0 = 1,

    since a sum of the terms cancels for z > 0 (by 22% at 1F1(-40; 2; 20)).
    """
    if m == 0:  # the fixed-point body would charge a zero b's bits as lost
        return ctx.convert(1)
    if ctx.kind != "hardware":
        return _fixed_point(_hyp1f1_fixed, (ctx.convert(-m), b, z, m, True, False), ctx)[0]
    prev, p = 0, ctx.convert(1)
    for k in range(m):
        den = b + k
        if den == 0:
            raise PoleAtNonpositiveB(
                f"terminating 1F1(-{m}; {b}; z) hits a zero denominator at k={k}")
        prev, p = p, ((2 * k + b - z) * p - k * prev) / den
    return p


def _hyp1f1_series(a, b, z, ctx):
    """Power series sum_k (a)_k z^k / ((b)_k k!) by term recurrence.

    Caller guarantees (b)_k never hits zero before the series terminates.
    """
    if ctx.kind != "hardware":
        return _fixed_point(_hyp1f1_fixed, (a, b, z, MAX_TERMS, False, False), ctx)[0]
    eps, mag = ctx.eps, ctx.abs
    term = ctx.convert(1)
    total = term
    small = 0
    for k in range(MAX_TERMS):
        den = b + k
        if den == 0:
            raise PoleAtNonpositiveB(
                f"1F1 series denominator (b)_k vanished at b={b}, k={k}")
        term = term * (a + k) * z / (den * (k + 1))
        total = total + term
        if mag(term) <= eps * mag(total):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return total
        else:
            small = 0
    raise NoConvergence(f"1F1({a}; {b}; {z}) did not converge in {MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# fixed-point series bodies (extended contexts)
# ---------------------------------------------------------------------------

def _fixed_point(body, args, ctx, guard: int = 0) -> tuple:
    """Sum a series on fixed-point integers with wp = ctx.prec + guard bits.

    ``body(*args, ctx, wp)`` returns (sums, lost): a tuple of sums, each a
    pair (re, im) of integers standing for the sum times 2^wp (im None for a
    real sum), and the most bits it cannot vouch for in any of them, log2 of
    a peak term over its sum plus log2 of the term count.  The sums come
    back rounded to the context.  A pass that keeps fewer than ctx.prec bits
    in any sum is summed again with lost + GUARD_BITS guard bits; one that
    would need more than MAX_GUARD_BITS raises PrecisionExhausted.
    """
    prec = ctx.prec
    guard += GUARD_BITS
    while True:
        wp = prec + guard
        sums, lost = body(*args, ctx, wp)
        if lost <= guard:
            return tuple(ctx.from_fixed(re, im, wp) for re, im in sums)
        if guard >= MAX_GUARD_BITS:
            raise PrecisionExhausted(
                f"{body.__name__[1:]} cancels {lost} bits, more than the "
                f"{MAX_GUARD_BITS}-bit guard cap")
        guard = min(lost + GUARD_BITS, MAX_GUARD_BITS)


def _bits(x: int, y: int) -> int:
    """Bit length of the larger part of the fixed-point number x + i y."""
    return (abs(x) | abs(y)).bit_length()


def _hyp1f1_fixed(a, b, z, terms: int, terminating: bool, pair: bool, ctx, wp: int):
    """Body of ``_hyp1f1_series`` (terminating: of ``_hyp1f1_poly``, with
    a = -terms) at wp fractional bits, for ``_fixed_point``.

    t_{k+1} = t_k (a+k) z / ((b+k)(k+1)): one product and one floor
    division per term, so each term is off by at most its last unit.  The
    truncation of b to wp bits costs every term the bits of |b| below 1,
    which are counted as lost too.  With ``pair`` the same pass also sums
    D = sum_k k t_k = z d/dz 1F1(a; b; z) = (a z / b) 1F1(a+1; b+1; z)
    [DLMF 13.3.15] and returns it second; it stops only once the terms of
    both sums are negligible, and the multiplier k costs D up to log2 k
    bits more than the sum, counted as lost.
    """
    prec, one = ctx.prec, 1 << wp
    (ar, ai), (br, bi), (zr, zi) = (ctx.fixed(v, wp) for v in (a, b, z))
    real = ai is None and bi is None and zi is None
    ai, bi, zi = ai or 0, bi or 0, zi or 0
    tr, ti, sr, si = one, 0, one, 0
    qr = qi = 0  # D, with pair
    peak, small, k = wp + 1, 0, 0
    lost = max(0, wp + 1 - _bits(br, bi))
    for k in range(terms):
        dr, di = br * (k + 1), bi * (k + 1)
        if not (dr or di):
            raise PoleAtNonpositiveB(f"1F1 series denominator (b)_k vanished at b={b}, k={k}")
        if real:
            tr = tr * ar * zr // (dr << wp)
        else:
            nr, ni = ar * zr - ai * zi, ar * zi + ai * zr
            pr, pi = tr * nr - ti * ni, tr * ni + ti * nr
            den = (dr * dr + di * di) << wp
            tr, ti = (pr * dr + pi * di) // den, (pi * dr - pr * di) // den
        sr += tr
        si += ti
        if pair:
            qr += (k + 1) * tr
            qi += (k + 1) * ti
        ar += one
        br += one
        tb = _bits(tr, ti)
        if tb > peak:
            peak = tb
        if terminating:
            continue
        if not tb:
            break  # a zero term zeroes every later one
        # the sum has at most peak + SUM_BITS bits, so a term above that
        # less prec cannot pass the test, and the sum's bits go uncounted.
        # A term of D at the level of its units' noise passes too: a floor
        # keeps a negative term at -1 for ever
        if (tb + prec <= peak + SUM_BITS and tb + prec <= _bits(sr, si)
                and (not pair or tb <= (k + 1).bit_length()
                     or tb + (k + 1).bit_length() + prec <= _bits(qr, qi))):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                break
        else:
            small = 0
    else:
        if not terminating:
            raise NoConvergence(f"1F1({a}; {b}; {z}) did not converge in {terms} terms")
    count = (k + 1).bit_length()
    sums = ((sr, None if real else si),)
    worst = peak - _bits(sr, si) + count
    if pair:
        sums += ((qr, None if real else qi),)
        worst = max(worst, peak - _bits(qr, qi) + 2 * count)
    return sums, lost + worst


def kummer_m(a, b, z, ctx=None):
    """Confluent hypergeometric function of the first kind 1F1(a; b; z).

    For Re z < 0 the Kummer transformation 1F1(a;b;z) = e^z 1F1(b-a;b;-z)
    moves the series to the cancellation-free half-plane, except when a is a
    non-positive integer, where the direct terminating polynomial is exact
    (on an extended context only for an a that is exactly one).
    """
    ctx, a, b, z = _m_arguments(a, b, z, ctx)
    # an extended a within eps of 0, -1, ... is not cut to the polynomial:
    # 1F1(1e-52; 1; 18) differs from 1 at the 45th digit
    if is_nonpositive_integer(a) and (ctx.kind == "hardware" or a == nearest_integer(a)):
        return _hyp1f1_poly(-nearest_integer(a), b, z, ctx)
    if float(ctx.re(z)) < 0:
        return ctx.exp(z) * _hyp1f1_series(b - a, b, -z, ctx)
    return _hyp1f1_series(a, b, z, ctx)


def _m_arguments(a, b, z, ctx):
    """ctx, a, b, z in the context, checked for 1F1: finite, b off the poles."""
    ctx = resolve(ctx)
    a = ctx.convert(a)
    b = ctx.convert(b)
    z = ctx.convert(z)
    if not ctx.isfinite(a + b + z):  # all three finite, short of an overflow
        raise UnsupportedRegion(f"kummer_m needs finite arguments, got a={a}, b={b}, z={z}")
    if is_nonpositive_integer(b):
        raise PoleAtNonpositiveB(f"1F1 undefined at non-positive integer b={b}")
    return ctx, a, b, z


def _hyp_u_asymptotic(a, b, z, ctx):
    """Optimally truncated z -> inf expansion of U [AS 13.5.1].

    U(a,b,z) ~ z^{-a} sum_k (a)_k (a-b+1)_k / (k! (-z)^k). Returns the value
    and the achieved relative accuracy (the smallest term magnitude relative
    to the sum), which the caller compares against its target.
    """
    eps, mag = ctx.eps, ctx.abs
    c = a - b + 1
    neg_z = -z
    term = ctx.convert(1)
    total = term
    best_rel = 1.0
    prev_mag = mag(term)
    small = 0
    for k in range(MAX_TERMS):
        term = term * (a + k) * (c + k) / (neg_z * (k + 1))
        term_mag = mag(term)
        if term_mag > prev_mag:
            # divergence sets in one term further; stop at the smallest term
            best_rel = prev_mag / max(mag(total), 1e-300)
            break
        total = total + term
        prev_mag = term_mag
        if term_mag <= eps * mag(total):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                best_rel = float(eps)
                break
        else:
            small = 0
    else:
        best_rel = prev_mag / max(mag(total), 1e-300)
    return ctx.power(z, -a) * total, best_rel


def _log_series(a, n: int, z, lnz, ctx):
    """The infinite sum of ``_hyp_u_log_case`` in hardware floats."""
    eps, mag = ctx.eps, ctx.abs
    psi_a = ctx.digamma(a)
    psi_1 = ctx.digamma(1)
    psi_n1 = ctx.digamma(n + 1)

    one = ctx.convert(1)
    coeff = one  # (a)_r z^r / ((n+1)_r r!)
    total = coeff * (lnz + psi_a - psi_1 - psi_n1)
    small = 0
    for r in range(MAX_TERMS):
        a_r = a + r
        coeff = coeff * a_r * z / ((n + 1 + r) * (1 + r))
        psi_a = psi_a + 1 / a_r
        psi_1 = psi_1 + one / (1 + r)
        psi_n1 = psi_n1 + one / (1 + n + r)
        term = coeff * (lnz + psi_a - psi_1 - psi_n1)
        total = total + term
        if mag(term) <= eps * mag(total):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                return total
        else:
            small = 0
    raise NoConvergence(f"U log-case series stalled at a={a}, b={n + 1}, z={z}")


def _log_series_fixed(a, n: int, z, pair: bool, ctx, wp: int):
    """The infinite sum of ``_hyp_u_log_case`` at wp fractional bits, for
    ``_fixed_point``: c_{r+1} = c_r (a+r) z / ((n+1+r)(r+1)) with an integer
    divisor, and the bracket d_r = ln z + psi(a+r) - psi(1+r) - psi(1+n+r)
    carried as d_{r+1} = d_r + 1/(a+r) - 1/(1+r) - 1/(1+n+r).

    With ``pair`` the same pass also sums P = sum_{r>=1} (r c_r d_r + c_r),
    returned second: the partner U(a+1, n+2, z) has coefficients
    (n+1)(r+1) c_{r+1}/(a z) and brackets d_{r+1} + 1/(r+1), so its sum is
    (n+1) P/(a z).  The loop stops once the terms of both sums are
    negligible.  P's terms are off by up to r units of c_r, so its lost bits
    are counted against c_0 = 1 as well as the peak term, twice the count's.
    """
    prec, one, two_wp = ctx.prec, 1 << wp, 2 * wp
    with ctx.workprec(wp):  # psi(1) + psi(n+1) = -2 gamma + H_n
        d = ctx.log(z) + ctx.digamma(a) + 2 * ctx.euler
    (dr, di), (ar, ai), (zr, _) = (ctx.fixed(v, wp) for v in (d, a, z))
    real = ai is None
    ai, di = ai or 0, di or 0
    dr -= sum(one // k for k in range(1, n + 1))
    cr, ci, ti = one, 0, 0
    sr, si = dr, di
    qr = qi = 0  # P, with pair
    peak, small = _bits(dr, di), 0
    for r in range(MAX_TERMS):
        # the floor of a floor by 2^(2wp), then by the integer, is the floor
        # by their product
        q = (n + 1 + r) * (1 + r)
        steps = one // (1 + r) + one // (n + 1 + r)
        if real:
            cr = (cr * ar * zr >> two_wp) // q
            dr += (one << wp) // ar - steps
            tr = cr * dr >> wp
        else:
            cr, ci = ((cr * ar - ci * ai) * zr >> two_wp) // q, ((cr * ai + ci * ar) * zr >> two_wp) // q
            m = ar * ar + ai * ai
            dr += (ar << two_wp) // m - steps
            di -= (ai << two_wp) // m
            tr, ti = (cr * dr - ci * di) >> wp, (cr * di + ci * dr) >> wp
        ar += one
        sr += tr
        si += ti
        if pair:
            ur, ui = (r + 1) * tr + cr, (r + 1) * ti + ci
            qr += ur
            qi += ui
        tb = _bits(tr, ti)
        if tb > peak:
            peak = tb
        # the sum's bits are counted only for a term that could pass.  A term
        # of P at the level of its units' noise passes too: a floor keeps a
        # negative c_r at -1 for ever
        if (tb + prec <= peak + SUM_BITS and tb + prec <= _bits(sr, si)
                and (not pair or _bits(ur, ui) <= 2 * (r + 1).bit_length()
                     or _bits(ur, ui) + prec <= _bits(qr, qi))):
            small += 1
            if small >= CONSECUTIVE_SMALL:
                count = (r + 1).bit_length()
                sums = ((sr, None if real else si),)
                lost = peak - _bits(sr, si) + count
                if pair:
                    sums += ((qr, None if real else qi),)
                    lost = max(lost, max(peak, wp + 1) - _bits(qr, qi) + 2 * count)
                return sums, lost
        else:
            small = 0
    raise NoConvergence(f"U log-case series stalled at a={a}, b={n + 1}, z={z}")


def _hyp_u_log_case(a, n: int, z, ctx, guard: int = 0, pair: bool = False) -> tuple:
    """The parts whose sum is U(a, n+1, z), integer n >= 0, by the
    logarithmic expansion [AS 13.1.6]:

    U(a,n+1,z) = (-1)^{n+1}/(n! Gamma(a-n)) *
                   sum_{r>=0} (a)_r z^r/((n+1)_r r!) *
                   [ln z + psi(a+r) - psi(1+r) - psi(1+n+r)]
               + (n-1)!/Gamma(a) * z^{-n} *
                   sum_{r=0}^{n-1} (a-n)_r z^r / ((1-n)_r r!)
    with the second (finite) sum absent for n = 0, returned as the one part
    tuple of a tuple, the form ``_cancelling_sum`` takes.  The caller
    guarantees a is not an integer <= n (those cases terminate elsewhere),
    so all digamma arguments stay off the poles.
    ``guard`` forecasts in bits how much the infinite sum cancels; its
    fixed-point body starts with that many extra.  With ``pair`` (extended
    contexts only) the parts of U(a+1, n+2, z) follow as a second tuple:
    the same expansion at a+1, n+1, whose infinite sum comes from the same
    pass and which shares its 1/Gamma(a-n), psi(a) and ln z.
    """
    if ctx.kind == "hardware":
        lnz = ctx.log(z)
        total = _log_series(a, n, z, lnz, ctx)
    else:
        total, *partner = _fixed_point(_log_series_fixed, (a, n, z, pair), ctx, guard)

    sign = -1 if n % 2 == 0 else 1  # (-1)^{n+1}
    # n! and 1/Gamma(a-n) separately overflow doubles near n ~ 170; combine
    # them in log space on the hardware path once n is large
    big_n = ctx.kind == "hardware" and n > 100
    if big_n:
        pre1 = ctx.exp(-ctx.loggamma(a - n) - ctx.loggamma(n + 1))
    else:
        # 1/Gamma(a-n) = (a-1)(a-2)...(a-n)/Gamma(a): near a pole of Gamma it
        # is proportional to the a that a - n would round away
        rga = pre1 = ctx.rgamma(a)
        for j in range(1, n + 1):
            pre1 = pre1 * (a - j)
        pre1 = pre1 / math.factorial(n)
    parts = (sign * pre1 * total,)

    if n > 0:
        if big_n:
            pre2 = ctx.exp(ctx.loggamma(n) - ctx.loggamma(a) - n * lnz)
        else:
            pre2 = math.factorial(n - 1) * rga * ctx.power(z, -n)
        parts += (pre2 * _finite_sum(a - n, n, z, ctx),)
    if big_n and not isinstance(a, complex):
        # loggamma of negative reals walks through the complex plane; the
        # imaginary dust is far below eps relative to the real part here
        parts = tuple(p.real if isinstance(p, complex) else p for p in parts)
    if not pair:
        return (parts,)
    # U(a+1, n+2, z): (-1)^n/((n+1)! Gamma(a-n)) (n+1) P/(a z), and the
    # finite sum at a+1, n+1 with the prefactor n!/Gamma(a+1) z^{-n-1}
    pre2 = math.factorial(n) * rga / a * ctx.power(z, -n - 1)
    return parts, (-sign * pre1 * partner[0] / (a * z), pre2 * _finite_sum(a - n, n + 1, z, ctx))


def _finite_sum(c, n: int, z, ctx):
    """sum_{r=0}^{n-1} (c)_r z^r / ((1-n)_r r!), the finite sum of
    ``_hyp_u_log_case`` with c = a - n."""
    fterm = ctx.convert(1)
    fsum = fterm
    for r in range(n - 1):
        fterm = fterm * (c + r) * z / ((1 - n + r) * (1 + r))
        fsum = fsum + fterm
    return fsum


def _hyp_u_reflection(a, b, z, ctx) -> tuple:
    """The two parts whose sum is U for non-integer b, by the two-1F1
    connection formula [AS 13.1.3], as a tuple of one part tuple."""
    first = ctx.gamma(1 - b) * ctx.rgamma(a - b + 1) * _hyp1f1_series(a, b, z, ctx)
    second = (ctx.gamma(b - 1) * ctx.rgamma(a)
              * ctx.power(z, 1 - b) * _hyp1f1_series(a - b + 1, 2 - b, z, ctx))
    return ((first, second),)


def _cancelling_sum(route, ctx, guard: int) -> list:
    """The sums of the part tuples ``route(gctx)`` returns, with ``guard``
    extra digits in force.  On an extended context, parts that cancel more
    than guard - 3 digits in any of the sums are evaluated again with 10
    more guard digits than they lost; a loss beyond MAX_GUARD_BITS raises
    PrecisionExhausted."""
    if ctx.kind == "hardware":  # no guard digits to add, and one sum
        (parts,) = route(ctx)
        return [sum(parts[1:], parts[0])]
    while True:
        with ctx.extra_digits(guard) as gctx:
            sums = route(gctx)
            values = [sum(parts[1:], parts[0]) for parts in sums]
            ratio = max(ctx.mag(p / value) if value != 0 else math.inf
                        for parts, value in zip(sums, values) for p in parts)
        lost = math.log10(ratio)
        if lost <= guard - 3:
            return values
        if lost > MAX_GUARD_BITS * math.log10(2):
            raise PrecisionExhausted(
                f"the parts of U cancel {lost:.0f} digits, beyond the {MAX_GUARD_BITS}-bit cap")
        guard = int(lost) + 10


def kummer_u(a, b, z, ctx=None):
    """Confluent hypergeometric function of the second kind U(a, b, z), z > 0.

    Branches, in order:

    1. non-positive integer b: U(a,b,z) = z^{1-b} U(a-b+1, 2-b, z)
    2. a = -m in Z_{<=0}: terminating polynomial (-1)^m (b)_m 1F1(-m;b;z)
    3. a-b+1 = -m in Z_{<=0}: z^{1-b} times the branch-2 polynomial
    4. positive integer b: logarithmic-case expansion (digamma series); at
       hardware precision and large z the optimally truncated asymptotic
       series is used instead when it meets the accuracy target
    5. otherwise: Gamma-reflection pair of 1F1 series (same large-z escape)

    The convergent routes 4-5 cancel like e^z, losing roughly 0.434*z decimal
    digits; extended contexts absorb that loss with guard digits (route 5)
    or the log series' own guard bits (route 4), and evaluate again with more
    when the loss exceeds them; the hardware context switches to the
    asymptotic series beyond z ~= 18.
    """
    ctx, a, b, z = _u_arguments(a, b, z, ctx)

    if is_nonpositive_integer(b):
        bi = nearest_integer(b)
        return ctx.power(z, 1 - bi) * kummer_u(a - bi + 1, 2 - bi, z, ctx)

    if is_nonpositive_integer(a):
        m = -nearest_integer(a)
        return (-1) ** m * pochhammer(b, m) * _hyp1f1_poly(m, b, z, ctx)

    if is_nonpositive_integer(a - b + 1):
        m = -nearest_integer(a - b + 1)
        poly = (-1) ** m * pochhammer(2 - b, m) * _hyp1f1_poly(m, 2 - b, z, ctx)
        return ctx.power(z, 1 - b) * poly

    zf = float(ctx.re(z))
    b_int = is_nonpositive_integer(1 - b)  # b, a positive integer

    if ctx.kind == "hardware" and zf >= ASYMPTOTIC_Z_SWITCH:
        value, achieved = _hyp_u_asymptotic(a, b, z, ctx)
        if achieved <= 1e2 * ctx.eps:
            return value
        # convergent route loses ~0.434*z digits; take whichever is less bad
        if achieved <= 10.0 ** (0.434 * zf) * ctx.eps:
            return value

    if b_int:
        return _u_log_route(a, b, z, zf, ctx, False)[0]

    return _cancelling_sum(lambda g: _hyp_u_reflection(
        g.convert(a), g.convert(b), g.convert(z), g), ctx, int(0.434 * zf) + 10)[0]


def _u_arguments(a, b, z, ctx):
    """ctx, a, b, z in the context, checked for U: finite, z real and > 0."""
    ctx = resolve(ctx)
    a = ctx.convert(a)
    b = ctx.convert(b)
    z = ctx.convert(z)
    if not ctx.isfinite(a + b + z):  # all three finite, short of an overflow
        raise UnsupportedRegion(f"kummer_u needs finite arguments, got a={a}, b={b}, z={z}")
    if ctx.mag(z) != abs(float(ctx.re(z))) or float(ctx.re(z)) <= 0:
        raise UnsupportedRegion(f"kummer_u requires real z > 0, got z={z!r}")
    z = ctx.re(z) if not isinstance(z, float) else z
    return ctx, a, b, z


def _u_log_route(a, b, z, zf: float, ctx, pair: bool) -> list:
    """U(a, b, z) by the logarithmic case for a positive integer b, with
    U(a+1, b+1, z) after it when ``pair``; zf is z as a float."""
    n = nearest_integer(b) - 1
    if zf < SMALL_Z_CUTOFF:
        raise UnsupportedRegion(
            f"integer-b U expansion refused below z={SMALL_Z_CUTOFF} (z={zf})")
    # the infinite sum carries its e^z cancellation, log2(e) = 1.443 bits per
    # unit of z, as guard bits of its own
    return _cancelling_sum(lambda g: _hyp_u_log_case(
        g.convert(a), n, g.convert(z), g, int(1.443 * zf), pair), ctx, 10)


def kummer_pair(kind: str, a, b, z, ctx=None) -> tuple:
    """(f(a, b, z), f(a+1, b+1, z)) for f = 1F1 (kind "M") or U (kind "W"),
    the contiguous pair whose second member is, up to a factor, the
    z-derivative of the first [DLMF 13.3.15, 13.3.22]:

        d/dz 1F1(a; b; z) = (a/b) 1F1(a+1; b+1; z),   d/dz U(a, b, z) = -a U(a+1, b+1, z).

    On an extended context the 1F1 power series (Re z > 0, a off the
    non-positive integers) and U's logarithmic case (positive integer b) sum
    both members in one fixed-point pass, whose lost bits and, for U, whose
    connection parts are judged over both; every other route, and the
    hardware context, makes the two ``kummer_m`` or ``kummer_u`` calls.
    """
    ctx = resolve(ctx)
    if ctx.kind != "hardware" and kind == "M":
        _, a, b, z = _m_arguments(a, b, z, ctx)
        if not is_nonpositive_integer(a) and float(ctx.re(z)) > 0:
            f, d = _fixed_point(_hyp1f1_fixed, (a, b, z, MAX_TERMS, False, True), ctx)
            return f, d * b / (a * z)
    elif ctx.kind != "hardware":
        _, a, b, z = _u_arguments(a, b, z, ctx)
        if (is_nonpositive_integer(1 - b) and not is_nonpositive_integer(a)
                and not is_nonpositive_integer(a - b + 1)):
            return tuple(_u_log_route(a, b, z, float(z), ctx, True))
    single = kummer_m if kind == "M" else kummer_u
    return single(a, b, z, ctx), single(a + 1, b + 1, z, ctx)


# ---------------------------------------------------------------------------
# Whittaker functions
# ---------------------------------------------------------------------------

def _whittaker_parts(kind: str, order, r, ctx):
    """ctx, mu, 1/2, a = mu - kappa + 1/2, b = 2 mu + 1, r and the prefactor
    e^{-r/2} r^{mu+1/2} shared by M and W, all in the context's arithmetic."""
    kappa, mu = order
    ctx = resolve(ctx)
    kappa = ctx.convert(kappa)
    mu = ctx.convert(mu)
    r = ctx.convert(r)
    if kind == "M" and ctx.mag(r) == 0:
        raise UnsupportedRegion("whittaker_m requires r != 0")
    half = ctx.convert(1) / 2
    prefactor = ctx.exp(-r / 2) * ctx.power(r, mu + half)
    return ctx, mu, half, mu - kappa + half, 2 * mu + 1, r, prefactor


def whittaker_with_derivative(kind: str, order, r, ctx=None):
    """(M_{kappa,mu}(r), M'_{kappa,mu}(r)) for kind "M", or (W, W') for kind
    "W", from the Kummer pair of ``kummer_pair``: one fixed-point pass on an
    extended context where its route allows, two Kummer evaluations
    otherwise.  With a = mu - kappa + 1/2, b = 2 mu + 1 the derivatives are
    the contiguous relations

        M' = (-1/2 + (mu+1/2)/r) M + (a/b) e^{-r/2} r^{mu+1/2} 1F1(a+1;b+1;r)
        W' = (-1/2 + (mu+1/2)/r) W - a e^{-r/2} r^{mu+1/2} U(a+1,b+1,r)

    never finite differences.  It is the one derivative entry point.
    """
    ctx, mu, half, a, b, r, prefactor = _whittaker_parts(kind, order, r, ctx)
    f, g = kummer_pair(kind, a, b, r, ctx)
    df = (a / b) * g if kind == "M" else -a * g
    return prefactor * f, (-half + (mu + half) / r) * prefactor * f + prefactor * df


def whittaker_w_seeds(order, r, ctx=None):
    """(W_{kappa,mu}(r), s) with s = W_{kappa,mu+1}(r)/W_{kappa,mu}(r) - 1,
    the two seeds of a forward W ladder in mu, from one ``kummer_pair``.
    With a = mu - kappa + 1/2, b = 2 mu + 1 the contiguous relation
    z U(a+1, b+2, z) = U(a, b, z) + b U(a+1, b+1, z) [DLMF 13.3.10 at a+1,
    b+2 with 13.3.9] gives

        W_{kappa,mu+1}(r) = W_{kappa,mu}(r) + (2mu+1) e^{-r/2} r^{mu+1/2} U(a+1, b+1, r),

    so s = b U(a+1, b+1, r)/U(a, b, r), free of the prefactor.  1 + s cancels
    where the two terms have opposite signs (complex kappa); the caller
    judges that loss.
    """
    ctx, _, _, a, b, r, prefactor = _whittaker_parts("W", order, r, ctx)
    u, u1 = kummer_pair("W", a, b, r, ctx)
    return prefactor * u, b * u1 / u


def whittaker_m(order, r, ctx=None):
    """Whittaker function M_{kappa,mu}(r) = e^{-r/2} r^{mu+1/2} 1F1(a;b;r),
    with a = mu - kappa + 1/2, b = 2 mu + 1; ``whittaker_with_derivative``
    adds the first r-derivative.

    Complex r is accepted on the principal branch of r^{mu+1/2}
    (single-valued whenever 2mu+1 is a positive integer, which is the only
    complex-argument use in this package).
    """
    ctx, _, _, a, b, r, prefactor = _whittaker_parts("M", order, r, ctx)
    return prefactor * kummer_m(a, b, r, ctx)


def whittaker_w(order, r, ctx=None):
    """Whittaker function W_{kappa,mu}(r) = e^{-r/2} r^{mu+1/2} U(a,b,r) for
    real r > 0; ``whittaker_with_derivative`` adds the first r-derivative.

    mu = l + 1/2 makes b = 2l + 2 a positive integer and routes U through its
    logarithmic case.
    """
    ctx, _, _, a, b, r, prefactor = _whittaker_parts("W", order, r, ctx)
    return prefactor * kummer_u(a, b, r, ctx)


def bessel_modified(nu, z, kind: str, ctx=None):
    """Modified Bessel function I_nu or K_nu for 2*nu a non-negative integer.

    Obtained through the Whittaker reduction
    K_nu(z) = sqrt(pi/(2z)) W_{0,nu}(2z),
    I_nu(z) = M_{0,nu}(2z) / (2^{2 nu} Gamma(nu+1) sqrt(2z)).
    """
    ctx = resolve(ctx)
    nu_f = float(getattr(nu, "real", nu))
    if abs(2 * nu_f - round(2 * nu_f)) > 1e-12 or nu_f < 0:
        raise UnsupportedOrder(f"bessel_modified needs 2*nu a non-negative integer, nu={nu!r}")
    if kind not in ("I", "K"):
        raise UnsupportedOrder(f"kind must be 'I' or 'K', got {kind!r}")
    nu = ctx.convert(nu)
    z = ctx.convert(z)
    if kind == "K":
        return ctx.sqrt(ctx.pi / (2 * z)) * whittaker_w((0, nu), 2 * z, ctx=ctx)
    return (whittaker_m((0, nu), 2 * z, ctx=ctx)
            / (ctx.power(2, 2 * nu) * ctx.gamma(nu + 1) * ctx.sqrt(2 * z)))
