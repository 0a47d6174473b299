"""Arbitrary-precision scalars: the mpmath-backed ``ExtendedContext``.

``ExtendedContext`` computes with mpmath at a configurable number of
significant decimal digits (>= 30, default 60). It is used for oracle/golden-file
generation and for identity verification whenever the forecast digit loss
exceeds what hardware precision can absorb. Its magnitudes ``mag`` and ``abs``
are floats taken from the float parts, ``math.hypot(float(re), float(im))``: a
square root instead of an mpmath ``hypot`` at full precision, for values that
only steer stop rules and comparisons. ``fixed``, ``from_fixed``, ``exponent``
and ``workprec`` carry values to and from the fixed-point integers of the
Kummer series loops (``special_core``) and of the order ladders
(``identities``). ``digamma`` is summed on such integers too (``_psi_fixed``),
at the working precision plus ``PSI_GUARD_BITS``, plus the bits by which the
argument nears a pole: the upward recurrence to Re w >= wp/4, then ln w,
1/(2w) and the Stirling terms B_2k/(2k w^2k), with B_2k from mpmath's cached
Bernoulli numbers. A sum that cancels (near a zero of psi) is redone with the
bits it lost. Non-finite arguments and Re x < ``PSI_MIN_RE`` go to mpmath's
``psi``, whose complex case runs the same series in mpc arithmetic at several
times the cost.

Each ExtendedContext owns a private mpmath context clone, so it never races
on mpmath's global precision. Real inputs stay on the real path; complex
flavors are introduced only when an input is complex.

Apart from ``golden``'s oracles this is the only module that imports mpmath.
It imports nothing from the package, and the package reaches it only through
``scalar.extended`` and ``scalar.ExtendedContext``, so a process that stays on
hardware floats never loads it.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpc_log,
    mpf_add,
    mpf_bernoulli,
    mpf_log,
    round_nearest,
    to_fixed,
    to_float,
)

# ExtendedContext.digamma: bits summed beyond the working precision, and the
# real part below which the upward recurrence (one step per unit of Re x)
# would cost more than mpmath's reflection formula
PSI_GUARD_BITS = 20
PSI_MIN_RE = -1000.0


class ExtendedContext:
    """Arbitrary-precision scalars (mpmath mpf / mpc) at fixed decimal digits."""

    kind = "extended"

    def __init__(self, digits: int = 60):
        if digits < 30:
            raise ValueError("extended precision requires at least 30 digits")
        self.digits = int(digits)
        self._mp = mpmath.mp.clone()
        self._mp.dps = self.digits
        self.eps = 10.0 ** (1 - self.digits)

    @property
    def pi(self):
        return +self._mp.pi

    @property
    def euler(self):
        """Euler's constant gamma = -psi(1) at the working precision."""
        return +self._mp.euler

    def convert(self, x):
        if isinstance(x, Fraction):
            with self._mp.extradps(5):
                return self._mp.mpf(x.numerator) / x.denominator
        return self._mp.convert(x)

    def mag(self, x) -> float:
        return self.abs(self.convert(x))

    def abs(self, x) -> float:
        """``mag`` of a value already in this context's arithmetic."""
        v = getattr(x, "_mpc_", None)
        if v is None:
            return math.fabs(to_float(x._mpf_, rnd=round_nearest))
        return math.hypot(to_float(v[0], rnd=round_nearest), to_float(v[1], rnd=round_nearest))

    @property
    def prec(self) -> int:
        """The working precision in bits, raised inside ``extra_digits``."""
        return self._mp.prec

    def fixed(self, x, wp: int) -> tuple:
        """(re, im): the finite x times 2^wp, truncated to integers, so a
        fixed-point number with wp fractional bits; im is None for real x."""
        v = getattr(x, "_mpc_", None)
        if v is None:
            return to_fixed(x._mpf_, wp), None
        return to_fixed(v[0], wp), to_fixed(v[1], wp)

    def from_fixed(self, re: int, im, wp: int):
        """(re + i im) / 2^wp rounded to the working precision; real when im
        is None.  wp may be any integer, so a mantissa with a scale."""
        mp = self._mp
        prec, rnd = mp._prec_rounding
        if im is None:
            return mp.make_mpf(from_man_exp(re, -wp, prec, rnd))
        return mp.make_mpc((from_man_exp(re, -wp, prec, rnd), from_man_exp(im, -wp, prec, rnd)))

    def exponent(self, x) -> int:
        """An integer n within a few units of log2|x|, with |x| < 2^n
        (mpmath ``mag``); 0 for x = 0."""
        return self._mp.mag(x) if x else 0

    @contextmanager
    def workprec(self, bits: int):
        """Scope the working precision to ``bits`` bits."""
        with self._mp.workprec(bits):
            yield self

    def re(self, x):
        return self._mp.re(self.convert(x))

    def exp(self, x):
        return self._mp.exp(self.convert(x))

    def log(self, x):
        return self._mp.log(self.convert(x))

    def sqrt(self, x):
        return self._mp.sqrt(self.convert(x))

    def power(self, base, expo):
        return self._mp.power(self.convert(base), self.convert(expo))

    def cos(self, x):
        return self._mp.cos(self.convert(x))

    def gamma(self, x):
        return self._mp.gamma(self.convert(x))

    def loggamma(self, x):
        return self._mp.loggamma(self.convert(x))

    def rgamma(self, x):
        return self._mp.rgamma(self.convert(x))

    def digamma(self, x):
        """psi(x) rounded to the working precision, summed on fixed-point
        integers by ``_psi_fixed``; raises ValueError at a pole."""
        x = self.convert(x)
        v = getattr(x, "_mpc_", None)
        re, im = (x._mpf_, None) if v is None else v
        fre = to_float(re)
        if not self._mp.isfinite(x) or fre < PSI_MIN_RE:
            return self._mp.psi(0, x)
        # 1/(x+k) at a distance 2^-near from a pole needs near more bits
        near = 0
        if fre < 0.5:
            d = mpf_add(re, from_int(-round(fre)), 53)
            mags = [p[2] + p[3] for p in (d, im) if p is not None and p[1]]
            if not mags:
                raise ValueError(f"digamma pole at {x}")
            near = max(0, -max(mags))
        prec = self.prec
        wp = prec + PSI_GUARD_BITS + near
        while True:
            xi = None if im is None else to_fixed(im, wp)
            sr, si, terms = _psi_fixed(to_fixed(re, wp), xi, wp)
            # each term is off by about a unit, the pole's by 4^near units;
            # near a zero of psi the sum keeps fewer bits and is redone
            kept = max(abs(sr), abs(si or 0)).bit_length()
            short = prec + 3 + max(terms.bit_length(), 2 * near) - kept
            if short <= 0 or wp > 4 * (prec + near):
                return self.from_fixed(sr, si, wp)
            wp += short

    def isfinite(self, x) -> bool:
        return self._mp.isfinite(x)

    @contextmanager
    def extra_digits(self, n: int):
        with self._mp.extradps(int(max(0, n))):
            yield self


def _psi_fixed(xr: int, xi, wp: int):
    """(re, im, terms): psi(x) times 2^wp for the fixed-point number
    x = (xr + i xi) / 2^wp (xi None for real x, and then im too), and the
    number of terms summed.

    The upward recurrence psi(x) = psi(x+N) - sum_{k<N} 1/(x+k) [DLMF 5.5.2]
    brings w = x+N to Re w >= wp/4; there the Stirling series
    psi(w) ~ ln w - 1/(2w) - sum_k B_2k/(2k w^2k) [DLMF 5.11.2] reaches a
    term below one unit long before its smallest term, about e^{-2 pi |w|}.
    w^2k is carried as a growing integer that B_2k is divided by: a shrinking
    w^-2k in fixed point would keep only the top bits that the large B_2k
    then magnifies.
    """
    real = xi is None
    xi = xi or 0
    one, two_wp = 1 << wp, 2 * wp
    n = max(0, -((xr - (wp // 4 << wp)) >> wp))
    sr = si = 0
    for _ in range(n):
        if real:
            sr -= (one << wp) // xr
        else:
            m = xr * xr + xi * xi
            sr -= (xr << two_wp) // m
            si += (xi << two_wp) // m
        xr += one
    w = from_man_exp(xr, -wp)
    if real:
        sr += to_fixed(mpf_log(w, wp + 8), wp) - (one << wp) // (2 * xr)
        w2r, w2i = xr * xr >> wp, 0
    else:
        lr, li = mpc_log((w, from_man_exp(xi, -wp)), wp + 8)
        m = 2 * (xr * xr + xi * xi)
        sr += to_fixed(lr, wp) - (xr << two_wp) // m
        si += to_fixed(li, wp) + (xi << two_wp) // m
        w2r, w2i = (xr * xr - xi * xi) >> wp, 2 * xr * xi >> wp
    tr, ti = one, 0  # w^2k times 2^wp
    prev, k = two_wp, 1
    while True:
        c = _stirling_coefficient(k, wp)
        if real:
            tr = tr * w2r >> wp
            qr, qi = c // tr, 0
            tb = abs(qr).bit_length()
        else:
            tr, ti = (tr * w2r - ti * w2i) >> wp, (tr * w2i + ti * w2r) >> wp
            den = tr * tr + ti * ti
            qr, qi = c * tr // den, -c * ti // den
            tb = max(abs(qr), abs(qi)).bit_length()
        if tb <= 1 or tb >= prev:
            return sr, None if real else si, n + k
        sr -= qr
        si -= qi
        prev, k = tb, k + 1


@functools.lru_cache(maxsize=1024)
def _stirling_coefficient(k: int, wp: int) -> int:
    """B_2k / (2k) times 2^(2 wp): the k-th coefficient of psi's Stirling
    series, scaled so that dividing it by w^2k times 2^wp leaves wp bits."""
    return to_fixed(mpf_bernoulli(2 * k, wp), 2 * wp) // (2 * k)
