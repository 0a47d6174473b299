"""Dual-precision scalar arithmetic contexts.

All function evaluators in this package are written once, generically, against
the small interface below. Two implementations are provided:

* ``HardwareContext`` -- native float/complex with scipy.special supplying the
  gamma family. This is the default for every public entry point.
  ``scipy.special`` is imported by the first hardware ``gamma``,
  ``loggamma``, ``rgamma`` or ``digamma`` call, not by ``import whitadd``,
  so a process that stays at extended precision never loads scipy (or the
  numpy under it). Once
  converted, every hardware value is exactly a ``float`` or a ``complex``, so
  ``convert`` and ``mag`` serve those two exact types first and return at
  once (``mag`` is then plain ``abs``); every other type -- ``int``,
  ``bool``, ``Fraction``, mpmath ``mpf``/``mpc``, numpy scalars and the
  subclasses of ``float`` and ``complex`` -- takes the general path, which
  returns a builtin ``float`` or ``complex`` (a numpy ``complex128`` stays
  complex).
* ``ExtendedContext`` -- arbitrary-precision arithmetic (mpmath) at a
  configurable number of significant decimal digits (>= 30, default 60). Used
  for oracle/golden-file generation and for identity verification whenever the
  forecast digit loss exceeds what hardware precision can absorb. Its
  magnitudes ``mag`` and ``abs`` are floats taken from the float parts,
  ``math.hypot(float(re), float(im))``: a square root instead of an mpmath
  ``hypot`` at full precision, for values that only steer stop rules and
  comparisons. ``fixed``, ``from_fixed``, ``exponent`` and ``workprec``
  carry values to and from the fixed-point integers of the Kummer series
  loops (``special_core``) and of the order ladders (``identities``).

Each ExtendedContext owns a private mpmath context clone, so it never races
on mpmath's global precision. A clone costs about 0.6 ms and every value it
returns keeps it alive, so ``extended`` hands out one context per thread and
digit count and reuses it. A context is not shared across threads: mpmath
raises the clone's working precision inside its own functions, which would
race. Real inputs stay on the real path; complex flavors are introduced only
when an input is complex.
"""

from __future__ import annotations

import cmath
import math
import threading
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp, round_nearest, to_fixed, to_float

_INTEGER_MATCH_TOL = 1e-12


def is_nonpositive_integer(x) -> bool:
    """True when x is (numerically) one of 0, -1, -2, ...

    Exact-type inputs (int, Fraction) are classified exactly; floats within
    _INTEGER_MATCH_TOL of a non-positive integer count as hits, since the
    branch they select is the only one that does not blow up there. An
    mpmath value counts only within its own context's eps, compared in
    mpmath, so extended contexts never trade digits for the shortcut.
    """
    if type(x) is float:
        return x < 0.5 and abs(x - round(x)) <= _INTEGER_MATCH_TOL
    if isinstance(x, int):
        return x <= 0
    if isinstance(x, Fraction):
        return x.denominator == 1 and x <= 0
    if hasattr(x, "_mpf_") or hasattr(x, "_mpc_"):
        n = nearest_integer(x)
        return n <= 0 and abs(x - n) <= x.context.eps * max(1, -n)
    if isinstance(x, complex):
        if abs(x.imag) > _INTEGER_MATCH_TOL:
            return False
        x = x.real
    try:
        xr = float(getattr(x, "real", x))
        xi = float(getattr(x, "imag", 0.0))
    except TypeError:
        return False
    if abs(xi) > _INTEGER_MATCH_TOL:
        return False
    return xr < 0.5 and abs(xr - round(xr)) <= _INTEGER_MATCH_TOL


def nearest_integer(x) -> int:
    return int(round(float(getattr(x, "real", x))))


class _SpecialLoader:
    """Stands in for ``scipy.special`` until its first use.

    The first attribute looked up imports the module and binds the global
    ``_sp`` to it, so every later gamma-family call reaches scipy through a
    plain global lookup, as a module-level import would.
    """

    def __getattr__(self, name):
        global _sp
        from scipy import special

        _sp = special
        return getattr(special, name)


_sp = _SpecialLoader()


class HardwareContext:
    """Native double-precision scalars (float / complex)."""

    kind = "hardware"
    digits = 16

    # relative resolution of one arithmetic operation
    eps = 2.220446049250313e-16

    @property
    def pi(self) -> float:
        return math.pi

    def convert(self, x):
        if type(x) is float or type(x) is complex:
            return x
        if isinstance(x, complex):  # numpy complex128 and other subclasses
            return complex(x)
        if isinstance(x, (int, float, Fraction)):
            return float(x)
        if isinstance(x, (mpmath.mpf, mpmath.mpc)):
            c = complex(x)
            return c.real if c.imag == 0.0 else c
        # numpy scalars and anything float-like
        c = complex(x)
        return c.real if c.imag == 0.0 else c

    def mag(self, x) -> float:
        t = type(x)
        if t is float or t is complex:
            return abs(x)
        return abs(self.convert(x))

    # ``mag`` of a value already in this context's arithmetic, for the inner
    # loops: such a value is a float or a complex, whose magnitude is abs()
    abs = staticmethod(abs)

    def re(self, x) -> float:
        return self.convert(x).real if isinstance(x, complex) else float(x)

    def exp(self, x):
        return cmath.exp(x) if isinstance(x, complex) else math.exp(x)

    def log(self, x):
        if isinstance(x, complex) or x < 0:
            return cmath.log(x)
        return math.log(x)

    def sqrt(self, x):
        if isinstance(x, complex) or x < 0:
            return cmath.sqrt(x)
        return math.sqrt(x)

    def power(self, base, expo):
        # principal branch; keep real when the result is real
        if not isinstance(base, complex) and not isinstance(expo, complex):
            if base > 0:
                return math.pow(base, expo)
            if base == 0:
                return 0.0 if expo > 0 else math.inf
            return complex(base) ** expo
        return complex(base) ** complex(expo)

    def cos(self, x):
        return cmath.cos(x) if isinstance(x, complex) else math.cos(x)

    def gamma(self, x):
        if isinstance(x, complex):
            return complex(_sp.gamma(x))
        return float(_sp.gamma(x))

    def loggamma(self, x):
        if isinstance(x, complex):
            return complex(_sp.loggamma(x))
        if x > 0:
            return float(_sp.loggamma(x))
        return complex(_sp.loggamma(complex(x)))

    def rgamma(self, x):
        """1/Gamma(x), finite at the poles of Gamma."""
        if isinstance(x, complex):
            return complex(_sp.rgamma(x))
        return float(_sp.rgamma(x))

    def digamma(self, x):
        if isinstance(x, complex):
            return complex(_sp.digamma(x))
        return float(_sp.digamma(x))

    def isfinite(self, x) -> bool:
        if type(x) is float:
            return math.isfinite(x)
        c = complex(x)
        return math.isfinite(c.real) and math.isfinite(c.imag)


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
        return self._mp.psi(0, self.convert(x))

    def isfinite(self, x) -> bool:
        return self._mp.isfinite(x)

    @contextmanager
    def extra_digits(self, n: int):
        with self._mp.extradps(int(max(0, n))):
            yield self


HARDWARE = HardwareContext()

# per-thread memo of extended(): digits -> ExtendedContext
_thread_contexts = threading.local()


def extended(digits: int = 60) -> ExtendedContext:
    """The calling thread's ExtendedContext at ``digits`` digits."""
    memo = getattr(_thread_contexts, "by_digits", None)
    if memo is None:
        memo = _thread_contexts.by_digits = {}
    ctx = memo.get(digits)
    if ctx is None:
        ctx = memo[digits] = ExtendedContext(digits)
    return ctx


def resolve(ctx) -> HardwareContext | ExtendedContext:
    """Map the public ``ctx`` argument (None means hardware) to a context."""
    if ctx is None:
        return HARDWARE
    return ctx
