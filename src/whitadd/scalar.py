"""Dual-precision scalar arithmetic contexts.

All function evaluators in this package are written once, generically, against
the small interface below. Two implementations are provided:

* ``HardwareContext`` -- native float/complex with ``gammafn`` supplying the
  gamma family: on real arguments the Cephes routines, bit for bit as
  scipy.special runs them, and on complex ones Stirling's series after a
  shift or a reflection. This is the default for every public entry point,
  and neither it nor the extended path loads scipy or numpy. Once converted, every
  hardware value is exactly a ``float`` or a ``complex``, so ``convert`` and
  ``mag`` serve those two exact types first and return at once (``mag`` is
  then plain ``abs``); every other type -- ``int``,
  ``bool``, ``Fraction``, mpmath ``mpf``/``mpc``, numpy scalars and the
  subclasses of ``float`` and ``complex`` -- takes the general path, which
  returns a builtin ``float`` or ``complex`` (a numpy ``complex128`` stays
  complex).
* ``ExtendedContext`` -- arbitrary-precision arithmetic (mpmath) at a
  configurable number of significant decimal digits. It lives in the leaf
  module ``mpcontext``, which is imported, and mpmath with it, on the first
  ``extended()`` call or read of ``scalar.ExtendedContext``, so a process on
  the hardware path never loads mpmath.

A clone of mpmath's context costs about 0.6 ms and every value it returns
keeps it alive, so ``extended`` hands out one ``ExtendedContext`` per thread
and digit count and reuses it. A context is not shared across threads: mpmath
raises the clone's working precision inside its own functions, which would
race.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from fractions import Fraction

from . import gammafn

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
        # mpmath and numpy scalars and anything float-like
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

    # the gamma family: an exact float goes straight to gammafn's real routes
    def gamma(self, x):
        if type(x) is not float:
            if isinstance(x, complex):
                return gammafn.cgamma(complex(x))
            x = float(x)
        return gammafn.gamma(x)

    def loggamma(self, x):
        """log Gamma(x) on the principal branch: complex for x <= 0."""
        if type(x) is not float:
            if isinstance(x, complex):
                return gammafn.cloggamma(complex(x))
            x = float(x)
        return gammafn.lgam(x) if x > 0 else gammafn.cloggamma(complex(x))

    def rgamma(self, x):
        """1/Gamma(x), finite at the poles of Gamma."""
        if type(x) is not float:
            if isinstance(x, complex):
                return gammafn.crgamma(complex(x))
            x = float(x)
        return gammafn.rgamma(x)

    def digamma(self, x):
        if type(x) is not float:
            if isinstance(x, complex):
                return gammafn.cpsi(complex(x))
            x = float(x)
        return gammafn.psi(x)

    def isfinite(self, x) -> bool:
        if type(x) is float:
            return math.isfinite(x)
        c = complex(x)
        return math.isfinite(c.real) and math.isfinite(c.imag)


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
        # through the module attribute, which a tracer may have replaced
        ctx = memo[digits] = sys.modules[__name__].ExtendedContext(digits)
    return ctx


def __getattr__(name: str):
    """``ExtendedContext`` loads mpmath, so its module is imported on first use."""
    if name == "ExtendedContext":
        from .mpcontext import ExtendedContext
        return ExtendedContext
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def resolve(ctx) -> HardwareContext | ExtendedContext:
    """Map the public ``ctx`` argument (None means hardware) to a context."""
    if ctx is None:
        return HARDWARE
    return ctx
