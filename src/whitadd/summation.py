"""Series summation with residual and cancellation diagnostics.

Every partial-wave sum in this package runs through :func:`sum_series`, which
records, alongside the value, how many terms were taken, the largest term
magnitude, the cancellation condition number sum|t| / |sum t|, and a tail
estimate at the stopping point. Alternating series that inflate to 1e17
before collapsing to 1 are first-class citizens here: the condition number is
exactly the quantity that says how many digits the cancellation destroyed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import GeometryViolation, NoConvergence
from .scalar import HARDWARE, extended, resolve

logger = logging.getLogger(__name__)

DEFAULT_MAX_TERMS = 10_000

# a tail estimate must sit below tolerance this many consecutive checks;
# guards against the zero terms of alternating Legendre series at gamma=pi/2
CONSECUTIVE_PASSES = 3


@dataclass
class SeriesOptions:
    """Controls for :func:`sum_series`.

    Parameters
    ----------
    rel_tol : float
        Stop once the estimated tail is below rel_tol * |partial sum|.
    max_terms : int
        Hard cap; exceeding it raises NoConvergence with the partial outcome.
    precision : str | tuple
        "hardware" or ("extended", digits).
    """

    rel_tol: float = 1e-12
    max_terms: int = DEFAULT_MAX_TERMS
    precision: object = "hardware"


@dataclass
class SeriesOutcome:
    """What a finished (or abandoned) summation looked like."""

    value: object = 0.0
    n_terms: int = 0
    max_term_mag: float = 0.0
    condition_number: float = 1.0
    tail_estimate: float = math.inf

    def digits_lost(self) -> float:
        """Decimal digits destroyed by cancellation."""
        return math.log10(max(self.condition_number, 1.0))


def context_for(options: SeriesOptions):
    """Scalar context implied by options.precision."""
    p = options.precision
    if p == "hardware" or p is None:
        return HARDWARE
    if isinstance(p, (tuple, list)) and len(p) == 2 and p[0] == "extended":
        return extended(int(p[1]))
    raise ValueError(f"unrecognized precision spec {p!r}")


RATIO_WINDOW = 32


def _tail_bound(mags: list) -> float:
    """Geometric tail bound from the decay observed over a trailing window
    of the term magnitudes ``mags``.

    Single-step ratios are useless when the terms carry an oscillating or
    parity-split factor -- a Legendre polynomial passing near a zero makes
    one ratio enormous, and at a right angle the odd-order terms run many
    orders below the even ones while decaying at the same rate, so a ratio
    taken between the window's endpoints flip-flops with the endpoint
    parity.  The per-step rate q is instead measured between the peak
    magnitudes of the window's two halves, which follows the envelope of
    any modulation with period up to the window width, and the bound is
    anchored at the window's largest term.  The window must be wide enough
    to straddle an oscillation trough (near the antipodal angle the
    Legendre factor behaves like a Bessel function whose amplitude dips for
    tens of consecutive orders); 32 terms costs at most that many extra
    evaluations on smooth series and prevents a premature stop on modulated
    ones.  Fewer than four terms give no estimate (an infinite tail), which
    is what keeps ``sum_series`` from stopping on its first terms.

    The window is mags[start:n], start = max(0, n - RATIO_WINDOW), with head
    half mags[start:mid] and tail half mags[mid:n], mid = start + (n-start)//2.
    A half's peak is ``max`` over it: NaN when its first magnitude is, else
    the largest of the others.  Short of a NaN, the bound is never below the
    tail half's peak, and so never below the last magnitude: a finite one,
    with d = mid - start >= 2, is at least m_head q / (1 - q) >= m_head q^d.
    """
    n = len(mags)
    if n < 4:
        return math.inf
    start = max(0, n - RATIO_WINDOW)
    mid = start + (n - start) // 2
    m_head, m_tail = max(mags[start:mid]), max(mags[mid:])
    if m_tail == 0.0:
        # the trailing half underflowed; a window of zeros may instead be an
        # exactly terminated series, which only a full window is trusted to show
        return 0.0 if n >= RATIO_WINDOW or any(m != 0.0 for m in mags) else math.inf
    if m_head == 0.0:
        return math.inf
    q = (m_tail / m_head) ** (1.0 / (mid - start))
    if not q < 1.0:
        return math.inf
    return (m_tail if m_tail > m_head else m_head) * q / (1.0 - q)


def sum_series(terms, options: SeriesOptions | None = None) -> SeriesOutcome:
    """Sum a series with full diagnostics.

    Parameters
    ----------
    terms : iterable | callable
        An iterable of scalar terms, or a callable ``terms(ctx)`` returning
        one -- the callable form lets a single series definition be re-summed
        at another precision by passing other options.
    options : SeriesOptions

    Returns
    -------
    SeriesOutcome

    Raises
    ------
    NoConvergence
        If max_terms is exhausted before the tail estimate meets rel_tol, or
        if the terms leave the context's range (an OverflowError, kept as the
        exception's ``__cause__``).  The partial outcome rides on the
        exception's ``outcome`` attribute.
    """
    options = options or SeriesOptions()
    ctx = context_for(options)
    rel_tol, max_terms = options.rel_tol, options.max_terms

    # On hardware the sum is Neumaier-compensated: the partial sum s and its
    # compensation c take the real parts, and from the first complex term on
    # s_im and c_im take the imaginary parts (None until then); the value is
    # s + c, or complex(s + c, s_im + c_im).  Extended contexts carry enough
    # digits to add plainly into s.  The magnitudes and their sum abs_sum,
    # which only steer the stop rule and the condition number, are floats.
    #
    # The stop rule wants tail <= rel_tol * |value|.  The tail bound is never
    # below the last magnitude, and |value| <= abs_sum up to rounding, so a
    # term with mag > rel_tol * 2 abs_sum cannot pass it: such a term only
    # resets ``passes``, without the bound or |value| being formed.  A NaN
    # or overflowing 2 abs_sum never skips, so every stop, value and
    # exception is the one the full rule gives on every term.
    hardware = ctx.kind == "hardware"
    s = value = 0.0 if hardware else ctx.convert(0)
    c = 0.0
    s_im = c_im = None
    mags: list[float] = []
    abs_sum = 0.0
    max_mag = 0.0
    passes = 0
    n = 0

    try:
        it = iter(terms(ctx) if callable(terms) else terms)
        while True:
            if n >= max_terms:
                tail = _tail_bound(mags)
                outcome = _finish(value, n, max_mag, abs_sum, tail, ctx)
                logger.debug("series abandoned after %d terms, tail~%.2e", n, tail)
                raise NoConvergence(
                    f"series did not meet rel_tol={rel_tol} in {n} terms",
                    outcome=outcome)
            try:
                term = next(it)
            except StopIteration:
                # the stream is finite and complete: its true tail is zero
                tail = 0.0
                break
            if hardware:
                # hardware terms are float or complex once converted, and abs()
                # of one is exactly its ctx.mag
                if type(term) is not float and type(term) is not complex:
                    term = ctx.convert(term)
                mag = abs(term)
                if s_im is None and type(term) is float:
                    t_re = term
                else:
                    if s_im is None:
                        s_im = c_im = 0.0
                    t = complex(term)
                    t_re, t_im = t.real, t.imag
                    new = s_im + t_im
                    c_im += (s_im - new) + t_im if abs(s_im) >= abs(t_im) else (t_im - new) + s_im
                    s_im = new
                new = s + t_re
                c += (s - new) + t_re if abs(s) >= abs(t_re) else (t_re - new) + s
                s = new
                value = s + c if s_im is None else complex(s + c, s_im + c_im)
            else:
                term = ctx.convert(term)
                mag = ctx.abs(term)
                s = value = s + term
            reach = 2.0 * (abs_sum + mag)
            value_mag = (None if mag > rel_tol * (1e-300 if reach < 1e-300 else reach)
                         else ctx.abs(value))
            abs_sum = abs_sum + mag
            if mag > max_mag:
                max_mag = mag
            n += 1
            mags.append(mag)
            if value_mag is None:
                passes = 0
                continue
            tail = _tail_bound(mags)
            if tail <= rel_tol * (1e-300 if value_mag < 1e-300 else value_mag):
                passes += 1
                if passes >= CONSECUTIVE_PASSES:
                    break
            else:
                passes = 0
    except OverflowError as exc:
        # a term past the context's range: refuse rather than truncate
        raise NoConvergence(
            f"series terms left the {ctx.kind} range before the tail met "
            "tolerance; raise the precision or loosen rel_tol",
            outcome=_finish(value, n, max_mag, abs_sum, _tail_bound(mags), ctx)) from exc

    return _finish(value, n, max_mag, abs_sum, tail, ctx)


def _finish(value, n, max_mag, abs_sum, tail, ctx) -> SeriesOutcome:
    vmag = float(ctx.mag(value))
    cond = abs_sum / vmag if vmag > 0 else math.inf
    return SeriesOutcome(
        value=value,
        n_terms=n,
        max_term_mag=max_mag,
        condition_number=cond,
        tail_estimate=float(tail),
    )


def exact_rational_sum(terms) -> Fraction:
    """Sum a finite iterable of Fractions/ints exactly.

    Floats are rejected: the point of this path is bit-exact residuals.
    """
    total = Fraction(0)
    for t in terms:
        if isinstance(t, float):
            raise TypeError("exact_rational_sum got a float; use Fraction terms")
        total += Fraction(t)
    return total


def mu_large_term_surrogate(kappa, mu, r0: float, r: float, ell: int, ctx=None):
    """Normalized-term prediction with both Whittaker factors replaced by
    their leading large-order asymptotics,

        M_{k,l+mu}(r0) -> r0^(l+mu+1/2),
        W_{k,l+mu}(r)  -> Gamma(k+l+mu)/sqrt(pi) * (r/4)^(1/2-l-mu),

    which collapses the normalized alternating-series term to

        t_l ~ 2^(2mu-1) (r+r0)^(mu+1/2) / (sqrt(pi) r^(2mu) W_{k,mu}(r+r0))
              * (mu-k+1/2)_l Gamma(l+k+mu) / (l! (l+2mu)_l) * (4 r0/r)^l.

    Real positive-parameter configurations only; the Gamma quotients run in
    log space, so indices far beyond hardware factorial range are fine.
    """
    if r0 >= r:
        raise GeometryViolation(f"surrogate needs r0 < r, got r0={r0}, r={r}")
    if r0 <= 0 or r <= 0:
        raise GeometryViolation("radii must be positive")
    ctx = resolve(ctx)
    k = ctx.convert(kappa)
    m = ctx.convert(mu)
    a = m - k + ctx.convert(1) / 2
    if float(getattr(a, "real", a)) <= 0 or float(getattr(k + m, "real", k + m)) <= 0:
        raise GeometryViolation(
            "surrogate assumes mu-kappa+1/2 > 0 and kappa+mu > 0")
    from .special_core import whittaker_w
    w_sum = whittaker_w((k, m), ctx.convert(r + r0), ctx=ctx)
    log_pref = ((2 * m - 1) * ctx.log(ctx.convert(2))
                + (m + ctx.convert(1) / 2) * ctx.log(ctx.convert(r + r0))
                - ctx.log(ctx.convert(math.pi)) / 2
                - 2 * m * ctx.log(ctx.convert(r)) - ctx.log(w_sum))
    two_mu_l = ctx.convert(ell) + 2 * m
    log_term = (ctx.loggamma(a + ell) - ctx.loggamma(a)
                + ctx.loggamma(k + m + ell)
                - ctx.loggamma(ctx.convert(ell + 1))
                - (ctx.loggamma(two_mu_l + ell) - ctx.loggamma(two_mu_l))
                + ell * ctx.log(ctx.convert(4 * r0 / r)))
    return ctx.exp(log_pref + log_term)
