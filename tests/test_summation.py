"""The summation engine: diagnostics, stopping rules, tail estimators."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from helpers import assert_rel, rel
from whitadd import summation
from whitadd.errors import GeometryViolation, NoConvergence
from whitadd.scalar import HARDWARE
from whitadd.summation import (
    RATIO_WINDOW,
    SeriesOptions,
    context_for,
    exact_rational_sum,
    mu_large_term_surrogate,
    sum_series,
)


def geometric(ratio, start=1.0):
    t = start
    while True:
        yield t
        t *= ratio


def test_geometric_sum():
    out = sum_series(geometric(0.5), SeriesOptions(rel_tol=1e-12))
    assert_rel(out.value, 2.0, 1e-12)
    assert out.condition_number == pytest.approx(1.0)
    assert out.digits_lost() == 0.0
    assert out.tail_estimate <= 1e-12 * 2.0
    assert out.n_terms < 100


def test_alternating_sum_condition_number():
    out = sum_series(geometric(-0.5), SeriesOptions(rel_tol=1e-12))
    assert_rel(out.value, 2.0 / 3.0, 1e-12)
    # sum|t| = 2, |sum t| = 2/3
    assert out.condition_number == pytest.approx(3.0, rel=1e-9)
    assert out.digits_lost() == pytest.approx(math.log10(3.0), rel=1e-6)


def test_finite_stream_has_zero_tail():
    out = sum_series(iter([1.0, 2.0, 3.0]))
    assert out.value == 6.0
    assert out.n_terms == 3
    assert out.tail_estimate == 0.0


def test_no_convergence_carries_partial_outcome():
    with pytest.raises(NoConvergence) as exc:
        sum_series(geometric(1.0), SeriesOptions(max_terms=50))
    out = exc.value.outcome
    assert out.n_terms == 50
    assert out.value == pytest.approx(50.0)
    assert out.tail_estimate == math.inf


def test_overflowing_stream_ends_in_no_convergence():
    # a term past the double range refuses with the partial sum, as max_terms does
    def terms():
        yield from (1.0, 0.5, 0.25)
        raise OverflowError("term past the double range")

    with pytest.raises(NoConvergence) as exc:
        sum_series(terms())
    assert isinstance(exc.value.__cause__, OverflowError)
    out = exc.value.outcome
    assert out.n_terms == 3
    assert out.value == 1.75


def test_compensated_accumulation():
    # naive float addition returns 0.0 here
    out = sum_series(iter([1e100, 1.0, -1e100]))
    assert out.value == 1.0
    assert out.condition_number == pytest.approx(2e100)


def test_callable_terms_resummed_per_context():
    def terms(ctx):
        t = ctx.convert(1)
        for _ in range(200):
            yield t
            t = t / 3

    hw = sum_series(terms, SeriesOptions(rel_tol=1e-13))
    ex = sum_series(terms, SeriesOptions(rel_tol=1e-13, precision=("extended", 40)))
    assert hasattr(ex.value, "_mpf_")  # stayed in extended precision
    assert rel(hw.value, ex.value) < 1e-13
    assert_rel(hw.value, 1.5, 1e-12)


def test_parity_split_series_stops():
    # two interleaved geometric trains 17 orders apart with a common decay
    # rate: an endpoint-to-endpoint ratio flips above/below 1 with the window
    # parity, but the half-window peak envelope sees the true rate
    def terms():
        for n in range(100_000):
            t = 0.5 ** n
            yield t if n % 2 == 0 else 1e-17 * t

    out = sum_series(terms(), SeriesOptions(rel_tol=1e-12))
    assert out.n_terms <= 120
    assert_rel(out.value, 4.0 / 3.0, 1e-12)


def _rescanned_tail(mags):
    """The tail bound recomputed from the whole trailing window, as
    sum_series did on every term before it kept running maxima."""
    window = mags[-RATIO_WINDOW:]
    if len(window) < 4:
        return math.inf
    if all(m == 0.0 for m in window):
        return 0.0 if len(mags) >= RATIO_WINDOW else math.inf
    half = len(window) // 2
    m_head = max(window[:half])
    m_tail = max(window[half:])
    if m_tail == 0.0:
        return 0.0
    if m_head == 0.0:
        return math.inf
    q = (m_tail / m_head) ** (1.0 / half)
    if not q < 1.0:
        return math.inf
    return max(m_head, m_tail) * q / (1.0 - q)


class _RescanWindow:
    def __init__(self):
        self.mags = []

    def push(self, mag):
        self.mags.append(mag)
        return _rescanned_tail(self.mags)


def _magnitude_streams():
    rng = random.Random(20240306)
    special = (0.0, 1.0, 2.5, 1e-300, 5e-324, math.inf, math.nan)
    for n in (1, 3, 4, 5, 17, 31, 32, 33, 64, 257):
        for _ in range(25):
            mags = []
            for i in range(n):
                u = rng.random()
                if u < 0.15:
                    mags.append(rng.choice(special))
                elif u < 0.3 and mags:
                    mags.append(rng.choice(mags))  # a tie with an earlier term
                else:
                    mags.append(rng.random() * 10.0 ** rng.randint(-30, 5) * 0.8 ** i)
            yield mags
    yield [1.0] * 10 + [0.0] * 60  # exactly terminated
    yield [0.5 ** n for n in range(1200)]  # underflows to whole windows of zeros
    yield [0.0] * 40
    yield [3.0] * 50


def test_running_tail_matches_window_rescan():
    for mags in _magnitude_streams():
        for n in range(1, len(mags) + 1):
            got, want = summation._tail_bound(mags[:n]), _rescanned_tail(mags[:n])
            assert repr(got) == repr(want), f"n={n} of {mags}"


@pytest.mark.parametrize("stream, opts", [
    (lambda: geometric(0.5), SeriesOptions(rel_tol=1e-12)),
    (lambda: geometric(-0.97, 3.0), SeriesOptions(rel_tol=1e-14)),
    (lambda: (0.5 ** n if n % 2 == 0 else 1e-17 * 0.5 ** n for n in range(10_000)),
     SeriesOptions(rel_tol=1e-12)),
    (lambda: (1.0 if n < 10 else 0.0 for n in range(10_000)), SeriesOptions(rel_tol=1e-12)),
    (lambda: (complex(0.9, -0.4) ** n for n in range(10_000)), SeriesOptions(rel_tol=1e-13)),
    (lambda: (Fraction(1, 3) ** n for n in range(10_000)),
     SeriesOptions(rel_tol=1e-40, precision=("extended", 50))),
    (lambda: geometric(0.999), SeriesOptions(rel_tol=1e-12, max_terms=500)),
    # cancellation: |value| ~ 2e-9 against sum |t| ~ 5e8
    (lambda: ((-20.0) ** n / math.factorial(n) for n in range(10_000)),
     SeriesOptions(rel_tol=1e-12)),
    (lambda: (10.0 ** n for n in range(10_000)), SeriesOptions(rel_tol=1e-12)),  # overflows
])
def test_sum_series_stops_where_the_window_rescan_stops(stream, opts):
    # the reference forms the rescanned bound and |value| on every term
    def outcome(fn):
        try:
            return fn(stream(), opts)
        except NoConvergence as exc:
            return exc.outcome

    running, rescanned = outcome(sum_series), outcome(_accumulator_sum_series)
    assert running.n_terms == rescanned.n_terms
    assert repr(running) == repr(rescanned)


class _Accumulator:
    """The compensated accumulator sum_series used as a separate object,
    kept as the oracle of the accumulation now folded into its loop.  On an
    extended context it holds the exact sum of the finite terms, each cut
    with Fractions to the binary scale 2^-e that the first nonzero term sets
    (its exponent less the precision and SUM_GUARD_BITS), and adds the
    non-finite terms apart in the context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.compensate = ctx.kind == "hardware"
        self.total = 0.0
        self._c_re = 0.0
        self._c_im = 0.0
        self._exact = [0, None]  # the cut real and imaginary sums times 2^e
        self._e = self._special = None

    def _add_exact(self, term):
        ctx = self.ctx
        if not ctx.isfinite(term):
            self._special = term if self._special is None else self._special + term
            return
        if self._e is None and term:
            self._e = ctx.prec + summation.SUM_GUARD_BITS - ctx.exponent(term)
        scale = Fraction(2) ** (self._e or 0)
        parts = [term] if getattr(term, "_mpc_", None) is None else [term.real, term.imag]
        for i, part in enumerate(parts):
            sign, man, exp, _ = part._mpf_
            cut = math.floor(Fraction((-1) ** sign * int(man)) * Fraction(2) ** int(exp) * scale)
            self._exact[i] = cut if self._exact[i] is None else self._exact[i] + cut

    @staticmethod
    def _neumaier(s, c, t):
        new = s + t
        if abs(s) >= abs(t):
            c += (s - new) + t
        else:
            c += (t - new) + s
        return new, c

    def add(self, term):
        if not self.compensate:
            self._add_exact(term)
            return
        if isinstance(term, complex) or isinstance(self.total, complex):
            tr = complex(self.total)
            sr, self._c_re = self._neumaier(tr.real, self._c_re, complex(term).real)
            si, self._c_im = self._neumaier(tr.imag, self._c_im, complex(term).imag)
            self.total = complex(sr, si)
        else:
            self.total, self._c_re = self._neumaier(self.total, self._c_re, term)

    def value(self):
        if not self.compensate:
            value = self.ctx.from_fixed(*self._exact, self._e or 0)
            return value if self._special is None else value + self._special
        if isinstance(self.total, complex):
            return self.total + complex(self._c_re, self._c_im)
        return self.total + self._c_re


def _accumulator_sum_series(terms, options):
    """sum_series as it was with ``_Accumulator``: same stopping rule, same
    diagnostics, NoConvergence with the partial outcome."""
    ctx = context_for(options)
    acc, window = _Accumulator(ctx), _RescanWindow()
    hardware = ctx.kind == "hardware"
    abs_sum, max_mag, tail, passes, n = 0.0, 0.0, math.inf, 0, 0
    it = iter(terms)

    def finish():
        value = acc.value()
        vmag = float(ctx.mag(value))
        return summation.SeriesOutcome(
            value=value, n_terms=n, max_term_mag=max_mag,
            condition_number=float(abs_sum) / vmag if vmag > 0 else math.inf,
            tail_estimate=float(tail))

    while True:
        if n >= options.max_terms:
            raise NoConvergence(
                f"series did not meet rel_tol={options.rel_tol} in {n} terms",
                outcome=finish())
        try:
            term = next(it)
        except StopIteration:
            tail = 0.0
            break
        except OverflowError as exc:
            raise NoConvergence("series terms left the range", outcome=finish()) from exc
        if hardware:
            if type(term) is not float and type(term) is not complex:
                term = ctx.convert(term)
            mag = abs(term)
        else:
            term = ctx.convert(term)
            mag = ctx.mag(term)
        acc.add(term)
        abs_sum = abs_sum + mag
        if mag > max_mag:
            max_mag = mag
        n += 1
        tail = window.push(mag)
        value = acc.value()
        value_mag = abs(value) if hardware else ctx.mag(value)
        if tail <= options.rel_tol * max(value_mag, 1e-300):
            passes += 1
            if passes >= summation.CONSECUTIVE_PASSES:
                break
        else:
            passes = 0
    return finish()


def _accumulation_streams(seed):
    """Seeded term lists that exercise every accumulation path."""
    rng = random.Random(seed)

    def real(i):
        return rng.uniform(-1, 1) * 0.8 ** (i / 4)

    def cplx(i):
        return complex(real(i), real(i))

    # real terms, then complex ones from a random index on, then real again
    switch = rng.randrange(1, 40)
    yield [real(i) if i < switch or i > switch + 30 else cplx(i) for i in range(120)]
    yield [cplx(0)] + [real(i) for i in range(1, 80)]
    # non-finite and signed-zero terms, real and complex
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, complex(-0.0, -0.0),
                complex(math.nan, 0.0), complex(0.0, math.inf)]
    for special in specials:
        terms = [real(i) for i in range(60)]
        terms[rng.randrange(60)] = special
        yield terms
    yield [-0.0] * 50
    yield [complex(-0.0, 0.0)] * 50
    yield [math.inf, -math.inf] + [real(i) for i in range(40)]
    # exactly cancelling pairs, and a huge term cancelled around small ones
    pairs = [real(i) * 10 ** rng.randrange(-5, 20) for i in range(40)]
    yield [t for x in pairs for t in (x, -x)]
    yield [t for x in pairs for t in (complex(x, -x), complex(-x, x))]
    yield [1e100, real(0), -1e100] + [real(i) for i in range(1, 60)]
    # exact types converted on the way in
    yield [Fraction(1, 3), 2, True, 0.5] + [real(i) for i in range(40)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sum_series_accumulates_like_the_accumulator(seed):
    options = [SeriesOptions(rel_tol=1e-12), SeriesOptions(rel_tol=1e-12, max_terms=25),
               SeriesOptions(rel_tol=1e-25, precision=("extended", 30))]

    def outcome(fn, terms, opts):
        try:
            return "returned", fn(list(terms), opts)
        except NoConvergence as exc:
            return str(exc), exc.outcome

    for terms in _accumulation_streams(seed):
        for opts in options:
            got = outcome(sum_series, terms, opts)
            want = outcome(_accumulator_sum_series, terms, opts)
            assert repr(got) == repr(want), terms
            assert type(got[1].value) is type(want[1].value)


def test_sum_series_partial_outcome_matches_the_accumulator():
    # a series too slow for max_terms: the partial sum rides on NoConvergence
    rng = random.Random(7)
    terms = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if n % 7 == 3
             else rng.uniform(-1, 1) for n in range(400)]
    opts = SeriesOptions(rel_tol=1e-14, max_terms=300)
    with pytest.raises(NoConvergence) as got:
        sum_series(terms, opts)
    with pytest.raises(NoConvergence) as want:
        _accumulator_sum_series(terms, opts)
    assert got.value.outcome.n_terms == 300
    assert repr(got.value.outcome) == repr(want.value.outcome)
    assert str(got.value) == str(want.value)


def test_exactly_terminating_stream():
    # zero tail after an exact cutoff must win over the ratio estimate
    def terms():
        for n in range(10_000):
            yield 1.0 if n < 10 else 0.0

    out = sum_series(terms(), SeriesOptions(rel_tol=1e-12))
    assert out.value == 10.0
    assert out.n_terms <= 2 * 32 + 10


def test_context_for():
    assert context_for(SeriesOptions()) is HARDWARE
    assert context_for(SeriesOptions(precision=("extended", 40))).digits == 40
    with pytest.raises(ValueError):
        context_for(SeriesOptions(precision="quad"))


def test_exact_rational_sum():
    assert exact_rational_sum([Fraction(1, 3), Fraction(1, 6), 1]) == Fraction(3, 2)
    assert exact_rational_sum([]) == 0
    with pytest.raises(TypeError):
        exact_rational_sum([Fraction(1, 2), 0.5])


def test_mu_large_term_surrogate_guards():
    with pytest.raises(GeometryViolation):
        mu_large_term_surrogate(1.0, 20.0, 2.0, 1.0, 10)
    with pytest.raises(GeometryViolation):
        mu_large_term_surrogate(5.0, 1.0, 1.0, 2.0, 10)  # mu - kappa + 1/2 < 0


def test_mu_large_term_surrogate_drop_point():
    # in the large-order stress configuration the predicted normalized term
    # first falls below 0.1 at index 168
    vals = {l: float(mu_large_term_surrogate(1.0, 20.0, 1.0, 2.0, l)) for l in range(150, 181)}
    first = min(l for l, v in vals.items() if v < 0.1)
    assert first == 168


@pytest.mark.parametrize("stream", [
    # cancelling: |value| ~ 2e-9 against sum |t| ~ 5e8
    lambda ctx: [ctx.convert(-20) ** n / math.factorial(n) for n in range(200)],
    # growing a hundredfold, then decaying
    lambda ctx: [ctx.convert(7) ** n / math.factorial(n) * (n + ctx.pi) for n in range(200)],
    # exact zeros before, between and after the nonzero terms
    lambda ctx: [ctx.convert(0) if n < 3 or n % 3 == 1 else ctx.convert(n) ** -30
                 for n in range(200)],
])
def test_extended_sum_is_the_exact_sum_rounded_once(stream):
    # the terms a sum took against mpmath's fsum of the same terms at twice
    # the precision: within two units of the value's last working bit, where
    # an mpf running sum loses the bits its partial sums cancel
    opts = SeriesOptions(rel_tol=1e-55, precision=("extended", 50))
    ctx = context_for(opts)
    terms = stream(ctx)
    out = sum_series(terms, opts)
    with mpmath.workdps(100):
        exact = mpmath.fsum(terms[:out.n_terms])
        assert abs(out.value - exact) <= 2 * mpmath.mpf(2) ** -ctx.prec * abs(exact)
