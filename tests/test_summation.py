"""The summation engine: diagnostics, stopping rules, tail estimators."""

import math
from fractions import Fraction

import pytest

from helpers import assert_rel, rel
from whitadd.errors import GeometryViolation, NoConvergence
from whitadd.scalar import HARDWARE
from whitadd.summation import (
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
