"""Typed errors raised by the library.

Every failure mode is a named exception; no operation returns NaN silently.
All classes derive from WhitaddError so callers can catch the whole family.
"""

from __future__ import annotations


class WhitaddError(Exception):
    """Base class for all library errors."""


class PoleAtNonpositiveB(WhitaddError):
    """1F1(a; b; z) requested with b a non-positive integer (pole of the series)."""


class NoConvergence(WhitaddError):
    """A series failed to converge within max_terms.

    When raised by the summation engine, the partial diagnostics are attached
    as the ``outcome`` attribute for inspection.
    """

    def __init__(self, message: str, outcome=None):
        super().__init__(message)
        self.outcome = outcome


class UnsupportedRegion(WhitaddError):
    """Argument lies in a region where the implemented expansions lose all digits."""


class UnsupportedOrder(WhitaddError):
    """Function order outside the implemented family (e.g. 2*nu not an integer)."""


class IndexOutOfRange(WhitaddError):
    """Polynomial / harmonic index violates its admissible range."""


class GeometryViolation(WhitaddError):
    """Radial/angular configuration violates a precondition (e.g. r0 >= r)."""


class NearPole(WhitaddError):
    """Parameter too close to a pole of the identity's coefficient (kappa near a
    positive integer); the limiting-form verifier must be used instead."""


class DerivativeStepUnderflow(WhitaddError):
    """Numerical differentiation step shrank below representable resolution."""


class ParameterPole(WhitaddError):
    """Parameter sits exactly on a pole of a coefficient (e.g. 2*mu a negative integer)."""


class CoincidentPoints(WhitaddError):
    """Green's-function kernel requested at coincident spatial points."""


class CoincidentRadii(WhitaddError):
    """Partial-wave kernel requested at coincident points (chord R ~ 0), where
    the series diverges; equal radii at distinct points are admitted."""


class PrecisionExhausted(WhitaddError):
    """Requested tolerance unreachable even after precision escalation.

    Carries the best available diagnostics as the ``outcome`` attribute.
    """

    def __init__(self, message: str, outcome=None):
        super().__init__(message)
        self.outcome = outcome


class PoleHit(WhitaddError):
    """A rising-product coefficient crossed an exact zero in a denominator position."""
