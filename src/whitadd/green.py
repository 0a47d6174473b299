"""Coulomb bound states and the resolvent kernel in two equivalent forms.

The compact two-point kernel, its Legendre partial-wave expansion, the
normalized bound eigenfunctions, the eigenspace projection kernels (as an
eigenfunction double sum and as the closed Laguerre bracket coming from the
resolvent residue), and the radial-distribution integrals all live here.

Radial integrals use Gauss-Laguerre quadrature with the node count doubled
until the estimate is stable; after the substitution t = g r / n every
integrand appearing here is a polynomial against the e^{-t} weight, so the
doubling terminates almost immediately.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (CoincidentPoints, CoincidentRadii, GeometryViolation,
                     IndexOutOfRange, NoConvergence, UnsupportedRegion)
from .identities import (KAPPA_GUARD, addition_terms, geometry_from_cosine,
                         hostler_bracket, require_off_pole)
from .scalar import resolve
from .special_core import density_polynomial, laguerre, laguerre_bracket, spherical_harmonic
from .summation import SeriesOptions, SeriesOutcome, context_for, sum_series

FOUR_PI = 4.0 * math.pi
# the kernel diverges like 1/R; separations below this relative threshold
# are treated as coincident rather than evaluated
COINCIDENCE_RTOL = 1e-14

# Gauss-Laguerre nodes of the first estimate and the most the doubling may
# reach, and the relative stability at which an estimate is accepted
QUADRATURE_START_NODES = 32
QUADRATURE_MAX_NODES = 2048
QUADRATURE_TOL = 1e-10


@dataclass(frozen=True)
class SphericalPoint:
    """Point in spherical coordinates; angles in radians."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        if not self.r > 0:
            raise GeometryViolation(f"need r > 0, got r={self.r}")
        if not 0.0 <= self.theta <= math.pi:
            raise GeometryViolation(f"theta={self.theta} outside [0, pi]")
        if not 0.0 <= self.phi <= 2.0 * math.pi:
            raise GeometryViolation(f"phi={self.phi} outside [0, 2 pi]")


@dataclass(frozen=True)
class CoulombParams:
    """Coupling g and spectral parameter k of -laplace - g/r + k^2."""

    g: float
    k: float

    def __post_init__(self):
        if not (self.g > 0 and self.k > 0):
            raise UnsupportedRegion(
                f"need g > 0 and k > 0, got g={self.g}, k={self.k}")

    @property
    def kappa(self) -> float:
        """Whittaker order g/(2k) induced by the parameters."""
        return self.g / (2.0 * self.k)


@dataclass(frozen=True)
class QuantumNumbers:
    """Principal, azimuthal and magnetic quantum numbers."""

    n: int
    l: int
    m: int

    def __post_init__(self):
        if self.n < 1 or not abs(self.m) <= self.l <= self.n - 1:
            raise IndexOutOfRange(
                f"(n, l, m)=({self.n}, {self.l}, {self.m}) "
                "violates |m| <= l <= n - 1")


def angle_cosine(p: SphericalPoint, p0: SphericalPoint) -> float:
    """Cosine of the angle between the two position vectors."""
    c = (math.sin(p.theta) * math.sin(p0.theta) * math.cos(p.phi - p0.phi)
         + math.cos(p.theta) * math.cos(p0.theta))
    return min(1.0, max(-1.0, c))


def _geometry(p: SphericalPoint, p0: SphericalPoint):
    return geometry_from_cosine(p.r, p0.r, angle_cosine(p, p0))


def separation(p: SphericalPoint, p0: SphericalPoint) -> float:
    """Euclidean distance between the two points."""
    return float(_geometry(p, p0).R)


def bound_energy(n: int, g: float) -> float:
    """Discrete eigenvalue E_n = -g^2/(4 n^2)."""
    if n < 1:
        raise IndexOutOfRange(f"need n >= 1, got n={n}")
    return -g * g / (4.0 * n * n)


def degeneracy(n: int) -> int:
    """Multiplicity n^2 of the n-th eigenvalue."""
    if n < 1:
        raise IndexOutOfRange(f"need n >= 1, got n={n}")
    return n * n


def spectral_k(z: float) -> float:
    """Positive root k = sqrt(-z) parameterizing the resolvent at energy z."""
    if not z < 0:
        raise UnsupportedRegion(
            f"need z < 0, off the continuous spectrum; got z={z}")
    return math.sqrt(-z)


def hydrogen_eigenfunction(qn, g: float, p: SphericalPoint) -> complex:
    """Normalized bound eigenfunction psi_{n,l,m} evaluated at a point.

    psi = (g^{3/2}/n^{l+2}) sqrt((n-l-1)!/(2(n+l)!)) (g r)^l e^{-g r/(2n)}
          L^{2l+1}_{n-l-1}(g r/n) Y_l^m(theta, phi).
    """
    qn = qn if isinstance(qn, QuantumNumbers) else QuantumNumbers(*qn)
    n, l, m = qn.n, qn.l, qn.m
    rho = g * p.r / n
    norm = (g ** 1.5 / n ** (l + 2)) * math.sqrt(
        Fraction(math.factorial(n - l - 1), 2 * math.factorial(n + l)))
    radial = (g * p.r) ** l * math.exp(-rho / 2) * laguerre(n - l - 1, 2 * l + 1, rho)
    return norm * radial * spherical_harmonic(l, m, p.theta, p.phi)


def hostler_green(params: CoulombParams, p: SphericalPoint, p0: SphericalPoint,
                  ctx=None, kappa_guard: float = KAPPA_GUARD):
    """Compact two-point form of the resolvent kernel of -laplace - g/r + k^2.

    G = Gamma(1-kappa)/(4 pi R) [M'_{kappa,1/2}(k y) W_{kappa,1/2}(k x)
        - M_{kappa,1/2}(k y) W'_{kappa,1/2}(k x)]

    with kappa = g/(2k), x = r + r0 + R, y = r + r0 - R.  Symmetric under
    point exchange by construction.  Diverges at the bound energies where
    kappa hits a positive integer; ``kappa_guard`` sets how close is too
    close (residue studies deliberately pass a smaller guard).

    The inputs are doubles: r, r0, cos gamma, k and kappa = g/(2k) are fixed
    in double precision, and R, x and y are derived from them at the
    working precision of ``ctx`` (``GeometryConfig.at``), as the partial-wave
    sum derives its terms, so the two routes agree to that precision.
    """
    ctx = resolve(ctx)
    geo = _geometry(p, p0)
    if float(geo.R) <= COINCIDENCE_RTOL * (p.r + p0.r):
        raise CoincidentPoints(f"R={geo.R}; the kernel diverges like 1/R")
    require_off_pole(params.kappa, kappa_guard)
    kappa = ctx.convert(params.kappa)
    k = ctx.convert(params.k)
    R, x, y = geo.at(ctx)
    return ctx.gamma(1 - kappa) * hostler_bracket(kappa, k * x, k * y, ctx) / (4 * ctx.pi * R)


@dataclass
class SeriesEvaluation:
    """Value obtained by summing a series, with the summation diagnostics."""

    value: float
    series: SeriesOutcome


def partial_wave_green(params: CoulombParams, p: SphericalPoint,
                       p0: SphericalPoint,
                       opts: SeriesOptions | None = None) -> SeriesEvaluation:
    """Resolvent kernel as an adaptively truncated Legendre partial-wave sum.

    G = (1/(8 pi k r r0)) sum_l Gamma(l+1-kappa)/(2l)!
        M_{kappa,l+1/2}(2k r_<) W_{kappa,l+1/2}(2k r_>) P_l(cos gamma).

    Equal radii with a nonzero angle are admitted -- the two orderings of
    the split coincide there and the kernel is continuous -- but the terms
    then decay only algebraically, so tight tolerances end in NoConvergence
    carrying the partial sum.
    """
    opts = opts or SeriesOptions()
    geo = _geometry(p, p0)
    if float(geo.R) <= COINCIDENCE_RTOL * (p.r + p0.r):
        raise CoincidentRadii(
            "coincident points; the diagonal is covered by diagonal_density")
    require_off_pole(params.kappa)

    def terms(ctx):
        two_k = 2 * ctx.convert(params.k)
        scaled = geometry_from_cosine(two_k * ctx.convert(max(p.r, p0.r)),
                                      two_k * ctx.convert(min(p.r, p0.r)), geo.cos_gamma)
        return addition_terms(params.kappa, scaled, normalized=False)(ctx)

    out = sum_series(terms, opts)
    ctx = context_for(opts)
    return SeriesEvaluation(value=ctx.convert(params.k) / (2 * ctx.pi) * out.value,
                            series=out)


def projection_kernel(n: int, g: float, p: SphericalPoint, p0: SphericalPoint,
                      method: str = "residue") -> float:
    """Kernel of the orthogonal projection onto the n-th eigenspace.

    method="eigen_sum" takes the double sum of psi psi-bar over all n^2
    states; method="residue" evaluates the closed bracket

    (g^3/(16 pi R n^4)) e^{-g(r+r0)/(2n)}
        [x L^1_{n-1}(g x/2n) L_n(g y/2n) - y L^1_{n-1}(g y/2n) L_n(g x/2n)]

    obtained from the residue of the resolvent at E_n.  The two routes are
    computed by disjoint code paths on purpose.
    """
    if n < 1:
        raise IndexOutOfRange(f"need n >= 1, got n={n}")
    if method == "eigen_sum":
        total = 0.0 + 0.0j
        for l in range(n):
            for m in range(-l, l + 1):
                qn = QuantumNumbers(n, l, m)
                total += (hydrogen_eigenfunction(qn, g, p)
                          * hydrogen_eigenfunction(qn, g, p0).conjugate())
        return total.real
    if method != "residue":
        raise ValueError(
            f"method must be 'eigen_sum' or 'residue', got {method!r}")
    geo = _geometry(p, p0)
    if float(geo.R) <= COINCIDENCE_RTOL * (p.r + p0.r):
        raise CoincidentPoints(
            "R=0 is angle-free; use diagonal_density instead")
    s = g / (2.0 * n)
    return (g ** 3 / (16.0 * math.pi * geo.R * n ** 4)
            * math.exp(-s * (p.r + p0.r)) * laguerre_bracket(n, geo.x, geo.y, s))


def diagonal_density(n: int, g: float, r: float) -> float:
    """Projection kernel on its diagonal; independent of the angles."""
    if n < 1:
        raise IndexOutOfRange(f"need n >= 1, got n={n}")
    rho = g * r / n
    return (g ** 3 / (8.0 * math.pi * n ** 4) * math.exp(-rho)
            * density_polynomial(n, rho))


def radial_distribution(n: int, g: float, r: float) -> float:
    """D_n(r) = 4 pi r^2 times the diagonal kernel; integrates to n^2."""
    return FOUR_PI * r * r * diagonal_density(n, g, r)


@lru_cache(maxsize=None)
def _laggauss(nodes: int):
    from numpy.polynomial.laguerre import laggauss

    return laggauss(nodes)


def gauss_laguerre_integral(fn) -> float:
    """integral_0^inf e^{-t} fn(t) dt with node doubling until stable to
    QUADRATURE_TOL.

    fn is called with the nodes as a numpy array and may return a sequence
    of values of the same length; a pointwise fallback is applied when it
    cannot. numpy is imported here, at call time, so ``import whitadd``
    does not load it.
    """
    import numpy as np

    prev = None
    nodes = QUADRATURE_START_NODES
    while nodes <= QUADRATURE_MAX_NODES:
        t, w = _laggauss(nodes)
        try:
            vals = np.asarray(fn(t), dtype=float)
            if vals.shape != t.shape:
                raise ValueError
        except (TypeError, ValueError):
            vals = np.array([fn(ti) for ti in t], dtype=float)
        est = float(w @ vals)
        if prev is not None and abs(est - prev) <= QUADRATURE_TOL * max(1.0, abs(est)):
            return est
        prev = est
        nodes *= 2
    raise NoConvergence(
        f"quadrature not stable to {QUADRATURE_TOL} within {QUADRATURE_MAX_NODES} nodes")


def radial_norm(n: int, g: float) -> float:
    """integral_0^inf D_n(r) dr by Gauss-Laguerre; evaluates to n^2.

    The substitution t = g r/n absorbs the coupling entirely and matches the
    density's decay to the quadrature weight, leaving the polynomial
    integrand t^2 density_polynomial(n, t)/(2n).
    """
    if n < 1:
        raise IndexOutOfRange(f"need n >= 1, got n={n}")

    def integrand(t):
        return [ti * ti * density_polynomial(n, ti) / (2.0 * n) for ti in t]

    return gauss_laguerre_integral(integrand)
