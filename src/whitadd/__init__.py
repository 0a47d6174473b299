"""whitadd: Whittaker-function addition theorems and the Coulomb Green function.

Scalar special functions (Kummer 1F1/U, Whittaker M/W, classical orthogonal
polynomials), diagnostically instrumented series summation, machine
verification of the addition/summation identities relating compact
Whittaker-product forms to partial-wave expansions, and the closed-form
Coulomb Green function with its bound-state projections.
"""

from .errors import (
    CoincidentPoints,
    CoincidentRadii,
    DerivativeStepUnderflow,
    GeometryViolation,
    IndexOutOfRange,
    NearPole,
    NoConvergence,
    ParameterPole,
    PoleAtNonpositiveB,
    PoleHit,
    PrecisionExhausted,
    UnsupportedOrder,
    UnsupportedRegion,
    WhitaddError,
)
from .scalar import HARDWARE, ExtendedContext, HardwareContext, extended, resolve
from .special_core import (
    bessel_modified,
    binomial,
    density_polynomial,
    gegenbauer_c,
    kummer_m,
    kummer_u,
    laguerre,
    laguerre_bracket,
    legendre_p,
    log_pochhammer,
    pochhammer,
    spherical_harmonic,
    whittaker_m,
    whittaker_w,
)
from .summation import (
    DEFAULT_MAX_TERMS,
    SeriesOptions,
    SeriesOutcome,
    exact_rational_sum,
    mu_large_term_surrogate,
    sum_series,
)
from .identities import (
    ExactReport,
    GeometryConfig,
    IdentityReport,
    coefficient_delta_sum,
    geometry_from,
    geometry_from_cosine,
    pi_addition_terms,
    verify_gamma_pi,
    verify_gamma_zero,
    verify_gegenbauer_addition,
    verify_graf_2d,
    verify_kappa_integer_limit,
    verify_laguerre_addition,
    verify_laguerre_symmetric,
    verify_lemma_binomial,
    verify_m_exp_sum,
    verify_m_gegenbauer_sum,
    verify_pi_addition_general,
    verify_spherical_addition,
    verify_w_downward_sum,
    verify_whittaker_addition,
)
from .green import (
    CoulombParams,
    QuantumNumbers,
    SphericalPoint,
    bound_energy,
    degeneracy,
    diagonal_density,
    gauss_laguerre_integral,
    hostler_green,
    hydrogen_eigenfunction,
    partial_wave_green,
    projection_kernel,
    radial_distribution,
    radial_norm,
    spectral_k,
)
from .golden import build_group, entry_map, load_golden, write_golden

__version__ = "0.1.0"
