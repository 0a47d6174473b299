"""whitadd: Whittaker-function addition theorems and the Coulomb Green function.

Scalar special functions (Kummer 1F1/U, Whittaker M/W, classical orthogonal
polynomials), diagnostically instrumented series summation, machine
verification of the addition/summation identities relating compact
Whittaker-product forms to partial-wave expansions, and the closed-form
Coulomb Green function with its bound-state projections.

``import whitadd`` loads no layer: each public name, and each submodule, is
imported on its first access from the table below, so a process pays only
for the layers its calls use.  A hardware Kummer or Whittaker call loads
``errors``, ``gammafn``, ``scalar`` and ``special_core``; a Green function
adds ``summation``, ``identities`` and ``green``.  mpmath comes in with the
first extended-precision context (``mpcontext``, through ``extended``) or
with ``golden``'s oracles, and numpy only with ``green``'s Gauss-Laguerre
quadrature.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; each submodule also resolves as
# an attribute of its own name
_EXPORTS = {
    "errors": """CoincidentPoints CoincidentRadii DerivativeStepUnderflow GeometryViolation
        IndexOutOfRange NearPole NoConvergence ParameterPole PoleAtNonpositiveB PoleHit
        PrecisionExhausted UnsupportedOrder UnsupportedRegion WhitaddError""",
    "gammafn": "",
    "scalar": "HARDWARE ExtendedContext HardwareContext extended resolve",
    "special_core": """bessel_modified binomial density_polynomial gegenbauer_c kummer_m
        kummer_u laguerre laguerre_bracket legendre_p log_pochhammer pochhammer
        spherical_harmonic whittaker_m whittaker_w""",
    "summation": """DEFAULT_MAX_TERMS SeriesOptions SeriesOutcome exact_rational_sum
        mu_large_term_surrogate sum_series""",
    "identities": """ExactReport GeometryConfig IdentityReport coefficient_delta_sum
        geometry_from geometry_from_cosine pi_addition_terms verify_gamma_pi
        verify_gamma_zero verify_gegenbauer_addition verify_graf_2d
        verify_kappa_integer_limit verify_laguerre_addition verify_laguerre_symmetric
        verify_lemma_binomial verify_m_exp_sum verify_m_gegenbauer_sum
        verify_pi_addition_general verify_spherical_addition verify_w_downward_sum
        verify_whittaker_addition""",
    "green": """CoulombParams QuantumNumbers SphericalPoint bound_energy degeneracy
        diagonal_density gauss_laguerre_integral hostler_green hydrogen_eigenfunction
        partial_wave_green projection_kernel radial_distribution radial_norm spectral_k""",
    "golden": "build_group entry_map load_golden write_golden",
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names.split())}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
