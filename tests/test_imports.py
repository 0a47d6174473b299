"""Imports inside ``whitadd`` go one way and never reach a private name.

The modules form a stack: errors, gammafn, mpcontext, scalar, special_core,
summation, identities, green, golden, cli.  Each may import only modules
below it, at module level or inside a function, and no module imports an
underscore name from another.  ``__init__`` is the package's front: it
imports each module on the first access to one of its names.

numpy is imported only inside the Gauss-Laguerre quadrature of ``green``, and
scipy nowhere, so neither the hardware evaluators nor the extended-precision
path load them.  mpmath is imported only by ``mpcontext``, which ``scalar``
loads with the first extended context, and by ``golden``'s oracles, so the
hardware Kummer, Whittaker and Green paths load none of the three, and a
hardware Kummer call loads no layer above ``special_core``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "whitadd"
ORDER = ("errors", "gammafn", "mpcontext", "scalar", "special_core", "summation", "identities",
         "green", "golden", "cli")


def _imports(module: str):
    """(imported module, imported names) for every whitadd import in
    ``module``, at any depth of its syntax tree."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or (node.level == 0 and node.module
                                   and node.module.split(".")[0] == "whitadd"):
                parts = (node.module or "").split(".")
                target = parts[0] if node.level == 1 else ".".join(parts[1:])
                names = [alias.name for alias in node.names]
                if target:
                    yield target, names
                else:  # from . import scalar
                    for name in names:
                        yield name, []
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "whitadd" and len(parts) > 1:
                    yield parts[1], []


def test_every_module_has_a_place_in_the_stack():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ORDER)


def test_no_module_imports_a_private_name():
    private = [(module, target, name)
               for module in ORDER for target, names in _imports(module)
               for name in names if name.startswith("_")]
    assert private == []


def test_imports_point_down_the_stack():
    upward = [(module, target)
              for i, module in enumerate(ORDER) for target, _ in _imports(module)
              if target not in ORDER[:i]]
    assert upward == []


# the functions that load numpy on first use; nothing else imports it or scipy
LOADERS = {("green", "_laggauss"), ("green", "gauss_laguerre_integral")}


def _heavy_imports(node, module: str, scope: str | None = None):
    """(module, enclosing function's qualified name or None) for every
    import of scipy or numpy under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            roots = [alias.name.split(".")[0] for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            roots = [child.module.split(".")[0]]
        else:
            roots = []
        if {"scipy", "numpy"} & set(roots):
            yield module, scope
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope is None else f"{scope}.{child.name}"
        yield from _heavy_imports(child, module, inner)


def test_scipy_and_numpy_are_imported_only_by_their_loaders():
    found = {site for path in sorted(PACKAGE.glob("*.py"))
             for site in _heavy_imports(ast.parse(path.read_text()), path.stem)}
    assert found == LOADERS


LAZY_PROBE = """
import sys
import whitadd, whitadd.cli
ext50 = whitadd.SeriesOptions(rel_tol=1e-45, max_terms=100_000, precision=("extended", 50))
reports = [whitadd.verify_whittaker_addition(0.3, whitadd.geometry_from(8.0, 0.5, 1.0), ext50),
           whitadd.verify_w_downward_sum(2, complex(0.3, 0.2), 1.0, 2.0, ext50)]
print(all(rep.ok(1e-40) for rep in reports))
print(sorted(name for name in ("scipy", "numpy") if name in sys.modules))
"""

# every hardware gamma-family route: U's log case (b an integer) and its
# reflection (b not), W, and both Green functions
HARDWARE_PROBE = """
import sys
import whitadd
params = whitadd.CoulombParams(1.0, 1.0)
p, p0 = whitadd.SphericalPoint(2.0, 1.0, 0.5), whitadd.SphericalPoint(1.0, 2.0, 1.5)
values = [whitadd.kummer_m(0.5, 1.5, 2.0), whitadd.kummer_u(0.3, 2.0, 1.5),
          whitadd.kummer_u(0.3, 1.7, 1.5), whitadd.whittaker_w((0.3, 0.5), 2.0),
          whitadd.hostler_green(params, p, p0), whitadd.partial_wave_green(params, p, p0).value]
print(all(v == v for v in values))
print(sorted(name for name in ("scipy", "numpy", "mpmath") if name in sys.modules))
"""

KUMMER_PROBE = """
import sys
import whitadd
print(whitadd.kummer_m(0.5, 1.5, 2.0) > 0)
print(sorted(name for name in sys.modules if name.split(".")[0] == "whitadd"))
"""

# every name that ``import whitadd`` bound before the front became lazy
PUBLIC = {
    "errors": """CoincidentPoints CoincidentRadii DerivativeStepUnderflow GeometryViolation
        IndexOutOfRange NearPole NoConvergence ParameterPole PoleAtNonpositiveB PoleHit
        PrecisionExhausted UnsupportedOrder UnsupportedRegion WhitaddError""",
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
SUBMODULES = ("errors", "gammafn", "scalar", "special_core", "summation", "identities",
              "green", "golden")

FRONT_PROBE = """
import importlib, sys, whitadd
pairs = [arg.split(":") for arg in sys.argv[1:]]
print(sorted(name for _, name in pairs if name not in dir(whitadd)))
print(sorted(name for home, name in pairs
             if getattr(whitadd, name) is not getattr(importlib.import_module(home), name)))
"""


def _fresh(probe: str, *args: str) -> list[str]:
    # a fresh interpreter: this one has scipy loaded already; the caller's
    # environment is kept, so PYTHONDONTWRITEBYTECODE holds there too
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    return proc.stdout.split("\n")[:2]


def test_extended_precision_path_loads_neither_scipy_nor_numpy():
    assert _fresh(LAZY_PROBE) == ["True", "[]"]


def test_hardware_path_loads_neither_scipy_nor_numpy_nor_mpmath():
    assert _fresh(HARDWARE_PROBE) == ["True", "[]"]


def test_hardware_kummer_call_loads_only_the_layers_below_it():
    modules = ["whitadd"] + [f"whitadd.{m}" for m in ("errors", "gammafn", "scalar",
                                                      "special_core")]
    assert _fresh(KUMMER_PROBE) == ["True", str(sorted(modules))]


def test_every_public_name_and_submodule_resolves_on_the_package():
    # home:name, the home module whose object the name must be
    pairs = [f"whitadd.{module}:{name}" for module, names in PUBLIC.items()
             for name in names.split()]
    pairs += [f"whitadd:{name}" for name in ("__version__", *SUBMODULES)]
    assert _fresh(FRONT_PROBE, *pairs) == ["[]", "[]"]
