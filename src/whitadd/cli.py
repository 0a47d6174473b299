"""Command line front end: ``whitadd eval|verify|green|golden``.

``eval`` computes a single special-function or Green-function value,
``verify`` sweeps an addition-formula check over a parameter grid,
``green`` cross-checks the closed-form Coulomb resolvent against its
partial-wave series at one pair of points, and ``golden`` regenerates the
frozen reference files.

Exit status is 0 on success, 1 when any verification row misses its
threshold, and 2 on bad usage or invalid parameters; unexpected internal
errors also map to 2 rather than a traceback.  When the reader of standard
output goes away (``whitadd verify --list | head -1``) the command stops
quietly with 141, the 128 + SIGPIPE status a shell reports for ``yes | head``.

Structured output:

* JSON payloads carry ``"schema": 2`` and encode values the same way the
  golden files do -- ``{"re": ..., "im": ...}`` decimal strings at 17
  significant digits, ``{"fraction": "p/q"}`` for exact rationals -- so a
  value printed by the CLI compares byte-for-byte against the library call
  formatted the same way.
* ``verify`` rows carry the fields of ``Row`` in its order: ``index``, the
  parameters (a JSON object, or one CSV column each in the order listed by
  ``verify --list``), ``lhs``, ``rhs``, ``abs_err``, ``rel_err``,
  ``n_terms``, ``condition_number``, ``digits_lost``, ``exact``, ``passed``,
  ``error``, ``precision``, ``seconds``: the precision a row really ran at
  (``hardware``, or ``extended(digits)`` in CSV and ``["extended", digits]``
  in JSON; empty or null for an exact or a raised row) and its wall time.
* Human-readable tables round to 10 significant digits and print ``-``
  for diagnostics a closed-form route does not have.

``WHITADD_DIGITS`` sets the default working precision in decimal digits
(hardware doubles when unset); ``--digits`` overrides it per invocation.
Grid flags accept comma-separated lists whose entries may be integers,
fractions (``7/3``), floats, complex numbers (``0.3+0.4j``), or multiples
of pi (``pi/3``, ``2pi/3``, ``-0.5pi``).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import itertools
import json
import logging
import math
import os
import re
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import WhitaddError
from .green import (CoulombParams, SeriesEvaluation, SphericalPoint, diagonal_density,
                    gauss_laguerre_integral, hostler_green, partial_wave_green,
                    projection_kernel, radial_distribution, radial_norm)
from .identities import (coefficient_delta_sum, geometry_from,
                         geometry_from_cosine, near_positive_integer,
                         pi_addition_terms, verify_gamma_pi, verify_gamma_zero,
                         verify_gegenbauer_addition, verify_graf_2d,
                         verify_kappa_integer_limit, verify_laguerre_addition,
                         verify_laguerre_symmetric, verify_lemma_binomial,
                         verify_m_exp_sum, verify_m_gegenbauer_sum,
                         verify_pi_addition_general, verify_spherical_addition,
                         verify_w_downward_sum, verify_whittaker_addition,
                         ExactReport)
from .scalar import extended
from .special_core import (bessel_modified, density_polynomial, gegenbauer_c, kummer_m,
                           kummer_u, laguerre, legendre_p, spherical_harmonic,
                           whittaker_m, whittaker_w, whittaker_with_derivative)
from .summation import (DEFAULT_MAX_TERMS, SeriesOptions, context_for,
                        mu_large_term_surrogate)

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 2
ENV_DIGITS = "WHITADD_DIGITS"

# remark-5.3 stress configuration: kappa=1, mu=20, r0=1, r=2 summed at 60
# digits, with the l=0 and l=145 normalized magnitudes reported
STRESS_KAPPA = 1.0
STRESS_MU = 20.0
STRESS_R0 = 1.0
STRESS_R = 2.0
STRESS_DIGITS = 60
STRESS_ELL = 145
# six-figure |t_145|; the source states 3214.65, an erratum (see ERRATA.md)
STRESS_T145 = 3215.83
SURROGATE_CUTOFF = 0.1


class UsageError(WhitaddError):
    """Bad command line input; maps to exit status 2."""


# ---------------------------------------------------------------------------
# scalar parsing and formatting
# ---------------------------------------------------------------------------

_PI_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


def parse_scalar(text: str):
    """Parse one numeric token: int, fraction, float, complex, or pi-multiple.

    Integer-looking input stays ``int`` and ``p/q`` stays ``Fraction`` so the
    exact identity checkers receive exact arguments.
    """
    s = text.strip()
    if not s:
        raise UsageError("empty numeric value")
    m = _PI_RE.match(s)
    if m:
        coef = m.group(1)
        if coef in ("", "+"):
            val = math.pi
        elif coef == "-":
            val = -math.pi
        else:
            val = float(coef) * math.pi
        if m.group(2):
            val /= float(m.group(2))
        return val
    try:
        return int(s)
    except ValueError:
        pass
    if "/" in s:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    try:
        return float(s)
    except ValueError:
        pass
    try:
        return complex(s)
    except ValueError:
        raise UsageError(f"cannot parse numeric value {text!r}") from None


def parse_real(text: str):
    """Parse one real numeric token: ``parse_scalar`` without the complex form."""
    v = parse_scalar(text)
    if isinstance(v, complex):
        raise UsageError(f"expected a real value, got {text!r}")
    return v


def parse_point(text: str) -> SphericalPoint:
    """Parse ``r,theta,phi`` into a SphericalPoint."""
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"point {text!r} must be r,theta,phi")
    return SphericalPoint(*(float(parse_real(p)) for p in parts))


def fmt_value(v, digits: int = 10) -> str:
    if v is None:
        return "-"
    if isinstance(v, str):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, int):
        return str(v)
    c = complex(v)
    if c.imag == 0.0:
        return format(c.real, f".{digits}g")
    sign = "+" if (c.imag > 0 or c.imag == 0) else "-"
    return (format(c.real, f".{digits}g") + sign
            + format(abs(c.imag), f".{digits}g") + "j")


def encode_value(v):
    """JSON encoding shared with the golden files (17 significant digits)."""
    if v is None:
        return None
    if isinstance(v, Fraction):
        return {"fraction": f"{v.numerator}/{v.denominator}"}
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return {"fraction": f"{v}/1"}
    c = complex(v)
    return {"re": format(c.real, ".17g"), "im": format(c.imag, ".17g")}


def encode_param(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, bool) or isinstance(v, int):
        return v
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, float):
        return v
    return str(v)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, Fraction)):
        return str(v)
    if isinstance(v, complex):
        return fmt_value(v, 17)
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, tuple):
        return f"{v[0]}({v[1]})"  # ("extended", digits) precision
    return str(v)


def _dump_json(payload: dict, path: str) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# precision / options plumbing
# ---------------------------------------------------------------------------

def resolve_digits(flag_digits) -> int | None:
    """--digits flag, else WHITADD_DIGITS, else None (hardware); >= 30."""
    digits = flag_digits
    raw = os.environ.get(ENV_DIGITS, "").strip()
    if digits is None and raw:
        try:
            digits = int(raw)
        except ValueError:
            raise UsageError(f"{ENV_DIGITS}={raw!r} is not an integer") from None
    if digits is not None and digits < 30:
        raise UsageError("extended precision needs --digits >= 30")
    return digits


def context_from(digits: int | None):
    return None if digits is None else extended(digits)


def options_from(args, digits: int | None, rel_tol: float | None = None) -> SeriesOptions:
    """Series options from the flags, at digits already resolved and the
    series tolerance ``rel_tol`` (None for the default)."""
    return SeriesOptions(rel_tol=rel_tol or 1e-12,
                         max_terms=args.max_terms or DEFAULT_MAX_TERMS,
                         precision="hardware" if digits is None else ("extended", digits))


# ---------------------------------------------------------------------------
# eval subcommand
# ---------------------------------------------------------------------------

# function -> (flags it requires, flags it also takes, call(a, ctx, opts)),
# where ``a`` maps each of _EVAL_PARAM_FLAGS to its parsed value; a call
# returns the value, or partial_wave's SeriesEvaluation with its diagnostics
EVAL_FUNCTIONS = {
    "whittaker_m": (("kappa", "mu", "r"), ("deriv",),
                    lambda a, ctx, opts: whittaker_with_derivative(
                        "M", (a["kappa"], a["mu"]), a["r"], ctx)[1] if a["deriv"]
                    else whittaker_m((a["kappa"], a["mu"]), a["r"], ctx=ctx)),
    "whittaker_w": (("kappa", "mu", "r"), ("deriv",),
                    lambda a, ctx, opts: whittaker_with_derivative(
                        "W", (a["kappa"], a["mu"]), a["r"], ctx)[1] if a["deriv"]
                    else whittaker_w((a["kappa"], a["mu"]), a["r"], ctx=ctx)),
    "kummer_m": (("a", "b", "z"), (),
                 lambda a, ctx, opts: kummer_m(a["a"], a["b"], a["z"], ctx=ctx)),
    "kummer_u": (("a", "b", "z"), (),
                 lambda a, ctx, opts: kummer_u(a["a"], a["b"], a["z"], ctx=ctx)),
    "legendre": (("l", "x"), ("m",),
                 lambda a, ctx, opts: legendre_p(a["l"], a["m"] or 0, a["x"])),
    "gegenbauer": (("l", "mu", "x"), (),
                   lambda a, ctx, opts: gegenbauer_c(a["l"], a["mu"], a["x"])),
    "laguerre": (("n", "x"), ("alpha",),
                 lambda a, ctx, opts: laguerre(a["n"], a["alpha"] if a["alpha"] is not None else 0,
                                               a["x"])),
    "spherical_harmonic": (("l", "m", "theta", "phi"), (),
                           lambda a, ctx, opts: spherical_harmonic(a["l"], a["m"], float(a["theta"]),
                                                                   float(a["phi"]))),
    "bessel_i": (("nu", "z"), (),
                 lambda a, ctx, opts: bessel_modified(a["nu"], a["z"], "I", ctx=ctx)),
    "bessel_k": (("nu", "z"), (),
                 lambda a, ctx, opts: bessel_modified(a["nu"], a["z"], "K", ctx=ctx)),
    "hostler": (("g", "k", "p", "p0"), (),
                lambda a, ctx, opts: hostler_green(CoulombParams(float(a["g"]), float(a["k"])),
                                                   a["p"], a["p0"], ctx=ctx)),
    "partial_wave": (("g", "k", "p", "p0"), (),
                     lambda a, ctx, opts: partial_wave_green(
                         CoulombParams(float(a["g"]), float(a["k"])), a["p"], a["p0"], opts=opts)),
    "projection": (("n", "g", "p", "p0"), ("method",),
                   lambda a, ctx, opts: projection_kernel(a["n"], float(a["g"]), a["p"], a["p0"],
                                                          method=a["method"] or "residue")),
    "density": (("n", "g", "r"), (),
                lambda a, ctx, opts: diagonal_density(a["n"], float(a["g"]), float(a["r"]))),
    "radial_density": (("n", "g", "r"), (),
                       lambda a, ctx, opts: radial_distribution(a["n"], float(a["g"]), float(a["r"]))),
}

# flags echoed back into the params block of eval output, in display order
_EVAL_PARAM_FLAGS = ("kappa", "mu", "r", "a", "b", "z", "l", "m", "n", "alpha",
                     "nu", "x", "theta", "phi", "g", "k", "p", "p0", "method",
                     "deriv")

# the series diagnostics eval reports, each None for a closed-form function
_SERIES_DIAGNOSTICS = ("n_terms", "condition_number", "tail_estimate")


def cmd_eval(args) -> int:
    required, optional, call = EVAL_FUNCTIONS[args.function]
    digits = resolve_digits(args.digits)
    a = {name: getattr(args, name) for name in _EVAL_PARAM_FLAGS}
    used = {k: v for k, v in a.items() if v is not None and v is not False}
    missing = [k for k in required if k not in used]
    if missing:
        raise UsageError(f"{args.function} requires --" + " --".join(missing))
    unknown = [k for k in used if k not in required + optional]
    if unknown:
        raise UsageError(f"{args.function} does not take --" + " --".join(unknown))
    value = call(a, context_from(digits), options_from(args, digits, args.rel_tol))
    series = None
    if isinstance(value, SeriesEvaluation):
        value, series = value.value, value.series

    if args.json:
        payload = {"schema": SCHEMA_VERSION, "command": "eval",
                   "function": args.function,
                   "params": {k: ([v.r, v.theta, v.phi]
                                  if isinstance(v, SphericalPoint)
                                  else encode_param(v)) for k, v in used.items()},
                   "digits": digits,
                   "value": encode_value(value)}
        payload.update((k, getattr(series, k, None)) for k in _SERIES_DIAGNOSTICS)
        _dump_json(payload, args.json)
    else:
        shown = " ".join(f"{k}={fmt_value(v) if not isinstance(v, SphericalPoint) else f'({v.r},{v.theta},{v.phi})'}"
                         for k, v in used.items())
        print(f"{args.function}({shown}) = {fmt_value(value)}")
        if series is not None:
            for k in _SERIES_DIAGNOSTICS:
                print(f"  {k} = {fmt_value(getattr(series, k))}")
    return 0


# ---------------------------------------------------------------------------
# verify subcommand: identity registry, grids, sweep machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityEntry:
    """One verifiable identity: parameter names, runner, defaults."""

    params: tuple
    run: object                   # (pt: dict, opts) -> IdentityReport | ExactReport
    grid: dict
    threshold: float | None      # None marks an exact (rational) identity
    note: str = ""


_GAMMAS = (0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi)

IDENTITIES = {
    "whittaker_addition": IdentityEntry(
        ("kappa", "r0", "r", "gamma"),
        lambda pt, opts: verify_whittaker_addition(
            pt["kappa"], geometry_from(pt["r"], pt["r0"], float(pt["gamma"])),
            opts=opts),
        {"kappa": [-0.7, 0.3 + 0.4j, 2.5], "r0": [0.5, 1.0], "r": [2.0, 5.0],
         "gamma": list(_GAMMAS)},
        1e-9,
        note="compact bracket vs partial-wave sum over the full angle range"),
    "gamma_zero": IdentityEntry(
        ("kappa", "r0", "r"),
        lambda pt, opts: verify_gamma_zero(pt["kappa"], pt["r0"], pt["r"],
                                           opts=opts),
        {"kappa": [-0.7, 0.3 + 0.4j], "r0": [0.5], "r": [2.0]},
        1e-10,
        note="collinear closed form"),
    "gamma_pi": IdentityEntry(
        ("kappa", "r0", "r"),
        lambda pt, opts: verify_gamma_pi(pt["kappa"], pt["r0"], pt["r"],
                                         opts=opts),
        {"kappa": [-0.7, 0.3 + 0.4j], "r0": [0.5], "r": [2.0]},
        1e-10,
        note="antipodal closed form"),
    "kappa_integer_limit": IdentityEntry(
        ("n", "r0", "r", "gamma"),
        lambda pt, opts: verify_kappa_integer_limit(
            pt["n"], geometry_from(pt["r"], pt["r0"], float(pt["gamma"])),
            opts=opts),
        {"n": [1], "r0": [1.0], "r": [2.0], "gamma": [math.pi / 3]},
        1e-8,
        note="finite part at a bound-state pole via Richardson differences"),
    "m_exp_sum": IdentityEntry(
        ("kappa", "z"),
        lambda pt, opts: verify_m_exp_sum(pt["kappa"], pt["z"], opts=opts),
        {"kappa": [0.5], "z": [1.3]},
        1e-10,
        note="exponential generating sum of M functions"),
    "graf_2d": IdentityEntry(
        ("k", "r0", "r", "phi"),
        lambda pt, opts: verify_graf_2d(pt["k"], pt["r0"], pt["r"],
                                        float(pt["phi"]), opts=opts),
        {"k": [1.0], "r0": [0.7], "r": [1.9], "phi": [math.pi / 5]},
        1e-10,
        note="planar modified-Bessel addition"),
    "gegenbauer_addition": IdentityEntry(
        ("nu", "r0", "r", "gamma"),
        lambda pt, opts: verify_gegenbauer_addition(
            pt["nu"], pt["r0"], pt["r"], float(pt["gamma"]), opts=opts),
        {"nu": [1.0], "r0": [0.7], "r": [1.9], "gamma": [math.pi / 5]},
        1e-10,
        note="Macdonald-function addition in Gegenbauer form"),
    "spherical_addition": IdentityEntry(
        ("l", "theta", "phi", "theta0", "phi0"),
        lambda pt, opts: verify_spherical_addition(
            pt["l"], float(pt["theta"]), float(pt["phi"]),
            float(pt["theta0"]), float(pt["phi0"])),
        {"l": [7], "theta": [0.4], "phi": [1.1], "theta0": [2.0],
         "phi0": [-0.3]},
        1e-12,
        note="Legendre of the included angle vs spherical-harmonic sum"),
    "laguerre_addition": IdentityEntry(
        ("n", "r0", "r", "gamma"),
        lambda pt, opts: verify_laguerre_addition(
            pt["n"], geometry_from(pt["r"], pt["r0"], float(pt["gamma"]))),
        {"n": list(range(1, 13)), "r0": [0.5], "r": [1.5],
         "gamma": [math.pi / 3]},
        1e-11,
        note="finite Laguerre addition formula"),
    "laguerre_symmetric": IdentityEntry(
        ("n", "u", "v", "variant"),
        lambda pt, opts: verify_laguerre_symmetric(
            pt["n"], pt["u"], pt["v"], variant=pt["variant"]),
        {"n": list(range(0, 13)), "u": [0.9], "v": [2.4],
         "variant": ["interior"]},
        1e-11,
        note="two-variable symmetric Laguerre sums"),
    "w_downward_sum": IdentityEntry(
        ("n", "kappa", "mu", "r"),
        lambda pt, opts: verify_w_downward_sum(pt["n"], pt["kappa"], pt["mu"],
                                               pt["r"], opts=opts),
        {"n": list(range(1, 11)), "kappa": [-1.2, 0.7 + 0.3j],
         "mu": [0.3, 1.0, 2.5], "r": [0.8, 3.0, 12.0]},
        1e-10,
        note="W at shifted order as a finite downward sum"),
    "pi_addition": IdentityEntry(
        ("kappa", "mu", "r0", "r"),
        lambda pt, opts: verify_pi_addition_general(pt["kappa"], pt["mu"],
                                                    pt["r0"], pt["r"],
                                                    opts=opts),
        {"kappa": [0.9], "mu": [2.2], "r0": [1.0], "r": [3.0]},
        1e-9,
        note="alternating general-order antipodal sum (self-escalating)"),
    "m_gegenbauer_sum": IdentityEntry(
        ("kappa", "mu", "z", "gamma"),
        lambda pt, opts: verify_m_gegenbauer_sum(pt["kappa"], pt["mu"],
                                                 pt["z"], float(pt["gamma"]),
                                                 opts=opts),
        {"kappa": [0.0, 1.1], "mu": [0.8, 2.0], "z": [1.5, 1.5 + 0.5j],
         "gamma": [0.0, math.pi / 3, math.pi]},
        1e-9,
        note="M along a split argument against a Gegenbauer-weighted sum"),
    "lemma_binomial": IdentityEntry(
        ("N", "nu"),
        lambda pt, opts: verify_lemma_binomial(pt["N"], pt["nu"]),
        {"N": list(range(0, 51)),
         "nu": [Fraction(1, 3), 1, Fraction(7, 3), Fraction(11, 2)]},
        None,
        note="binomial-Gegenbauer coefficient identity, exact rational"),
    "delta_sum": IdentityEntry(
        ("n", "mu"),
        lambda pt, opts: _run_delta_sum(pt),
        {"n": list(range(0, 21)), "mu": [Fraction(3, 4)]},
        None,
        note="coefficient sum collapsing to delta_{n,0}, exact rational"),
}


def _run_delta_sum(pt) -> ExactReport:
    val = coefficient_delta_sum(pt["n"], pt["mu"])
    want = Fraction(1 if pt["n"] == 0 else 0)
    return ExactReport(exact=val == want, residual=val - want, lhs=val,
                       rhs=want)


@dataclass
class Row:
    """One grid point of a verification sweep; the field order is the column
    order of ``verify --json`` rows and ``verify --csv``."""

    index: int
    params: dict
    lhs: object = None
    rhs: object = None
    abs_err: float | None = None
    rel_err: float | None = None
    n_terms: int | None = None
    condition_number: float | None = None
    digits_lost: float | None = None
    exact: bool | None = None
    passed: bool = False
    error: str | None = None
    precision: object = None
    seconds: float = 0.0


def _row_from(index: int, pt: dict, rep, threshold) -> Row:
    if isinstance(rep, ExactReport):
        return Row(index=index, params=pt, lhs=rep.lhs, rhs=rep.rhs,
                   abs_err=abs(float(rep.residual)), exact=rep.exact,
                   passed=rep.exact)
    diag = rep.lhs_diag
    return Row(index=index, params=pt, lhs=rep.lhs, rhs=rep.rhs,
               abs_err=rep.abs_err, rel_err=rep.rel_err,
               n_terms=diag.n_terms if diag else None,
               condition_number=diag.condition_number if diag else None,
               digits_lost=round(diag.digits_lost(), 2) if diag else None,
               passed=rep.ok(threshold if threshold is not None else 1e-9),
               precision=rep.precision)


def run_sweep(entry: IdentityEntry, grid: dict, opts: SeriesOptions,
              threshold) -> list:
    """One Row per grid point, in grid order."""
    rows = []
    combos = itertools.product(*(grid[name] for name in entry.params))
    for i, combo in enumerate(combos):
        pt = dict(zip(entry.params, combo))
        start = time.perf_counter()
        try:
            row = _row_from(i, pt, entry.run(pt, opts), threshold)
        except (WhitaddError, OverflowError, ZeroDivisionError) as exc:
            row = Row(index=i, params=pt,
                      error=f"{type(exc).__name__}: {exc}")
        row.seconds = time.perf_counter() - start
        rows.append(row)
    return rows


def _print_rows(name: str, entry: IdentityEntry, rows: list, threshold) -> None:
    for row in rows:
        pstr = " ".join(f"{k}={fmt_value(v)}" for k, v in row.params.items())
        if row.error:
            print(f"{row.index:>4}  {pstr}  ERROR {row.error}")
        elif row.exact is not None:
            status = "exact" if row.passed else "MISMATCH"
            print(f"{row.index:>4}  {pstr}  {status}")
        else:
            nt = "-" if row.n_terms is None else row.n_terms
            lost = "-" if row.digits_lost is None else f"{row.digits_lost:.1f}"
            status = "ok" if row.passed else "FAIL"
            print(f"{row.index:>4}  {pstr}  rel={row.rel_err:.3e}  "
                  f"n={nt}  lost={lost}  {status}")
    good = sum(r.passed for r in rows)
    bound = "exact" if threshold is None else f"rel <= {threshold:g}"
    print(f"{name}: {good}/{len(rows)} passed ({bound})")


def _json_cell(name: str, value):
    if name == "params":
        return {k: encode_param(v) for k, v in value.items()}
    # json writes an ("extended", digits) precision tuple as a list
    return encode_value(value) if name in ("lhs", "rhs") else value


def _rows_json(name: str, entry: IdentityEntry, rows: list, threshold,
               opts: SeriesOptions) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "identity": name,
        "threshold": threshold,
        "opts": {"rel_tol": opts.rel_tol, "max_terms": opts.max_terms,
                 "precision": opts.precision},
        "rows": [{f.name: _json_cell(f.name, getattr(r, f.name)) for f in fields(Row)}
                 for r in rows],
        "passed": sum(r.passed for r in rows),
        "failed": sum(not r.passed for r in rows),
    }


def _rows_csv(entry: IdentityEntry, rows: list, path: str) -> None:
    """One column per Row field, with params spread into one column per
    identity parameter."""
    names = [f.name for f in fields(Row)]
    fh = sys.stdout if path == "-" else open(path, "w", newline="")
    try:
        writer = csv.writer(fh)
        writer.writerow([c for n in names for c in (entry.params if n == "params" else (n,))])
        for r in rows:
            writer.writerow([_csv_cell(c) for n in names
                             for c in (r.params.values() if n == "params" else (getattr(r, n),))])
    finally:
        if fh is not sys.stdout:
            fh.close()


def _parse_grid_flags(entry: IdentityEntry, pairs: list) -> dict:
    grid = {k: list(v) for k, v in entry.grid.items()}
    for raw in pairs or ():
        if "=" not in raw:
            raise UsageError(f"grid flag {raw!r} must be name=v1,v2,...")
        name, _, values = raw.partition("=")
        name = name.strip()
        if name not in entry.params:
            raise UsageError(
                f"unknown parameter {name!r}; expected one of {entry.params}")
        if name == "variant":
            grid[name] = [v.strip() for v in values.split(",")]
        else:
            grid[name] = [parse_scalar(v) for v in values.split(",")]
    return grid


def cmd_verify(args) -> int:
    if args.list:
        for name, entry in IDENTITIES.items():
            bound = "exact" if entry.threshold is None else f"{entry.threshold:g}"
            print(f"{name:22s} params={','.join(entry.params)}  "
                  f"threshold={bound}  {entry.note}")
        return 0
    if args.preset == "acceptance":
        return _preset_acceptance(args)
    if args.preset == "remark53":
        return _preset_remark53(args)
    if not args.identity:
        raise UsageError("verify needs an identity name, --preset, or --list")
    if args.identity not in IDENTITIES:
        raise UsageError(f"unknown identity {args.identity!r}; "
                         "run `whitadd verify --list`")
    entry = IDENTITIES[args.identity]
    grid = _parse_grid_flags(entry, args.grid)
    opts = options_from(args, resolve_digits(args.digits), args.rel_tol)
    threshold = args.threshold if args.threshold is not None else entry.threshold
    rows = run_sweep(entry, grid, opts, threshold)

    if args.json:
        _dump_json(_rows_json(args.identity, entry, rows, threshold, opts),
                   args.json)
    if args.csv:
        _rows_csv(entry, rows, args.csv)
    if not (args.json == "-" or args.csv == "-"):
        _print_rows(args.identity, entry, rows, threshold)
    failed = sum(not r.passed for r in rows)
    if failed:
        print(f"{failed} of {len(rows)} checks missed the threshold",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _stress_summary():
    """Large-order stress case: normalized head terms, final sum, precision.

    Cached, and read-only since every caller shares it: the four stress rows
    of the acceptance table cost one 60-digit summation.
    """
    ctx = extended(STRESS_DIGITS)
    # terms come out normalized: sum (-1)^l t_l = 1
    terms = pi_addition_terms(STRESS_KAPPA, STRESS_MU, STRESS_R0, STRESS_R,
                              STRESS_ELL, ctx=ctx)
    t0 = float(abs(terms[0]))
    t145 = float(abs(terms[STRESS_ELL]))
    opts = SeriesOptions(rel_tol=1e-8, precision=("extended", STRESS_DIGITS))
    rep = verify_pi_addition_general(STRESS_KAPPA, STRESS_MU, STRESS_R0,
                                     STRESS_R, opts=opts)
    total = complex(rep.lhs / rep.rhs).real
    ell = 0
    while float(mu_large_term_surrogate(STRESS_KAPPA, STRESS_MU, STRESS_R0,
                                        STRESS_R, ell)) >= SURROGATE_CUTOFF:
        ell += 1
    return MappingProxyType({
        "t0": t0, "t145": t145, "normalized_sum": total,
        "rel_err": rep.rel_err, "n_terms": rep.lhs_diag.n_terms,
        "digits_lost": round(rep.lhs_diag.digits_lost(), 2),
        "precision": rep.precision,
        "surrogate_drop_l": ell})


def _preset_remark53(args) -> int:
    info = _stress_summary()
    if args.json:
        payload = {"schema": SCHEMA_VERSION, "command": "verify",
                   "preset": "remark53",
                   "params": {"kappa": STRESS_KAPPA, "mu": STRESS_MU,
                              "r0": STRESS_R0, "r": STRESS_R}}
        payload.update(info)
        _dump_json(payload, args.json)
    else:
        print(f"normalized |t_0|    = {fmt_value(info['t0'])}")
        print(f"normalized |t_145|  = {fmt_value(info['t145'])}")
        print(f"normalized sum      = {fmt_value(info['normalized_sum'])}")
        print(f"residual vs W side  = {info['rel_err']:.3e}")
        print(f"terms summed        = {info['n_terms']}"
              f"  (lost {info['digits_lost']:.1f} digits)")
        print(f"precision used      = {info['precision'][0]}"
              f"({info['precision'][1]})")
        print(f"surrogate drops below {SURROGATE_CUTOFF} at l = "
              f"{info['surrogate_drop_l']}")
    return 0


# ---------------------------------------------------------------------------
# acceptance criteria: one table, run by ``verify --preset acceptance`` and
# by tests/test_acceptance.py
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Criterion:
    """One acceptance check; ``check(bound)`` returns ``(passed, detail)``.

    ``bound`` is the tolerance or paper constant the check holds to (None for
    an exact check).  It is written only here, and the tests pin it.
    """

    name: str
    label: str
    check: object
    bound: object


def _rel(value, reference) -> float:
    return abs(complex(value) - complex(reference)) / abs(complex(reference))


def _worst(errs) -> str:
    return f"worst rel={max(errs, key=lambda e: math.inf if math.isnan(e) else e):.2e}"


def _within(errs, bound) -> tuple:
    """Pass only if every err <= bound holds, so a NaN residual fails."""
    errs = list(errs)
    return all(e <= bound for e in errs), _worst(errs)


def _sweep_row(name: str, identity: str, label: str | None = None,
               **grid) -> Criterion:
    """Every point of IDENTITIES[identity] passes its threshold; ``grid``
    overrides some of the default grid values."""
    entry = IDENTITIES[identity]

    def check(bound):
        rows = run_sweep(entry, {**entry.grid, **grid}, SeriesOptions(), bound)
        bad = sum(not r.passed for r in rows)
        errs = [r.rel_err for r in rows if r.rel_err is not None]
        detail = (f"{len(rows) - bad}/{len(rows)} "
                  + ("exact" if bound is None else f"rel<={bound:g}"))
        return bad == 0, detail + (f" {_worst(errs)}" if errs else "")

    return Criterion(name, label or identity, check, entry.threshold)


def _stress(key: str, holds):
    """Check: ``holds(value, bound)`` for one entry of the stress summary."""
    def check(bound):
        got = _stress_summary()[key]
        return holds(got, bound), f"got {got!r}, bound {bound:g}"
    return check


def _six_figures(got: float, want: float) -> bool:
    return float(f"{got:.6g}") == want


def _laguerre_addition_exact(bound):
    geo = geometry_from_cosine(Fraction(3, 2), Fraction(1, 2), Fraction(1))
    reps = {n: verify_laguerre_addition(n, geo) for n in range(1, 13)}
    bad = [n for n, rep in reps.items()
           if not (isinstance(rep, ExactReport) and rep.exact)]
    return not bad, f"inexact at n={bad}" if bad else "exact for n<=12"


def _green_cross_method(bound):
    pts = [SphericalPoint(3.0, 0.4, 0.0), SphericalPoint(1.2, 2.2, 5.1),
           SphericalPoint(0.6, 1.57, 3.0)]
    errs = []
    for g in (0.5, 1.0, 2.3):
        for k in (0.4, 0.9, 1.7):
            cp = CoulombParams(g, k)
            # positive-integer kappa sits on a bound-state pole of both routes
            if near_positive_integer(cp.kappa):
                continue
            for i, pa in enumerate(pts):
                pb = pts[(i + 1) % 3]
                errs.append(_rel(partial_wave_green(cp, pa, pb).value,
                                 hostler_green(cp, pa, pb)))
    return _within(errs, bound)


def _density_integrals(bound):
    errs = []
    for n in range(1, 7):
        errs.append(_rel(radial_norm(n, 1.9), n * n))
        v = gauss_laguerre_integral(
            lambda t, n=n: [ti * ti * density_polynomial(n, ti) for ti in t])
        errs.append(_rel(v, 2 * n ** 3))
    return _within(errs, bound)


def _antipodal_exponential(bound):
    # at gamma = pi the confluent factor sits at 0, leaving a bare e^{-z/2}
    entry = IDENTITIES["m_gegenbauer_sum"]
    rows = run_sweep(entry, {**entry.grid, "gamma": [math.pi]}, SeriesOptions(),
                     entry.threshold)
    return _within((math.inf if r.error else
                    _rel(r.rhs, cmath.exp(-r.params["z"] / 2)) for r in rows),
                   bound)


ACCEPTANCE = (
    _sweep_row("criterion1_addition_grid", "whittaker_addition"),
    Criterion("criterion2_stress_t0", "stress |t_0| (6 s.f.)",
              _stress("t0", _six_figures), 1.07239e7),
    Criterion("criterion2_stress_t145_constant",
              "stress |t_145| (6 s.f.; the source's 3214.65 is an erratum)",
              _stress("t145", _six_figures), STRESS_T145),
    Criterion("criterion2_stress_normalized_sum", "stress normalized sum = 1",
              _stress("normalized_sum", lambda got, b: abs(got - 1.0) <= b), 1e-6),
    Criterion("criterion2_stress_surrogate_drop",
              f"stress surrogate first below {SURROGATE_CUTOFF} at l",
              _stress("surrogate_drop_l", lambda got, b: got == b), 168),
    _sweep_row("criterion3_downward_sum_grid", "w_downward_sum",
               n=list(range(0, 11))),
    _sweep_row("criterion3_delta_sum", "delta_sum"),
    Criterion("criterion4_laguerre_addition",
              "laguerre_addition on a rational collinear chord",
              _laguerre_addition_exact, None),
    _sweep_row("criterion4_laguerre_symmetric_pi", "laguerre_symmetric",
               "laguerre_symmetric pi-variant at complex u,v",
               n=[8], u=[0.7 + 0.2j], v=[1.1 - 0.4j], variant=["pi"]),
    _sweep_row("criterion4_laguerre_symmetric_interior", "laguerre_symmetric"),
    _sweep_row("criterion5_lemma_exact", "lemma_binomial"),
    Criterion("criterion6_green_cross_method", "green cross-method grid",
              _green_cross_method, 1e-7),
    Criterion("criterion7_density_integrals",
              "radial norms n^2 and density integrals 2n^3 (n <= 6)",
              _density_integrals, 1e-8),
    _sweep_row("criterion8_m_gegenbauer_grid", "m_gegenbauer_sum"),
    Criterion("criterion8_antipodal_exponential",
              "m_gegenbauer_sum at gamma=pi: rhs = e^{-z/2}",
              _antipodal_exponential, 1e-12),
    # half-unit order reduces the weight to Legendre polynomials
    _sweep_row("criterion8_half_order", "m_gegenbauer_sum",
               "m_gegenbauer_sum at mu=1/2",
               kappa=[1.1], mu=[0.5], z=[1.5], gamma=[math.pi / 3]),
)


def _preset_acceptance(args) -> int:
    failures = 0
    t_start = time.perf_counter()
    for row in ACCEPTANCE:
        passed, detail = row.check(row.bound)
        failures += not passed
        print(f"[{'ok' if passed else 'FAIL':>8}] {row.label}: {detail}")

    # frozen reference files, when present
    golden_dir = args.golden_dir
    if golden_dir is None and os.path.isdir(os.path.join("tests", "golden")):
        golden_dir = os.path.join("tests", "golden")
    if golden_dir:
        from .golden import compare_golden  # mpmath and every layer, only here

        bad = compare_golden(golden_dir)
        failures += bad
        print(f"[{'ok' if bad == 0 else f'FAIL({bad})':>8}] golden files "
              f"reproduce under regeneration ({golden_dir})")
    else:
        print("[    skip] golden comparison: no golden directory found")

    elapsed = time.perf_counter() - t_start
    print(f"acceptance preset finished in {elapsed:.1f}s: "
          f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# green subcommand
# ---------------------------------------------------------------------------

def cmd_green(args) -> int:
    params = CoulombParams(float(args.g), float(args.k))
    p, p0 = args.p, args.p0
    digits = resolve_digits(args.digits)
    # --rel-tol only gates the residual; the series sums at the default tolerance
    opts = options_from(args, digits)
    ctx = context_for(opts)

    hv = hostler_green(params, p, p0, ctx=ctx)
    pw = partial_wave_green(params, p, p0, opts=opts)
    residual = ctx.mag(pw.value - hv) / max(ctx.mag(hv), 1e-300)
    if args.json:
        payload = {"schema": SCHEMA_VERSION, "command": "green",
                   "params": {"g": params.g, "k": params.k,
                              "p": [p.r, p.theta, p.phi],
                              "p0": [p0.r, p0.theta, p0.phi]},
                   "digits": digits,
                   "hostler": encode_value(hv),
                   "partial_wave": encode_value(pw.value),
                   "lmax": pw.series.n_terms - 1,
                   "condition_number": pw.series.condition_number,
                   "rel_residual": residual}
        _dump_json(payload, args.json)
    else:
        print(f"{'method':<14}{'value':<26}{'lmax':>6}")
        print(f"{'hostler':<14}{fmt_value(hv):<26}{'-':>6}")
        print(f"{'partial_wave':<14}{fmt_value(pw.value):<26}"
              f"{pw.series.n_terms - 1:>6}")
        print(f"rel residual = {residual:.3e}")
    if args.rel_tol is not None and residual > args.rel_tol:
        print(f"residual {residual:.3e} exceeds --rel-tol {args.rel_tol:g}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# golden subcommand
# ---------------------------------------------------------------------------

def cmd_golden(args) -> int:
    from .golden import GOLDEN_DIGITS, GROUPS, compare_golden, write_golden

    only = None
    if args.only:
        only = [g.strip() for g in args.only.split(",")]
        for g in only:
            if g not in GROUPS:
                raise UsageError(f"unknown golden group {g!r}; "
                                 f"expected one of {GROUPS}")
    if args.check:
        bad = compare_golden(args.check, only)
        if bad:
            print(f"{bad} golden entr{'y' if bad == 1 else 'ies'} drifted",
                  file=sys.stderr)
            return 1
        print(f"golden files in {args.check} reproduce")
        return 0
    digits = resolve_digits(GOLDEN_DIGITS if args.digits is None else args.digits)
    paths = write_golden(args.write, digits=digits, only=only)
    for path in paths:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _scalar_arg(p, name, help_text):
    p.add_argument(name, type=parse_scalar, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitadd",
        description="Whittaker-function addition formulas and the Coulomb "
                    "Green function: evaluate, verify, cross-check.")
    parser.add_argument("--verbose", action="store_true",
                        help="log series escalations and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    # --digits is shared by every subcommand; --max-terms and --json by all
    # but golden.  --rel-tol means something different to each.
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--digits", type=int, default=None,
                        help="work at this many decimal digits (>= 30)")
    shared = argparse.ArgumentParser(add_help=False, parents=[digits])
    shared.add_argument("--max-terms", type=int, default=None, dest="max_terms")
    shared.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="PATH", help="write JSON (default stdout)")

    pe = sub.add_parser("eval", parents=[shared],
                        help="evaluate one function at one point")
    pe.add_argument("function", choices=sorted(EVAL_FUNCTIONS))
    for flag in ("--kappa", "--mu", "--r", "--a", "--b", "--z", "--alpha",
                 "--nu", "--x", "--theta", "--phi"):
        _scalar_arg(pe, flag, f"{flag[2:]} parameter")
    for flag in ("--g", "--k"):
        pe.add_argument(flag, type=parse_real, default=None, help=f"{flag[2:]} parameter")
    pe.add_argument("--l", type=int, default=None, help="degree l")
    pe.add_argument("--m", type=int, default=None, help="order m")
    pe.add_argument("--n", type=int, default=None, help="index n")
    pe.add_argument("--p", type=parse_point, default=None,
                    help="field point r,theta,phi")
    pe.add_argument("--p0", type=parse_point, default=None,
                    help="source point r,theta,phi")
    pe.add_argument("--method", choices=("residue", "eigen_sum"), default=None)
    pe.add_argument("--deriv", action="store_true",
                    help="first derivative (Whittaker functions)")
    pe.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", parents=[shared],
                        help="sweep an identity over a grid")
    pv.add_argument("identity", nargs="?", default=None)
    pv.add_argument("--grid", action="append", metavar="NAME=V1,V2,...",
                    help="override one parameter's grid values")
    pv.add_argument("--threshold", type=float, default=None,
                    help="pass/fail bound on the relative residual")
    pv.add_argument("--rel-tol", type=float, default=None, dest="rel_tol",
                    help="series truncation tolerance")
    pv.add_argument("--preset", choices=("acceptance", "remark53"),
                    default=None)
    pv.add_argument("--golden-dir", default=None, dest="golden_dir",
                    help="golden directory for the acceptance preset")
    pv.add_argument("--list", action="store_true",
                    help="list identities and default thresholds")
    pv.add_argument("--csv", nargs="?", const="-", default=None,
                    metavar="PATH")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("green", parents=[shared],
                        help="cross-check the Coulomb resolvent")
    pg.add_argument("--g", type=parse_real, required=True, help="coupling")
    pg.add_argument("--k", type=parse_real, required=True, help="spectral parameter")
    pg.add_argument("--p", type=parse_point, required=True,
                    help="field point r,theta,phi")
    pg.add_argument("--p0", type=parse_point, required=True,
                    help="source point r,theta,phi")
    pg.add_argument("--rel-tol", type=float, default=None, dest="rel_tol",
                    help="fail (exit 1) if the residual exceeds this")
    pg.set_defaults(func=cmd_green)

    pgold = sub.add_parser("golden", parents=[digits],
                           help="regenerate frozen reference files")
    pgold.add_argument("--write", default=os.path.join("tests", "golden"),
                       metavar="DIR", help="directory to write into")
    pgold.add_argument("--check", default=None, metavar="DIR",
                       help="compare freshly computed values against DIR")
    pgold.add_argument("--only", default=None,
                       help="comma-separated subset of the groups; an unknown "
                            "name lists them")
    pgold.set_defaults(func=cmd_golden)
    return parser


def main(argv=None) -> int:
    try:
        # inside the try: a type function's UsageError is a usage error too
        args = build_parser().parse_args(argv)
        if args.verbose:
            logging.basicConfig(level=logging.INFO, format="%(message)s")
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so the flush
        # at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WhitaddError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract: report, never traceback
        logger.debug("unexpected failure", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
