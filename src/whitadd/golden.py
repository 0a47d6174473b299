"""Frozen extended-precision reference values for the worked examples.

Every numeric example whose expected value is not a short closed form is
pinned to a reference computed at GOLDEN_DIGITS decimal digits with ten
times the normal term budget, then frozen into JSON files that the test
suite compares against.  Regeneration is one command:

    whitadd golden --write tests/golden

and ``whitadd golden --check DIR`` (or :func:`compare_golden`) recomputes
the entries in memory and compares them with a directory of files.

File schema (versioned)::

    {"version": 1, "digits": 50, "entries": [
        {"identity_id": str,
         "params": {...},               # plain JSON; complex as [re, im]
         "lhs": VALUE, "rhs": VALUE,    # the two independent routes
         "digits": int}                 # trustworthy digits; 0 = exact
    ]}

where VALUE is ``{"re": str, "im": str}`` holding decimal strings, or
``{"fraction": "p/q"}`` for exact rational records.  For identity checks
lhs/rhs are the series side and the closed-form side; for plain function
values lhs is this package's extended-precision evaluation and rhs an
independent mpmath evaluation of the same quantity.

Each group is built from a table of cases.  A case names the package route,
an independent mpmath route and the digits the two must share; the mpmath
side never differentiates numerically in the argument, because the
z-derivatives of M and W come from their closed-form contiguous relations
(DLMF 13.15.17 and 13.15.23).

The generator refuses to write a file whenever the two routes disagree
beyond the documented digit count, so a frozen file can never encode a
silently wrong expectation.  Writing and comparing share one closeness rule,
:func:`_agree`.
"""

from __future__ import annotations

import json
import logging
import math
from fractions import Fraction
from pathlib import Path

import mpmath

from .green import CoulombParams, SphericalPoint, angle_cosine, hostler_green, separation
from .identities import (
    geometry_from,
    verify_gamma_pi,
    verify_gamma_zero,
    verify_gegenbauer_addition,
    verify_graf_2d,
    verify_kappa_integer_limit,
    verify_m_exp_sum,
    verify_m_gegenbauer_sum,
    verify_pi_addition_general,
    verify_w_downward_sum,
    verify_whittaker_addition,
)
from .scalar import extended
from .special_core import (
    bessel_modified,
    binomial,
    kummer_m,
    kummer_u,
    laguerre,
    log_pochhammer,
    whittaker_m,
    whittaker_w,
)
from .summation import DEFAULT_MAX_TERMS, SeriesOptions

logger = logging.getLogger(__name__)

GOLDEN_VERSION = 1
GOLDEN_DIGITS = 50
ORACLE_MAX_TERMS = DEFAULT_MAX_TERMS * 10
GROUPS = ("special_core", "identities", "green")

# the two routes must share all but this many of the recorded digits
GUARD_SLACK = 10


class OracleMismatch(RuntimeError):
    """The two oracle routes disagree; the file must not be written."""


def _encode(v, digits: int):
    if isinstance(v, Fraction):
        return {"fraction": f"{v.numerator}/{v.denominator}"}
    v, n = mpmath.mpmathify(v), max(digits, 17)
    return {"re": mpmath.nstr(v.real, n), "im": mpmath.nstr(v.imag, n)}


def decode(value):
    """Golden VALUE -> Fraction, float, or complex (hardware precision)."""
    if "fraction" in value:
        return Fraction(value["fraction"])
    re, im = float(value["re"]), float(value["im"])
    return complex(re, im) if im != 0.0 else re


def decode_mp(value, digits: int = GOLDEN_DIGITS):
    """Golden VALUE at full recorded precision (mpmath scalar or Fraction)."""
    if "fraction" in value:
        return Fraction(value["fraction"])
    with mpmath.workdps(digits + 5):
        re, im = mpmath.mpf(value["re"]), mpmath.mpf(value["im"])
        return mpmath.mpc(re, im) if im != 0 else re


def _gap(a, b, digits: int):
    """Relative gap of two scalars, computed with ten guard digits."""
    with mpmath.workdps(digits + 10):
        x, y = mpmath.mpmathify(a), mpmath.mpmathify(b)
        return abs(x - y) / max(abs(x), abs(y), mpmath.mpf("1e-300"))


def _agree(a, b, digits: int) -> bool:
    """The closeness rule: exact equality at 0 digits, else all but
    GUARD_SLACK of ``digits`` digits shared."""
    if digits == 0:
        return a == b
    return _gap(a, b, digits) <= mpmath.mpf(10) ** (GUARD_SLACK - digits)


def _guard(identity_id: str, a, b, digits: int):
    if not _agree(a, b, digits):
        gap = "exact values differ" if digits == 0 else \
            f"rel gap {float(_gap(a, b, digits)):.3e}"
        raise OracleMismatch(
            f"{identity_id}: oracle routes disagree ({gap}, "
            f"needed {GUARD_SLACK - digits} digits of agreement)")


def _oracle_opts(digits: int) -> SeriesOptions:
    return SeriesOptions(rel_tol=10.0 ** (5 - digits), max_terms=ORACLE_MAX_TERMS,
                         precision=("extended", digits))


def _record(identity_id: str, params: dict, lhs, rhs, digits: int) -> dict:
    return {"identity_id": identity_id, "params": params,
            "lhs": _encode(lhs, digits), "rhs": _encode(rhs, digits),
            "digits": digits}


# ---------------------------------------------------------------------------
# independent mpmath routes (generation-time guards)
# ---------------------------------------------------------------------------

def _mp_whitm_prime(k, m, z):
    # z M' = (z/2 - k) M_{k,m} + (1/2 + m + k) M_{k+1,m}   (DLMF 13.15.17);
    # k + 1 must be formed in mpmath, a float k + 1 would round
    k, m, z = (mpmath.mpmathify(v) for v in (k, m, z))
    return ((mpmath.mpf(1) / 2 - k / z) * mpmath.whitm(k, m, z)
            + (mpmath.mpf(1) / 2 + m + k) / z * mpmath.whitm(k + 1, m, z))


def _mp_whitw_prime(k, m, z):
    # z W' = (z/2 - k) W_{k,m} - W_{k+1,m}   (DLMF 13.15.23)
    k, m, z = (mpmath.mpmathify(v) for v in (k, m, z))
    return ((mpmath.mpf(1) / 2 - k / z) * mpmath.whitw(k, m, z)
            - mpmath.whitw(k + 1, m, z) / z)


def _mp_bracket(kappa, xh, yh):
    # M'(yh) W(xh) - M(yh) W'(xh) at order (kappa, 1/2)
    half = mpmath.mpf(1) / 2
    return (_mp_whitm_prime(kappa, half, yh) * mpmath.whitw(kappa, half, xh)
            - mpmath.whitm(kappa, half, yh) * _mp_whitw_prime(kappa, half, xh))


def _mp_chord_bracket(kappa, r, r0, cos_gamma):
    # bracket at the half-sums (r + r0 +- R)/2 of the chord R, over R
    R = mpmath.sqrt(mpmath.mpf(r) ** 2 + mpmath.mpf(r0) ** 2
                    - 2 * mpmath.mpf(r) * mpmath.mpf(r0) * mpmath.mpf(cos_gamma))
    return _mp_bracket(kappa, (r + r0 + R) / 2, (r + r0 - R) / 2) / R


def _mp_kappa_limit():
    # minus the kappa-derivative at kappa = 1 of the regular part of the
    # addition bracket at r = 3, r0 = 1, gamma = pi/2
    cos_gamma = geometry_from(3.0, 1.0, math.pi / 2).cos_gamma
    return -mpmath.diff(
        lambda k: (_mp_chord_bracket(k, 3, 1, cos_gamma)
                   - mpmath.whitm(k, 0.5, 1) * mpmath.whitw(k, 0.5, 3) / 3),
        mpmath.mpf(1))


def _mp_exponential_sum():
    # re-sums raw mpmath Whittaker terms of the kappa = 1.7, z = 2+i series
    zz = mpmath.mpc(2, 1)
    acc, coeff = mpmath.mpc(0), 1 / zz
    for ell in range(80):
        t = coeff * mpmath.whitm(1.7, ell + mpmath.mpf(1) / 2, zz)
        acc += -t if ell % 2 else t
        coeff = coeff * (ell + 1 - mpmath.mpf(1.7)) / ((2 * ell + 1) * (2 * ell + 2))
    return acc


def _mp_gegenbauer_bessel():
    # K_1(R)/R at the chord R of r = 4, r0 = 1, gamma = 1.2
    R = mpmath.sqrt(17 - 8 * mpmath.mpf(math.cos(1.2)))
    return mpmath.besselk(1, R) / R


def _mp_hostler(params: CoulombParams, p: SphericalPoint, p0: SphericalPoint):
    # Gamma(1-kappa) 2k/(4 pi) times the chord bracket at the 2k-scaled radii;
    # only the package's inputs are doubles: kappa = g/(2k), k, the radii and
    # cos gamma, everything from them is mpmath
    kap, k = mpmath.mpf(params.kappa), mpmath.mpf(params.k)
    return (mpmath.gamma(1 - kap) * 2 * k / (4 * mpmath.pi)
            * _mp_chord_bracket(kap, 2 * k * p.r, 2 * k * p0.r, angle_cosine(p, p0)))


# ---------------------------------------------------------------------------
# the entries: one table of cases per group
# ---------------------------------------------------------------------------

# special_core and green: (identity_id, params, package value at ctx,
# independent mpmath value, digits given up from the build's digits; None
# marks an exact rational entry)
_KAP, _XX = -0.7, 2.0
_SPECIAL_CORE_CASES = (
    ("confluent_first_kind", {"a": 0.5, "b": 1.5, "z": 2.0},
     lambda ctx: kummer_m(0.5, 1.5, 2.0, ctx=ctx),
     lambda: mpmath.hyp1f1(mpmath.mpf(1) / 2, mpmath.mpf(3) / 2, 2), 0),
    ("confluent_second_kind_log_case", {"a": 0.5, "b": 1, "z": 2.0},
     lambda ctx: kummer_u(0.5, 1, 2.0, ctx=ctx),
     lambda: mpmath.hyperu(mpmath.mpf(1) / 2, 1, 2), 0),
    ("whittaker_m_large_order", {"kappa": 1, "mu": 20, "r": 1},
     lambda ctx: whittaker_m((1, 20), 1, ctx=ctx),
     lambda: mpmath.whitm(1, 20, 1), 0),
    ("macdonald_integer_order", {"nu": 2, "z": 1.5},
     lambda ctx: bessel_modified(2, 1.5, "K", ctx=ctx),
     lambda: mpmath.besselk(2, mpmath.mpf(3) / 2), 0),
    # exact rational Laguerre value against the explicit binomial expansion
    ("laguerre_exact_rational", {"n": 3, "alpha": 2, "x": "11/10"},
     lambda ctx: laguerre(3, 2, Fraction(11, 10)),
     lambda: sum(Fraction((-1) ** i * binomial(5, 3 - i), math.factorial(i))
                 * Fraction(11, 10) ** i for i in range(4)), None),
    ("pochhammer_log_scaled", {"a": 40, "n": 290},
     lambda ctx: log_pochhammer(40, 290, ctx=ctx),
     lambda: mpmath.loggamma(330) - mpmath.loggamma(40), 0),
    # Wronskian-like constant M W' - M' W of the (kappa, 1/2) pair
    ("whittaker_wronskian_constant", {"kappa": _KAP, "mu": 0.5, "x": _XX},
     lambda ctx: (whittaker_m((_KAP, 0.5), _XX, ctx=ctx)
                  * whittaker_w((_KAP, 0.5), _XX, deriv=True, ctx=ctx)
                  - whittaker_m((_KAP, 0.5), _XX, deriv=True, ctx=ctx)
                  * whittaker_w((_KAP, 0.5), _XX, ctx=ctx)),
     lambda: (mpmath.whitm(_KAP, 0.5, _XX) * _mp_whitw_prime(_KAP, 0.5, _XX)
              - _mp_whitm_prime(_KAP, 0.5, _XX) * mpmath.whitw(_KAP, 0.5, _XX)), 5),
)

_P, _P0 = SphericalPoint(3.0, 0.4, 0.0), SphericalPoint(1.2, 2.2, 5.1)
_GREEN_CASES = (
    ("hostler_point_value",
     {"g": 1.0, "k": 0.7, "p": [3.0, 0.4, 0.0], "p0": [1.2, 2.2, 5.1],
      "separation": separation(_P, _P0)},
     lambda ctx: hostler_green(CoulombParams(1.0, 0.7), _P, _P0, ctx=ctx),
     lambda: _mp_hostler(CoulombParams(1.0, 0.7), _P, _P0), 3),
)

# identities: (identity_id, params, verifier run with the oracle options,
# independent mpmath value of the guarded side, guarded side, digits; None
# means the build's digits).  Before the guard, the report's own residual
# must be below 10**(GUARD_SLACK - digits), or below 10**-digits when the
# digits are fixed by a difference step.
_IDENTITY_CASES = (
    # partial-wave addition at complex kappa
    ("whittaker_addition_complex_kappa",
     {"kappa": [0.4, 0.3], "r": 4.0, "r0": 1.5, "gamma": 1.0},
     lambda opts: verify_whittaker_addition(
         complex(0.4, 0.3), geometry_from(4.0, 1.5, 1.0), opts=opts),
     lambda: _mp_chord_bracket(mpmath.mpc(0.4, 0.3), 4, 1.5,
                               geometry_from(4.0, 1.5, 1.0).cos_gamma),
     "rhs", None),
    # kappa -> 1 limiting combination; accuracy set by the Richardson step
    ("kappa_integer_limit_n1",
     {"n": 1, "r": 3.0, "r0": 1.0, "gamma": math.pi / 2, "step": 1e-4},
     lambda opts: verify_kappa_integer_limit(
         1, geometry_from(3.0, 1.0, math.pi / 2), opts=opts, step=1e-4),
     _mp_kappa_limit, "rhs", 18),
    ("collinear_closed_form", {"kappa": -0.7, "r0": 2.0, "r": 5.0},
     lambda opts: verify_gamma_zero(-0.7, 2.0, 5.0, opts=opts),
     lambda: mpmath.gamma(1 - mpmath.mpf(-0.7)) * _mp_bracket(-0.7, 5, 2) / 3,
     "rhs", None),
    ("antipodal_closed_form", {"kappa": 0.3, "r0": 1.0, "r": 4.0},
     lambda opts: verify_gamma_pi(0.3, 1.0, 4.0, opts=opts),
     lambda: mpmath.gamma(1 - mpmath.mpf(0.3)) * mpmath.whitw(0.3, 0.5, 5) / 5,
     "rhs", None),
    ("exponential_sum", {"kappa": 1.7, "z": [2.0, 1.0]},
     lambda opts: verify_m_exp_sum(1.7, complex(2.0, 1.0), opts=opts),
     _mp_exponential_sum, "lhs", None),
    # planar two-center Bessel sum
    ("planar_bessel_addition", {"k": 1.0, "r0": 1.0, "r": 3.0, "phi": 2.0},
     lambda opts: verify_graf_2d(1.0, 1.0, 3.0, 2.0, opts=opts),
     lambda: mpmath.besselk(0, mpmath.sqrt(10 - 6 * mpmath.cos(mpmath.mpf(2.0)))),
     "rhs", None),
    # Gegenbauer-weighted modified-Bessel sum
    ("gegenbauer_bessel_addition", {"nu": 1, "r0": 1.0, "r": 4.0, "gamma": 1.2},
     lambda opts: verify_gegenbauer_addition(1, 1.0, 4.0, 1.2, opts=opts),
     _mp_gegenbauer_bessel, "rhs", None),
    # binomial downward sum at complex kappa
    ("whittaker_downward_sum", {"n": 7, "kappa": [0.6, 0.2], "mu": 1.3, "r": 2.5},
     lambda opts: verify_w_downward_sum(7, complex(0.6, 0.2), 1.3, 2.5, opts=opts),
     lambda: (-mpmath.power(mpmath.mpf(2.5), mpmath.mpf(-7) / 2)
              * mpmath.whitw(mpmath.mpc(0.6, 0.2) - mpmath.mpf(7) / 2,
                             mpmath.mpf(1.3) + mpmath.mpf(7) / 2, mpmath.mpf(2.5))),
     "rhs", None),
    ("antipodal_general_order", {"kappa": 0.9, "mu": 2.2, "r0": 1.0, "r": 3.0},
     lambda opts: verify_pi_addition_general(0.9, 2.2, 1.0, 3.0, opts=opts),
     lambda: (mpmath.power(4, -(mpmath.mpf(2.2) + mpmath.mpf(1) / 2))
              * mpmath.whitw(mpmath.mpf(0.9), mpmath.mpf(2.2), 4)),
     "rhs", None),
    # Gegenbauer-weighted M sum at complex argument
    ("gegenbauer_m_sum",
     {"kappa": 1.1, "mu": 0.8, "z": [1.5, 0.5], "gamma": math.pi / 3},
     lambda opts: verify_m_gegenbauer_sum(1.1, 0.8, complex(1.5, 0.5), math.pi / 3,
                                          opts=opts),
     lambda: mpmath.exp(-mpmath.mpc(1.5, 0.5) / 2) * mpmath.hyp1f1(
         mpmath.mpf(0.8) - mpmath.mpf(1.1) + mpmath.mpf(1) / 2,
         mpmath.mpf(0.8) + mpmath.mpf(1) / 2,
         mpmath.cos(mpmath.mpf(math.pi / 3) / 2) ** 2 * mpmath.mpc(1.5, 0.5)),
     "rhs", None),
)


def _value_entries(cases, digits: int) -> list:
    ctx = extended(digits)
    out = []
    with mpmath.workdps(digits + 10):
        for identity_id, params, value, reference, lost in cases:
            v, w = value(ctx), reference()
            d = 0 if lost is None else digits - lost
            _guard(identity_id, v, w, d)
            out.append(_record(identity_id, params, v, w, d))
    return out


def _identities_entries(digits: int) -> list:
    opts = _oracle_opts(digits)
    out = []
    with mpmath.workdps(digits + 10):
        for identity_id, params, verify, reference, side, fixed in _IDENTITY_CASES:
            d = fixed or digits
            rep = verify(opts)
            bound = 10.0 ** -d if fixed else 10.0 ** (GUARD_SLACK - d)
            if rep.rel_err > bound:
                raise OracleMismatch(f"{identity_id} rel={rep.rel_err:.2e}")
            _guard(identity_id, getattr(rep, side), reference(), d)
            out.append(_record(identity_id, params, rep.lhs, rep.rhs, d))
    return out


_BUILDERS = {"special_core": lambda d: _value_entries(_SPECIAL_CORE_CASES, d),
             "identities": _identities_entries,
             "green": lambda d: _value_entries(_GREEN_CASES, d)}


def build_group(name: str, digits: int = GOLDEN_DIGITS) -> dict:
    if name not in _BUILDERS:
        raise KeyError(f"unknown golden group {name!r}; have {GROUPS}")
    logger.info("building golden group %s at %d digits", name, digits)
    return {"version": GOLDEN_VERSION, "digits": digits,
            "entries": _BUILDERS[name](digits)}


def write_golden(dirpath, digits: int = GOLDEN_DIGITS, only=None) -> list:
    """Regenerate golden files under ``dirpath``; returns the paths written."""
    base = Path(dirpath)
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name in GROUPS:
        if only and name not in only:
            continue
        payload = build_group(name, digits)
        path = base / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        written.append(path)
    return written


def load_golden(dirpath) -> dict:
    """Read all golden files under ``dirpath`` keyed by group name."""
    base = Path(dirpath)
    loaded = {}
    for path in sorted(base.glob("*.json")):
        payload = json.loads(path.read_text())
        if payload.get("version") != GOLDEN_VERSION:
            raise ValueError(f"{path}: golden schema version "
                             f"{payload.get('version')} != {GOLDEN_VERSION}")
        loaded[path.stem] = payload
    return loaded


def entry_map(payload: dict) -> dict:
    return {e["identity_id"]: e for e in payload["entries"]}


def compare_golden(dirpath, only=None) -> int:
    """Rebuild each golden group in memory and count the stored values that
    no longer agree with it (missing groups and entries count too)."""
    bad = 0
    stored_groups = load_golden(dirpath)
    for group in GROUPS:
        if only and group not in only:
            continue
        if group not in stored_groups:
            logger.warning("golden group %s missing from %s", group, dirpath)
            bad += 1
            continue
        stored = entry_map(stored_groups[group])
        for key, entry in entry_map(build_group(group)).items():
            if key not in stored:
                logger.warning("golden entry %s missing from %s", key, dirpath)
                bad += 1
                continue
            old = stored[key]
            digits = min(int(old.get("digits", GOLDEN_DIGITS)),
                         int(entry.get("digits", GOLDEN_DIGITS)))
            for side in ("lhs", "rhs"):
                if not _agree(decode_mp(old[side]), decode_mp(entry[side]), digits):
                    logger.warning("golden entry %s %s drifted", key, side)
                    bad += 1
    return bad
