"""The three benchmark workloads: seeded inputs, the timed call, the oracle.

Each workload draws its inputs from a Halton sequence with a seeded random
shift (Cranley-Patterson rotation).  A seed gives the same inputs every time,
different seeds give different inputs, and each run still covers the stated
domain evenly, so a run's mix of cheap, expensive and failing points changes
little from seed to seed.

The oracle of every workload is an mpmath route that shares no code with
whitadd: ``hyp1f1``, ``hyperu``, ``whitm`` and ``whitw`` for the values, and
the derivative rules of DLMF 13.3.15 and 13.3.22 for M' and W'.  It runs after
the timed loop, so its cost stays out of every metric.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import mpmath
from whitadd import SeriesOptions, WhitaddError, green, identities, special_core
from whitadd.green import CoulombParams, SphericalPoint

from setup_time import EXT50

# fixed accuracy targets of the workloads (relative)
HARDWARE_TOL = 1e-8
EXT50_TOL = 1e-40
HARDWARE_DIGITS = 16
EXT50_DIGITS = 50

# hardware U switches to its asymptotic series from this argument on
LARGE_Z = 18.0
U_CLASSES = ("poly", "log_case", "reflection", "large_z")
SCALAR_FNS = ("kummer_m", "kummer_u", "whittaker_m", "whittaker_w")
IDENTITY_KINDS = ("addition_real", "addition_complex", "gamma_zero", "gamma_pi",
                  "w_downward_sum")
VERIFIERS = ("verify_whittaker_addition", "verify_gamma_zero", "verify_gamma_pi",
             "verify_w_downward_sum")

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


class Raised(NamedTuple):
    """A call that raised instead of returning."""

    kind: str
    typed: bool  # a WhitaddError, as aim 3 of the roadmap requires
    message: str


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure is an outcome to count, not a crash
        return Raised(type(exc).__name__, isinstance(exc, WhitaddError), str(exc))


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0
    while i:
        f /= base
        i, d = divmod(i, base)
        inv += d * f
    return inv


def qmc_stream(seed: int, stream: str, dims: int) -> Iterator[list]:
    """Points of [0, 1)^dims: Halton rotated by a shift drawn from the seed."""
    rng = random.Random(f"{seed}/{stream}")
    shift = [rng.random() for _ in range(dims)]
    i = 0
    while True:
        yield [(_radical_inverse(i, _PRIMES[d]) + shift[d]) % 1.0 for d in range(dims)]
        i += 1


def _interleave(streams: list) -> Iterator:
    while True:
        for s in streams:
            yield next(s)


def _is_integer(x: float) -> bool:
    return abs(x - round(x)) <= 1e-12


def u_class(a: float, b: float, z: float) -> str:
    """Which branch of ``kummer_u`` an input takes, by the conditions its
    docstring lists in order (b > 0 here, so branch 1 never applies)."""
    if (_is_integer(a) and a < 0.5) or (_is_integer(a - b + 1) and a - b + 1 < 0.5):
        return "poly"
    if z >= LARGE_Z:
        return "large_z"
    return "log_case" if _is_integer(b) else "reflection"


# ---------------------------------------------------------------------------
# oracle helpers (mpmath only)
# ---------------------------------------------------------------------------

def mp_whittaker(kind: str, kappa, mu, z):
    """(value, z-derivative) of M_{kappa,mu}(z) or W_{kappa,mu}(z) in mpmath."""
    a = mu - kappa + mpmath.mpf(1) / 2
    b = 2 * mu + 1
    pre = mpmath.exp(-z / 2) * mpmath.power(z, mu + mpmath.mpf(1) / 2)
    if kind == "M":
        f, df = mpmath.hyp1f1(a, b, z), a / b * mpmath.hyp1f1(a + 1, b + 1, z)
    else:
        f, df = mpmath.hyperu(a, b, z), -a * mpmath.hyperu(a + 1, b + 1, z)
    return pre * f, pre * (((mu + mpmath.mpf(1) / 2) / z - mpmath.mpf(1) / 2) * f + df)


def mp_hostler_bracket(kappa, x, y):
    """M'(y) W(x) - M(y) W'(x) at order (kappa, 1/2)."""
    half = mpmath.mpf(1) / 2
    m, dm = mp_whittaker("M", kappa, half, y)
    w, dw = mp_whittaker("W", kappa, half, x)
    return dm * w - m * dw


def mp_chord(r, r0, c):
    """R, x = r + r0 + R and y = r + r0 - R (in its cancellation-free form)."""
    R = mpmath.sqrt(r * r + r0 * r0 - 2 * r * r0 * c)
    x = r + r0 + R
    return R, x, 2 * r * r0 * (1 + c) / x


def rel_gap(value, ref):
    """|value - ref| / |ref| in the current mpmath precision."""
    v = mpmath.mpmathify(value)
    if not mpmath.isfinite(v):
        return mpmath.inf
    scale = abs(ref)
    return abs(v - ref) / scale if scale else abs(v - ref)


def digits_of(gap, cap: float) -> float:
    """Correct digits, -log10 of a relative error, clipped to [0, cap]."""
    if gap == 0:
        return cap
    if not mpmath.isfinite(gap):
        return 0.0
    return min(cap, max(0.0, -float(mpmath.log10(gap))))


def judge_values(values, refs, tol: float, cap: float):
    """Status ("ok", "raised", "wrong") and correct digits of a point's values.

    A point is silently wrong when any value it returned misses the
    tolerance; it raised when a call raised and no returned value is wrong.
    Digits are the worst over the returned values, None when nothing returned.
    """
    gaps = [rel_gap(v, ref) for v, ref in zip(values, refs) if not isinstance(v, Raised)]
    digits = min((digits_of(g, cap) for g in gaps), default=None)
    if any(not g <= tol for g in gaps):
        return "wrong", digits
    if len(gaps) < len(values):
        return "raised", digits
    return "ok", digits


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    # distinct points the timed loop passes over at least twice, or None
    # when every point is new
    pool_size: int | None
    round_size: int  # the timed loop stops only at the end of a round
    # the highest of 99, 90 and 50 with at least ten points beyond it, or 50
    tail_percentile: float
    points: Callable[[int], Iterator]  # seed -> input stream
    call: Callable  # point -> result, timed
    oracle: Callable  # point -> references, untimed
    judge: Callable  # (result, references) -> (status, digits)


@dataclass(frozen=True)
class ScalarPoint:
    fn: str
    args: tuple
    u_class: str | None  # the kummer_u branch class of U and W inputs


def _kummer_point(fn: str, u) -> ScalarPoint:
    a = -math.floor(u[0] * 21) if u[3] < 1 / 8 else -20 + 40 * u[0]
    b = 1 + math.floor(u[1] * 25) if u[4] < 0.5 else 25 * (1 - u[1])
    z = 60 * (1 - u[2])
    return ScalarPoint(fn, (a, b, z), u_class(a, b, z) if fn == "kummer_u" else None)


def _whittaker_point(fn: str, u) -> ScalarPoint:
    mu = math.floor(u[1] * 12) + 0.5 if u[4] < 0.5 else 12 * u[1]
    if u[3] < 1 / 8:
        # a = mu - kappa + 1/2 a non-positive integer, with kappa <= 20
        kappa = mu + 0.5 + math.floor(u[0] * (math.floor(19.5 - mu) + 1))
    else:
        kappa = -20 + 40 * u[0]
    r = 60 * (1 - u[2])
    cls = u_class(mu - kappa + 0.5, 2 * mu + 1, r) if fn == "whittaker_w" else None
    return ScalarPoint(fn, ((kappa, mu), r), cls)


def _scalar_stream(seed: int, fn: str) -> Iterator[ScalarPoint]:
    make = _kummer_point if fn.startswith("kummer") else _whittaker_point
    for u in qmc_stream(seed, fn, 5):
        yield make(fn, u)


def _scalar_points(seed: int) -> Iterator[ScalarPoint]:
    return _interleave([_scalar_stream(seed, fn) for fn in SCALAR_FNS])


def _scalar_call(p: ScalarPoint):
    return attempt(getattr(special_core, p.fn), *p.args)


def _scalar_oracle(p: ScalarPoint):
    with mpmath.workdps(30):
        if p.fn == "kummer_m":
            return +mpmath.hyp1f1(*p.args)
        if p.fn == "kummer_u":
            return +mpmath.hyperu(*p.args)
        (kappa, mu), r = p.args
        whit = mpmath.whitm if p.fn == "whittaker_m" else mpmath.whitw
        return +whit(kappa, mu, r)


def _scalar_judge(result, ref):
    with mpmath.workdps(30):
        return judge_values([result], [ref], HARDWARE_TOL, HARDWARE_DIGITS)


@dataclass(frozen=True)
class GreenPoint:
    params: CoulombParams
    p: SphericalPoint
    p0: SphericalPoint


def _green_points(seed: int) -> Iterator[GreenPoint]:
    for u in qmc_stream(seed, "green", 8):
        g, k = 0.2 + 2.8 * u[0], 0.3 + 2.2 * u[1]
        kappa = g / (2 * k)
        if round(kappa) >= 1 and abs(kappa - round(kappa)) < 1e-2:
            continue  # the kernel's bound-state poles
        yield GreenPoint(
            CoulombParams(g, k),
            SphericalPoint(0.3 + 7.7 * u[2], math.acos(1 - 2 * u[4]), 2 * math.pi * u[5]),
            SphericalPoint(0.3 + 7.7 * u[3], math.acos(1 - 2 * u[6]), 2 * math.pi * u[7]))


def _partial_wave_value(params, p, p0):
    return green.partial_wave_green(params, p, p0).value


def _green_call(q: GreenPoint):
    return (attempt(green.hostler_green, q.params, q.p, q.p0),
            attempt(_partial_wave_value, q.params, q.p, q.p0))


def _green_oracle(q: GreenPoint):
    mpf = mpmath.mpf
    with mpmath.workdps(30):
        th, ph, th0, ph0 = (mpf(v) for v in (q.p.theta, q.p.phi, q.p0.theta, q.p0.phi))
        c = mpmath.sin(th) * mpmath.sin(th0) * mpmath.cos(ph - ph0) + mpmath.cos(th) * mpmath.cos(th0)
        R, x, y = mp_chord(mpf(q.p.r), mpf(q.p0.r), c)
        k = mpf(q.params.k)
        kappa = mpf(q.params.g) / (2 * k)
        ref = (mpmath.gamma(1 - kappa) * mp_hostler_bracket(kappa, k * x, k * y)
               / (4 * mpmath.pi * R))
        return (ref, ref)


def _green_judge(result, refs):
    with mpmath.workdps(30):
        return judge_values(list(result), list(refs), HARDWARE_TOL, HARDWARE_DIGITS)


def partial_wave_status(result, refs) -> str:
    """Outcome of the partial-wave half of a green_pairs point: "ok", "wrong",
    or the name of the exception it raised."""
    wave = result[1]
    if isinstance(wave, Raised):
        return wave.kind
    with mpmath.workdps(30):
        return judge_values([wave], [refs[1]], HARDWARE_TOL, HARDWARE_DIGITS)[0]


@dataclass(frozen=True)
class IdentityPoint:
    kind: str
    verifier: str
    kappa: complex | float
    r0: float
    r: float
    gamma: float = 0.0
    n: int = 0
    mu: float = 0.0


def _identity_point(kind: str, u) -> IdentityPoint:
    r0 = 0.3 + 2.7 * u[1]
    # r/r0 sets the number of terms, so it takes the evenest coordinate
    r = r0 * (1.5 + 2.5 * u[0])
    kappa = -2 + 2.9 * u[2]
    if kind in ("addition_complex", "w_downward_sum"):
        kappa = complex(kappa, -1 + 2 * u[3])
    if kind.startswith("addition"):
        return IdentityPoint(kind, "verify_whittaker_addition", kappa, r0, r, gamma=math.pi * u[4])
    if kind == "w_downward_sum":
        return IdentityPoint(kind, "verify_w_downward_sum", kappa, r0, r,
                             n=1 + math.floor(8 * u[4]), mu=0.5 + 2 * u[5])
    return IdentityPoint(kind, "verify_" + kind, kappa, r0, r)


def _identity_stream(seed: int, kind: str) -> Iterator[IdentityPoint]:
    for u in qmc_stream(seed, kind, 6):
        yield _identity_point(kind, u)


def _identity_points(seed: int) -> Iterator[IdentityPoint]:
    return _interleave([_identity_stream(seed, kind) for kind in IDENTITY_KINDS])


_EXT50_OPTS = SeriesOptions(**EXT50)


def _identity_call(q: IdentityPoint):
    verify = getattr(identities, q.verifier)
    if q.verifier == "verify_whittaker_addition":
        return attempt(verify, q.kappa, identities.geometry_from(q.r, q.r0, q.gamma),
                       opts=_EXT50_OPTS)
    if q.verifier == "verify_w_downward_sum":
        return attempt(verify, q.n, q.kappa, q.mu, q.r, opts=_EXT50_OPTS)
    return attempt(verify, q.kappa, q.r0, q.r, opts=_EXT50_OPTS)


def _identity_oracle(q: IdentityPoint):
    """The closed-form side of the identity, at 60 digits."""
    mpf = mpmath.mpf
    with mpmath.workdps(60):
        kappa = mpmath.mpmathify(q.kappa)
        r0, r = mpf(q.r0), mpf(q.r)
        half = mpf(1) / 2
        if q.verifier == "verify_whittaker_addition":
            R, x, y = mp_chord(r, r0, mpf(math.cos(q.gamma)))
            return mp_hostler_bracket(kappa, x / 2, y / 2) / R
        if q.verifier == "verify_gamma_zero":
            m, dm = mp_whittaker("M", kappa, half, r0)
            w, dw = mp_whittaker("W", kappa, half, r)
            return mpmath.gamma(1 - kappa) * (dm * w - m * dw) / (r - r0)
        if q.verifier == "verify_gamma_pi":
            w, _ = mp_whittaker("W", kappa, half, r + r0)
            return mpmath.gamma(1 - kappa) * w / (r + r0)
        n = mpf(q.n)
        w, _ = mp_whittaker("W", kappa - n / 2, mpf(q.mu) + n / 2, r)
        return (-1) ** q.n * mpmath.power(r, -n / 2) * w


def _identity_judge(result, ref):
    """Residual at working precision, and the closed side against the oracle.

    Both are computed here in mpmath from the returned values; the report's
    own ``rel_err`` goes through ``complex()`` and cannot see below 1e-16.
    """
    if isinstance(result, Raised):
        return "raised", None
    with mpmath.workdps(60):
        lhs, rhs = mpmath.mpmathify(result.lhs), mpmath.mpmathify(result.rhs)
        scale = max(abs(lhs), abs(rhs))
        residual = abs(lhs - rhs) / scale if scale else abs(lhs - rhs)
        gaps = [residual, rel_gap(rhs, ref)]
        digits = min(digits_of(g, EXT50_DIGITS) for g in gaps)
        return ("ok" if all(g <= EXT50_TOL for g in gaps) else "wrong"), digits


WORKLOADS = {
    # every point is one special_core call: the L0 evaluators undiluted.  The
    # mpmath oracle costs about 30 hardware calls, so 2000 points it is
    "scalar_grid": Workload(2000, 2000, 99.0,
                            _scalar_points, _scalar_call, _scalar_oracle, _scalar_judge),
    # the paper's cross-check: the only hardware workload through sum_series.
    # 120 points, so that a run passes over each often enough for its least
    # time to settle
    "green_pairs": Workload(120, 120, 90.0,
                            _green_points, _green_call, _green_oracle, _green_judge),
    # the same layers on the mpmath path, as the golden rebuild runs them.  A
    # point costs about a second, too much to repeat, so points are new and a
    # round is two of each kind: Halton points 2j and 2j+1 lie half a period
    # apart in r/r0, which sets the cost, so rounds cover the ratio range evenly
    "identities_ext50": Workload(None, 2 * len(IDENTITY_KINDS), 50.0,
                                 _identity_points, _identity_call, _identity_oracle,
                                 _identity_judge),
}
