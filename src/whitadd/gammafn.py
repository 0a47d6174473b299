"""The gamma family on hardware floats: Gamma, 1/Gamma, log Gamma and psi.

Real arguments follow the Cephes routines (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989) operation for operation, in the
form scipy.special runs them, so each real value is the same double scipy
returns:

* ``gamma``: the rational P/Q on [2, 3] after the recurrence, Stirling's
  formula ``_stirf`` above 33 and the reflection formula below -33
  [DLMF 5.5.1, 5.5.3, 5.11.3];
* ``rgamma``: 1/Gamma as a 16-term Chebyshev series on [0, 1] for |x| < 4,
  and 1/``gamma`` beyond;
* ``lgam``: log Gamma of x > 0 as a rational on [2, 3] below 13 and the
  Stirling series above;
* ``psi``: reflection through tan(pi r) [DLMF 5.5.4], exact harmonic sums at
  the integers up to 10 [DLMF 5.4.14], a rational on [1, 2] (from Boost)
  after the recurrence [DLMF 5.5.2] and the asymptotic series from 10 on
  [DLMF 5.11.2]; within 0.3 of psi's negative root near -0.504 it is the
  Taylor series about that root, whose coefficients are Hurwitz zeta values
  [DLMF 25.11.12], computed once on first use by ``_hzeta``.

Each polynomial is written out as a Horner expression in Cephes' order, which
keeps the bits and costs half of a loop over a coefficient table.

Complex arguments (and log Gamma of x <= 0) have their own routes. Against
mpmath, the absolute error of log Gamma and the relative error of Gamma and
1/Gamma stay within about 50 units of 2^-52 times max(1, |log Gamma|) (the
most near the zeros of log Gamma at 1 and 2, where Stirling's (w - 1/2) Log w
at |w| near 11 amplifies the rounding of Log w tenfold before the shift's sum,
near 13, is subtracted), and the absolute error of psi within 4 units times
max(1, |psi|):

* ``cloggamma``: the principal branch, by shifting z up to |w| >= 10 and
  Re w >= 1/2 while subtracting sum Log(z+k) [DLMF 5.5.1], then 8 terms of
  Stirling's series [DLMF 5.11.1], and by the reflection formula for
  Re z < 0 (-Log z - gamma z below the normal range); on the negative real
  axis its imaginary part is -ceil(-x) pi (+ceil(-x) pi for an imaginary
  part of -0.0);
* ``cgamma`` and ``crgamma``: exp(+-cloggamma);
* ``cpsi``: the reflection formula with cot taken after removing the nearest
  integer, the recurrence and 8 Stirling terms, the parts added by
  ``math.fsum``.

At a pole Gamma and psi are NaN (complex NaN for complex z), 1/Gamma is 0;
a complex argument that is not finite gives complex NaN.
Only ``math`` and ``cmath`` are imported, and nothing is computed at import.
"""

from __future__ import annotations

import cmath
import math

_INF = math.inf
_NAN = math.nan
_PI = math.pi
_EULER = 0.5772156649015329
# Gamma(x) overflows beyond MAXGAM; pow(x, x - 1/2) beyond MAXSTIR
_MAXGAM = 171.6243769563027
_MAXSTIR = 143.01608
_SQTPI = 2.5066282746310007  # sqrt(2 pi)
_LS2PI = 0.9189385332046728  # log sqrt(2 pi)
_LOG2PI = 1.8378770664093453  # log 2 pi
_MAXLGM = 2.556348e305  # log Gamma(x) overflows beyond
_MACHEP = 1.1102230246251565e-16  # 2^-53
_DBL_EPSILON = 2.220446049250313e-16
_DBL_MIN = 2.2250738585072014e-308  # the least normal double
# psi's negative root nearest 0, and psi there
_NEGROOT = -0.5040830082644554
_NEGROOTVAL = 7.2897639029768949e-17


def gamma(x: float) -> float:
    """Gamma(x) [Cephes ``Gamma``]; +-inf at +-0, NaN at x = -1, -2, ..."""
    if x == 0.0:
        return math.copysign(_INF, x)
    if x == -_INF:
        return _NAN
    q = abs(x)
    if q > 33.0:
        if x > 0.0:
            return _stirf(x)
        p = math.floor(q)
        if p == q:
            return _NAN
        sign = -1.0 if int(p) & 1 == 0 else 1.0
        z = q - p
        if z > 0.5:
            p += 1.0
            z = q - p
        z = q * math.sin(_PI * z)
        return sign * (_PI / (abs(z) * _stirf(q)))
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            return _gamma_small(x, z)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    # Cephes P and Q
    p = ((((((1.6011952247675185e-04 * x + 1.1913514700658638e-03) * x
             + 1.0421379756176158e-02) * x + 4.7636780045713721e-02) * x
           + 2.0744822764843598e-01) * x + 4.9421482680149710e-01) * x
         + 1.0)
    q = (((((((-2.3158187332412014e-05 * x + 5.3960558049330335e-04) * x
              - 4.4564191385179728e-03) * x + 1.1813978522206043e-02) * x
            + 3.5823639860549865e-02) * x - 2.3459179571824335e-01) * x
          + 7.1430491703027300e-02) * x + 1.0)
    return z * p / q


def _gamma_small(x: float, z: float) -> float:
    """Gamma near a pole, z / (x Gamma(1 + x)) to first order in x."""
    if x == 0.0:
        return _NAN
    return z / ((1.0 + _EULER * x) * x)


def _stirf(x: float) -> float:
    """Stirling's formula for Gamma(x), 33 <= x [Cephes ``stirf``]."""
    if x >= _MAXGAM:
        return _INF
    w = 1.0 / x
    # Cephes STIR
    w = 1.0 + w * ((((7.8731139579309368e-04 * w - 2.2954996161337813e-04) * w
                     - 2.6813261780578124e-03) * w + 3.4722222160545866e-03) * w
                   + 8.3333333333348224e-02)
    y = math.exp(x)
    if x > _MAXSTIR:  # pow(x, x - 1/2) would overflow
        v = math.pow(x, 0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = math.pow(x, x - 0.5) / y
    return _SQTPI * y * w


def rgamma(x: float) -> float:
    """1/Gamma(x) [Cephes ``rgamma`` for |x| < 4]; 0 at x = 0, -1, -2, ..."""
    if not abs(x) < 4.0:
        if x != x:
            return x
        g = gamma(x)
        if g == 0.0:
            return math.copysign(_INF, g)
        return 0.0 if g != g else 1.0 / g
    z = 1.0
    w = x
    while w > 1.0:
        w -= 1.0
        z *= w
    while w < 0.0:
        z /= w
        w += 1.0
    if w == 0.0:  # a pole of Gamma; -0.0 keeps its sign
        return w
    if w == 1.0:
        return 1.0 / z
    # Clenshaw's recurrence b <- t b - b' + c over Cephes R, the Chebyshev
    # series of 1/(w Gamma(w)) - 1 on [0, 1] [Cephes ``chbevl``]
    t = 4.0 * w - 2.0
    p = 3.1317345823123e-17
    q = t * p - 6.70718606477908e-16
    p = t * q - p + 2.2003907817225954e-15
    q = t * p - q + 2.4769163034825414e-13
    p = t * q - p - 6.600741004112952e-12
    q = t * p - q + 5.13850186324227e-11
    p = t * q - p + 1.0896538645441867e-09
    q = t * p - q - 3.3396463068683694e-08
    p = t * q - p + 2.6897599644059546e-07
    q = t * p - q + 2.960011775188017e-06
    p = t * q - p - 8.048141249784711e-05
    q = t * p - q + 0.0004166091387096889
    p = t * q - p + 0.005065798640286087
    q = t * p - q - 0.06419254361091582
    p = t * q - p - 0.004985587286840036
    b0 = t * p - q + 0.12754601561052395
    return w * (1.0 + 0.5 * (b0 - q)) / z


def lgam(x: float) -> float:
    """log Gamma(x) for x > 0 [Cephes ``lgam``]."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        # Cephes B and C (whose leading coefficient is 1)
        b = (((((-1.3782515256912086e+03 * x - 3.8801631513463784e+04) * x
                - 3.3161299273887119e+05) * x - 1.1623709749276231e+06) * x
              - 1.7217370082083966e+06) * x - 8.5355566424576547e+05)
        c = ((((((x - 3.5181570143652345e+02) * x - 1.7064210665188115e+04) * x
                - 2.2052859055385445e+05) * x - 1.1393344436798252e+06) * x
              - 2.5325230717758294e+06) * x - 2.0188914143353277e+06)
        return math.log(z) + x * b / c
    if x > _MAXLGM:
        return _INF
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        # Cephes A
        q += ((((8.1161416747050848e-04 * p - 5.9506190428430143e-04) * p
                + 7.9365034045771694e-04) * p - 2.7777777773009971e-03) * p
              + 8.3333333333333190e-02) / x
    return q


def psi(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) [Cephes ``psi``]; NaN at x = -1, -2, ..."""
    if x == 0.0:
        return math.copysign(_INF, -x)
    y = 0.0
    if x < 0.0:
        if abs(x - _NEGROOT) < 0.3:
            return _negroot_series(x)
        # reduce the argument before taking tan(pi x)
        r = math.modf(x)[0]
        if r == 0.0:
            return _NAN
        y = -_PI / math.tan(_PI * r)
        x = 1.0 - x
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if 1.0 <= x <= 2.0:
        # (x - root) (Y + P(x-1)/Q(x-1)), root psi's positive zero split into
        # three doubles and Y the float32 0.99558162689208984 (Boost
        # ``digamma_imp_1_2``)
        g = x - 1.4616321446374059
        g -= 3.309564688275257e-10
        g -= 9.016312093258695e-20
        t = x - 1.0
        p = (((((-2.0713321167745952e-03 * t - 4.5251321448739056e-02) * t
                - 2.8919126444774784e-01) * t - 6.5031853770896507e-01) * t
              - 3.2555031186804491e-01) * t + 2.5479851061131551e-01)
        q = ((((((-5.5789841321675513e-07 * t + 2.1284987017821144e-03) * t
                 + 5.4151797245674225e-02) * t + 4.3593529692665969e-01) * t
               + 1.4606242909763515e+00) * t + 2.0767117023730469e+00) * t + 1.0)
        return y + (g * 0.9955816268920898 + g * (p / q))
    if x < 1.0e17:
        z = 1.0 / (x * x)
        # Cephes A: B_2k / 2k
        s = z * ((((((8.3333333333333329e-02 * z - 2.1092796092796094e-02) * z
                     + 7.5757575757575760e-03) * z - 4.1666666666666666e-03) * z
                   + 3.9682539682539680e-03) * z - 8.3333333333333329e-03) * z
                 + 8.3333333333333329e-02)
    else:
        s = 0.0
    return y + (math.log(x) - 0.5 / x - s)


_negroot_zeta: list[float] = []


def _negroot_series(x: float) -> float:
    """psi(x) = psi(root) - sum_n zeta(n+1, root) (root - x)^n, the Taylor
    series about psi's negative root [DLMF 5.15.1, 25.11.12]."""
    if not _negroot_zeta:
        _negroot_zeta.extend(_hzeta(n + 1.0, _NEGROOT) for n in range(1, 100))
    res = _NEGROOTVAL
    coeff = -1.0
    d = x - _NEGROOT
    for zeta in _negroot_zeta:
        coeff *= -d
        term = coeff * zeta
        res += term
        if abs(term) < _DBL_EPSILON * abs(res):
            break
    return res


# Euler-Maclaurin coefficients (2k)! / B_2k of the zeta tail
_HZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
            7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
            -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)


def _hzeta(x: float, q: float) -> float:
    """Hurwitz zeta(x, q) for integer x > 1 and q not a non-positive
    integer, by Euler-Maclaurin summation [Cephes ``zeta``]."""
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for c in _HZETA_A:
        a *= x + k
        b /= w
        t = a * b / c
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _is_pole(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer()


def cloggamma(z: complex) -> complex:
    """log Gamma(z) on the principal branch; complex NaN at a pole."""
    if _is_pole(z) or not cmath.isfinite(z):
        return complex(_NAN, _NAN)
    if math.copysign(1.0, z.imag) < 0.0:
        # the lower half plane, -0.0 included, by symmetry: adding 1.0 to
        # z would turn an imaginary part of -0.0 into +0.0
        return cloggamma(z.conjugate()).conjugate()
    if z.real < 0.0 and abs(z) < _DBL_MIN:
        # log Gamma(z) = -Log z - gamma z + O(z^2) [DLMF 5.7.3 with
        # Gamma(z) = Gamma(1+z)/z]: below the normal range the reflection's
        # 2 pi (z - round z) rounds to a few bits
        return -cmath.log(z) - _EULER * z
    if z.real < 0.0:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z) = 2 pi i e^{i pi z} / (e^{2 pi i z} - 1)
        # [DLMF 5.5.3]: on Im z >= 0 the principal Log(1 - e^{2 pi i z}) is
        # continuous, so the sum is the principal branch, in bounded work.
        # 1 - e^(a+ib) is taken as 2 sin^2(b/2) - expm1(a) cos b - i e^a sin b,
        # accurate near the poles, where it nears 0
        a = -2.0 * _PI * z.imag
        b = 2.0 * _PI * (z.real - round(z.real))
        s = math.sin(0.5 * b)
        d = complex(2.0 * s * s - math.expm1(a) * math.cos(b), -math.exp(a) * math.sin(b))
        return (complex(_LOG2PI - _PI * z.imag, _PI * (z.real - 0.5))
                - cmath.log(d) - cloggamma(1.0 - z))
    if abs(z - 1.0) <= 0.2:
        return _taylor1(z - 1.0)
    if abs(z - 2.0) <= 0.2:
        # log Gamma(z) = Log(z - 1) + log Gamma(z - 1), Log accurate near 1
        return cmath.log(z - 1.0) + _taylor1(z - 2.0)
    # log Gamma(z) = log Gamma(z + n) - Log(z (z+1) ... (z+n-1)) with Re(z + n)
    # > 7, as scipy does: one Log of the product, whose argument grows by
    # less than pi a factor on Im z >= 0, so each turn of its imaginary part
    # from >= 0 to < 0 is one more 2 pi the principal Log leaves out
    w, prod, turns = z, 1.0 + 0j, 0
    while w.real <= 7.0 and w.imag <= 7.0:
        below = prod.imag < 0.0
        prod *= w
        turns += prod.imag < 0.0 and not below
        w += 1.0
    r = 1.0 / w
    r2 = r * r
    # B_2k / (2k (2k-1)), k = 1..8
    series = r * (8.3333333333333333e-02 + r2 * (-2.7777777777777778e-03 + r2 * (
        7.9365079365079365e-04 + r2 * (-5.9523809523809524e-04 + r2 * (
            8.4175084175084175e-04 + r2 * (-1.9175269175269175e-03 + r2 * (
                6.4102564102564103e-03 + r2 * -2.9550653594771242e-02)))))))
    stirling = (w - 0.5) * cmath.log(w) - w + _LS2PI + series
    if w is z:
        return stirling
    return stirling - cmath.log(prod) - complex(0.0, 2.0 * _PI * turns)


# log Gamma(1 + w) = -gamma w + sum_{k>=2} (-1)^k zeta(k) w^k / k [DLMF 5.7.3],
# the factors of w^23 down to w^1; |w| <= 0.2 leaves a tail below 4e-18
_TAYLOR1 = (
    -0.04347826605304026, 0.04545455629320467, -0.047619070330142226, 0.05000004769810169,
    -0.05263167937961666, 0.055555767627403614, -0.058823978658684585, 0.06250095514121304,
    -0.06666870588242046, 0.07143294629536133, -0.0769325164113522, 0.083353840546109,
    -0.09095401714582904, 0.1000994575127818, -0.11133426586956469, 0.12550966952474304,
    -0.1440498967688461, 0.1695571769974082, -0.20738555102867398, 0.27058080842778454,
    -0.40068563438653143, 0.8224670334241132, -0.5772156649015329)


def _taylor1(w: complex) -> complex:
    """log Gamma(1 + w) for |w| <= 0.2, where it nears its zero at w = 0."""
    acc = 0j
    for c in _TAYLOR1:
        acc = acc * w + c
    return acc * w


def _cexp(w: complex) -> complex:
    """exp(w), infinite instead of OverflowError."""
    try:
        return cmath.exp(w)
    except OverflowError:
        y = w.imag
        return complex(_INF * math.cos(y), _INF * math.sin(y) if y else y)


def cgamma(z: complex) -> complex:
    """Gamma(z) = exp(log Gamma(z)); complex NaN at a pole."""
    if _is_pole(z):
        return complex(_NAN, _NAN)
    return _cexp(cloggamma(z))


def crgamma(z: complex) -> complex:
    """1/Gamma(z) = exp(-log Gamma(z)); 0 at a pole."""
    if _is_pole(z):
        return 0j
    return _cexp(-cloggamma(z))


def cpsi(z: complex) -> complex:
    """psi(z); complex NaN at a pole."""
    if _is_pole(z) or not cmath.isfinite(z):
        return complex(_NAN, _NAN)
    parts = []
    if z.real < 0.5:
        # psi(z) = psi(1 - z) - pi cot(pi z), cot taken on z minus the
        # nearest integer, where its argument is exact
        parts.append(-_PI / cmath.tan(_PI * (z - round(z.real))))
        z = 1.0 - z
    while abs(z) < 10.0:
        parts.append(-1.0 / z)
        z += 1.0
    r2 = 1.0 / (z * z)
    # B_2k / 2k, k = 1..8
    parts.append(cmath.log(z))
    parts.append(-0.5 / z)
    parts.append(-r2 * (8.3333333333333333e-02 + r2 * (-8.3333333333333333e-03 + r2 * (
        3.9682539682539683e-03 + r2 * (-4.1666666666666667e-03 + r2 * (
            7.5757575757575758e-03 + r2 * (-2.1092796092796093e-02 + r2 * (
                8.3333333333333333e-02 + r2 * -4.4325980392156863e-01))))))))
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
