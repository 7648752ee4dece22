"""Number helpers shared by all modules.

Policy: values constructed from integers or rational strings stay exact
(`fractions.Fraction`); genuinely irrational quantities (generic cotangents,
arctangent phases) are floats compared at ``TOL``, and a phase read back from
point data meets its lift within ``PHASE_TOL``. Whether an arctangent
phase lies above a rational is decided exactly, by ``phase_above`` on the
brackets of ``cot_brackets``: floats with a proven error bound first, then
integer fixed point near a tie.

This module alone lifts angles and decides phase equality; windings take no
angle (``cover._turns``). Lift rule: ``lift_near(theta, target)`` is the
representative theta + 2k nearest target, exact when both are exact.
Equality rule: ``phase_eq`` meets an exact gamma only exactly, and a float
gamma within ``TOL``; by Niven's theorem tan(pi*q) is rational for rational
q only at 0 and +-1, so the float (arctangent) phases are irrational and
never equal a rational gamma.

Exact values become floats only through ``to_float``: correctly rounded, and
a DomainError instead of an OverflowError past the float range.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import DomainError, ZeroCharge

# comparison tolerance for float phases; documented part of the contract
TOL = 1e-12
# slack of a lifted phase read back from point data (integer windings, windows)
PHASE_TOL = 1e-9

HALF = Fraction(1, 2)


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_number(x):
    """Coerce to Fraction when exact, keep finite floats as floats; a string
    is read by ``parse_number``. A non-finite float, given or parsed, raises
    DomainError."""
    if x.__class__ is Fraction:
        return x
    if isinstance(x, float):
        if math.isfinite(x):
            return x
        raise DomainError(f"non-finite number {x!r}")
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        return as_number(parse_number(x))
    raise TypeError(f"not a number: {x!r}")


def parse_number(s: str):
    """Parse "7", "3/10" or "0.3" exactly, the rest as a float; DomainError if neither."""
    s = s.strip()
    for read in (Fraction, float):
        try:
            return read(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"not a number: {s!r}")


def format_number(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)


def to_float(x, den: int = 1) -> float:
    """x / den as a float, for an int or Fraction x and a positive int den
    (a float x, with den 1, comes back as it is).

    int / int true division is correctly rounded, so this equals
    float(Fraction(x, den)) bit for bit. Raises DomainError when the value
    lies beyond the float range.
    """
    if x.__class__ is not int:
        if isinstance(x, float):
            return x
        if not isinstance(x, int):  # a Fraction
            x, den = x.numerator, x.denominator * den
    try:
        return x / den
    except OverflowError:
        raise DomainError("an exact value lies beyond the float range") from None


def num_eq(x, y, tol: float = TOL) -> bool:
    """Equality: exact on exact inputs, within tol across floats."""
    if is_exact(x) and is_exact(y):
        return x == y
    return abs(to_float(x) - to_float(y)) <= tol


def phase_eq(phase, gamma) -> bool:
    """Phase equality against a parameter: exact for exact gamma, TOL for a
    float gamma."""
    if is_exact(gamma):
        return is_exact(phase) and phase == gamma
    return abs(to_float(phase) - to_float(gamma)) <= TOL


def lift_near(theta, target):
    """The representative theta + 2k nearest target; exact when both are.
    A tie (distance 1) rounds to even k; no caller's answer depends on one."""
    if is_exact(theta) and is_exact(target):
        return theta + 2 * round((target - theta) / 2)
    return theta + 2 * round((to_float(target) - to_float(theta)) / 2)


def floor_near(x) -> int:
    """floor of an exact x, or of a float that may sit a rounding error below
    an integer."""
    return math.floor(x) if is_exact(x) else math.floor(x + TOL)


def direction_angle(x, y, den: int = 1):
    """Angle of the nonzero vector (x, y) / den in units of pi, in (-1, 1].

    den is a positive int scaling an integer vector, 1 otherwise. Axis
    directions come back exact (0, 1, 1/2, -1/2); everything else is a float
    from atan2 of the correctly rounded coordinates. An exact vector whose
    coordinates are not both normal floats, one rounding below the smallest
    or lying beyond the float range, is first scaled by a power of two that
    brings the larger one near 1, so that neither a rounded-off coordinate
    nor an overflow bends the direction; with both coordinates normal the
    result is unchanged. An atan2 that rounds a y < 0 onto -1 answers the
    float just above -1. Raises ZeroCharge on the zero vector.
    """
    if y == 0:
        if x == 0:
            raise ZeroCharge("direction of the zero vector is undefined")
        return _ONE if x < 0 else _ZERO
    if x == 0:
        return HALF if y > 0 else _MINUS_HALF
    try:
        fy, fx = to_float(y, den), to_float(x, den)
    except DomainError:  # an exact coordinate beyond the float range
        fy = fx = math.inf
    theta = rounded_direction(fx, fy)
    if theta is not None:
        return theta
    if is_exact(x) and is_exact(y):
        fy, fx = _rescaled(Fraction(y, den), Fraction(x, den))
    return _atan2_pi(fy, fx)


def rounded_direction(fx: float, fy: float):
    """``direction_angle`` of a vector read from its correctly rounded
    coordinates fx and fy when both are normal floats, the atan2 of them;
    None when one is zero, subnormal or infinite, where ``direction_angle``
    needs the vector itself for its exact or rescaled answer."""
    if _MIN_NORMAL <= abs(fx) <= _MAX_NORMAL and _MIN_NORMAL <= abs(fy) <= _MAX_NORMAL:
        return _atan2_pi(fy, fx)
    return None


def _atan2_pi(fy: float, fx: float) -> float:
    theta = math.atan2(fy, fx) / math.pi
    return theta if theta != -1.0 else math.nextafter(-1.0, 0.0)  # -1.0 only from y < 0


_MIN_NORMAL, _MAX_NORMAL = sys.float_info.min, sys.float_info.max
_ZERO, _ONE, _MINUS_HALF = Fraction(0), Fraction(1), -HALF


def _rescaled(y: Fraction, x: Fraction):
    """The floats of y * 2**k and x * 2**k, for the k that puts the larger
    magnitude in [1/2, 2)."""
    m = max(abs(y), abs(x))
    k = m.denominator.bit_length() - m.numerator.bit_length()
    s = Fraction(2) ** k
    return to_float(y * s), to_float(x * s)


# Niven's points: the only rational gamma in (0, 1) with rational cot(pi*gamma)
_NIVEN = {Fraction(1, 4): Fraction(1), HALF: Fraction(0), Fraction(3, 4): Fraction(-1)}


def cot_pi(gamma):
    """cot(pi*gamma) for gamma in (0, 1), exact at the rational points;
    inf where pi*gamma underflows to 0. Above 1/2 it is -cot(pi*(1 - gamma)),
    as in ``cot_brackets``: 1 - gamma is exact, for a float as for a
    rational, while the float of gamma loses it near 1."""
    g = as_number(gamma)
    if not 0 < g < 1:
        raise DomainError("cot_pi needs an argument in (0, 1)")
    if is_exact(g) and g in _NIVEN:
        return _NIVEN[g]
    gf = to_float(g)
    if gf > 0.5 or gf == 0.5 and g > HALF:
        return -cot_pi(1 - g)
    s = math.sin(math.pi * gf)
    return math.cos(math.pi * gf) / s if s else math.inf


def gamma_from_cot(c):
    """Inverse of cot_pi into (0, 1); exact at c in {-1, 0, 1}. A nonzero c
    never comes back as 1/2: a float that rounds onto it steps one ulp to
    the side of the sign of c."""
    if is_exact(c):
        for q, k in _NIVEN.items():
            if c == k:
                return q
    g = math.atan2(1.0, to_float(c)) / math.pi
    if g == 0.5 and c != 0:
        return math.nextafter(0.5, 0.0 if c > 0 else 1.0)
    return g


def cot_brackets(q):
    """Brackets (lo, hi) of cot(pi*q), q rational in (0, 1), as integer
    ratios (num, den), den > 0: one exact bracket at Niven's points, else an
    endless run, each far tighter than the last. First the float cot(pi*p),
    p the nearer of q and 1 - q, widened to 16 times its error bound
    (1 + |cot|) * 2**-48 (rounding p and pi*p, a tan within 4 ulp); then
    fixed point at 64, 128, ... bits: cos x / (x * sinc x) at x = pi*p."""
    qf = to_float(q)
    if 4 * qf % 1 == 0 and q in _NIVEN:  # a Niven point's float is a multiple of 1/4
        yield (_NIVEN[q].as_integer_ratio(),) * 2
        return
    p, sign = (q, 1) if qf <= 0.5 else (1 - q, -1)
    pf = qf if sign > 0 else to_float(p)
    if pf > 1e-300:
        c = sign / math.tan(math.pi * pf)
        w = (1 + abs(c)) * 2**-44
        yield (c - w).as_integer_ratio(), (c + w).as_integer_ratio()
    a, b = p.as_integer_ratio()
    bits = 64
    while True:
        one = 1 << bits
        s5, s239 = (_alternating(one, lambda k, n=n: (2 * k - 1, 2 * k - 1, (2 * k + 1) * n * n))
                    for n in (5, 239))
        # pi = 16 atan(1/5) - 4 atan(1/239), atan(1/n) = s_n / n
        pl = (3824 * s5[0] - 20 * s239[1]) // 1195
        ph = -(-(3824 * s5[1] - 20 * s239[0]) // 1195)
        xl, xh = pl * a // b, -(-ph * a // b)
        x2l, x2h = xl * xl >> bits, -(-xh * xh >> bits)
        cl, ch = _alternating(one, lambda k: (x2l, x2h, (2 * k - 1) * 2 * k << bits))
        sl, sh = _alternating(one, lambda k: (x2l, x2h, 2 * k * (2 * k + 1) << bits))
        # each end takes the denominator that bounds it, by its numerator's sign
        lo = (cl * b << bits, (ph * sh if cl > 0 else pl * sl) * a)
        hi = (ch * b << bits, (pl * sl if ch > 0 else ph * sh) * a)
        yield (lo, hi) if sign > 0 else ((-hi[0], hi[1]), (-lo[0], lo[1]))
        bits *= 2


def _alternating(one: int, step):
    """Bounds on one * sum_k (-1)**k * t_k, t_0 = 1 and t_k between t_{k-1} *
    nl / m and t_{k-1} * nh / m for (nl, nh, m) = step(k), terms falling from
    k = 1 on; the tail, below the last term taken, widens each end by one."""
    lo = hi = tl = th = one
    k = 0
    while th > 1:
        k += 1
        nl, nh, m = step(k)
        tl, th = tl * nl // m, -(-th * nh // m)
        lo, hi = (lo - th, hi - tl) if k % 2 else (lo + tl, hi + th)
    return lo - 1, hi + 1


def phase_above(x: int, y: int, q) -> bool:
    """Whether the phase of the nonzero integer vector (x, y), folded into
    (0, 1] as by ``phase_mod1``, lies above the number q, decided exactly:
    for y > 0 and q in (0, 1) it does when x/y < cot(pi*q)."""
    if y < 0:
        x, y = -x, -y
    if y == 0 or not 0 < q < 1:
        return q < 1  # a real vector has phase 1
    for (ln, ld), (hn, hd) in cot_brackets(q):
        above = x * ld < ln * y
        if above or x * hd >= hn * y:
            return above


def phase_mod1(re, im, den: int = 1):
    """Phase of the nonzero value (re + i*im) / den folded into (0, 1]; den
    as in ``direction_angle``.

    The fold follows the exact half-plane. A value below the real axis is
    read as its negative, of the same phase, so that a phase near 0 keeps
    the precision atan2 has near 0; a value above it whose angle atan2
    rounds to 0.0 folds to the smallest positive float, not to 1.
    """
    if im < 0:
        re, im = -re, -im
    theta = direction_angle(re, im, den)
    if theta > 0:
        return theta
    return _SMALLEST if im > 0 else theta + 1


_SMALLEST = math.ulp(0.0)
