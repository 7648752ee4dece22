"""Number helpers shared by all modules.

Policy: values constructed from integers or rational strings stay exact
(`fractions.Fraction`); genuinely irrational quantities (generic cotangents,
arctangent phases) are floats compared at ``TOL``. Every branch decision that
matters lands on a phase in (1/2)Z, where the helpers below return exact
values, so float noise never flips a branch.

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
    """Parse "7", "3/10" or "0.3" exactly; fall back to float for the rest."""
    s = s.strip()
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return float(s)


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
_NIVEN = ((Fraction(1, 4), Fraction(1)), (HALF, Fraction(0)), (Fraction(3, 4), Fraction(-1)))


def cot_pi(gamma):
    """cot(pi*gamma) for gamma in (0, 1), exact at the rational points;
    inf where pi*gamma underflows to 0."""
    g = as_number(gamma)
    if not 0 < g < 1:
        raise ValueError("cot_pi needs an argument in (0, 1)")
    if is_exact(g):
        for q, c in _NIVEN:
            if g == q:
                return c
    gf = to_float(g)
    s = math.sin(math.pi * gf)
    return math.cos(math.pi * gf) / s if s else math.inf


def gamma_from_cot(c):
    """Inverse of cot_pi into (0, 1); exact at c in {-1, 0, 1}. A nonzero c
    never comes back as 1/2: a float that rounds onto it steps one ulp to
    the side of the sign of c."""
    if is_exact(c):
        for q, k in _NIVEN:
            if c == k:
                return q
    g = math.atan2(1.0, to_float(c)) / math.pi
    if g == 0.5 and c != 0:
        return math.nextafter(0.5, 0.0 if c > 0 else 1.0)
    return g


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
