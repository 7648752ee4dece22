"""Number helpers shared by all modules.

Policy: values constructed from integers or rational strings stay exact
(`fractions.Fraction`); genuinely irrational quantities (generic cotangents,
arctangent phases) are floats compared at ``TOL``. Every branch decision that
matters lands on a phase in (1/2)Z, where the helpers below return exact
values, so float noise never flips a branch.

This module alone picks lifts and decides phase equality. Lift rule:
``lift_near(theta, target)`` is the representative theta + 2k nearest target,
exact when both are exact. Equality rule: ``phase_eq`` meets an exact gamma
only exactly, and a float gamma within ``TOL``; by Niven's theorem tan(pi*q)
is rational for rational q only at 0 and +-1, so the float (arctangent)
phases are irrational and never equal a rational gamma.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ZeroCharge

# comparison tolerance for float phases; documented part of the contract
TOL = 1e-12
# slack of a lifted phase read back from point data (integer windings, windows)
PHASE_TOL = 1e-9

HALF = Fraction(1, 2)


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def as_number(x):
    """Coerce to Fraction when exact, keep floats as floats."""
    if isinstance(x, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        return parse_number(x)
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


def num_eq(x, y, tol: float = TOL, scale: float = 1.0) -> bool:
    """Equality: exact on exact inputs, within tol * scale across floats."""
    if is_exact(x) and is_exact(y):
        return x == y
    return abs(float(x) - float(y)) <= tol * scale


def phase_eq(phase, gamma) -> bool:
    """Phase equality against a parameter: exact for exact gamma, TOL for a
    float gamma."""
    if is_exact(gamma):
        return is_exact(phase) and phase == gamma
    return abs(float(phase) - float(gamma)) <= TOL


def lift_near(theta, target):
    """The representative theta + 2k nearest target; exact when both are.
    A tie (distance 1) rounds to even k; no caller's answer depends on one."""
    if is_exact(theta) and is_exact(target):
        return theta + 2 * round((target - theta) / 2)
    return theta + 2 * round((float(target) - float(theta)) / 2)


def floor_near(x: float) -> int:
    """floor of a float that may sit a rounding error below an integer."""
    return math.floor(x + TOL)


def direction_angle(x, y):
    """Angle of the nonzero vector (x, y) in units of pi, in (-1, 1].

    Axis directions come back exact (0, 1, 1/2, -1/2); everything else is a
    float from atan2. Raises ZeroCharge on the zero vector.
    """
    if x == 0 and y == 0:
        raise ZeroCharge("direction of the zero vector is undefined")
    if y == 0:
        return Fraction(1) if x < 0 else Fraction(0)
    if x == 0:
        return HALF if y > 0 else -HALF
    return math.atan2(float(y), float(x)) / math.pi


def cot_pi(gamma):
    """cot(pi*gamma) for gamma in (0, 1), exact at the rational points."""
    g = as_number(gamma)
    if not 0 < g < 1:
        raise ValueError("cot_pi needs an argument in (0, 1)")
    if is_exact(g):
        if g == HALF:
            return Fraction(0)
        if g == Fraction(1, 4):
            return Fraction(1)
        if g == Fraction(3, 4):
            return Fraction(-1)
    gf = float(g)
    return math.cos(math.pi * gf) / math.sin(math.pi * gf)


def gamma_from_cot(c):
    """Inverse of cot_pi into (0, 1); exact at c in {-1, 0, 1}."""
    if is_exact(c):
        if c == 1:
            return Fraction(1, 4)
        if c == 0:
            return HALF
        if c == -1:
            return Fraction(3, 4)
    return math.atan2(1.0, float(c)) / math.pi


def phase_mod1(re, im):
    """Phase of the nonzero value re + i*im folded into (0, 1]."""
    theta = direction_angle(re, im)
    return theta if theta > 0 else theta + 1
