"""Numerical K-group of a generic complex torus and central charges on it.

For a torus of dimension d >= 3 with no extra line bundle classes the
numerical K-group collapses to Z^2, spanned by the rank and the degree of the
codimension-d Chern component. A class is written (rk, chd). A central charge
is a real 2x2 frame acting on the column (-chd, rk):

    Z(v) = (-a*chd + b*rk) + i * (-c*chd + e*rk)

so the skyscraper class (0, 1) goes to -a - i*c. The standard charges are
``std_charge`` (one per heart index, period two) and the degenerate boundary
charges ``deg_charge`` whose image is a ray plus its negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoPhaseInWindow, UnsupportedSpectrum, ZeroCharge
from .exactnum import (
    HALF,
    as_number,
    cot_pi,
    direction_angle,
    is_exact,
    lift_near,
    num_eq,
    to_float,
)
from .linalg import Matrix2


@dataclass(frozen=True)
class KClass:
    """Element (rk, chd) of the numerical K-group Z^2."""

    rk: int
    chd: int

    def __post_init__(self):
        for f in ("rk", "chd"):
            v = getattr(self, f)
            if isinstance(v, bool) or not isinstance(v, int):
                raise DomainError(f"KClass.{f} must be an integer, got {v!r}")

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(self.rk + other.rk, self.chd + other.chd)

    def __sub__(self, other: "KClass") -> "KClass":
        return KClass(self.rk - other.rk, self.chd - other.chd)

    def __neg__(self) -> "KClass":
        return KClass(-self.rk, -self.chd)

    def scaled(self, n: int) -> "KClass":
        return KClass(n * self.rk, n * self.chd)

    def is_zero(self) -> bool:
        return self.rk == 0 and self.chd == 0


ZERO_CLASS = KClass(0, 0)
SKYSCRAPER_CLASS = KClass(0, 1)


@dataclass(frozen=True)
class CentralCharge:
    """Frame (a, b; c, e) on the column (-chd, rk); entries exact or finite
    floats."""

    a: object
    b: object
    c: object
    e: object

    def __post_init__(self):
        for f in ("a", "b", "c", "e"):
            v = as_number(getattr(self, f))
            if isinstance(v, float) and not math.isfinite(v):
                raise DomainError(f"CentralCharge.{f} must be finite, got {v!r}")
            object.__setattr__(self, f, v)

    def is_exact(self) -> bool:
        return all(is_exact(getattr(self, f)) for f in ("a", "b", "c", "e"))

    def frame(self) -> Matrix2:
        """Exact matrix form; float entries are converted exactly."""
        return Matrix2(self.a, self.b, self.c, self.e)

    def det(self):
        return self.a * self.e - self.b * self.c

    def is_degenerate(self) -> bool:
        det = self.det()
        if self.is_exact():
            return det == 0
        scale = max(1.0, max(abs(to_float(getattr(self, f))) for f in ("a", "b", "c", "e")) ** 2)
        return num_eq(det, 0, scale=scale)


def charge_eval(Z: CentralCharge, v: KClass):
    """Value of Z on v as the pair (re, im); exact when Z is exact."""
    x = -v.chd
    y = v.rk
    return (Z.a * x + Z.b * y, Z.c * x + Z.e * y)


def std_charge(p: int, d: int | None = None) -> CentralCharge:
    """Charge of the standard point with heart index p: -chd + (-1)^p * i * rk."""
    _check_index(p, d)
    return CentralCharge(1, 0, 0, (-1) ** p)


def deg_charge(p: int, gamma, d: int | None = None) -> CentralCharge:
    """Degenerate charge of the boundary family at heart index p, parameter gamma.

    Z(v) = -chd - (-1)^p * cot(pi*gamma) * rk, purely real, with gamma in
    (0, 1/2). Requires p >= 1.
    """
    _check_index(p, d)
    if p < 1:
        raise DomainError("degenerate charges need heart index p >= 1")
    g = as_number(gamma)
    if not 0 < g < HALF:
        raise DomainError("gamma must lie strictly between 0 and 1/2")
    cot = cot_pi(g)
    if not math.isfinite(cot):
        raise DomainError("gamma is so small that cot(pi*gamma) leaves the float range")
    return CentralCharge(1, -((-1) ** p) * cot, 0, 0)


def check_index(p, message: str, lo: int = 0, hi: int | None = None) -> None:
    """Raise DomainError unless p is an integer (not a bool) in lo..hi.

    ``message`` is formatted only on failure, with the fields ``p`` and ``hi``.
    """
    if isinstance(p, bool) or not isinstance(p, int) or p < lo or (hi is not None and p > hi):
        raise DomainError(message.format(p=p, hi=hi))


def _check_index(p: int, d: int | None) -> None:
    check_index(p, "heart index must be a nonnegative integer, got {p!r}")
    if d is not None:
        check_dimension(d)
        if p > d - 1:
            raise DomainError(f"heart index {p} exceeds d-1 = {d - 1}")


def check_dimension(d: int) -> None:
    if isinstance(d, bool) or not isinstance(d, int) or d < 3:
        raise DomainError(f"torus dimension must be an integer >= 3, got {d!r}")


def is_stability_function(Z: CentralCharge, p: int, d: int | None = None):
    """Decide whether Z is a stability function on the standard heart p.

    Returns (True, None) or (False, witness) where the witness is the class
    of a nonzero heart object whose charge lands outside the closed upper
    half plane slit along the nonnegative reals.

    The test only needs the effective classes of the heart: for p = 0 these
    are (r, m) with r >= 1 and m arbitrary (torsion-free sheaves of any
    degree) together with (0, t), t >= 1 (torsion). For p >= 1 they are
    (0, t), t >= 1, and (eps*r, m) with eps = (-1)^p, r >= 1, m >= 0
    (shifted bundles plus torsion summands).
    """
    _check_index(p, d)
    a, b, c, e = Z.a, Z.b, Z.c, Z.e
    if p == 0:
        # torsion classes (0, t): need c == 0 and then Re = -a*t < 0
        if c != 0:
            # rank-one class with chd large of the right sign gives Im < 0
            m = math.floor(e / c) + 1 if c > 0 else math.ceil(e / c) - 1
            return (False, KClass(1, int(m)))
        if e < 0:
            return (False, KClass(1, 0))
        if e == 0:
            # image is real; some effective class must hit the closed positive axis
            if b >= 0:
                return (False, KClass(1, 0))
            if a > 0:
                return (False, KClass(1, math.floor(b / a)))
            if a < 0:
                return (False, KClass(1, math.ceil(b / a)))
            return (False, KClass(0, 1))
        if a <= 0:
            return (False, KClass(0, 1))
        return (True, None)
    eps = (-1) ** p
    if c > 0 or (c == 0 and a <= 0):
        return (False, KClass(0, 1))
    # torsion classes are fine; the shifted-bundle ray (eps, 0) decides
    if e * eps < 0 or (e * eps == 0 and b * eps >= 0):
        return (False, KClass(eps, 0))
    return (True, None)


def charge_norm(U: CentralCharge, label, d: int) -> float:
    """Operator norm of the functional U against a stable-spectrum label.

    sup |U(v)| / |Z_sigma(v)| over classes v of semistable objects of the
    point named by ``label``. Only interior standard labels (0 < p < d-1)
    carry a completely known spectrum, so anything else raises
    UnsupportedSpectrum. There the semistable classes fill the skyscraper ray
    and the shifted-bundle ray and the supremum is

        max( sqrt(a^2 + c^2), sqrt(b^2 + e^2) ),

    taken with math.hypot on the entries as floats, so the squares never
    leave the float range; entries beyond it raise DomainError.
    """
    check_dimension(d)
    p = getattr(label, "p", None)
    if p is None:
        raise DomainError("charge_norm needs an orbit label")
    if getattr(label, "gamma", None) is not None:
        raise UnsupportedSpectrum("boundary points have no classified spectrum")
    if p <= 0 or p >= d - 1:
        raise UnsupportedSpectrum(
            f"spectrum of the standard point p={p} is not completely known for d={d}"
        )
    a, b, c, e = (to_float(x) for x in (U.a, U.b, U.c, U.e))
    return max(math.hypot(a, c), math.hypot(b, e))


def phase_in_strip(Z: CentralCharge, v: KClass, anchor):
    """The lift of arg Z(v) / pi landing in the window (anchor, anchor + 1].

    Exact where the direction is exact (charge on an axis). Raises ZeroCharge
    when Z(v) = 0 and NoPhaseInWindow when no representative mod 2 fits,
    which happens for half of the possible directions.
    """
    re, im = charge_eval(Z, v)
    if re == 0 and im == 0:
        raise ZeroCharge(f"charge vanishes on {v}")
    theta = direction_angle(re, im)
    anchor = as_number(anchor)
    cand = lift_near(theta, anchor + HALF)
    if anchor < cand <= anchor + 1:
        return cand
    raise NoPhaseInWindow(f"no lift of direction {theta} in ({anchor}, {anchor}+1]")
