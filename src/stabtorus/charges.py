"""Numerical K-group of a generic complex torus and central charges on it.

For a torus of dimension d >= 3 with no extra line bundle classes the
numerical K-group collapses to Z^2, spanned by the rank and the degree of the
codimension-d Chern component. A class is written (rk, chd). A central charge
is a real 2x2 frame acting on the column (-chd, rk):

    Z(v) = (-a*chd + b*rk) + i * (-c*chd + e*rk)

so the skyscraper class (0, 1) goes to -a - i*c. The standard charges are
``std_charge`` (one per heart index, period two) and the degenerate boundary
charges ``deg_charge`` whose image is a ray plus its negative.

A charge is a ``linalg.Matrix2`` with entries named a, b, c, e: four integer
numerators over one positive denominator. A float entry is the dyadic
rational it equals, so a float charge is its exact twin. Values, determinant
signs, the stability test and the cover action are integer arithmetic on it,
and Fractions appear only when an entry is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NoPhaseInWindow, UnsupportedSpectrum, ZeroCharge
from .exactnum import (
    HALF,
    as_number,
    cot_pi,
    direction_angle,
    gamma_from_cot,
    lift_near,
    phase_above,
)
from .linalg import Matrix2, _reduced


def is_int(v) -> bool:
    """An integer, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_index(p, message: str, lo: int | None = 0, hi: int | None = None) -> None:
    """Raise DomainError unless p is an integer (not a bool) in lo..hi, a
    bound of None leaving that side open.

    ``message`` is formatted only on failure, with the fields ``p``, ``lo``
    and ``hi``.
    """
    if not is_int(p) or (lo is not None and p < lo) or (hi is not None and p > hi):
        raise DomainError(message.format(p=p, lo=lo, hi=hi))


def check_dimension(d: int) -> None:
    check_index(d, "torus dimension must be an integer >= 3, got {p!r}", lo=3)


def _check_range(p, d: int, lo: int = 0, kind: str = "heart") -> None:
    """Raise DomainError unless d is a torus dimension and p an integer in lo..d-1."""
    check_dimension(d)
    check_index(p, kind + " index must lie in {lo}..{hi}, got {p!r}", lo, d - 1)


@dataclass(frozen=True)
class KClass:
    """Element (rk, chd) of the numerical K-group Z^2."""

    rk: int
    chd: int

    def __post_init__(self):
        check_index(self.rk, "KClass.rk must be an integer, got {p!r}", lo=None)
        check_index(self.chd, "KClass.chd must be an integer, got {p!r}", lo=None)

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

class CentralCharge(Matrix2):
    """Frame (a, b; c, e) on the column (-chd, rk); entries exact or finite
    floats.

    A charge is a ``Matrix2`` with entries named a, b, c, e: integer
    numerators over one positive denominator in lowest terms, a float entry
    converted exactly. Equality, hashing and the repr are those of a frozen
    dataclass with the fields a, b, c, e, so a charge equals and hashes like
    any other with the same values, however they were given, and never
    equals a plain matrix; ``frame()`` is the same values as a ``Matrix2``.
    """

    __slots__ = ()
    __match_args__ = ("a", "b", "c", "e")

    def __new__(cls, a, b, c, e):
        try:  # Matrix2 reads each entry by as_number
            return super().__new__(cls, a, b, c, e)
        except TypeError:
            raise DomainError(f"charge entries must be numbers, got {(a, b, c, e)!r}") from None

    e = Matrix2.d

    def frame(self) -> Matrix2:
        """The frame as a plain matrix."""
        return _reduced(*self.num, self.den)

    def is_degenerate(self) -> bool:
        return self.det_sign() == 0


_STD_CHARGES = (CentralCharge(1, 0, 0, 1), CentralCharge(1, 0, 0, -1))


def charge_eval(Z: CentralCharge, v: KClass):
    """Value of Z on v as the exact pair (re, im)."""
    return Z.apply(-v.chd, v.rk)


def _charge_num(Z: CentralCharge, v: KClass):
    """Z(v) as (re, im, den) meaning (re, im) / den: integer numerators over
    the denominator of Z's frame, the form ``direction_angle`` takes."""
    x = -v.chd
    y = v.rk
    a, b, c, e = Z.num
    return (a * x + b * y, c * x + e * y, Z.den)


def std_charge(p: int, d: int | None = None) -> CentralCharge:
    """Charge of the standard point with heart index p: -chd + (-1)^p * i * rk."""
    check_index(p, "heart index must be a nonnegative integer, got {p!r}")
    if d is not None:
        _check_range(p, d)
    return _STD_CHARGES[p % 2]


def deg_charge(p: int, gamma) -> CentralCharge:
    """Degenerate charge of the boundary family at heart index p, parameter gamma.

    Z(v) = -chd - (-1)^p * cot(pi*gamma) * rk, purely real, with gamma in
    (0, 1/2). Requires p >= 1.
    """
    check_index(p, "heart index must be a nonnegative integer, got {p!r}")
    if p < 1:
        raise DomainError("degenerate charges need heart index p >= 1")
    g = as_number(gamma)
    if not 0 < g < HALF:
        raise DomainError("gamma must lie strictly between 0 and 1/2")
    cot = cot_pi(g)
    if not math.isfinite(cot):
        raise DomainError("gamma is so small that cot(pi*gamma) leaves the float range")
    return CentralCharge(1, -((-1) ** p) * cot, 0, 0)


def _orbits_over(F: Matrix2, d: int):
    """The inverse of the charge map on orbit labels: (degenerate, indices,
    gamma), where the charge with frame F is a charge of the Std(p) orbit
    (gamma None) or of the Deg(p, gamma()) family exactly for the p in the
    range ``indices``. gamma is called only where a label is built, since a
    slope beyond the float range has no boundary parameter.

    A nondegenerate frame lies over the Std(p), 0 <= p < d, with (-1)**p the
    sign of its determinant. The rows of a degenerate frame are multiples of
    (1, w), w read from the first row with a nonzero skyscraper entry; it
    lies over Deg(p, gamma), gamma the ``gamma_from_cot`` of |w|, for the
    1 <= p < d that are odd exactly when w > 0, and over nothing when its
    skyscraper column is zero or w = 0, the excluded parameter 1/2. Both
    readings are exact: the sign and the ratio of integer numerators.
    """
    sign = F.det_sign()
    if sign:
        return (False, range(0 if sign > 0 else 1, d, 2), None)
    a, b, c, e = F.num
    sky, rk = (a, b) if a else (c, e)
    if sky == 0 or rk == 0:
        return (True, range(0), None)
    w = Fraction(rk, sky)
    return (True, range(1 if w > 0 else 2, d, 2), lambda: gamma_from_cot(abs(w)))


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

    Z is decided on the integer numerators of its frame: a common positive
    denominator changes none of the signs tested, nor floor(e/c).
    """
    check_index(p, "heart index must be a nonnegative integer, got {p!r}")
    if d is not None:
        _check_range(p, d)
    a, b, c, e = Z.num
    if p == 0:
        # torsion classes (0, t): need c == 0 and then Re = -a*t < 0
        if c != 0:
            # rank-one class with chd large of the right sign gives Im < 0
            m = e // c + 1 if c > 0 else -(-e // c) - 1
            return (False, KClass(1, m))
        if e < 0:
            return (False, KClass(1, 0))
        if e == 0:
            # image is real; some effective class must hit the closed positive axis
            if b >= 0:
                return (False, KClass(1, 0))
            if a > 0:
                return (False, KClass(1, b // a))
            if a < 0:
                return (False, KClass(1, -(-b // a)))
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
    a, b, c, e = U.float_image()
    return max(math.hypot(a, c), math.hypot(b, e))


def phase_in_strip(Z: CentralCharge, v: KClass, anchor):
    """The lift of arg Z(v) / pi landing in the window (anchor, anchor + 1].

    Exact where the direction is exact (charge on an axis). Raises ZeroCharge
    when Z(v) = 0 and NoPhaseInWindow when no representative mod 2 fits,
    which happens for half of the possible directions.
    """
    re, im, den = _charge_num(Z, v)
    if re == 0 and im == 0:
        raise ZeroCharge(f"charge vanishes on {v}")
    theta = direction_angle(re, im, den)
    anchor = as_number(anchor)
    cand = lift_near(theta, anchor + HALF)
    h = im < 0 or (im == 0 and re > 0)  # theta is the phase in (0, 1] less h
    u = Fraction(anchor) - round(cand - theta) + h  # cand, theta + 2k, fits exactly
    if phase_above(re, im, u) and not phase_above(re, im, u + 1):  # when u < phase <= u + 1
        return cand
    raise NoPhaseInWindow(f"no lift of direction {theta} in ({anchor}, {anchor}+1]")
