"""The universal cover of GL+(2, R) acting on charges and phases.

An element is a pair (T, winding): T an exact 2x2 matrix with det T > 0 and
an integer winding number. The pair encodes the increasing lift f of the
circle map induced by T on directions measured in units of pi, pinned down by

    f(0) = direction of T(1, 0) in (-1, 1], plus 2 * winding.

With exact matrices every winding computation below reduces to evaluating
atan2 on a pair of exactly known rational vectors and rounding a quantity
that sits within about 1e-15 of an integer, so windings are exact even
though intermediate angles are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .charges import CentralCharge
from .errors import DomainError, NotNumericallyConsistent
from .exactnum import HALF, as_number, direction_angle, is_exact, lift_near
from .linalg import Matrix2


@dataclass(frozen=True)
class LiftedAuto:
    T: Matrix2
    winding: int

    def __post_init__(self):
        if not isinstance(self.T, Matrix2):
            rows = tuple(tuple(r) for r in self.T)
            object.__setattr__(self, "T", Matrix2(rows[0][0], rows[0][1], rows[1][0], rows[1][1]))
        if isinstance(self.winding, bool) or not isinstance(self.winding, int):
            raise DomainError("winding must be an integer")
        if self.T.det() <= 0:
            raise DomainError("lifted elements need det T > 0")


def identity_auto() -> LiftedAuto:
    return LiftedAuto(Matrix2.identity(), 0)


def shift_auto(n: int) -> LiftedAuto:
    """The lift acting on phases by phi -> phi + n (shift by [n] downstairs)."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError("shift amount must be an integer")
    T = Matrix2.identity() if n % 2 == 0 else Matrix2.scalar(-1)
    # floor division keeps f(0) = canonical + 2*winding equal to n for odd n < 0
    return LiftedAuto(T, n // 2)


SHIFT_ONE = shift_auto(1)


def canonical_base_value(T: Matrix2):
    """f(0) of the canonical (winding zero) lift of T, in (-1, 1]."""
    return direction_angle(*T.column0())


def lift_eval(G: LiftedAuto, phi):
    """Evaluate the lift f_G at the phase phi.

    Exact at integer phi and wherever the image direction hits an axis;
    float (atan2 quality) elsewhere.
    """
    phi = as_number(phi)
    n = math.floor(phi)
    r = phi - n
    if is_exact(r) and r == HALF:
        v = (Fraction(0), Fraction(1))
    else:
        rf = float(r)
        v = (math.cos(math.pi * rf), math.sin(math.pi * rf))
    return _canonical_value(G.T, *v) + (n + 2 * G.winding)


def _canonical_value(T: Matrix2, x, y):
    """f_T at the direction of the vector (x, y) != 0, T's canonical lift.

    The half-plane of (x, y) picks the branch, so no float angle of (x, y)
    is taken: on the axis f_T(0) = base or f_T(1) = base + 1; above it f_T
    lies in (base, base + 1), 1 away from any wrong lift; below it
    f_T(psi) = f_T(psi + 1) - 1.
    """
    base = canonical_base_value(T)
    if y == 0:
        return base if x > 0 else base + 1
    if y > 0:
        return lift_near(direction_angle(*T.apply(x, y)), base + HALF)
    return lift_near(direction_angle(*T.apply(-x, -y)), base + HALF) - 1


def gl_compose(g1: LiftedAuto, g2: LiftedAuto) -> LiftedAuto:
    """Composition g1 after g2 in the cover.

    The matrix part is the exact product; the winding is fixed by evaluating
    f_{g1}(f_{g2}(0)) against the canonical lift of the product, using the
    exact image vector g2.T(1,0) rather than its float angle.
    """
    T = g1.T @ g2.T
    f1_at = _canonical_value(g1.T, *g2.T.column0())
    f0 = float(f1_at) + 2 * g1.winding + 2 * g2.winding
    chi = canonical_base_value(T)
    half_gap = (f0 - float(chi)) / 2
    w = round(half_gap)
    if not abs(half_gap - w) < 0.25:
        raise NotNumericallyConsistent("winding drifted away from an integer")
    return LiftedAuto(T, w)


def gl_inverse(g: LiftedAuto) -> LiftedAuto:
    """Inverse in the cover; winding recovered exactly.

    With u = T^{-1}(1,0) the value f_g(dir u) is an exact even integer
    because T u is a positive multiple of (1, 0); the inverse winding is
    minus half of it.
    """
    Ti = g.T.inverse()
    val = _canonical_value(g.T, *Ti.column0()) + 2 * g.winding
    if not (is_exact(val) and val % 2 == 0):
        raise NotNumericallyConsistent("inverse winding must be an even integer")
    return LiftedAuto(Ti, -int(val // 2))


def gl_equal(g1: LiftedAuto, g2: LiftedAuto) -> bool:
    return g1.T == g2.T and g1.winding == g2.winding


def act_on_charge(G: LiftedAuto, Z: CentralCharge) -> CentralCharge:
    """Right action on charges: the frame of the result is T^{-1} * frame(Z).

    The left action of a cover element on a charge is act_on_charge applied
    to its gl_inverse.
    """
    Ti = G.T.inverse()
    a = Ti.a * Z.a + Ti.b * Z.c
    b = Ti.a * Z.b + Ti.b * Z.e
    c = Ti.c * Z.a + Ti.d * Z.c
    e = Ti.c * Z.b + Ti.d * Z.e
    return CentralCharge(a, b, c, e)
