"""The universal cover of GL+(2, R) acting on charges and phases.

An element is a pair (T, winding): T an exact 2x2 matrix with det T > 0 and
an integer winding number. The pair encodes the increasing lift f of the
circle map induced by T on directions measured in units of pi, pinned down by

    f(0) = direction of T(1, 0) in (-1, 1], plus 2 * winding.

With exact matrices every winding computation below reduces to evaluating
atan2 on a pair of exactly known rational vectors and rounding a quantity
that sits within about 1e-15 of an integer, so windings are exact even
though intermediate angles are floats. Exact vectors stay integer numerators
over one denominator, as in ``Matrix2``, until that atan2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charges import CentralCharge, _charge
from .errors import DomainError, NotNumericallyConsistent
from .exactnum import HALF, as_number, direction_angle, is_exact, lift_near, to_float
from .linalg import Matrix2, mixed_dot


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
        if self.T.det_sign() <= 0:
            raise DomainError("lifted elements need det T > 0")


def _lifted(T: Matrix2, winding: int) -> LiftedAuto:
    """LiftedAuto(T, winding) for a T already known to have det T > 0."""
    g = object.__new__(LiftedAuto)
    object.__setattr__(g, "T", T)
    object.__setattr__(g, "winding", winding)
    return g


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
    a, _, c, _ = T.num
    return direction_angle(a, c, T.den)


def lift_eval(G: LiftedAuto, phi):
    """Evaluate the lift f_G at the phase phi.

    Exact at integer phi and wherever the image direction hits an axis;
    float (atan2 quality) elsewhere, including an exact phi whose offset
    from the integer below underflows the float range.
    """
    phi = as_number(phi)
    n = math.floor(phi)
    r = phi - n
    if is_exact(r) and r == HALF:
        value = _canonical_value(G.T, 0, 1)
    else:
        rf = to_float(r)
        value = _canonical_value(G.T, math.cos(math.pi * rf), math.sin(math.pi * rf))
        if r and not rf:  # just above the axis: base plus a float-invisible offset
            value = to_float(value)
    shift = n + 2 * G.winding
    return value + shift if is_exact(value) else value + to_float(shift)


def _canonical_value(T: Matrix2, x, y, den: int = 1):
    """f_T at the direction of the vector (x, y) / den != 0, T's canonical
    lift; (x, y) is an integer vector over the positive int den, or a float
    vector with den 1.

    The half-plane of (x, y) picks the branch, so no float angle of (x, y)
    is taken: on the axis f_T(0) = base or f_T(1) = base + 1; above it f_T
    lies in (base, base + 1), 1 away from any wrong lift; below it
    f_T(psi) = f_T(psi + 1) - 1.
    """
    base = canonical_base_value(T)
    if y == 0:
        return base if x > 0 else base + 1
    below = y < 0
    if below:
        x, y = -x, -y
    if isinstance(x, int):
        a, b, c, d = T.num
        theta = direction_angle(a * x + b * y, c * x + d * y, T.den * den)
    else:
        a, b, c, d = (to_float(n, T.den) for n in T.num)
        theta = direction_angle(a * x + b * y, c * x + d * y)
    # a float base takes the float 0.5: the same sum, without Fraction dispatch
    value = lift_near(theta, base + HALF if is_exact(base) else base + 0.5)
    return value - 1 if below else value


def gl_compose(g1: LiftedAuto, g2: LiftedAuto) -> LiftedAuto:
    """Composition g1 after g2 in the cover.

    The matrix part is the exact product; the winding is fixed by evaluating
    f_{g1}(f_{g2}(0)) against the canonical lift of the product, using the
    exact image vector g2.T(1,0) rather than its float angle.
    """
    T = g1.T @ g2.T
    u = g2.T.num
    f1_at = _canonical_value(g1.T, u[0], u[2], g2.T.den)
    # the windings are integers and add exactly; only the canonical gap is a float
    half_gap = (to_float(f1_at) - to_float(canonical_base_value(T))) / 2
    w = round(half_gap)
    if not abs(half_gap - w) < 0.25:
        raise NotNumericallyConsistent("winding drifted away from an integer")
    return _lifted(T, w + g1.winding + g2.winding)


def gl_inverse(g: LiftedAuto) -> LiftedAuto:
    """Inverse in the cover; winding recovered exactly.

    With u = T^{-1}(1,0) the value f_g(dir u) is an exact even integer
    because T u is a positive multiple of (1, 0); the inverse winding is
    minus half of it.
    """
    Ti = g.T.inverse()
    u = Ti.num
    val = _canonical_value(g.T, u[0], u[2], Ti.den) + 2 * g.winding
    if not (is_exact(val) and val % 2 == 0):
        raise NotNumericallyConsistent("inverse winding must be an even integer")
    return _lifted(Ti, -int(val // 2))


def gl_equal(g1: LiftedAuto, g2: LiftedAuto) -> bool:
    return g1.T == g2.T and g1.winding == g2.winding


def act_on_charge(G: LiftedAuto, Z: CentralCharge) -> CentralCharge:
    """Right action on charges: the frame of the result is T^{-1} * frame(Z).

    The left action of a cover element on a charge is act_on_charge applied
    to its gl_inverse.
    """
    return _pull_back(G.T.inverse(), Z)


def _pull_back(Ti: Matrix2, Z: CentralCharge) -> CentralCharge:
    """The charge with frame Ti * frame(Z): integer products for an exact Z,
    the float semantics of Fraction arithmetic otherwise."""
    if Z.is_exact():
        return _charge(Ti @ Z.frame(), None)
    (s, t), (u, v) = Ti.rows()
    return CentralCharge(
        mixed_dot(s, Z.a, t, Z.c), mixed_dot(s, Z.b, t, Z.e),
        mixed_dot(u, Z.a, v, Z.c), mixed_dot(u, Z.b, v, Z.e),
    )
