"""The universal cover of GL+(2, R) acting on charges and phases.

An element is a pair (T, winding): T an exact 2x2 matrix with det T > 0 and
an integer winding number. The pair encodes the increasing lift f of the
circle map induced by T on directions measured in units of pi, pinned down by

    f(0) = direction of T(1, 0) in (-1, 1], plus 2 * winding.

Windings are decided from exact integer signs: the whole turns of a lift
over the direction of an image vector follow from the half-planes of two
integer vectors and the sign of their cross product (``_turns``), so no
float angle, rounding or tolerance enters the group law. Floats enter only
values, never windings, and through one float image of T per ``lift_eval``:
its entries correctly rounded once, the base direction and the image of
(cos pi*r, sin pi*r) both read from them (``exactnum.rounded_direction``),
and lifted by ``exactnum.lift_near``. Integer and half-integer
phases never form it: their directions are those of exact vectors, integer
numerators over one denominator, as in ``Matrix2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charges import CentralCharge, check_index
from .errors import DomainError
from .exactnum import as_number, direction_angle, lift_near, rounded_direction, to_float
from .linalg import Matrix2


@dataclass(frozen=True, slots=True)
class LiftedAuto:
    T: Matrix2
    winding: int

    json_kind = "auto"  # written by jsonio.encode_auto

    def __post_init__(self):
        if self.T.__class__ is not Matrix2:
            rows = tuple(tuple(r) for r in self.T)
            object.__setattr__(self, "T", Matrix2(rows[0][0], rows[0][1], rows[1][0], rows[1][1]))
        check_index(self.winding, "winding must be an integer", lo=None)
        if self.T.det_sign() <= 0:
            raise DomainError("lifted elements need det T > 0")


def _lifted(T: Matrix2, winding: int) -> LiftedAuto:
    """LiftedAuto(T, winding) for a T already known to have det T > 0."""
    g = object.__new__(LiftedAuto)
    _set_T(g, T)
    _set_winding(g, winding)
    return g


# the slot setters, past the frozen __setattr__
_set_T, _set_winding = LiftedAuto.T.__set__, LiftedAuto.winding.__set__


def identity_auto() -> LiftedAuto:
    """The identity element, one shared instance."""
    return _IDENTITY


_IDENTITY = _lifted(Matrix2.identity(), 0)


def shift_auto(n: int) -> LiftedAuto:
    """The lift acting on phases by phi -> phi + n (shift by [n] downstairs)."""
    check_index(n, "shift amount must be an integer", lo=None)
    T = Matrix2.identity() if n % 2 == 0 else Matrix2.scalar(-1)
    # floor division keeps f(0) = canonical + 2*winding equal to n for odd n < 0
    return LiftedAuto(T, n // 2)


SHIFT_ONE = shift_auto(1)


def canonical_base_value(T: Matrix2):
    """f(0) of the canonical (winding zero) lift of T, in (-1, 1]."""
    a, _, c, _ = T.num
    return direction_angle(a, c, T.den)


def lift_eval(G: LiftedAuto, phi):
    """Evaluate the lift f_G at the phase phi = n + r, n an integer and
    0 <= r < 1: f_G(phi) = f_T(r) + n + 2 * winding, f_T the canonical lift.

    f_T(0) is the base, the direction of T(1, 0); at r = 1/2 (exact) f_T is
    the direction of the exact vector T(0, 1), and at any other r that of the
    float image of T applied to (cos pi*r, sin pi*r), lifted into (base,
    base + 1): a wrong lift lies 1 away, so the lift nearest base + 1/2,
    which is base + 0.5 exactly, as an exact base is an axis value. Exact at
    integer phi and wherever the image direction hits an axis; float (atan2
    quality) elsewhere, including an exact phi whose offset from the integer
    below underflows the float range.
    """
    if phi.__class__ is not int:
        phi = as_number(phi)
    T = G.T
    if isinstance(phi, float):
        n = math.floor(phi)
        r = phi - n
    else:  # split on the integers, without Fraction arithmetic
        num, den = phi.as_integer_ratio()
        n, rem = divmod(num, den)
        if not rem:
            return _shifted(canonical_base_value(T), n + 2 * G.winding)
        if 2 * rem == den:
            _, b, _, d = T.num
            value = lift_near(direction_angle(b, d, T.den), canonical_base_value(T) + 0.5)
            return _shifted(value, n + 2 * G.winding)
        r = to_float(rem, den)
        if not r:  # just above the axis: base plus a float-invisible offset
            return _shifted(to_float(canonical_base_value(T)), n + 2 * G.winding)
    if not r:
        return _shifted(canonical_base_value(T), n + 2 * G.winding)
    fa, fb, fc, fd = T.float_image()
    base = rounded_direction(fa, fc)
    if base is None:  # an axis or a subnormal entry: the exact or rescaled base
        base = canonical_base_value(T)
    x, y = math.cos(math.pi * r), math.sin(math.pi * r)
    u, v = fa * x + fb * y, fc * x + fd * y
    theta = rounded_direction(u, v)
    if theta is None:
        theta = direction_angle(u, v)
    return _shifted(lift_near(theta, base + 0.5), n + 2 * G.winding)


def _shifted(value, shift: int):
    """value + shift, a float where value is one."""
    return value + to_float(shift) if value.__class__ is float else value + shift


def _turns(T: Matrix2, x: int, y: int) -> int:
    """The integer k with f_T(dir(x, y)) = dir(T(x, y)) + 2k, for T's
    canonical lift, an integer vector (x, y) != 0 and directions in (-1, 1].
    f_T sends the upper half-turn (0, 1] into (base, base + 1] and the rest
    into (base - 1, base], base = dir(p), p = T(1, 0); so k is 1 or 0 for an
    upper (x, y), 0 or -1 otherwise, as dir(q) <= base or not, q = T(x, y):
    the half-planes of p and q decide, or within one the sign of p x q."""
    a, b, c, d = T.num
    qx, qy = a * x + b * y, c * x + d * y
    p_upper = c > 0 or (c == 0 and a < 0)
    q_upper = qy > 0 or (qy == 0 and qx < 0)
    q_le_p = p_upper if p_upper != q_upper else a * qy - c * qx <= 0
    if y > 0 or (y == 0 and x < 0):
        return 1 if q_le_p else 0
    return 0 if q_le_p else -1


def gl_compose(g1: LiftedAuto, g2: LiftedAuto) -> LiftedAuto:
    """Composition g1 after g2 in the cover.

    The matrix part is the exact product. With u = g2.T(1, 0),
    f_{g1}(f_{g2}(0)) = f_{g1.T}(dir u) + 2 * (g1.winding + g2.winding), and
    ``_turns`` gives the whole turns of the first term over dir(g1.T u), the
    product's base value.
    """
    u = g2.T.num
    return _lifted(g1.T @ g2.T, _turns(g1.T, u[0], u[2]) + g1.winding + g2.winding)


def gl_inverse(g: LiftedAuto) -> LiftedAuto:
    """Inverse in the cover, its winding exact: with u = T^{-1}(1, 0), T u is
    a positive multiple of (1, 0), so f_g(dir u) = 2 * (_turns(T, u) +
    winding), and minus that half makes f_g(f_{g^-1}(0)) = 0."""
    Ti = g.T.inverse()
    u = Ti.num
    return _lifted(Ti, -(_turns(g.T, u[0], u[2]) + g.winding))


def gl_equal(g1: LiftedAuto, g2: LiftedAuto) -> bool:
    return g1.T == g2.T and g1.winding == g2.winding


def act_on_charge(G: LiftedAuto, Z: CentralCharge) -> CentralCharge:
    """Right action on charges: the charge T^{-1} * Z, by integer products
    (a matrix times a charge is a charge).

    The left action of a cover element on a charge is act_on_charge applied
    to its gl_inverse.
    """
    return G.T.inverse() @ Z
