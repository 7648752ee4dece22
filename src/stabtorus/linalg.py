"""Exact 2x2 rational matrices as integer numerators over one denominator.

A matrix ((a, b), (c, d)) is stored as the integers ``num = (na, nb, nc, nd)``
and ``den > 0`` with a = na/den and so on, in lowest terms:
gcd(na, nb, nc, nd, den) = 1, so equal matrices have equal storage. Products,
inverses and determinant signs are plain integer arithmetic. Entries are
converted exactly on the way in (a float becomes its dyadic rational) and
come back out as Fractions, so nothing downstream rounds. Where a float
meets an exact value it does so through ``exactnum.to_float``.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

from .exactnum import as_number, is_exact, to_float


def _ratio(x) -> tuple:
    """An entry as its (numerator, denominator) in lowest terms, exactly."""
    if type(x) is int or type(x) is Fraction:
        return x.as_integer_ratio()
    return as_number(x).as_integer_ratio()


def _entry(i: int) -> property:
    return property(lambda self: Fraction(self.num[i], self.den))


class Matrix2:
    """Row-major exact 2x2 matrix ((a, b), (c, d)).

    Equality, hashing, the repr and pickling are those of a frozen dataclass
    whose fields are the entry names in ``__match_args__``, so a subclass
    that renames an entry shares them; two values are equal only within one
    class.
    """

    __slots__ = ("num", "den")
    __match_args__ = ("a", "b", "c", "d")

    def __new__(cls, a, b, c, d):
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            return _reduced(a, b, c, d, 1, cls)
        (na, ka), (nb, kb), (nc, kc), (nd, kd) = map(_ratio, (a, b, c, d))
        den = math.lcm(ka, kb, kc, kd)
        # over the lcm of reduced denominators the numerators share no factor with it
        return _reduced(na * (den // ka), nb * (den // kb), nc * (den // kc), nd * (den // kd),
                        den, cls)

    a, b, c, d = map(_entry, range(4))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _entries(self) -> tuple:
        k = self.den
        return tuple(Fraction(n, k) for n in self.num)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(self._entries())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._entries()))
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._entries())

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2(1, 0, 0, 1)

    @staticmethod
    def scalar(s) -> "Matrix2":
        return Matrix2(s, 0, 0, s)

    def det(self) -> Fraction:
        a, b, c, d = self.num
        return Fraction(a * d - b * c, self.den * self.den)

    def det_sign(self) -> int:
        """Sign (-1, 0 or 1) of the determinant, from the numerators alone."""
        a, b, c, d = self.num
        det = a * d - b * c
        return (det > 0) - (det < 0)

    def mul(self, other: "Matrix2") -> "Matrix2":
        """self * other, of other's class: a matrix times the frame of a
        charge is a charge."""
        a, b, c, d = self.num
        e, f, g, h = other.num
        return _reduced(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
                        self.den * other.den, other.__class__)

    __matmul__ = mul

    def inverse(self) -> "Matrix2":
        # (N/k)^-1 = k * adj(N) / det(N)
        a, b, c, d = self.num
        det = a * d - b * c
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        k = self.den
        return _reduced(k * d, -k * b, -k * c, k * a, det)

    def float_image(self) -> tuple:
        """(a, b, c, d) as floats, each correctly rounded by ``to_float``."""
        a, b, c, d = self.num
        k = self.den
        return (to_float(a, k), to_float(b, k), to_float(c, k), to_float(d, k))

    def apply(self, x, y):
        """Matrix times column vector; mixed exact/float input allowed."""
        return (mixed_dot(self.a, x, self.b, y), mixed_dot(self.c, x, self.d, y))

    def column0(self):
        return (self.a, self.c)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))


def mixed_dot(s, x, t, y):
    """s*x + t*y for exact s and t, with the float semantics of Fraction
    arithmetic: exact when x and y are, else a float. Exact values reach the
    float side through to_float, so one beyond the float range is a
    DomainError."""
    sx = s * x if is_exact(x) else to_float(s) * x
    ty = t * y if is_exact(y) else to_float(t) * y
    return sx + ty if is_exact(sx) and is_exact(ty) else to_float(sx) + to_float(ty)


def _reduced(a: int, b: int, c: int, d: int, den: int, cls=Matrix2) -> Matrix2:
    """The matrix (a, b, c, d) / den, den != 0, in lowest terms, of class cls."""
    if den != 1:  # gcd(..., 1) = 1
        g = math.gcd(a, b, c, d, den)
        if den < 0:
            g = -g
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    m = object.__new__(cls)
    _set_num(m, (a, b, c, d))
    _set_den(m, den)
    return m


# the slot setters, past the frozen __setattr__
_set_num, _set_den = Matrix2.num.__set__, Matrix2.den.__set__
