"""Exact number helpers and the 2x2 matrix kernel."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stabtorus.exactnum import (
    TOL,
    as_number,
    cot_pi,
    direction_angle,
    format_number,
    gamma_from_cot,
    is_exact,
    num_eq,
    parse_number,
    phase_mod1,
)
from stabtorus.errors import DomainError
from stabtorus.linalg import Matrix2


def test_parse_and_format_round_trip():
    for s in ("3/4", "-1/2", "5", "-7"):
        assert format_number(parse_number(s)) == s
    assert parse_number("3/4") == Fraction(3, 4)
    # decimal strings are read exactly, not as binary floats
    assert parse_number("0.25") == Fraction(1, 4)


def test_as_number_keeps_exact_values_exact():
    assert as_number(Fraction(1, 3)) == Fraction(1, 3)
    assert as_number(2) == Fraction(2)
    assert is_exact(as_number("1/2"))
    assert not is_exact(as_number(0.3))


def test_num_eq_tolerance():
    assert num_eq(Fraction(1, 2), 0.5)
    assert num_eq(0.5, 0.5 + TOL / 2)
    assert not num_eq(0.5, 0.5001)


def test_cot_pi_special_values():
    assert cot_pi(Fraction(1, 4)) == 1
    assert cot_pi(Fraction(1, 2)) == 0
    assert abs(float(cot_pi(Fraction(1, 6))) - math.sqrt(3)) < 1e-12
    assert cot_pi(Fraction(3, 4)) == -1


def _reference_cot_pi(g: Fraction):
    """cot(pi*g) to about 70 digits, from Machin's pi and the Taylor series
    of cos and sin at pi*g, independent of the package."""
    with localcontext() as ctx:
        ctx.prec = 90
        eps = Decimal(10) ** -88

        def atan_inv(n):  # atan(1/n)
            total = term = Decimal(1) / n
            k = 1
            while abs(term) > eps:
                term /= -n * n
                total += term / (2 * k + 1)
                k += 1
            return total

        x = (16 * atan_inv(5) - 4 * atan_inv(239)) * g.numerator / g.denominator
        cos = sin = Decimal(0)
        term, k = Decimal(1), 0
        while k < 4 or abs(term) > eps:
            if k % 2 == 0:
                cos += term if k % 4 == 0 else -term
            else:
                sin += term if k % 4 == 1 else -term
            k += 1
            term = term * x / k
        return cos / sin


@pytest.mark.parametrize(
    "g",
    [1 - Fraction(1, 10**20), 1 - Fraction(1, 10**5), Fraction(3, 5), Fraction(7, 10),
     Fraction(1, 2) + Fraction(1, 10**12), 0.6, 0.9999999999999999, 1 - 2.0**-40,
     Fraction(1, 3), Fraction(1, 10**20), 0.1],
)
def test_cot_pi_matches_a_decimal_reference(g):
    # above 1/2 cot_pi folds to -cot(pi*(1 - g)), 1 - g taken exactly: near 1
    # the float of g would lose the distance to 1, and with it the cotangent
    # (cot_pi(1 - 10**-20) read -8.17e15 for about -3.18e19)
    want = _reference_cot_pi(Fraction(g))
    got = cot_pi(g)
    assert abs(Decimal(got) - want) <= (1 + abs(want)) * Decimal("1e-13")


def test_gamma_from_cot_inverts_cot_pi():
    for g in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 8)):
        back = gamma_from_cot(cot_pi(g))
        assert num_eq(back, g, 1e-12)
    # the quarter turn is recognized exactly
    assert gamma_from_cot(1) == Fraction(1, 4)
    assert gamma_from_cot(0) == Fraction(1, 2)
    assert gamma_from_cot(-1) == Fraction(3, 4)
    assert gamma_from_cot(0.0) == gamma_from_cot(-0.0) == 0.5


@pytest.mark.parametrize(
    "c", [1e-17, Fraction(1, 10**17), 5e-324, -1e-17, Fraction(-1, 10**30)],
    ids=["float", "exact", "subnormal", "negative-float", "negative-exact"],
)
def test_gamma_from_cot_never_rounds_a_nonzero_cotangent_onto_half(c):
    # atan2(1, c) / pi rounds to 1/2 for these; the answer keeps the side of c
    g = gamma_from_cot(c)
    assert (g < Fraction(1, 2)) if c > 0 else (g > Fraction(1, 2))
    assert abs(g - 0.5) <= 2**-53


def test_direction_angle_axes_are_exact():
    assert direction_angle(1, 0) == 0
    assert direction_angle(0, 1) == Fraction(1, 2)
    assert direction_angle(-1, 0) == 1
    assert direction_angle(0, -1) == Fraction(-1, 2)
    assert is_exact(direction_angle(0, 5))


def test_phase_mod1_window():
    # values land in (0, 1]
    assert phase_mod1(-1, 0) == 1
    assert phase_mod1(0, 1) == Fraction(1, 2)
    assert abs(float(phase_mod1(1, 1)) - 0.25) < 1e-12
    assert abs(float(phase_mod1(1, -1)) - 0.75) < 1e-12


def test_phase_mod1_folds_by_the_exact_half_plane():
    # atan2 rounds these directions to 0.0; strictly above the real axis the
    # phase is a tiny positive number, strictly below it rounds to 1
    re = Fraction(9.093807656517069e+234) + Fraction(2.189350706356498)
    tiny = Fraction(3.266917555911708e-155)
    assert 0 < phase_mod1(re, tiny) < 1e-300
    assert phase_mod1(re, -tiny) == 1
    assert 0 < phase_mod1(1e300, 1e-300) < 1e-300
    assert phase_mod1(1e300, -1e-300) == 1
    assert phase_mod1(1, 0) == 1 and phase_mod1(-1, 0) == 1


def test_matrix_basics():
    m = Matrix2(1, 2, 3, 4)
    assert m.det() == -2
    assert m.rows() == ((1, 2), (3, 4))
    assert m.column0() == (1, 3)
    assert m.apply(1, 0) == (1, 3)
    assert Matrix2.identity().mul(m) == m
    assert Matrix2.scalar(3).apply(1, 1) == (3, 3)


def test_matrix_apply_beyond_the_float_range_is_a_domain_error():
    m = Matrix2(10**400, 0, 0, 1)
    with pytest.raises(DomainError):
        m.apply(0.5, 0)
    assert m.apply(1, 0) == (10**400, 0)  # exact input stays exact


def test_matrix_inverse_is_exact():
    m = Matrix2(2, 1, 1, 1)
    inv = m.inverse()
    assert m @ inv == Matrix2.identity()
    assert inv @ m == Matrix2.identity()
    assert isinstance(inv.a, Fraction)


def test_singular_matrix_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Matrix2(1, 2, 2, 4).inverse()


def test_matrix_entries_coerced_to_fractions():
    m = Matrix2("1/2", 0, 0, 2)
    assert m.a == Fraction(1, 2)
    assert m.det() == 1


def test_tiny_exact_vectors_keep_their_direction():
    tiny = Fraction(1, 10**400)
    assert direction_angle(tiny, tiny) == 0.25
    assert direction_angle(-tiny, tiny) == 0.75
    assert direction_angle(tiny, -tiny, 3) == -0.25
    # in-range and float input take the plain atan2
    assert direction_angle(5e-324, 5e-324) == 0.25
    assert direction_angle(1, 3) == math.atan2(3, 1) / math.pi


def r_direction_normalized(x: Fraction, y: Fraction) -> float:
    m = max(abs(x), abs(y))
    return math.atan2(float(y / m), float(x / m)) / math.pi


tiny_coordinates = st.builds(
    lambda sign, mantissa, k: sign * Fraction(mantissa, 10**k),
    st.sampled_from([1, -1]),
    st.integers(1, 10**6),
    st.integers(300, 406),
)


@settings(max_examples=300, deadline=None)
@given(tiny_coordinates, tiny_coordinates)
def test_tiny_exact_directions_match_the_normalized_reference(x, y):
    # magnitudes 1e-400..1e-300: a coordinate may round to zero or to a
    # subnormal, which atan2 alone would turn into the wrong direction
    got = direction_angle(x, y)
    assert math.isclose(got, r_direction_normalized(x, y), rel_tol=1e-14, abs_tol=1e-300)


def test_huge_exact_vectors_keep_their_direction():
    huge = 10**400
    assert direction_angle(huge, 1) == 0.0
    assert direction_angle(1, huge) == 0.5
    assert direction_angle(huge, huge) == 0.25
    assert direction_angle(-huge, huge, 7) == 0.75
    assert direction_angle(3, 4, 10**400) == math.atan2(4, 3) / math.pi
    assert phase_mod1(huge, 1) == 5e-324


coordinates = st.builds(
    lambda sign, mantissa, k: sign * Fraction(mantissa) * Fraction(10) ** k,
    st.sampled_from([1, -1]),
    st.integers(1, 10**6),
    st.integers(-406, 400),
)


@settings(max_examples=300, deadline=None)
@given(coordinates, coordinates)
def test_exact_directions_of_any_magnitude_match_the_normalized_reference(x, y):
    # magnitudes 1e-406..1e406, as a Fraction vector and as an integer
    # vector over one denominator: a coordinate may overflow, or round to
    # zero or to a subnormal, and none of these may bend the direction
    ref = r_direction_normalized(x, y)
    assert math.isclose(direction_angle(x, y), ref, rel_tol=1e-14, abs_tol=1e-300)
    den = math.lcm(x.denominator, y.denominator)
    got = direction_angle(int(x * den), int(y * den), den)
    assert math.isclose(got, ref, rel_tol=1e-14, abs_tol=1e-300)


def test_directions_just_above_minus_one_stay_in_the_window():
    # atan2 rounds these directions, a hair below the negative real axis,
    # onto -pi; they lie in (-1, 0) all the same, and fold into (0, 1)
    for x, y in ((-10**20, -1), (-1.0, -5e-324), (-1.0, -1e-300), (-10**400, -1)):
        assert -1 < direction_angle(x, y) < 0
        assert 0 < phase_mod1(x, y) < 1
    # the fold reads a value below the real axis through its negative, so a
    # phase near 0 keeps its size rather than the 1.1e-16 of -1 + one ulp
    assert math.isclose(phase_mod1(-10**40, -1), 1 / (math.pi * 10**40), rel_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(coordinates, coordinates)
def test_directions_and_folded_phases_stay_in_their_windows(x, y):
    # magnitudes 1e-406..1e406, as Fractions, as integers over one
    # denominator and, where they are finite and nonzero, as floats
    den = math.lcm(x.denominator, y.denominator)
    vectors = [(x, y, 1), (int(x * den), int(y * den), den)]
    try:
        fx, fy = float(x), float(y)
    except OverflowError:
        fx = fy = 0.0
    if fx and fy:
        vectors.append((fx, fy, 1))
    for u, v, k in vectors:
        assert -1 < direction_angle(u, v, k) <= 1
        assert 0 < phase_mod1(u, v, k) <= 1
