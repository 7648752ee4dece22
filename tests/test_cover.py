"""The universal cover of GL+(2,R): lifts, composition, charge action."""

import random
from fractions import Fraction

import pytest

from stabtorus.charges import CentralCharge, std_charge
from stabtorus.cover import (
    SHIFT_ONE,
    LiftedAuto,
    act_on_charge,
    gl_compose,
    gl_equal,
    gl_inverse,
    identity_auto,
    lift_eval,
    shift_auto,
)
from stabtorus.errors import DomainError
from stabtorus.linalg import Matrix2


def random_auto(rng, windings=(-2, -1, 0, 1, 2)):
    while True:
        m = Matrix2(*(Fraction(rng.randint(-5, 5)) for _ in range(4)))
        if m.det() > 0:
            return LiftedAuto(m, rng.choice(windings))


def test_identity_lift_is_identity():
    e = identity_auto()
    # half-integer phases come back exact, generic ones as floats
    for phi in (0, 1, Fraction(-7, 2)):
        assert lift_eval(e, phi) == phi
    assert abs(float(lift_eval(e, Fraction(3, 10))) - 0.3) < 1e-12


def test_shift_element():
    assert SHIFT_ONE.T == Matrix2(-1, 0, 0, -1)
    assert lift_eval(SHIFT_ONE, Fraction(1, 2)) == Fraction(3, 2)
    assert lift_eval(SHIFT_ONE, 0) == 1


def test_quarter_rotation_canonical_lift():
    # rotation by -pi/2 sends the skyscraper direction to the rank ray
    rot = LiftedAuto(Matrix2(0, 1, -1, 0), 0)
    assert lift_eval(rot, 1) == Fraction(1, 2)
    assert lift_eval(rot, 0) == Fraction(-1, 2)


def test_shift_squared_is_even_shift():
    two = gl_compose(SHIFT_ONE, SHIFT_ONE)
    assert two.T == Matrix2.identity()
    assert two.winding == 1
    assert gl_equal(two, shift_auto(2))
    for phi in (0, Fraction(1, 3), -2):
        assert abs(float(lift_eval(two, phi)) - float(phi) - 2) < 1e-12


def test_winding_translates_the_lift():
    rng = random.Random(5)
    for _ in range(30):
        g = random_auto(rng, windings=(0,))
        w = rng.randint(-3, 3)
        shifted = LiftedAuto(g.T, w)
        phi = rng.uniform(-2, 2)
        assert abs(lift_eval(shifted, phi) - lift_eval(g, phi) - 2 * w) < 1e-12


def test_lift_commutes_with_integer_translation():
    rng = random.Random(9)
    for _ in range(50):
        g = random_auto(rng)
        phi = rng.uniform(-3, 3)
        assert abs(lift_eval(g, phi + 1) - lift_eval(g, phi) - 1) < 1e-12


def test_lift_is_strictly_increasing():
    rng = random.Random(13)
    for _ in range(50):
        g = random_auto(rng)
        a = rng.uniform(-2, 2)
        b = a + rng.uniform(1e-6, 0.9)
        assert lift_eval(g, a) < lift_eval(g, b)


def test_compose_projects_to_matrix_product():
    rng = random.Random(17)
    for _ in range(50):
        g1, g2 = random_auto(rng), random_auto(rng)
        assert gl_compose(g1, g2).T == g1.T @ g2.T


def test_compose_matches_lift_composition():
    rng = random.Random(19)
    for _ in range(50):
        g1, g2 = random_auto(rng), random_auto(rng)
        g = gl_compose(g1, g2)
        for phi in (0, 0.2, 0.5, 0.77, 1):
            assert abs(lift_eval(g, phi) - lift_eval(g1, lift_eval(g2, phi))) < 1e-10


def test_compose_is_associative():
    rng = random.Random(29)
    for _ in range(40):
        g1, g2, g3 = (random_auto(rng) for _ in range(3))
        left = gl_compose(gl_compose(g1, g2), g3)
        right = gl_compose(g1, gl_compose(g2, g3))
        assert left.T == right.T
        assert left.winding == right.winding


def test_inverse():
    assert gl_equal(gl_inverse(identity_auto()), identity_auto())
    sh_inv = gl_inverse(SHIFT_ONE)
    assert sh_inv.T == Matrix2(-1, 0, 0, -1)
    assert lift_eval(sh_inv, 0) == -1
    rng = random.Random(31)
    for _ in range(100):
        g = random_auto(rng)
        assert gl_equal(gl_compose(g, gl_inverse(g)), identity_auto())
        assert gl_equal(gl_compose(gl_inverse(g), g), identity_auto())


def test_even_shift_is_central():
    rng = random.Random(37)
    deck = shift_auto(2)
    for _ in range(100):
        g = random_auto(rng)
        assert gl_equal(gl_compose(g, deck), gl_compose(deck, g))


def test_act_on_charge():
    Z0 = std_charge(0)
    assert act_on_charge(identity_auto(), Z0) == Z0
    assert act_on_charge(SHIFT_ONE, Z0) == CentralCharge(-1, 0, 0, -1)
    doubled = LiftedAuto(Matrix2.scalar(2), 0)
    assert act_on_charge(doubled, Z0) == CentralCharge(
        Fraction(1, 2), 0, 0, Fraction(1, 2)
    )


def test_act_on_charge_ignores_winding():
    Z = CentralCharge(1, 2, 0, 3)
    g0 = LiftedAuto(Matrix2(2, 1, 1, 1), 0)
    g5 = LiftedAuto(Matrix2(2, 1, 1, 1), 5)
    assert act_on_charge(g0, Z) == act_on_charge(g5, Z)


def test_act_on_charge_is_a_right_action():
    rng = random.Random(41)
    Z = CentralCharge(1, 1, -1, 2)
    for _ in range(30):
        g1, g2 = random_auto(rng), random_auto(rng)
        via_product = act_on_charge(gl_compose(g1, g2), Z)
        stepwise = act_on_charge(g2, act_on_charge(g1, Z))
        assert via_product == stepwise


def test_orientation_reversing_matrix_is_rejected():
    with pytest.raises(DomainError):
        LiftedAuto(Matrix2(1, 0, 0, -1), 0)
    with pytest.raises(DomainError):
        LiftedAuto(Matrix2(1, 1, 1, 1), 0)


def test_a_charge_is_not_a_group_matrix():
    # a charge is a Matrix2 by class, but T takes a plain matrix or its rows
    with pytest.raises(TypeError):
        LiftedAuto(CentralCharge(1, 0, 0, 1), 0)


def test_lift_just_above_an_integer_is_a_float():
    # the offset 10^-400 underflows to 0.0, but the phase is not on the axis
    tiny = Fraction(1, 10**400)
    assert lift_eval(identity_auto(), tiny) == 0.0
    assert isinstance(lift_eval(identity_auto(), tiny), float)
    rot = LiftedAuto(Matrix2(0, 1, -1, 0), 1)
    assert repr(lift_eval(rot, 3 + tiny)) == "4.5"
    assert lift_eval(rot, 3) == Fraction(9, 2)


def test_windings_beyond_the_float_range_compose_exactly():
    big = 10**400
    g = gl_compose(LiftedAuto(Matrix2(1, 1, 0, 1), big), LiftedAuto(Matrix2(2, 0, 0, 1), -big))
    assert g.T == Matrix2(2, 1, 0, 1) and g.winding == 0
    assert gl_inverse(LiftedAuto(Matrix2(1, 1, 0, 1), big)).winding == -big
    with pytest.raises(DomainError):
        lift_eval(LiftedAuto(Matrix2(1, 1, 0, 1), big), Fraction(1, 3))


def test_entries_beyond_the_float_range_compose_and_act_exactly():
    # the group law reads windings from integer signs, so it answers exactly
    huge = LiftedAuto(Matrix2(10**400, 1, 1, 1), 0)
    assert gl_compose(identity_auto(), huge) == huge
    assert gl_compose(huge, gl_inverse(huge)) == identity_auto()
    with pytest.raises(DomainError):
        lift_eval(huge, Fraction(1, 3))
    shrink = LiftedAuto(Matrix2(1, 0, 0, Fraction(1, 10**400)), 0)
    # a float entry is the dyadic rational it equals: the product is exact
    assert act_on_charge(shrink, CentralCharge(1, 0, 0, 0.5)).e == Fraction(10**400, 2)
    assert act_on_charge(shrink, CentralCharge(1, 0, 0, 1)).e == 10**400
