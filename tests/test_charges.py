"""K-classes, central charges, phases, stability functions, charge norms."""

import functools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from stabtorus.charges import (
    SKYSCRAPER_CLASS,
    ZERO_CLASS,
    CentralCharge,
    KClass,
    charge_eval,
    charge_norm,
    deg_charge,
    is_stability_function,
    phase_in_strip,
    std_charge,
)
from stabtorus.errors import (
    DomainError,
    NoPhaseInWindow,
    NotNumericallyConsistent,
    UnsupportedSpectrum,
    ZeroCharge,
)
from stabtorus.exactnum import direction_angle
from stabtorus.stability import StdLabel, DegLabel


def test_kclass_arithmetic():
    u = KClass(1, -2)
    v = KClass(0, 3)
    assert u + v == KClass(1, 1)
    assert u - v == KClass(1, -5)
    assert -u == KClass(-1, 2)
    assert u.scaled(3) == KClass(3, -6)
    assert ZERO_CLASS.is_zero() and not u.is_zero()


def test_kclass_rejects_non_integers():
    with pytest.raises(DomainError):
        KClass(Fraction(1, 2), 0)
    with pytest.raises(DomainError):
        KClass(True, 0)


def test_standard_charge_on_basic_classes():
    Z0 = std_charge(0)
    # skyscraper goes to -1, a degree zero line bundle to i
    assert charge_eval(Z0, SKYSCRAPER_CLASS) == (-1, 0)
    assert charge_eval(Z0, KClass(1, 0)) == (0, 1)
    assert charge_eval(Z0, ZERO_CLASS) == (0, 0)


def test_standard_charge_parity():
    assert std_charge(0) == CentralCharge(1, 0, 0, 1)
    assert std_charge(1) == CentralCharge(1, 0, 0, -1)
    # parity collapse: the charge only sees p mod 2
    assert std_charge(2) == std_charge(0)
    assert std_charge(3) == std_charge(1)
    # the shifted line bundle L[1] has class (-1, 0) and lands on i under Z_(1)
    assert charge_eval(std_charge(1), KClass(-1, 0)) == (0, 1)


def test_charge_eval_is_linear():
    rng = random.Random(7)
    Z = CentralCharge(Fraction(2), Fraction(-1, 3), Fraction(1, 2), Fraction(5))
    for _ in range(200):
        u = KClass(rng.randint(-9, 9), rng.randint(-9, 9))
        v = KClass(rng.randint(-9, 9), rng.randint(-9, 9))
        xu, yu = charge_eval(Z, u)
        xv, yv = charge_eval(Z, v)
        assert charge_eval(Z, u + v) == (xu + xv, yu + yv)


def test_phase_in_strip_examples():
    Z0 = std_charge(0)
    assert phase_in_strip(Z0, SKYSCRAPER_CLASS, 0) == 1
    ph = phase_in_strip(Z0, KClass(1, -1), 0)
    assert abs(float(ph) - 0.25) < 1e-12
    # anchor shift: the negated line class one window up
    assert phase_in_strip(Z0, KClass(-1, 0), 1) == Fraction(3, 2)


def test_phase_in_strip_reads_a_direction_just_above_minus_one():
    # Z(0, -1) = (-10**20, -1): a hair below the negative real axis, so its
    # direction lies in (-1, 0], the window over the anchor -1
    ph = phase_in_strip(CentralCharge(-10**20, 0, -1, 1), KClass(0, -1), -1)
    assert -1 < ph <= 0


def test_phase_in_strip_zero_charge():
    with pytest.raises(ZeroCharge):
        phase_in_strip(std_charge(0), ZERO_CLASS, 0)


# a decimal reference for directions, independent of the package's kernel
REF_DIGITS = 420


def _atan(t):
    """atan(t) for a Decimal t in [0, 1], in the current context: three
    halvings of the angle, then the alternating Taylor series."""
    for _ in range(3):
        t /= 1 + (1 + t * t).sqrt()
    total, term, k = t, t, 1
    while abs(term) > Decimal(10) ** -(REF_DIGITS + 10):
        term *= -t * t
        total += term / (2 * k + 1)
        k += 1
    return 8 * total


@functools.cache
def _pi():
    with localcontext() as ctx:
        ctx.prec = REF_DIGITS + 10
        return 4 * _atan(Decimal(1))


def reference_direction(x, y):
    """arg(x + i*y) / pi in (-1, 1] for exact x and y: a Fraction at the
    multiples of 1/4, else a Decimal good to about 400 digits."""
    ax, ay = abs(Fraction(x)), abs(Fraction(y))
    with localcontext() as ctx:
        ctx.prec = REF_DIGITS + 10
        if ay == 0 or ax == 0 or ax == ay:
            r = Fraction(0) if ay == 0 else Fraction(1, 2) if ax == 0 else Fraction(1, 4)
        else:
            lo, hi = sorted((ax, ay))
            r = _atan(Decimal(lo.numerator) * hi.denominator
                      / (Decimal(hi.numerator) * lo.denominator)) / _pi()
            r = r if ay < ax else Decimal("0.5") - r
        r = 1 - r if x < 0 else r
        return -r if y < 0 else r


def strip_scan(ref, anchor):
    """Every k with ref + 2k in (anchor, anchor + 1], for ref from
    ``reference_direction``, by scanning k."""
    a = Fraction(anchor)
    return [k for k in range(-12, 13) if a - 2 * k < ref <= a + 1 - 2 * k]


exact_entries = st.fractions(min_value=-6, max_value=6, max_denominator=7)
float_entries = st.floats(min_value=-6, max_value=6, allow_nan=False, allow_infinity=False)
entries = st.one_of(exact_entries, float_entries)
anchors = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=4),
    st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None)
@given(
    st.tuples(entries, entries, entries, entries),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    anchors,
)
def test_phase_in_strip_matches_a_scan_of_lifts(frame, cls, anchor):
    Z, v = CentralCharge(*frame), KClass(*cls)
    re, im = charge_eval(Z, v)
    if re == 0 and im == 0:
        with pytest.raises(ZeroCharge):
            phase_in_strip(Z, v, anchor)
        return
    # the window is decided on the exact direction; the lift returned is
    # direction_angle's value plus 2k
    hits = strip_scan(reference_direction(re, im), anchor)
    assert len(hits) <= 1
    if not hits:
        with pytest.raises(NoPhaseInWindow):
            phase_in_strip(Z, v, anchor)
        return
    want = direction_angle(re, im) + 2 * hits[0]
    got = phase_in_strip(Z, v, anchor)
    assert got == want and type(got) is type(want)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(entries, entries, entries, entries),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-3, 3),
    st.sampled_from([0, 1]),
    st.integers(1, 10**10),
    st.sampled_from([1, -1]),
)
def test_phase_in_strip_decides_anchors_near_the_window_ends(frame, cls, k, end, offset, side):
    # the lift theta + 2k lies within 1e-30 of the lower end of the window
    # (end 0) or of its upper end (end 1): inside just above the lower end
    # and just below the upper one
    Z, v = CentralCharge(*frame), KClass(*cls)
    re, im = charge_eval(Z, v)
    assume((re, im) != (0, 0))
    anchor = Fraction(reference_direction(re, im)) + 2 * k - end + side * Fraction(offset, 10**40)
    if (side > 0) == (end == 1):
        assert phase_in_strip(Z, v, anchor) == direction_angle(re, im) + 2 * k
    else:
        with pytest.raises(NoPhaseInWindow):
            phase_in_strip(Z, v, anchor)


def test_phase_in_strip_decides_an_anchor_a_hair_from_the_direction():
    # theta = arccot(1/3)/pi lies about 1.1e-17 above its float; an anchor
    # 10**-25 below theta keeps theta in the window, and one 1 + 10**-25
    # below puts theta above it
    Z, v = CentralCharge(1, 0, 0, 1), KClass(3, -1)
    theta = Fraction(reference_direction(*charge_eval(Z, v)))
    assert phase_in_strip(Z, v, theta - Fraction(1, 10**25)) == direction_angle(1, 3)
    with pytest.raises(NoPhaseInWindow):
        phase_in_strip(Z, v, theta - 1 - Fraction(1, 10**25))


def test_phase_equivariance_under_negation():
    # only half of the directions admit a lift in a given unit window, so
    # restrict to classes with a phase in (0, 1]
    rng = random.Random(11)
    Z = std_charge(0)
    checked = 0
    for _ in range(200):
        v = KClass(rng.randint(-5, 5), rng.randint(-5, 5))
        if v.is_zero():
            continue
        try:
            ph = phase_in_strip(Z, v, 0)
        except NoPhaseInWindow:
            continue
        ph_neg = phase_in_strip(Z, -v, 1)
        assert abs(float(ph_neg) - float(ph) - 1) < 1e-12
        checked += 1
    assert checked > 50


def test_std_charges_are_stability_functions():
    for d in range(3, 9):
        for p in range(d):
            ok, witness = is_stability_function(std_charge(p, d), p, d)
            assert ok and witness is None


def test_imaginary_part_seeing_chd_is_rejected():
    Z = CentralCharge(1, 0, Fraction(1, 3), 1)
    ok, witness = is_stability_function(Z, 0)
    assert not ok
    # the witness really violates: its image has negative imaginary part
    re, im = charge_eval(Z, witness)
    assert im < 0 or (im == 0 and re >= 0)


def test_degenerate_charges_are_stability_functions_on_their_heart():
    for p in (1, 2, 3):
        Zg = deg_charge(p, Fraction(1, 4))
        ok, witness = is_stability_function(Zg, p)
        assert ok, witness
    # the quarter parameter at p = 1 gives b = cot(pi/4) = 1
    assert deg_charge(1, Fraction(1, 4)) == CentralCharge(1, 1, 0, 0)


def test_random_violations_carry_witnesses():
    rng = random.Random(3)
    for _ in range(300):
        Z = CentralCharge(
            Fraction(rng.randint(-4, 4)),
            Fraction(rng.randint(-4, 4)),
            Fraction(rng.randint(1, 4) * rng.choice((1, -1))),
            Fraction(rng.randint(-4, 4)),
        )
        ok, witness = is_stability_function(Z, 0)
        assert not ok
        re, im = charge_eval(Z, witness)
        assert im < 0 or (im == 0 and re >= 0)


def test_charge_norm_values():
    d = 4
    chd_only = CentralCharge(1, 0, 0, 0)
    rk_only = CentralCharge(0, 1, 0, 0)
    assert charge_norm(chd_only, StdLabel(1), d) == 1.0
    assert charge_norm(rk_only, StdLabel(1), d) == 1.0
    assert charge_norm(std_charge(1), StdLabel(1), d) == 1.0
    assert charge_norm(CentralCharge(3, 0, 4, 0), StdLabel(1), d) == 5.0


def test_charge_norm_at_extreme_magnitudes():
    with pytest.raises(DomainError):
        charge_norm(CentralCharge(10**400, 0, 0, 1), StdLabel(1), 4)
    # the squares leave the float range, the norm does not
    assert charge_norm(CentralCharge(10**200, 0, 0, 1), StdLabel(1), 4) == 1e200
    assert charge_norm(CentralCharge(0, Fraction(3, 10**200), 0, Fraction(4, 10**200)),
                       StdLabel(1), 4) == 5e-200


def test_charge_norm_rejects_unknown_spectra():
    with pytest.raises(UnsupportedSpectrum):
        charge_norm(std_charge(0), StdLabel(0), 4)
    with pytest.raises(UnsupportedSpectrum):
        charge_norm(std_charge(3), StdLabel(3), 4)
    with pytest.raises(UnsupportedSpectrum):
        charge_norm(std_charge(1), DegLabel(1, Fraction(1, 4)), 4)


def test_determinant_sign_is_orbit_invariant():
    rng = random.Random(23)
    from stabtorus.linalg import Matrix2
    from stabtorus.cover import LiftedAuto, act_on_charge

    Z = CentralCharge(1, 2, -1, 3)
    base_sign = Z.det() > 0
    for _ in range(50):
        while True:
            m = Matrix2(*(Fraction(rng.randint(-5, 5)) for _ in range(4)))
            if m.det() > 0:
                break
        moved = act_on_charge(LiftedAuto(m, 0), Z)
        assert (moved.det() > 0) == base_sign


# booleans and non-numbers raise DomainError, as in KClass, not a bare TypeError
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), True, None, [1]])
@pytest.mark.parametrize("field", range(4))
def test_central_charge_rejects_non_finite_entries(bad, field):
    entries = [1, 0, 0, 1]
    entries[field] = bad
    with pytest.raises(DomainError):
        CentralCharge(*entries)


def test_classify_never_answers_from_an_infinite_charge():
    from stabtorus.stability import classify

    with pytest.raises(DomainError):
        classify(CentralCharge(float("inf"), 0, 0, 1), 1, Fraction(1, 2), 4)


@pytest.mark.parametrize(
    "big", [10**400, -(10**400), Fraction(10**401, 3)], ids=["1e400", "-1e400", "1e401/3"]
)
def test_mixed_charges_beyond_the_float_range_are_read_exactly(big):
    # a float entry is the dyadic rational it equals, so a mixed frame past
    # the float range is answered exactly
    from stabtorus.stability import classify

    Z = CentralCharge(big, 0.5, 0, 1)
    assert Z.det() == big and type(Z.det()) is Fraction
    assert Z.is_degenerate() is False
    assert charge_eval(Z, SKYSCRAPER_CLASS) == (-big, 0)
    assert charge_eval(Z, KClass(1, 0)) == (Fraction(1, 2), 1)
    with pytest.raises(NotNumericallyConsistent):
        classify(Z, 1, Fraction(1, 2), 4)


@pytest.mark.parametrize(
    "frame, degenerate",
    [
        ((1e200, 0, 0, 1e200), False),
        ((1e200, 1e200, 1e200, 2e200), False),
        ((1e300,) * 4, True),
        ((1e200, 0.5, 0, 1), False),
        ((1e200, 0.5, Fraction(1, 3), 1), False),
    ],
)
def test_float_charges_of_any_magnitude_decide_degeneracy(frame, degenerate):
    # the exact determinant of the dyadic entries decides, at any magnitude
    assert CentralCharge(*frame).is_degenerate() is degenerate


def test_classify_reads_a_huge_degenerate_float_charge():
    # the frame has positive determinant, so it lies over the Std(p), p even;
    # its rank ray (1/2, 1) does not point at the phase 1/2 given for it
    from stabtorus.stability import classify

    with pytest.raises(NotNumericallyConsistent, match="disagrees with the rank-ray phase"):
        classify(CentralCharge(1e200, 0.5, 0, 1), 1, Fraction(1, 2), 4)


@pytest.mark.parametrize(
    "frame, witness",
    [
        ((1, 0, 0, -1), KClass(1, 0)),
        ((1, 2, 0, 0), KClass(1, 0)),
        ((1, 0, 0, 0), KClass(1, 0)),
        ((2, -3, 0, 0), KClass(1, -2)),
        ((0.5, -1.25, 0, 0), KClass(1, -3)),
        ((-2, -3, 0, 0), KClass(1, 2)),
        ((0, -1, 0, 0), KClass(0, 1)),
        ((-1, 0, 0, 1), KClass(0, 1)),
        ((0, 5, 0, 1), KClass(0, 1)),
    ],
)
def test_torsion_blind_charges_at_index_zero_carry_witnesses(frame, witness):
    # c = 0: the imaginary part ignores chd, so the real axis decides
    Z = CentralCharge(*frame)
    assert is_stability_function(Z, 0) == (False, witness)
    assert witness.rk >= 1 or witness.chd >= 1  # an effective class of the sheaf heart
    re, im = charge_eval(Z, witness)
    assert im < 0 or (im == 0 and re >= 0)


def test_charge_index_validation():
    with pytest.raises(DomainError):
        std_charge(-1)
    with pytest.raises(DomainError):
        std_charge(3, 3)
    with pytest.raises(DomainError):
        deg_charge(0, Fraction(1, 4))
    with pytest.raises(DomainError):
        deg_charge(1, Fraction(1, 2))
    with pytest.raises(DomainError):
        deg_charge(1, 0)


@pytest.mark.parametrize(
    "gamma",
    [Fraction(1, 10**400), Fraction(1, 10**320), 1e-320],
    ids=["exact-1e-400", "exact-1e-320", "float-1e-320"],
)
def test_deg_charge_rejects_gamma_whose_cotangent_leaves_the_float_range(gamma):
    from stabtorus.stability import make_deg

    with pytest.raises(DomainError):
        deg_charge(1, gamma)
    with pytest.raises(DomainError):
        make_deg(1, gamma, 4).charge()
    # the smallest gamma with a finite cotangent still gives a charge
    assert math.isfinite(deg_charge(2, Fraction(1, 10**300)).b)
