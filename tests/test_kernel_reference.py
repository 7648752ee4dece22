"""The integer kernel against a Fraction reference kept in this file.

The reference is the arithmetic the kernel replaced: a matrix is a 4-tuple of
Fractions, a lift is evaluated through the Fraction-based canonical value,
which applies Fraction entries to the vector and takes atan2 of the float
coordinates, and a central charge is a frozen dataclass of four Fractions, a
float entry read as the dyadic rational it equals. Answers must match the
reference to the repr, errors to the name and message.
"""

import math
import pickle
from dataclasses import FrozenInstanceError, astuple, dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from stabtorus.charges import CentralCharge, KClass, charge_eval
from stabtorus.cover import LiftedAuto, act_on_charge, gl_compose, gl_inverse, lift_eval
from stabtorus.errors import NotInU, NotNumericallyConsistent
from stabtorus.exactnum import HALF, PHASE_TOL, direction_angle, floor_near
from stabtorus.linalg import Matrix2
from stabtorus.stability import act, classify, make_std
from stabtorus.walls import fiber_types

# ---------------------------------------------------------------------------
# the Fraction reference


def is_exact(x):
    return isinstance(x, (int, Fraction))


def r_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def r_det(m):
    return m[0] * m[3] - m[1] * m[2]


def r_inv(m):
    det = r_det(m)
    return (m[3] / det, -m[1] / det, -m[2] / det, m[0] / det)


def r_apply(m, x, y):
    return (m[0] * x + m[1] * y, m[2] * x + m[3] * y)


def r_direction(x, y):
    if y == 0:
        return Fraction(1) if x < 0 else Fraction(0)
    if x == 0:
        return HALF if y > 0 else -HALF
    theta = math.atan2(float(y), float(x)) / math.pi
    # the range is (-1, 1]: a y < 0 that atan2 rounds onto -pi is one ulp up
    return theta if theta != -1.0 else math.nextafter(-1.0, 0.0)


def r_lift_near(theta, target):
    if is_exact(theta) and is_exact(target):
        return theta + 2 * round((target - theta) / 2)
    return theta + 2 * round((float(target) - float(theta)) / 2)


def r_canonical_value(T, x, y):
    base = r_direction(T[0], T[2])
    if y == 0:
        return base if x > 0 else base + 1
    if y > 0:
        return r_lift_near(r_direction(*r_apply(T, x, y)), base + HALF)
    return r_lift_near(r_direction(*r_apply(T, -x, -y)), base + HALF) - 1


def r_lift_eval(T, w, phi):
    phi = phi if isinstance(phi, float) else Fraction(phi)
    n = math.floor(phi)
    r = phi - n
    if is_exact(r) and r == HALF:
        v = (Fraction(0), Fraction(1))
    else:
        rf = float(r)
        v = (math.cos(math.pi * rf), math.sin(math.pi * rf))
    return r_canonical_value(T, *v) + (n + 2 * w)


def r_compose(T1, w1, T2, w2):
    T = r_mul(T1, T2)
    f0 = float(r_canonical_value(T1, T2[0], T2[2])) + 2 * w1 + 2 * w2
    half_gap = (f0 - float(r_direction(T[0], T[2]))) / 2
    w = round(half_gap)
    if not abs(half_gap - w) < 0.25:
        raise NotNumericallyConsistent("winding drifted away from an integer")
    return auto_repr(T, w)


def r_inverse(T, w):
    Ti = r_inv(T)
    val = r_canonical_value(T, Ti[0], Ti[2]) + 2 * w
    if not (is_exact(val) and val % 2 == 0):
        raise NotNumericallyConsistent("inverse winding must be an even integer")
    return auto_repr(Ti, -int(val // 2))


def r_act_on_charge(T, Z):
    a, b, c, d = r_inv(T)
    moved = (a * Z.a + b * Z.c, a * Z.b + b * Z.e, c * Z.a + d * Z.c, c * Z.b + d * Z.e)
    return repr(CentralCharge(*moved))


def r_classify(Z, phi, psi, d):
    """The standard-orbit branch of classify on reference matrices."""
    phi = phi if isinstance(phi, float) else Fraction(phi)
    psi = psi if isinstance(psi, float) else Fraction(psi)
    re, im = Z.a * -1 + Z.b * 0, Z.c * -1 + Z.e * 0  # the skyscraper class (0, 1)
    theta = r_direction(re, im)
    gap = (float(phi) - float(theta)) / 2
    if abs(gap - round(gap)) > PHASE_TOL:
        raise NotNumericallyConsistent(
            f"phi_sky = {phi} is not a lift of the skyscraper direction {theta}"
        )
    p_hat = floor_near(float(phi) - float(psi))
    window = float(psi) + p_hat - float(phi)
    if abs(window) <= PHASE_TOL:
        raise NotNumericallyConsistent("nondegenerate charge with boundary phase data")
    if not 0 <= p_hat <= d - 1:
        raise NotInU(f"heart index {p_hat} outside 0..{d - 1}")
    M = r_mul((1, 0, 0, (-1) ** p_hat), r_inv(tuple(map(Fraction, (Z.a, Z.b, Z.c, Z.e)))))
    if r_det(M) <= 0:
        raise NotNumericallyConsistent("charge orientation contradicts the inferred heart index")
    w_val = (1 - float(r_lift_eval(M, 0, phi))) / 2
    w = round(w_val)
    if abs(w_val - w) > PHASE_TOL:
        raise NotNumericallyConsistent("phi_sky is not a valid lift for this charge")
    check = r_lift_eval(M, w, psi)
    if abs(float(check) - (0.5 - p_hat)) > PHASE_TOL:
        raise NotNumericallyConsistent(
            f"psi_line = {psi} disagrees with the rank-ray phase {check}"
        )
    return f"StabPoint(label=StdLabel(p={p_hat}), g={auto_repr(M, w)})"


@dataclass(frozen=True)
class RefCharge:
    """The dataclass CentralCharge: entries coerced to Fractions, floats too."""

    a: object
    b: object
    c: object
    e: object

    def __post_init__(self):
        for f in ("a", "b", "c", "e"):
            object.__setattr__(self, f, r_number(getattr(self, f)))


def r_number(x):
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError):
            return Fraction(float(x))
    return Fraction(x)


def charge_repr(R):
    return repr(R).replace("RefCharge", "CentralCharge", 1)


def r_degenerate(R):
    return R.a * R.e - R.b * R.c == 0


def r_charge_eval(R, v):
    x, y = -v.chd, v.rk
    return (R.a * x + R.b * y, R.c * x + R.e * y)


def r_act_on_ref(T, R):
    a, b, c, d = r_inv(T)
    return charge_repr(
        RefCharge(a * R.a + b * R.c, a * R.b + b * R.e, c * R.a + d * R.c, c * R.b + d * R.e)
    )


def matrix_repr(m):
    return "Matrix2(a={!r}, b={!r}, c={!r}, d={!r})".format(*m)


def auto_repr(T, w):
    return f"LiftedAuto(T={matrix_repr(T)}, winding={w!r})"


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # compared by name and message
        return f"{type(exc).__name__}: {exc}"


def ref_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# inputs: int, Fraction, str and float entries at magnitudes up to 10^+-50

ints = st.integers(-5, 5)
fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scaled = st.builds(
    lambda m, k: Fraction(m) * Fraction(10) ** k, st.integers(-99, 99), st.integers(-50, 50)
)
floats = st.floats(min_value=-1e50, max_value=1e50, allow_nan=False).filter(
    lambda x: x == 0 or abs(x) >= 1e-50
)
strings = st.one_of(
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 99)),
    st.builds("{:.3f}".format, st.floats(-9, 9)),
)
entries = st.one_of(ints, fracs, scaled, floats, strings)
quads = st.tuples(entries, entries, entries, entries)
vector_entries = st.one_of(fracs, scaled, st.floats(-1e6, 1e6))


def as_ref(quad):
    return tuple(Fraction(x) for x in quad)


def sign(x):
    return (x > 0) - (x < 0)


autos = (
    st.tuples(st.one_of(st.tuples(ints, ints, ints, ints), quads), st.integers(-3, 3))
    .map(lambda qw: (as_ref(qw[0]), qw[1]))
    .filter(lambda tw: r_det(tw[0]) > 0)
)
phases = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.floats(-4, 4),
    # one ulp either side of the integers and half-integers, where the split
    # of phi and the axis directions change
    st.sampled_from(
        [math.nextafter(k / 2, side) for k in range(-8, 9) for side in (-math.inf, math.inf)]
    ),
    st.integers(-4, 3).map(lambda n: n + HALF),
)


@settings(max_examples=300, deadline=None)
@given(quads, quads, vector_entries, vector_entries)
def test_matrix_matches_the_fraction_reference(m_in, n_in, x, y):
    M, N = Matrix2(*m_in), Matrix2(*n_in)
    m, n = as_ref(m_in), as_ref(n_in)
    assert repr(M) == matrix_repr(m)
    assert M.rows() == ((m[0], m[1]), (m[2], m[3])) and M.column0() == (m[0], m[2])
    assert all(type(v) is Fraction for v in (M.a, M.b, M.c, M.d))
    assert repr(M.mul(N)) == matrix_repr(r_mul(m, n)) and M @ N == M.mul(N)
    assert repr(M.det()) == repr(r_det(m)) and M.det_sign() == sign(r_det(m))
    if r_det(m) == 0:
        assert outcome(M.inverse) == "ZeroDivisionError: matrix is singular"
    else:
        assert repr(M.inverse()) == matrix_repr(r_inv(m))
    assert repr(M.apply(x, y)) == repr(r_apply(m, x, y))
    assert repr(M.apply(x, float(y))) == repr(r_apply(m, x, float(y)))
    # equality and hash are those of the tuple of entries, as for a dataclass
    assert M == Matrix2(*m) and hash(M) == hash(m)
    assert (M == N) == (m == n)
    assert (M == m) is False and M != m
    for name in ("num", "den"):
        with pytest.raises(FrozenInstanceError):
            setattr(M, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(M, name)
    back = pickle.loads(pickle.dumps(M))
    assert type(back) is Matrix2 and back == M


@settings(max_examples=300, deadline=None)
@given(autos, autos, phases)
def test_cover_matches_the_fraction_reference(g1, g2, phi):
    (T1, w1), (T2, w2) = g1, g2
    G1, G2 = LiftedAuto(Matrix2(*T1), w1), LiftedAuto(Matrix2(*T2), w2)
    assert repr(G1) == auto_repr(T1, w1)
    assert outcome(gl_compose, G1, G2) == ref_outcome(r_compose, T1, w1, T2, w2)
    assert outcome(gl_inverse, G1) == ref_outcome(r_inverse, T1, w1)
    assert outcome(lift_eval, G1, phi) == outcome(r_lift_eval, T1, w1, phi)
    assert outcome(lift_eval, G2, HALF + w2) == outcome(r_lift_eval, T2, w2, HALF + w2)


small_autos = (
    st.tuples(st.tuples(ints, ints, ints, ints), st.integers(-3, 3))
    .map(lambda tw: (as_ref(tw[0]), tw[1]))
    .filter(lambda tw: r_det(tw[0]) > 0)
)


@settings(max_examples=300, deadline=None)
@given(small_autos, small_autos, st.integers(-400, 400), st.integers(-400, 400))
def test_windings_ignore_a_positive_scale_at_any_magnitude(g1, g2, k1, k2):
    # 10**k * T induces the circle map of T, so it has the same lifts: the
    # windings stay those of the small matrices, which the reference checks
    (T1, w1), (T2, w2) = g1, g2
    G1, G2 = LiftedAuto(Matrix2(*T1), w1), LiftedAuto(Matrix2(*T2), w2)
    S1 = LiftedAuto(Matrix2(*(x * Fraction(10) ** k1 for x in T1)), w1)
    S2 = LiftedAuto(Matrix2(*(x * Fraction(10) ** k2 for x in T2)), w2)
    assert repr(gl_compose(G1, G2)) == r_compose(T1, w1, T2, w2)
    assert repr(gl_inverse(G1)) == r_inverse(T1, w1)
    assert gl_compose(S1, S2).winding == gl_compose(G1, G2).winding
    assert gl_inverse(S1).winding == gl_inverse(G1).winding


@settings(max_examples=300, deadline=None)
@given(st.tuples(fracs, fracs, fracs, fracs).filter(lambda m: r_det(m) > 0), st.integers(-2, 2))
def test_exact_directions_match_the_reference_to_the_last_bit(T, n):
    # at a half-integer phase the lift takes atan2 of an exact vector; its
    # coordinates must be rounded from the true values, not from rescaled ints
    G = LiftedAuto(Matrix2(*T), 0)
    assert repr(lift_eval(G, HALF + n)) == repr(r_lift_eval(T, 0, HALF + n))


@settings(max_examples=300, deadline=None)
@given(autos, quads)
def test_charge_action_matches_the_fraction_reference(g, frame):
    T, w = g
    # exact, float and mixed charges: string entries parse exactly
    Z = CentralCharge(*frame)
    G = LiftedAuto(Matrix2(*T), w)
    assert outcome(act_on_charge, G, Z) == ref_outcome(r_act_on_charge, T, Z)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.tuples(ints, ints, ints, ints), st.integers(-3, 3)).filter(
        lambda tw: r_det(tw[0]) > 0
    ),
    st.integers(0, 4),
    st.sampled_from([0, 2, -2, 1, Fraction(1, 3), 0.25]),
    st.booleans(),
)
def test_classify_matches_the_fraction_reference(g, p, nudge, as_float):
    sigma = act(LiftedAuto(Matrix2(*g[0]), g[1]), make_std(p, 5))
    Z, phi, psi = sigma.charge(), sigma.phi_sky() + nudge, sigma.psi_line()
    if as_float:
        Z = CentralCharge(*(float(v) for v in (Z.a, Z.b, Z.c, Z.e)))
        phi, psi = float(phi), float(psi)
    assume(not Z.is_degenerate())
    assert outcome(classify, Z, phi, psi, 5) == ref_outcome(r_classify, Z, phi, psi, 5)


# ---------------------------------------------------------------------------
# central charges: integer numerators over one denominator when exact

kclasses = st.builds(KClass, st.integers(-9, 9), st.integers(-9, 9))
dyadic = st.builds(lambda m, j: Fraction(m, 2 ** j), st.integers(-999, 999), st.integers(0, 30))


@settings(max_examples=400, deadline=None)
@given(quads, kclasses, autos)
def test_central_charge_matches_the_fraction_reference(quad, v, g):
    # int, Fraction, scaled, str and float entries, exact and mixed frames
    Z, R = CentralCharge(*quad), RefCharge(*quad)
    ref = astuple(R)
    assert repr(Z) == charge_repr(R)
    assert repr((Z.a, Z.b, Z.c, Z.e)) == repr(ref)
    assert [type(x) for x in (Z.a, Z.b, Z.c, Z.e)] == [type(x) for x in ref]
    assert Z == CentralCharge(*ref) and hash(Z) == hash(R) == hash(ref)
    assert repr(Z.frame()) == matrix_repr(as_ref(ref))
    assert repr(Z.det()) == repr(R.a * R.e - R.b * R.c)
    assert Z.is_degenerate() == r_degenerate(R)
    assert repr(charge_eval(Z, v)) == repr(r_charge_eval(R, v))
    T, w = g
    assert outcome(act_on_charge, LiftedAuto(Matrix2(*T), w), Z) == ref_outcome(r_act_on_ref, T, R)
    copy = pickle.loads(pickle.dumps(Z))
    assert copy == Z and repr(copy) == repr(Z)
    for name in ("a", "b", "c", "e", "_frame"):
        with pytest.raises(FrozenInstanceError):
            setattr(Z, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(Z, name)
    assert repr(Z) == charge_repr(R)


@settings(max_examples=300, deadline=None)
@given(st.tuples(dyadic, dyadic, dyadic, dyadic), st.lists(st.booleans(), min_size=4, max_size=4))
def test_exact_charges_equal_and_hash_like_their_float_twins(quad, as_float):
    # dyadic entries convert to floats exactly, so the twins are equal-valued
    exact = CentralCharge(*quad)
    twin = CentralCharge(*(float(x) if f else x for x, f in zip(quad, as_float)))
    assert exact == twin and twin == exact and hash(exact) == hash(twin)
    assert repr(twin) == repr(exact)
    assert exact.frame() == twin.frame()
    assert exact != exact.frame() and exact.frame() != exact
    assert type(exact.frame()) is Matrix2
    other = CentralCharge(quad[0] + Fraction(1, 3), *quad[1:])
    assert exact != other and twin != other
    assert (exact == quad) is False and exact != RefCharge(*quad)


# frames on and near the determinant locus, rows (a, b) and k * (a, b) + (0, t),
# with entries of at most 53 significant bits, so that each is a float
short = st.builds(lambda m, j: Fraction(m, 2**j), st.integers(-99, 99), st.integers(0, 8))
near_degenerate = st.builds(
    lambda a, b, k, t: (a, b, k * a, k * b + t),
    short, short, short,
    st.one_of(st.just(Fraction(0)), st.builds(lambda j: Fraction(1, 2**j), st.integers(20, 36))),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.tuples(dyadic, dyadic, dyadic, dyadic), near_degenerate),
    st.lists(st.booleans(), min_size=4, max_size=4),
    small_autos,
    st.integers(-2, 2),
    st.integers(0, 4),
    kclasses,
)
def test_a_float_charge_answers_as_its_exact_twin(quad, as_float, g, n, p, v):
    # a float entry is the dyadic rational it equals, so every reading of the
    # charge, degenerate or not, is that of the exact frame
    exact = CentralCharge(*quad)
    twin = CentralCharge(*(float(x) if f else x for x, f in zip(quad, as_float)))
    assert twin == exact
    assume(any(quad))
    G = LiftedAuto(Matrix2(*g[0]), g[1])
    assert outcome(charge_eval, twin, v) == outcome(charge_eval, exact, v)
    assert twin.is_degenerate() == exact.is_degenerate()
    assert outcome(fiber_types, twin, 5) == outcome(fiber_types, exact, 5)
    assert outcome(act_on_charge, G, twin) == outcome(act_on_charge, G, exact)
    # phases that lift Z(sky), with interior or boundary data for psi
    a, c = exact.a, exact.c
    assume(a or c)
    phi = float(direction_angle(-a, -c, 1)) + 2 * n
    for psi in (phi - p - HALF, phi - p):
        assert outcome(classify, twin, phi, psi, 5) == outcome(classify, exact, phi, psi, 5)
