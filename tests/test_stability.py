"""Stability points, spectra, HN filtrations, and the classification map."""

import dataclasses
import math
import pickle
import random
from fractions import Fraction

import pytest

from stabtorus.charges import CentralCharge, KClass, charge_eval, std_charge
from stabtorus.cover import (
    LiftedAuto,
    act_on_charge,
    gl_equal,
    gl_inverse,
    identity_auto,
    lift_eval,
    shift_auto,
)
from stabtorus.errors import (
    DomainError,
    MissingHNData,
    NotInHeart,
    NotInU,
    NotNumericallyConsistent,
    UnsupportedSpectrum,
)
from stabtorus.linalg import Matrix2
from stabtorus.sheaves import (
    ZERO_OBJECT,
    class_of,
    formal_object,
    make_locally_free,
    make_torsion,
    make_torsion_free,
    sheaf_at,
    skyscraper,
)
from stabtorus.stability import (
    DegLabel,
    StdLabel,
    act,
    classify,
    hn_filtration,
    ideal_family_phase,
    is_stable_in_model,
    make_deg,
    make_std,
    spectrum_of,
    stable_objects,
    subobject_classes,
)


def rand_auto(rng):
    while True:
        m = Matrix2(*(Fraction(rng.randint(-5, 5)) for _ in range(4)))
        if m.det() > 0:
            return LiftedAuto(m, rng.randint(-2, 2))


def test_make_std_charges():
    s0 = make_std(0, 4)
    assert charge_eval(s0.charge(), KClass(0, 1)) == (-1, 0)
    assert charge_eval(s0.charge(), KClass(1, 0)) == (0, 1)
    s1 = make_std(1, 4)
    # L[1] has class (-1, 0) and goes to i
    assert charge_eval(s1.charge(), KClass(-1, 0)) == (0, 1)


def test_parity_collapse():
    s0, s2 = make_std(0, 4), make_std(2, 4)
    assert s0.charge() == s2.charge()
    assert s0 != s2
    assert s0.label != s2.label


def test_make_deg_charges():
    q = make_deg(1, Fraction(1, 4), 4)
    assert q.charge() == CentralCharge(1, 1, 0, 0)
    assert charge_eval(q.charge(), KClass(-1, 0)) == (-1, 0)
    q2 = make_deg(2, Fraction(1, 4), 4)
    assert charge_eval(q2.charge(), KClass(1, 0)) == (-1, 0)
    with pytest.raises(DomainError):
        make_deg(0, Fraction(1, 4), 4)
    with pytest.raises(DomainError):
        make_deg(1, Fraction(1, 2), 4)
    with pytest.raises(DomainError):
        make_deg(4, Fraction(1, 4), 4)


def test_point_phases():
    s = make_std(1, 4)
    assert s.phi_sky() == 1
    assert s.psi_line() == Fraction(-1, 2)
    q = make_deg(1, Fraction(1, 4), 4)
    assert q.phi_sky() == 1


def test_act_composes_group_parts():
    s = make_std(1, 4)
    assert act(identity_auto(), s) == s
    deck = shift_auto(2)
    moved = act(deck, s)
    assert moved.label == s.label
    assert moved.charge() == s.charge()
    assert not gl_equal(moved.g, s.g)
    # the deck transformation shifts the skyscraper phase down by two
    assert moved.phi_sky() == s.phi_sky() - 2


def test_point_keeps_its_shared_inverse_out_of_the_fields():
    # charge, phi_sky and psi_line share one gl_inverse, stored beside the fields
    g = LiftedAuto(Matrix2(2, 1, 1, 1), 1)
    used, fresh = act(g, make_std(1, 5)), act(g, make_std(1, 5))
    assert (used.charge(), used.phi_sky(), used.psi_line()) == (
        act_on_charge(g, std_charge(1)), lift_eval(gl_inverse(g), 1),
        lift_eval(gl_inverse(g), Fraction(-1, 2)),
    )
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert [f.name for f in dataclasses.fields(used)] == ["label", "g"]
    assert pickle.loads(pickle.dumps(used)) == fresh


def test_spectrum_shapes():
    interior = spectrum_of(StdLabel(1), 4)
    assert interior.points == (Fraction(1, 2), Fraction(1))
    assert interior.complete and not interior.series

    level0 = spectrum_of(StdLabel(0), 4)
    assert not level0.complete
    assert level0.series[0].kind == "ideal_sheaves"
    assert level0.series[0].computable

    top = spectrum_of(StdLabel(3), 4)
    assert not top.complete
    assert top.series[0].kind == "unclassified_tail"
    assert not top.series[0].computable

    wall = spectrum_of(DegLabel(1, Fraction(1, 4)), 4)
    assert wall.points == (Fraction(1),) and wall.complete


def test_stable_objects_interior():
    descriptor, families = stable_objects(make_std(1, 4), 4)
    kinds = {f.kind: f.phase for f in families}
    assert kinds == {"skyscraper": 1, "shifted_line_bundle": Fraction(1, 2)}
    assert descriptor.complete


def test_stable_objects_level_zero_includes_ideals():
    descriptor, families = stable_objects(make_std(0, 4), 4)
    kinds = {f.kind for f in families}
    assert "ideal_sheaves" in kinds
    assert ideal_family_phase(make_std(0, 4), 1, 4) == Fraction(1, 4)
    # ideal phases decrease toward zero
    phases = [float(ideal_family_phase(make_std(0, 4), n, 4)) for n in (1, 2, 5, 9)]
    assert phases == sorted(phases, reverse=True)


def test_stable_objects_transport_phases():
    from stabtorus.cover import gl_inverse

    base = make_std(1, 4)
    # the right action by the shift moves phases down one; its inverse, the
    # left action of the shift functor, moves them up
    down = act(shift_auto(1), base)
    up = act(gl_inverse(shift_auto(1)), base)
    _, fam0 = stable_objects(base, 4)
    _, fam_down = stable_objects(down, 4)
    _, fam_up = stable_objects(up, 4)
    p0 = {f.kind: float(f.phase) for f in fam0}
    for f in fam_down:
        assert abs(float(f.phase) - p0[f.kind] + 1) < 1e-12
    for f in fam_up:
        assert abs(float(f.phase) - p0[f.kind] - 1) < 1e-12


_SERIES_NOTES = {
    "ideal_sheaves": "twisted ideal sheaves of n points, classes (1, -n); phases "
                     "decrease to the bottom of the window",
    "unclassified_tail": "an incomplete family with phases increasing toward the "
                         "skyscraper phase",
}


@pytest.mark.parametrize("d", [3, 4, 5])
def test_stable_objects_list_one_family_per_series(d):
    for p in range(d):
        descriptor, fams = stable_objects(make_std(p, d), d)
        extra = [(f.kind, f.shift) for f in fams[2:]]
        assert extra == [(s.kind, p) for s in descriptor.series]
        assert extra == ([("ideal_sheaves", 0)] if p == 0 else []) + (
            [("unclassified_tail", d - 1)] if p == d - 1 else []
        )
        for f in fams[2:]:
            assert (f.kclass, f.phase, f.note) == (None, None, _SERIES_NOTES[f.kind])


def test_stable_objects_rejects_boundary_points():
    with pytest.raises(UnsupportedSpectrum):
        stable_objects(make_deg(1, Fraction(1, 4), 4), 4)


def test_hn_two_step():
    d = 4
    E = formal_object([(0, skyscraper()), (-1, make_locally_free(1))])
    factors = hn_filtration(make_std(1, d), E, d)
    assert [(class_of(f.part), f.phase) for f in factors] == [
        (KClass(0, 1), 1),
        (KClass(-1, 0), Fraction(1, 2)),
    ]


def test_hn_semistable_torsion():
    E = formal_object([(0, make_torsion([("y", 2)]))])
    factors = hn_filtration(make_std(0, 4), E, 4)
    assert len(factors) == 1
    assert factors[0].part == E and factors[0].phase == 1


def test_hn_on_boundary_is_single_phase():
    d = 4
    E = formal_object([(0, skyscraper()), (-1, make_locally_free(1))])
    factors = hn_filtration(make_deg(1, Fraction(1, 4), d), E, d)
    assert len(factors) == 1 and factors[0].phase == 1


def test_hn_on_boundary_of_the_zero_object_and_of_a_non_member():
    d = 4
    sigma = make_deg(2, Fraction(1, 4), d)
    # the zero object has no factors; an object off the heart is refused
    assert hn_filtration(sigma, ZERO_OBJECT, d) == ()
    with pytest.raises(NotInHeart):
        hn_filtration(sigma, sheaf_at(-1, make_locally_free(1)), d)


def test_hn_level_zero_uses_declared_data():
    d = 4
    F = make_torsion_free(2, 3, hn=[(KClass(1, 0), True), (KClass(1, -3), True)])
    E = sheaf_at(0, F)
    factors = hn_filtration(make_std(0, d), E, d)
    # declared factors carry classes but no model representative
    assert [f.kclass for f in factors] == [KClass(1, 0), KClass(1, -3)]
    assert all(f.part is None for f in factors)
    assert [f.stable for f in factors] == [True, True]
    phases = [float(f.phase) for f in factors]
    assert phases == sorted(phases, reverse=True)
    with pytest.raises(MissingHNData):
        hn_filtration(make_std(0, d), sheaf_at(0, make_torsion_free(2, 3)), d)


def test_hn_phases_strictly_decrease_and_classes_add():
    d = 4
    sigma = make_std(1, d)
    E = formal_object([(0, make_torsion([("y", 2), ("z", 1)])), (-1, make_torsion_free(2, 1))])
    factors = hn_filtration(sigma, E, d)
    assert sum((f.kclass for f in factors), KClass(0, 0)) == class_of(E)
    phases = [float(f.phase) for f in factors]
    assert all(a > b for a, b in zip(phases, phases[1:]))


def test_hn_rejects_foreign_objects():
    with pytest.raises(NotInHeart):
        hn_filtration(make_std(1, 4), sheaf_at(-2, make_locally_free(1)), 4)


def test_hn_ignores_presentation_order():
    d = 4
    sigma = make_std(1, d)
    E1 = formal_object([(0, skyscraper()), (-1, make_locally_free(1))])
    E2 = formal_object([(-1, make_locally_free(1)), (0, skyscraper())])
    assert E1 == E2
    assert hn_filtration(sigma, E1, d) == hn_filtration(sigma, E2, d)


def test_classify_base_point():
    sigma = classify(std_charge(0), 1, Fraction(1, 2), 4)
    assert sigma.label == StdLabel(0)
    assert gl_equal(sigma.g, identity_auto())


def test_classify_solves_the_frame():
    import math

    Z = CentralCharge(2, 3, 0, 5)
    psi = math.atan2(5.0, 3.0) / math.pi
    sigma = classify(Z, 1, psi, 4)
    assert sigma.label == StdLabel(0)
    assert sigma.g.winding == 0
    assert act_on_charge(sigma.g, std_charge(0)) == Z


def test_classify_degenerate_charge():
    Z = CentralCharge(1, 1, 0, 0)
    sigma = classify(Z, 1, 0, 4)
    assert sigma.label == DegLabel(1, Fraction(1, 4))
    # normal form puts the transported skyscraper phase in (0, 2]
    assert 0 < float(lift_eval(sigma.g, 1)) <= 2
    assert act_on_charge(sigma.g, sigma.base_charge()) == Z


def test_classify_degenerate_charge_below_the_window():
    # psi a hair above the boundary value reads window -1: the index moves up one
    Z = CentralCharge(1, 1, 0, 0)
    sigma = classify(Z, 1, Fraction(1, 10**10), 4)
    assert sigma.label == DegLabel(1, Fraction(1, 4))
    assert act_on_charge(sigma.g, sigma.base_charge()) == Z


def test_classify_tiny_exact_slope_stays_below_half():
    # the exact slope is positive, so gamma lies below 1/2 even though its
    # float rounds onto 1/2
    Z = CentralCharge(1, Fraction(1, 10**17), 0, 0)
    sigma = classify(Z, 1, 0, 4)
    assert sigma.label.p == 1 and 0 < sigma.label.gamma < Fraction(1, 2)
    assert act_on_charge(sigma.g, sigma.base_charge()).is_degenerate()


def test_classify_reads_the_slope_from_a_row_that_sees_the_skyscraper():
    # Z(skyscraper) = (0, -1); the first row (0, 1e-20) carries no skyscraper
    # entry, but its rank entry makes the determinant -1e-20: a Std charge,
    # whose rank ray (1e-20, 0) has direction 0, which psi = -3/2 does not lift
    Z = CentralCharge(0, 1e-20, 1, 0)
    with pytest.raises(NotNumericallyConsistent, match="disagrees with the rank-ray phase 0"):
        classify(Z, Fraction(-1, 2), Fraction(-3, 2), 4)
    # with that entry 0 the frame is degenerate, and the second row (1, 0)
    # has slope 0, the excluded parameter 1/2
    with pytest.raises(NotInU, match=r"boundary parameter would leave \(0, 1/2\)"):
        classify(CentralCharge(0, 0, 1, 0), Fraction(-1, 2), Fraction(-3, 2), 4)


def test_classify_refuses_boundary_data_for_a_frame_near_the_rank_functional():
    # the skyscraper column (-6e5, 1e-37) is tiny against e = -9e33, but the
    # exact determinant is positive: a Std charge, whose rank ray points
    # down, which the boundary value psi = phi - 1 does not lift
    Z = CentralCharge(-600000.0, -40000, Fraction(1, 10**37), -9e33)
    assert not Z.is_degenerate()
    with pytest.raises(NotNumericallyConsistent, match="disagrees with the rank-ray phase -0.5"):
        classify(Z, -2, -3, 4)


def test_classify_winds_a_skewed_rank_one_charge_exactly():
    # T0, which sends the skyscraper column to (1, 0), is so skewed that a
    # float lift of phi through it misses an integer; the winding is read
    # from integer signs instead
    Z = CentralCharge(1, Fraction(1, 10**17), 10**30, 10**13)
    sigma = classify(Z, Fraction(-1, 2), Fraction(-3, 2), 4)
    assert sigma.label.p == 1 and isinstance(sigma.label, DegLabel)
    assert sigma.phi_sky() == Fraction(-1, 2)


def test_classify_refuses_a_rank_phase_that_only_a_skewed_frame_hides():
    # M squeezes every direction toward the vertical, so psi = 0 passes the
    # check on the moved side; it does not lift Z(rank), which points down
    Z = CentralCharge(3, Fraction(1, 10**13), 10**39, -(10**23))
    with pytest.raises(NotNumericallyConsistent, match="disagrees with the rank-ray phase"):
        classify(Z, Fraction(3, 2), 0, 4)


def test_classify_counts_turns_from_the_exact_skyscraper_vector():
    # Z(sky) = (-1/2, -10**-400) lies just below the cut at direction 1; the
    # float entries are exact, so the determinant -10**-400 / 4 is nonzero and
    # negative: phi and psi = phi - 1, a lift of the rank ray (1/4, 0), name
    # a Std(1) point, one turn of winding per turn of phi
    Z = CentralCharge(Fraction(1, 2), 0.25, Fraction(1, 10**400), 0.0)
    assert not Z.is_degenerate()
    for phi, winding in ((-1.0, 1), (1.0, 0), (3.0, -1)):
        sigma = classify(Z, phi, phi - 1, 5)
        assert sigma.label == StdLabel(1) and sigma.g.winding == winding
        assert sigma.charge() == Z
        assert sigma.phi_sky() == phi and sigma.psi_line() == phi - 1


@pytest.mark.parametrize("p", range(5))
def test_classify_takes_back_a_point_moved_by_a_skewed_element(p):
    # M squeezes every direction, so a float lift of psi through it misses
    # the base rank phase; the check lifts Z(rank) by integer turns instead
    g = LiftedAuto(Matrix2(-(10**22), 70, 5 * 10**15, -8 * 10**10), -2)
    sigma = act(g, make_std(p, 5))
    assert classify(sigma.charge(), sigma.phi_sky(), sigma.psi_line(), 5) == sigma


def test_classify_reads_exact_phases_past_the_float_precision():
    # phi - psi = 3/2 exactly, while the difference of their floats is 0
    sigma = act(LiftedAuto(Matrix2(1, 0, 0, 1), 10**17), make_std(1, 5))
    phi, psi = sigma.phi_sky(), sigma.psi_line()
    assert phi == -199999999999999999 and float(phi) == float(psi)
    assert classify(sigma.charge(), phi, psi, 5) == sigma


def test_classify_takes_back_a_moved_point_from_a_nudged_float_phase():
    # phi_sky within the lift check's slack of the exact lift names the same
    # point however skewed the frame
    for seed in range(100):
        rng = random.Random(seed)
        mag = rng.choice([5, 1000, 10**6])
        while True:
            T = Matrix2(*(rng.randint(-mag, mag) for _ in range(4)))
            if T.det_sign() > 0:
                break
        sigma = act(LiftedAuto(T, rng.randint(-2, 2)), make_std(rng.randrange(5), 5))
        for nudge in (1e-10, -1e-10):
            phi = float(sigma.phi_sky()) + nudge
            assert classify(sigma.charge(), phi, sigma.psi_line(), 5) == sigma, seed


def test_classify_takes_back_a_point_whose_phase_difference_nears_an_integer():
    # phi_sky - psi_line = 2.0000000004895244: the skyscraper and rank
    # directions are close, and no window test may read them as boundary data
    sigma = act(LiftedAuto(Matrix2(86477923, 67888966, 86477924, 67888967), 0), make_std(2, 5))
    assert classify(sigma.charge(), sigma.phi_sky(), sigma.psi_line(), 5) == sigma


def test_classify_takes_back_every_point_of_a_seeded_frame_probe():
    # frames [[a, b], [a + 1, b + 1]] of determinant a - b, whose two columns
    # grow close in direction as a and b grow: at 10**16 the phase difference
    # lies within a float ulp of the integer heart index
    rng = random.Random(12)
    for k in range(2, 30):
        for _ in range(40):
            a, b = rng.randint(0, 10**k), rng.randint(0, 10**k)
            if a < b:
                a, b = b, a
            g = LiftedAuto(Matrix2(a, b, a + 1, b + 1), 0)
            for p in range(5):
                sigma = act(g, make_std(p, 5))
                back = classify(sigma.charge(), sigma.phi_sky(), sigma.psi_line(), 5)
                assert back == sigma, (k, a, b, p)


def test_classify_round_trip_interior():
    rng = random.Random(101)
    d = 5
    for p in range(d):
        base = make_std(p, d)
        for _ in range(20):
            G = rand_auto(rng)
            moved = act(G, base)
            sigma = classify(moved.charge(), moved.phi_sky(), moved.psi_line(), d)
            assert sigma.label == StdLabel(p)
            assert sigma.g.winding == G.winding
            assert sigma.g.T == G.T


def test_classify_error_paths():
    # phase not lifting the skyscraper direction
    with pytest.raises(NotNumericallyConsistent):
        classify(std_charge(0), Fraction(1, 2), 0, 4)
    # boundary phase data on a nondegenerate charge: psi lifts no rank ray
    with pytest.raises(NotNumericallyConsistent):
        classify(std_charge(0), 1, 0, 4)
    # degenerate charge with interior phase data
    with pytest.raises(NotInU):
        classify(CentralCharge(1, 1, 0, 0), 1, Fraction(1, 2), 4)
    # heart index out of range for the dimension: psi = 1/2 - 4
    with pytest.raises(NotInU):
        classify(std_charge(0), 1, Fraction(-7, 2), 4)
    # orientation: det Z > 0 makes p even, and psi = 7/2 = 1/2 + 3 lifts no
    # rank ray of an even heart index
    with pytest.raises(NotNumericallyConsistent):
        classify(std_charge(0), 1, Fraction(7, 2), 4)
    # orientation mismatch: psi above phi is impossible in the region
    with pytest.raises((NotInU, NotNumericallyConsistent)):
        classify(std_charge(1), 1, Fraction(1, 2), 4)


def test_classify_rejects_wrong_parity_boundary():
    # cot would be negative for p = 1 with this slope sign
    Z = CentralCharge(1, -1, 0, 0)
    with pytest.raises(NotInU):
        classify(Z, 1, 0, 4)


def test_subobject_classes_interior():
    d = 5
    E = sheaf_at(-2, make_locally_free(2))
    subs = subobject_classes(E, 2, d)
    assert KClass(1, 0) in subs
    assert class_of(E) not in subs
    assert all(not v.is_zero() for v in subs)


def _subobject_reference(E, p):
    # the rule as two cases: free mixing of hull defect and torsion at p = 1,
    # independent (sub-bundle shift, torsion subsheaf) pairs for p >= 2
    upper, lower = E.component(-p), E.component(0)
    r = upper.rank if upper is not None else 0
    q = getattr(upper, "colength", 0) if upper is not None else 0
    t = lower.total_length() if lower is not None else 0
    if p >= 2:
        cands = {KClass((-1) ** p * rp, tp) for rp in range(r + 1) for tp in range(t + 1)}
    else:
        cands = set()
        for rp in range(r + 1):
            lo = 1 if rp == 0 else (q if rp == r else 0)
            cands |= {KClass(-rp, m) for m in range(lo, q + t + 1)}
    return {v for v in cands if not v.is_zero() and v != class_of(E)}


@pytest.mark.parametrize("d", [3, 4, 5])
def test_subobject_classes_match_the_two_case_rule(d):
    from stabtorus.hearts import StandardHeart

    for p in range(1, d):
        members = list(StandardHeart(p, d).sample_members(4))
        assert members
        for E in members:
            assert subobject_classes(E, p, d) == _subobject_reference(E, p)


def test_the_zero_object_is_not_stable():
    assert not is_stable_in_model(ZERO_OBJECT, 1, 4)


@pytest.mark.parametrize(
    "gamma",
    [lambda value: value(7), lambda value: Fraction(value(7)),
     lambda value: Fraction(value(7)) - Fraction(1, 10**30),
     lambda value: Fraction(value(2)) + Fraction(1, 10**30)],
    ids=["float-member-7", "exact-member-7", "just-below-member-7", "just-above-member-2"],
)
def test_bracket_corrects_the_floor_of_the_cotangent(gamma):
    # at these gammas the float cotangent lands one member off, so bracket
    # takes one of its two one-step corrections (up at member 7, down at 2)
    (series,) = spectrum_of(StdLabel(0), 4).series
    g = gamma(series.value)
    below, above = series.bracket(g)
    n = next(n for n in range(2, 20) if series.value(n) == below)
    assert above == series.value(n - 1)
    assert series.value(n) < g <= series.value(n - 1)


def test_series_members_past_the_float_range_raise_domain_error():
    (series,) = spectrum_of(StdLabel(0), 4).series
    with pytest.raises(DomainError, match="beyond the float range"):
        series.value(10**400)
    with pytest.raises(DomainError, match="beyond the float range"):
        ideal_family_phase(make_std(0, 4), 10**400, 4)
    # below 2**1024 a member is read as the float of n, as before
    n = 2**1023 + 2**970
    assert series.value(n) == math.atan2(1.0, float(n)) / math.pi


def test_stable_objects_in_model():
    d = 4
    sky = formal_object([(0, skyscraper())])
    L1 = sheaf_at(-1, make_locally_free(1))
    fat = formal_object([(0, make_torsion([("y", 2)]))])
    assert is_stable_in_model(sky, 1, d)
    assert is_stable_in_model(L1, 1, d)
    assert not is_stable_in_model(fat, 1, d)
    assert not is_stable_in_model(sheaf_at(-1, make_locally_free(2)), 1, d)
