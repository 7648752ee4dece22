"""Boundary analysis: gamma bounds, wall decisions, boundary hearts,
twist escape, the orbit complex, and charge fibers."""

import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stabtorus.charges import CentralCharge, KClass, charge_eval, std_charge
from stabtorus.errors import (
    DomainError,
    MissingHNData,
    NeverEscapes,
    NotInHeart,
    OnSpectrum,
    ZeroCharge,
)
from stabtorus.exactnum import as_number, num_eq, phase_eq, phase_mod1
from stabtorus.sheaves import (
    enumerate_objects,
    formal_object,
    make_locally_free,
    make_torsion_free,
    sheaf_at,
)
from stabtorus import walls
from stabtorus.hearts import (
    StandardHeart,
    hearts_agree_on,
    heart_membership,
    hrs_tilt,
    iterated_heart,
)
from stabtorus.stability import DegLabel, PhaseSeries, StdLabel, spectrum_of
from stabtorus.walls import (
    GAMMA_MINUS_VACUOUS,
    GAMMA_PLUS_VACUOUS,
    TWIST_ESCAPE,
    boundary_at,
    boundary_heart,
    fiber_types,
    gamma_pm,
    on_spectrum,
    orbit_complex,
    phase_cut_pair,
    remove_node,
    twist_escape,
    wall_only_complex,
)


# --------------------------------------------------------------- gamma bounds


def test_gamma_pm_interior_below_half():
    lo, hi, lo_ok, hi_ok = gamma_pm(spectrum_of(StdLabel(1), 5), Fraction(3, 10))
    assert (lo, hi) == (0, Fraction(1, 2))
    assert lo_ok and hi_ok


def test_gamma_pm_interior_above_half():
    lo, hi, lo_ok, hi_ok = gamma_pm(spectrum_of(StdLabel(1), 5), Fraction(7, 10))
    assert (lo, hi) == (Fraction(1, 2), 1)
    assert lo_ok and hi_ok


def test_gamma_pm_level_zero_brackets_the_ideal_series():
    lo, hi, lo_ok, hi_ok = gamma_pm(spectrum_of(StdLabel(0), 5), 0.1)
    # the ideal phases arctan(1/n)/pi surround 0.1 at n = 4 and n = 3
    assert abs(float(lo) - 0.07797913037736925) < 1e-12
    assert abs(float(hi) - 0.10241638234956672) < 1e-12
    assert not lo_ok and not hi_ok


def test_gamma_pm_level_zero_above_half_is_certain():
    lo, hi, lo_ok, hi_ok = gamma_pm(spectrum_of(StdLabel(0), 5), Fraction(7, 10))
    assert (lo, hi) == (Fraction(1, 2), 1)
    assert lo_ok and hi_ok


def test_gamma_pm_top_heart_is_uncertain_above_half():
    lo, hi, lo_ok, hi_ok = gamma_pm(spectrum_of(StdLabel(4), 5), Fraction(7, 10))
    assert (lo, hi) == (Fraction(1, 2), 1)
    assert not lo_ok and not hi_ok


def test_gamma_pm_rejects_stable_phases_and_bad_domains():
    descriptor = spectrum_of(StdLabel(1), 5)
    with pytest.raises(OnSpectrum):
        gamma_pm(descriptor, Fraction(1, 2))
    with pytest.raises(OnSpectrum):
        gamma_pm(spectrum_of(StdLabel(0), 5), Fraction(1, 4))
    with pytest.raises(OnSpectrum):
        gamma_pm(spectrum_of(StdLabel(0), 5), 0.25)
    with pytest.raises(DomainError):
        gamma_pm(descriptor, 1)
    with pytest.raises(DomainError):
        gamma_pm(descriptor, 0)


@pytest.mark.parametrize("k", range(1, 16))
def test_gamma_pm_brackets_tiny_exact_gamma_by_series_members(k):
    gamma = Fraction(1, 10**k)
    descriptor = spectrum_of(StdLabel(0), 4)
    (series,) = descriptor.series
    start = time.perf_counter()
    lo, hi, _, _ = gamma_pm(descriptor, gamma)
    assert time.perf_counter() - start < 0.05
    assert lo < gamma < hi
    # consecutive members: the n-th below gamma, the (n-1)-th above it
    n = round(1 / math.tan(math.pi * lo))
    assert (series.value(n), series.value(n - 1)) == (lo, hi)


def test_gamma_pm_exact_gamma_never_meets_an_irrational_member():
    descriptor = spectrum_of(StdLabel(0), 4)
    (series,) = descriptor.series
    member = series.value(5)
    # within TOL of member 5, but a rational gamma is not a stable phase
    near = Fraction(member) + Fraction(1, 10**14)
    assert gamma_pm(descriptor, near)[0] == member
    # equal in value to the float of member 5: bracketed with it above
    lo, hi, _, _ = gamma_pm(descriptor, Fraction(member))
    assert (lo, hi) == (series.value(6), member)
    with pytest.raises(OnSpectrum):
        gamma_pm(descriptor, float(Fraction(member) + Fraction(1, 10**14)))


@pytest.mark.parametrize(
    "gamma", [Fraction(1, 10**17), 1e-17, Fraction(1, 10**320), 1e-320, Fraction(1, 10**400)]
)
def test_gamma_pm_below_the_float_range_of_the_series(gamma):
    with pytest.raises(DomainError):
        gamma_pm(spectrum_of(StdLabel(0), 4), gamma)
    if isinstance(gamma, Fraction):
        # an exact gamma is off the spectrum without a bracket: a twist escape
        assert boundary_at(0, gamma, 4) == walls.WallDecision(None, TWIST_ESCAPE)
        # Std(1) has no computable series, so there is nothing to bracket
        assert gamma_pm(spectrum_of(StdLabel(1), 4), gamma)[:2] == (0, Fraction(1, 2))
    else:
        with pytest.raises(DomainError):
            boundary_at(0, gamma, 4)


@pytest.mark.parametrize(
    "gamma",
    [Fraction(1, 2) + Fraction(1, 10**30), 1 - Fraction(1, 10**30)],
    ids=["just-above-half", "just-below-one"],
)
def test_gamma_pm_decides_the_certainty_flags_of_an_exact_gamma_exactly(gamma):
    # at d = 4 the top heart Std(3) leaves (1/2, 1) uncertain, so both gaps
    # around a gamma inside it meet that interval, however near an end it is
    lo, hi, lo_ok, hi_ok = gamma_pm(spectrum_of(StdLabel(3), 4), gamma)
    assert (lo, hi) == (Fraction(1, 2), 1)
    assert (lo_ok, hi_ok) == (False, False)


def test_on_spectrum_depends_on_the_label():
    assert on_spectrum(StdLabel(0), Fraction(1, 4), 5)
    assert not on_spectrum(StdLabel(1), Fraction(1, 4), 5)
    assert on_spectrum(StdLabel(1), Fraction(1, 2), 5)


# the candidate scan that decides every gamma: the points shifted by -1, 0
# and 1 plus the bracketing series members, each compared through phase_eq


def ref_on_spectrum(label, gamma, d):
    spectrum = spectrum_of(label, d)
    g = as_number(gamma)
    if not 0 < g < 1:
        raise DomainError("gamma must lie strictly between 0 and 1")
    candidates = [q + k for q in spectrum.points for k in (-1, 0, 1)]
    for series in spectrum.series:
        if series.computable:
            candidates += [c for c in series.bracket(g) if c is not None]
    return any(phase_eq(c, g) for c in candidates)


def ref_boundary_at(p, gamma, d):
    g = as_number(gamma)
    if not 0 < g < 1:
        raise DomainError("gamma must lie strictly between 0 and 1")
    if num_eq(g, Fraction(1, 2)):
        raise DomainError("gamma = 1/2 sits on the shifted-bundle phase")
    if ref_on_spectrum(StdLabel(p), g, d):
        raise DomainError(f"gamma = {gamma} is a stable phase of Std({p})")
    escape = walls.WallDecision(None, TWIST_ESCAPE)
    if g < Fraction(1, 2):
        return escape if p == 0 else walls.WallDecision(DegLabel(p, g))
    return escape if p == d - 1 else walls.WallDecision(DegLabel(p + 1, 1 - g))


def outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_exact_gamma_wall_decisions_match_the_candidate_scan():
    # every n/m with m <= 48, at every standard label of d = 3..6: the exact
    # decision on integers must agree with the full scan, errors included
    gammas = [Fraction(n, m) for m in range(2, 49) for n in range(1, m)]
    seen = set()
    for d in range(3, 7):
        for p in range(d):
            for g in gammas:
                on = outcome(on_spectrum, StdLabel(p), g, d)
                assert on == outcome(ref_on_spectrum, StdLabel(p), g, d), (p, g, d)
                seen.add(on)
                wall = outcome(boundary_at, p, g, d)
                assert wall == outcome(ref_boundary_at, p, g, d), (p, g, d)
    assert seen == {"True", "False"}


@pytest.mark.parametrize(
    "gamma",
    [0.25, 0.5 - 1e-13, 0.5 + 1e-13, 1e-300, 1 - 2**-53, Fraction(1, 4), Fraction(1, 2),
     Fraction(1, 10**20), Fraction(3, 7), 0, 1, Fraction(-1, 3), 1.5],
)
def test_float_gammas_and_boundary_spectra_keep_the_candidate_scan(gamma):
    # the scan brackets an exact gamma too, and so refuses one below the float
    # range of the series; membership needs no bracket and answers it
    below = "DomainError: gamma lies below the float range"

    def agree(new, ref, answer):
        if isinstance(gamma, Fraction) and ref.startswith(below):
            assert new == answer
        else:
            assert new == ref

    for d in range(3, 7):
        labels = [StdLabel(p) for p in range(d)]
        labels += [DegLabel(p, Fraction(1, 3)) for p in range(1, d)]
        for label in labels:
            on = outcome(on_spectrum, label, gamma, d)
            agree(on, outcome(ref_on_spectrum, label, gamma, d), "False")
        escape = repr(walls.WallDecision(None, TWIST_ESCAPE))
        for p in range(d):
            agree(outcome(boundary_at, p, gamma, d), outcome(ref_boundary_at, p, gamma, d), escape)


# ------------------------------------------------------------- wall decisions


@pytest.mark.parametrize("d", [3, 4, 5])
def test_boundary_table(d):
    g_lo, g_hi = Fraction(3, 10), Fraction(7, 10)
    # level zero: twist escape below one half, a wall above
    low = boundary_at(0, g_lo, d)
    assert not low.is_wall and low.reason == TWIST_ESCAPE
    high = boundary_at(0, g_hi, d)
    assert high.is_wall and high.target == DegLabel(1, 1 - g_hi)
    # interior: walls on both sides
    for p in range(1, d - 1):
        below = boundary_at(p, g_lo, d)
        assert below.target == DegLabel(p, g_lo)
        above = boundary_at(p, g_hi, d)
        assert above.target == DegLabel(p + 1, 1 - g_hi)
    # top heart: twisting escapes the gap above one half
    top = boundary_at(d - 1, g_hi, d)
    assert not top.is_wall and top.reason == TWIST_ESCAPE
    top_lo = boundary_at(d - 1, g_lo, d)
    assert top_lo.target == DegLabel(d - 1, g_lo)


@pytest.mark.parametrize("k", range(1, 16))
def test_boundary_tiny_exact_gamma_at_level_zero_escapes(k):
    start = time.perf_counter()
    decision = boundary_at(0, Fraction(1, 10**k), 4)
    assert time.perf_counter() - start < 0.05
    assert not decision.is_wall and decision.reason == TWIST_ESCAPE


def test_boundary_rejects_gamma_on_the_spectrum():
    with pytest.raises(DomainError):
        boundary_at(1, Fraction(1, 2), 5)
    with pytest.raises((DomainError, OnSpectrum)):
        boundary_at(0, Fraction(1, 4), 5)
    with pytest.raises(DomainError):
        boundary_at(0, 0.25, 5)
    # the same parameter is fine one level up, where 1/4 is not a stable phase
    assert boundary_at(1, Fraction(1, 4), 5).is_wall


def test_boundary_heart_agrees_from_both_sides():
    d = 4
    gamma = Fraction(3, 10)
    # the wall Deg(2, gamma) is seen from Std(2) below and Std(1) above
    from_below = boundary_heart(2, gamma, d)
    from_above = boundary_heart(1, 1 - gamma, d)
    corpus = list(enumerate_objects(4, range(-2, 1), d))
    assert hearts_agree_on(from_below, from_above, corpus) is None


def test_boundary_heart_interior_consistency():
    d = 4
    corpus = list(enumerate_objects(4, range(-2, 1), d))
    # below one half nothing sits under the cut, the tilt is trivial
    assert hearts_agree_on(
        boundary_heart(1, Fraction(3, 10), d), iterated_heart(1, d), corpus
    ) is None
    # above one half the phase-1/2 objects move down one level
    assert hearts_agree_on(
        boundary_heart(1, Fraction(7, 10), d), iterated_heart(2, d), corpus
    ) is None


def test_boundary_heart_level_zero_moves_low_phases():
    from stabtorus.sheaves import make_torsion_free, object_shift, sheaf_at

    d = 4
    h = boundary_heart(0, Fraction(3, 10), d)
    # a declared ideal-type sheaf of phase arctan(1/4)/pi < 3/10 leaves the
    # heart and reappears shifted
    F = sheaf_at(0, make_torsion_free(1, 4, hn=[(KClass(1, -4), True)]))
    assert iterated_heart(0, d).contains(F)
    assert not h.contains(F)
    assert h.contains(object_shift(F, 1))


def test_level_zero_cut_needs_declared_steps():
    h = boundary_heart(0, Fraction(3, 10), 4)
    with pytest.raises(MissingHNData):
        h.cohomology(sheaf_at(0, make_torsion_free(1, 1)))


def test_boundary_heart_agrees_with_its_target_cold_and_warm():
    # a first and a repeated call at each side of 1/2 build the same heart,
    # the standard heart of the wall's target
    d = 4
    corpus = list(enumerate_objects(2, range(-(d - 1), 1), d))
    sides = {
        "trivial": [Fraction(1, 5), Fraction(3, 10), Fraction(2, 5), Fraction(9, 20)],
        "standard": [Fraction(11, 20), Fraction(3, 5), Fraction(7, 10), Fraction(4, 5)],
    }
    checked = 0
    for p in range(d):
        for gammas in sides.values():
            gammas = [g for g in gammas if boundary_at(p, g, d).is_wall]
            for gamma in gammas[:2] + gammas[:1]:
                q = boundary_at(p, gamma, d).target.p
                h = boundary_heart(p, gamma, d)
                seen = [h.contains(E) for E in corpus]
                assert seen == [heart_membership(E, q, d) for E in corpus], (p, gamma)
                checked += 1
    assert checked == 3 * (2 * d - 2)


def test_warm_boundary_heart_names_its_own_gamma():
    names = [boundary_heart(1, g, 4).pair.name for g in ("7/10", "4/5", "0.65", "7/10")]
    assert names == ["phase-cut-1-at-7/10", "phase-cut-1-at-4/5", "phase-cut-1-at-0.65",
                     "phase-cut-1-at-7/10"]
    # the cuts above 1/2 sort the members of heart 1 alike
    corpus = list(enumerate_objects(2, range(-3, 1), 4))
    h1, h2 = boundary_heart(1, "7/10", 4), boundary_heart(1, "0.65", 4)
    assert hearts_agree_on(h1, h2, corpus) is None


def test_level_zero_low_cut_is_never_stored():
    # the p = 0 cut below 1/2 splits at gamma itself: the ideal-type sheaf of
    # phase arctan(1/3)/pi, about 0.1024, is in the heart cut at 1/10 and not
    # in the one cut at 2/5, whatever was built before
    F = sheaf_at(0, make_torsion_free(1, 3, hn=[(KClass(1, -3), True)]))
    inside = {Fraction(1, 10): True, Fraction(2, 5): False}
    for gamma in (Fraction(1, 10), Fraction(2, 5), Fraction(1, 10)):
        assert boundary_heart(0, gamma, 4).contains(F) is inside[gamma]


def test_warm_memo_still_rejects_bad_gammas():
    d = 4
    for p in range(d):
        boundary_heart(p, Fraction(7, 10), d)
        if p:
            boundary_heart(p, Fraction(3, 10), d)
    # 1/4 and its float are stable phases of Std(0); the rest leave (0, 1),
    # sit on 1/2 or name no heart
    for p, gamma in [(0, Fraction(1, 4)), (0, 0.25), (1, 1), (2, Fraction(3, 2)),
                     (1, Fraction(1, 2)), (3, 0), (4, Fraction(7, 10))]:
        with pytest.raises(DomainError):
            boundary_heart(p, gamma, d)


@pytest.mark.parametrize("d", range(3, 7))
def test_boundary_pairs_pass_the_tilt_check(d):
    # boundary_heart tilts without a check at run time; here every phase-cut
    # pair of every heart passes hrs_tilt on the members up to mass 4, on
    # both sides of 1/2
    for p in range(d):
        for gamma in (Fraction(3, 10), Fraction(7, 10)):
            heart = hrs_tilt(StandardHeart(p, d), phase_cut_pair(p, gamma, d), max_check_mass=4)
            assert heart.pair.name == f"phase-cut-{p}-at-{gamma}"


def test_phase_cut_above_half_rejects_foreign_objects():
    pair = phase_cut_pair(1, Fraction(7, 10), 4)
    E = formal_object([(-1, make_locally_free(1)), (-2, make_locally_free(1))])
    with pytest.raises(NotInHeart):
        pair.decompose(E)


# --------------------------------------------------------------- twist escape


def test_twist_escape_worked_example():
    # ideal sheaf class against the degree-zero twist at record phase 2/5
    n = twist_escape(KClass(1, -1), KClass(1, 0), Fraction(2, 5), std_charge(0))
    assert n == 3


def test_twist_escape_torsion_twist():
    n = twist_escape(KClass(1, -1), KClass(0, 1), Fraction(9, 10), std_charge(0))
    assert n == 5


def test_twist_escape_errors():
    with pytest.raises(NeverEscapes):
        # the twist phase 1/2 sits below the record phase
        twist_escape(KClass(1, -1), KClass(1, 0), Fraction(3, 5), std_charge(0))
    with pytest.raises(ZeroCharge):
        twist_escape(KClass(0, 0), KClass(1, 0), Fraction(2, 5), std_charge(0))


def test_twist_escape_refusal_claims_only_the_twist_phase():
    # the twist phase 1/2 lies below the record 3/5, so there is no escape;
    # yet iterate 1, of charge -1 + i, lies at phase 3/4, above the record,
    # so the refusal may not say that no iterate crosses it
    ideal, twist, gm, Z = KClass(0, 1), KClass(1, 0), Fraction(3, 5), std_charge(0)
    assert charge_eval(Z, ideal + twist) == (-1, 1)
    assert phase_mod1(-1, 1) == Fraction(3, 4) > gm
    with pytest.raises(NeverEscapes) as info:
        twist_escape(ideal, twist, gm, Z)
    assert str(info.value) == "the twisting class sits at or below the record phase"


def test_twist_escape_places_a_crossing_finer_than_the_float_phases():
    # near n = 5.7e62 neighbouring iterates differ in phase by 1.7e-64, far
    # below an ulp of 9/10. Iterate n has charge (6n - 15, -Y), Y = 1102288 *
    # 10**57, and lies above 9/10 exactly when 6n - 15 > Y * cot(pi/10), where
    # cot(pi/10) = sqrt(5 + 2 sqrt(5)); a 120-digit bound puts the first
    # crossing at n
    Z = CentralCharge(-3, -3, 0, -551144 * 10**57)
    n = twist_escape(KClass(2, -3), KClass(0, 2), Fraction(9, 10), Z)
    assert n == 565415605137639287102066743079762209347449948732664356469356247
    with localcontext() as ctx:
        ctx.prec = 120
        root = (15 + 1102288 * 10**57 * (5 + 2 * Decimal(5).sqrt()).sqrt()) / 6
    assert n - 1 < root < n


def test_gamma_pm_brackets_a_float_gamma_once(monkeypatch):
    calls = []
    bracket = PhaseSeries.bracket

    def counted(self, gamma):
        calls.append(gamma)
        return bracket(self, gamma)

    monkeypatch.setattr(PhaseSeries, "bracket", counted)
    gamma_pm(spectrum_of(StdLabel(0), 4), 0.1)
    assert calls == [0.1]


def test_twist_escape_crosses_a_record_a_hair_below_one_half():
    # the twist phase 1/2 lies above the record 1/2 - eps, eps = 10**-30, so
    # the iterates 1 + (n + 1)i cross it, once (n + 1) * tan(pi*eps) > 1, near
    # n = 3.2e29, where the float phases cannot tell them apart. With pi to 50
    # digits, pi*eps < tan(pi*eps) < pi*eps * (1 + (pi*eps)**2) places n
    eps = Fraction(1, 10**30)
    n = twist_escape(KClass(1, -1), KClass(1, 0), Fraction(1, 2) - eps, std_charge(0))
    assert n == 318309886183790671537767526745
    pi_lo = Fraction("3.14159265358979323846264338327950288419716939937510")
    pi_hi = pi_lo + Fraction(1, 10**50)
    assert n * pi_hi * eps * (1 + (pi_hi * eps) ** 2) < 1 < (n + 1) * pi_lo * eps


def test_twist_escape_decides_a_twist_just_above_a_rational_record():
    # the twist charge (-11, 2 * 10**18 - 1/3) lies above phase 1/2 by about
    # 1.7e-18, which a float phase rounds onto 1/2. Iterate n has charge
    # (31 - 11n, y) with y > 0, above 1/2 exactly when 31 - 11n < 0
    Z = CentralCharge(5, 7, Fraction(1, 15), 10**18)
    assert twist_escape(KClass(3, -2), KClass(2, 5), Fraction(1, 2), Z) == 3


def test_twist_escape_counts_an_iterate_at_phase_one_half():
    # iterate 1 has class (1, 0) and charge i, at phase exactly 1/2, above
    # the record 1/2 - 10**-20
    gm = Fraction(1, 2) - Fraction(1, 10**20)
    assert twist_escape(KClass(0, -1), KClass(1, 1), gm, std_charge(0)) == 1


def test_twist_escape_reads_a_tiny_upper_phase_at_the_bottom_of_the_window():
    # the twist charge lies just above the positive real axis, with a phase
    # near 1e-390 that atan2 rounds to 0.0; it sits below the record phase
    Z = CentralCharge(-9.093807656517069e+234, 2.189350706356498, 0.0, 3.266917555911708e-155)
    with pytest.raises(NeverEscapes):
        twist_escape(KClass(1, -1), KClass(1, 1), Fraction(1, 5), Z)


def test_twist_escape_reads_a_twist_phase_just_above_zero():
    # the twist charge (-10**20, -1) has phase about 3.2e-21 in (0, 1],
    # above the record 10**-30, and the first iterate already crosses it
    gm = Fraction(1, 10**30)
    assert twist_escape(KClass(0, -1), KClass(-1, 10**20), gm, std_charge(0)) == 1
    # a twist phase of about 3.2e-41 sits below the record: no escape
    with pytest.raises(NeverEscapes):
        twist_escape(KClass(0, -1), KClass(-1, 10**40), gm, std_charge(0))


def test_twist_escape_minimality():
    Z = std_charge(0)
    I, E, gm = KClass(1, -1), KClass(1, 0), Fraction(2, 5)
    n = twist_escape(I, E, gm, Z)
    for k in range(1, n):
        re, im = charge_eval(Z, I + E.scaled(k))
        assert float(phase_mod1(re, im)) <= float(gm)
    re, im = charge_eval(Z, I + E.scaled(n))
    assert float(phase_mod1(re, im)) > float(gm)


def _iterate_phase(ideal, twist, n, Z):
    re, im = charge_eval(Z, ideal + twist.scaled(n))
    return None if (re, im) == (0, 0) else float(phase_mod1(re, im))


def _scan(ideal, twist, gm, Z, limit):
    """Linear-scan oracle: the first n <= limit whose nonzero iterate has
    phase above gm, else None."""
    for n in range(1, limit + 1):
        phase = _iterate_phase(ideal, twist, n, Z)
        if phase is not None and phase > float(gm):
            return n
    return None


SCAN_LIMIT = 2000
classes = st.builds(KClass, st.integers(-6, 6), st.integers(-6, 6))
entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# frames whose integer numerators share a denominator greater than 1
over_a_denominator = st.builds(
    lambda nums, den: CentralCharge(*(Fraction(n, den) for n in nums)),
    st.tuples(*[st.integers(-60, 60)] * 4),
    st.integers(2, 36),
).filter(lambda Z: Z.frame().den > 1)
charges = st.one_of(st.builds(CentralCharge, entries, entries, entries, entries),
                    over_a_denominator)


@settings(max_examples=300, deadline=None)
@given(classes, classes, charges, st.integers(-50, 1050), st.integers(0, 3))
# the integer root: Z(ideal) + n Z(twist) = (-1, n - 2) meets the real axis at
# n0 = 2, at phase 1
@example(KClass(-2, 1), KClass(1, 0), CentralCharge(1, 0, 0, 1), 400, 0)
def test_twist_escape_matches_the_linear_scan(ideal, twist, Z, g, near):
    zi, ze = charge_eval(Z, ideal), charge_eval(Z, twist)
    assume(zi != (0, 0) and ze != (0, 0))
    limit = float(phase_mod1(*ze))
    # near > 0 puts the record just below the twist phase, so crossings come late
    gm = Fraction(g, 1000) if near == 0 else Fraction(limit - 10.0 ** -near)
    if not limit > float(gm):
        with pytest.raises(NeverEscapes):
            twist_escape(ideal, twist, gm, Z)
        return
    want = _scan(ideal, twist, gm, Z, SCAN_LIMIT)
    try:
        got = twist_escape(ideal, twist, gm, Z)
    except NeverEscapes:
        # proven only for a real twist charge approached from the side
        # where the folded phase falls to 0
        assert want is None and ze[1] == 0 and zi[1] * ze[0] > 0
        return
    if want is not None:
        assert got == want
    else:
        assert got > SCAN_LIMIT
        assert _iterate_phase(ideal, twist, got, Z) > float(gm)
        assert _iterate_phase(ideal, twist, got - 1, Z) <= float(gm)


@pytest.mark.parametrize(
    "ideal, twist, Z",
    [
        (KClass(-1, 1), KClass(1, -1), std_charge(0)),
        (KClass(0, 1), KClass(0, -1), CentralCharge(1, 0, 0, 0)),  # every iterate real
    ],
)
def test_twist_escape_skips_the_zero_iterate(ideal, twist, Z):
    assert twist_escape(ideal, twist, Fraction(1, 5), Z) == 2


@pytest.mark.parametrize("k", [5, 10 ** 17 + 3])
@pytest.mark.parametrize("side", [1, -1])
def test_twist_escape_splits_at_an_exact_near_integer_n0(k, side):
    # n0 = -im(zi)/im(ze) = k + side/10**31 is not an integer. The iterates
    # (-1 - n, n - n0) lie below the real axis, at folded phases under 1/2,
    # until n passes n0, and then just above it, at phases near 1: the answer
    # is the first integer above n0. A float n0 rounds onto an integer, and at
    # 10**17 + 3 onto 10**17, which splits the runs in the wrong place.
    n0 = k + Fraction(side, 10 ** 31)
    Z = CentralCharge(0, -1, -(n0 + 1), 1)
    assert Z.frame().den == 10 ** 31
    n = twist_escape(KClass(1, -1), KClass(1, 0), Fraction(3, 5), Z)
    assert n == (k + 1 if side > 0 else k)
    assert _iterate_phase(KClass(1, -1), KClass(1, 0), n - 1, Z) < 0.5
    assert _iterate_phase(KClass(1, -1), KClass(1, 0), n, Z) > 0.6


def test_twist_escape_far_crossing_is_found_fast():
    ideal, twist, gm, Z = KClass(1, -1), KClass(1, 0), Fraction(4999999, 10 ** 7), std_charge(0)
    start = time.perf_counter()
    n = twist_escape(ideal, twist, gm, Z)
    assert time.perf_counter() - start < 1
    assert n == 3183098
    assert _iterate_phase(ideal, twist, n - 1, Z) <= float(gm) < _iterate_phase(ideal, twist, n, Z)


def test_twist_escape_proves_the_wrong_side():
    # the twist charge is the positive real 1; the iterates (n, 1) have
    # phases atan(1/n)/pi falling to 0, all below 3/10
    with pytest.raises(NeverEscapes):
        twist_escape(KClass(1, 0), KClass(0, -1), Fraction(3, 10), std_charge(0))


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), Fraction(10**400), Fraction(-(10**400))]
)
def test_twist_escape_rejects_non_finite_input(bad):
    if isinstance(bad, float):
        with pytest.raises(DomainError):
            twist_escape(KClass(1, -1), KClass(1, 0), bad, std_charge(0))
        with pytest.raises(DomainError):
            twist_escape(KClass(1, -1), KClass(1, 0), Fraction(2, 5), CentralCharge(1, 0, bad, 1))
    else:
        # an exact record past the float range is finite: no phase in (0, 1]
        # lies above 10**400, and every phase lies above -10**400
        if bad > 0:
            with pytest.raises(NeverEscapes):
                twist_escape(KClass(1, -1), KClass(1, 0), bad, std_charge(0))
        else:
            assert twist_escape(KClass(1, -1), KClass(1, 0), bad, std_charge(0)) == 1
        # an exact entry past the float range is finite: the first iterate's
        # charge lies past the float range too, with phase near 1/2
        Z = CentralCharge(1, 0, bad, 1)
        assert twist_escape(KClass(1, -1), KClass(1, 0), Fraction(2, 5), Z) == 1


def test_twist_escape_beyond_the_float_range_answers_exactly():
    # the first iterate has charge (1, 10**400 + 1), beyond any float, whose
    # phase lies just below 1/2 and so above the record 1/4
    assert twist_escape(KClass(10 ** 400, -1), KClass(1, 0), Fraction(1, 4), std_charge(0)) == 1


@pytest.mark.parametrize("p", [-1, 4, 9])
def test_phase_cut_pair_rejects_indices_outside_the_hearts(p):
    with pytest.raises(DomainError):
        phase_cut_pair(p, Fraction(7, 10), 4)


# --------------------------------------------------------------- the complex


def test_orbit_complex_is_a_path():
    d = 4
    cx = orbit_complex(d)
    cells = [n for n in cx.nodes if n.kind == "cell"]
    walls = [n for n in cx.nodes if n.kind == "wall"]
    assert [n.name for n in cells] == ["std-0", "std-1", "std-2", "std-3"]
    assert [n.name for n in walls] == ["wall-1", "wall-2", "wall-3"]
    assert all(n.homotopy == "contractible" for n in cells)
    assert all(n.homotopy == "circle" for n in walls)
    expected = set()
    for k in range(1, d):
        expected.add((f"wall-{k}", f"std-{k - 1}"))
        expected.add((f"wall-{k}", f"std-{k}"))
    assert set(cx.edges) == expected


def test_complex_node_lookup():
    cx = orbit_complex(3)
    assert cx.node("wall-2").homotopy == "circle"
    with pytest.raises(DomainError):
        cx.node("wall-9")


def test_wall_only_complex():
    cx = wall_only_complex()
    assert len(cx.nodes) == 1 and not cx.edges
    assert cx.nodes[0].homotopy == "circle"


def test_remove_node_drops_incident_edges():
    cx = orbit_complex(3)
    smaller = remove_node(cx, "std-1")
    names = {n.name for n in smaller.nodes}
    assert names == {"std-0", "std-2", "wall-1", "wall-2"}
    assert all("std-1" not in e for e in smaller.edges)
    with pytest.raises(DomainError):
        remove_node(cx, "std-7")


# -------------------------------------------------------------- charge fibers


def test_fiber_of_the_standard_charge():
    fams = fiber_types(std_charge(0), 5)
    assert [f.label for f in fams] == [StdLabel(0), StdLabel(2), StdLabel(4)]
    assert all(f.structure == "countable" for f in fams)


@pytest.mark.parametrize("frame", [(1e200, 0, 0, 1e200), (1e200, 1e200, 1e200, 2e200)])
def test_fiber_of_huge_float_charges(frame):
    # the float determinant of the second frame is inf - inf; its exact sign is +
    fams = fiber_types(CentralCharge(*frame), 5)
    assert [f.label for f in fams] == [StdLabel(0), StdLabel(2), StdLabel(4)]
    assert all(f.structure == "countable" for f in fams)


def test_fiber_of_a_boundary_charge():
    fams = fiber_types(CentralCharge(1, 1, 0, 0), 5)
    assert [f.label for f in fams] == [
        DegLabel(1, Fraction(1, 4)),
        DegLabel(3, Fraction(1, 4)),
    ]
    assert all(f.structure == "positive-dimensional" for f in fams)


def test_fiber_of_functional_directions_is_empty():
    # the pure rank functional and the pure degree functional answer to the
    # excluded parameter values 0 and 1/2
    assert fiber_types(CentralCharge(0, 1, 0, 0), 4) == []
    assert fiber_types(CentralCharge(1, 0, 0, 0), 4) == []
    with pytest.raises(ZeroCharge):
        fiber_types(CentralCharge(0, 0, 0, 0), 4)


def test_fiber_reads_the_slope_from_a_row_that_sees_the_skyscraper():
    # the first row (0, 1e-20) has no skyscraper entry, but the exact
    # determinant is -1e-20: the odd standard orbits hit the charge
    fams = fiber_types(CentralCharge(0, 1e-20, 1, 0), 4)
    assert [f.label for f in fams] == [StdLabel(1), StdLabel(3)]
    # with that entry 0 the second row (1, 0) has slope 0: the excluded
    # parameter 1/2, so the fiber is empty
    assert fiber_types(CentralCharge(0, 0, 1, 0), 4) == []


@pytest.mark.parametrize("frame", [(1e-7, 0.0, 0.0, 1e-7), (1e-7, 1e-7, -1e-7, 1e-7)])
def test_fiber_of_a_tiny_float_charge_is_read_at_its_scale(frame):
    # 1e-7 times a charge of positive determinant: no absolute tolerance
    # makes it degenerate, so the even standard orbits hit it
    fams = fiber_types(CentralCharge(*frame), 4)
    assert [f.label for f in fams] == [StdLabel(0), StdLabel(2)]


def test_fiber_and_classify_read_one_label_from_a_float_frame():
    from stabtorus.stability import classify

    Z = CentralCharge(1.0, 1.0, 0.0, 0.0)
    fams = fiber_types(Z, 4)
    assert [f.label for f in fams] == [DegLabel(1, Fraction(1, 4)), DegLabel(3, Fraction(1, 4))]
    assert isinstance(fams[0].label.gamma, Fraction)
    assert classify(Z, 1, 0, 4).label == fams[0].label


def test_boundary_parameter_beyond_the_float_range_is_a_domain_error():
    # the slope 10**400 has no float cotangent; both readers of the labels
    # over the charge refuse it the same way once the phase data names a
    # boundary point of the matching parity
    from stabtorus.errors import NotInU
    from stabtorus.stability import classify

    Z = CentralCharge(Fraction(1, 10**200), 10**200, 0, 0)
    with pytest.raises(DomainError, match="beyond the float range"):
        fiber_types(Z, 4)
    with pytest.raises(DomainError, match="beyond the float range"):
        classify(Z, 1, 0, 4)
    with pytest.raises(NotInU, match="interior phase data"):
        classify(Z, 1, Fraction(1, 2), 4)
    with pytest.raises(NotInU, match="would leave"):
        classify(Z, 1, -1, 4)


def test_fiber_of_a_frame_near_the_rank_functional_follows_its_exact_determinant():
    # near the rank functional, but the exact determinant is positive
    Z = CentralCharge(-600000.0, -40000, Fraction(1, 10**37), -9e33)
    assert [f.label for f in fiber_types(Z, 4)] == [StdLabel(0), StdLabel(2)]


def test_fiber_structures_differ_across_the_determinant_locus():
    nondeg = fiber_types(std_charge(0), 4)
    deg = fiber_types(CentralCharge(1, 1, 0, 0), 4)
    assert {f.structure for f in nondeg} == {"countable"}
    assert {f.structure for f in deg} == {"positive-dimensional"}
    assert all(isinstance(f.label, StdLabel) for f in nondeg)
    assert all(isinstance(f.label, DegLabel) for f in deg)


def test_vacuous_reasons_never_mix_with_walls():
    for d in (3, 5):
        for p in range(d):
            for g in (Fraction(1, 10), Fraction(9, 10)):
                decision = boundary_at(p, g, d)
                if decision.is_wall:
                    assert decision.reason is None
                    assert isinstance(decision.target, DegLabel)
                else:
                    assert decision.reason in (
                        GAMMA_PLUS_VACUOUS,
                        GAMMA_MINUS_VACUOUS,
                        TWIST_ESCAPE,
                    )
