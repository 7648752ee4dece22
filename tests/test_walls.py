"""Boundary analysis: gamma bounds, wall decisions, boundary hearts,
twist escape, the orbit complex, and charge fibers."""

from fractions import Fraction

import pytest

from stabtorus.charges import CentralCharge, KClass, std_charge
from stabtorus.errors import (
    DomainError,
    MissingHNData,
    NeverEscapes,
    NotInHeart,
    OnSpectrum,
    ZeroCharge,
)
from stabtorus.sheaves import (
    enumerate_objects,
    formal_object,
    make_locally_free,
    make_torsion_free,
    sheaf_at,
)
from stabtorus.hearts import hearts_agree_on, iterated_heart
from stabtorus.stability import DegLabel, StdLabel, spectrum_of
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
    with pytest.raises(DomainError):
        gamma_pm(descriptor, 1)
    with pytest.raises(DomainError):
        gamma_pm(descriptor, 0)


def test_on_spectrum_depends_on_the_label():
    assert on_spectrum(StdLabel(0), Fraction(1, 4), 5)
    assert not on_spectrum(StdLabel(1), Fraction(1, 4), 5)
    assert on_spectrum(StdLabel(1), Fraction(1, 2), 5)


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


def test_boundary_rejects_gamma_on_the_spectrum():
    with pytest.raises(DomainError):
        boundary_at(1, Fraction(1, 2), 5)
    with pytest.raises((DomainError, OnSpectrum)):
        boundary_at(0, Fraction(1, 4), 5)
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


def test_twist_escape_minimality():
    from stabtorus.charges import charge_eval
    from stabtorus.exactnum import phase_mod1

    Z = std_charge(0)
    I, E, gm = KClass(1, -1), KClass(1, 0), Fraction(2, 5)
    n = twist_escape(I, E, gm, Z)
    for k in range(1, n):
        re, im = charge_eval(Z, I + E.scaled(k))
        assert float(phase_mod1(re, im)) <= float(gm)
    re, im = charge_eval(Z, I + E.scaled(n))
    assert float(phase_mod1(re, im)) > float(gm)


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
