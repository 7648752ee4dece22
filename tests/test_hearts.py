"""Heart membership, decomposition, tilting, and finite-length behavior."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stabtorus.charges import KClass
from stabtorus.errors import DomainError, InvalidTorsionPair, MissingHNData, NotInHeart
from stabtorus.hearts import (
    StandardHeart,
    TiltedHeart,
    TorsionPairSpec,
    canonical_decomposition,
    chain_stabilizes,
    heart_membership,
    hearts_agree_on,
    hrs_tilt,
    iterated_heart,
    split_at_phase,
    standard_pair,
)
from stabtorus.sheaves import (
    ZERO_OBJECT,
    LocallyFree,
    Mixed,
    Torsion,
    TorsionFree,
    class_of,
    enumerate_objects,
    formal_object,
    make_locally_free,
    make_torsion,
    make_torsion_free,
    objects_isomorphic,
    positive_rank_part,
    sheaf_at,
    sheaf_sum,
    skyscraper,
    torsion_part,
)
from stabtorus.walls import phase_cut_pair


def sky_obj(pid="y", length=1, degree=0):
    return formal_object([(degree, make_torsion([(pid, length)]))])


def test_membership_examples():
    d = 5
    assert heart_membership(sky_obj(), 0, d)
    assert heart_membership(sheaf_at(-2, make_locally_free(1)), 2, d)
    # the top cohomology of a heart object must be locally free once p >= 2
    assert not heart_membership(sheaf_at(-2, make_torsion_free(1, 1)), 2, d)
    assert heart_membership(sheaf_at(-1, make_torsion_free(1, 1)), 1, d)


def test_level_zero_is_degree_zero():
    assert heart_membership(sky_obj(degree=0), 0, 4)
    assert not heart_membership(sky_obj(degree=-1), 0, 4)
    assert not heart_membership(
        formal_object([(0, skyscraper()), (-1, make_locally_free(1))]), 0, 4
    )


def test_membership_rejects_extra_degrees():
    E = formal_object(
        [(0, skyscraper()), (-1, make_locally_free(1)), (-2, make_locally_free(1))]
    )
    assert not any(heart_membership(E, p, 5) for p in range(5))


def test_nonsplit_flag_blocks_interior_hearts():
    d = 5
    # span between H^{-p} and H^0 is p + 1; nonsplit needs p + 1 = d
    top = formal_object(
        [(0, skyscraper()), (1 - d, make_locally_free(1))], nonsplit=[(1 - d, 0)]
    )
    assert heart_membership(top, d - 1, d)
    short = formal_object(
        [(0, skyscraper()), (-2, make_locally_free(1))], nonsplit=[(-2, 0)]
    )
    assert not heart_membership(short, 2, d)
    split = formal_object([(0, skyscraper()), (-2, make_locally_free(1))])
    assert heart_membership(split, 2, d)


def test_canonical_decomposition_split_case():
    d = 4
    E = formal_object([(0, skyscraper()), (-1, make_locally_free(1))])
    F_part, T_part = canonical_decomposition(E, 1, d)
    assert T_part == sky_obj()
    assert F_part == sheaf_at(-1, make_locally_free(1))


def test_canonical_decomposition_pure_shift():
    F_part, T_part = canonical_decomposition(sheaf_at(-2, make_locally_free(1)), 2, 5)
    assert F_part == sheaf_at(-2, make_locally_free(1))
    assert T_part.is_zero()


def test_canonical_decomposition_classes_add():
    E = formal_object(
        [(0, make_torsion([("y", 2)])), (-1, make_torsion_free(1, 1))]
    )
    F_part, T_part = canonical_decomposition(E, 1, 4)
    assert class_of(F_part) == KClass(-1, 1)
    assert class_of(T_part) == KClass(0, 2)
    assert class_of(F_part) + class_of(T_part) == class_of(E) == KClass(-1, 3)


def test_canonical_decomposition_needs_membership():
    with pytest.raises(NotInHeart):
        canonical_decomposition(sky_obj(degree=-1), 1, 4)


def test_decomposition_classes_add_on_corpus():
    d = 4
    for E in enumerate_objects(4, range(-2, 1), d):
        for p in (1, 2):
            if not heart_membership(E, p, d):
                continue
            F_part, T_part = canonical_decomposition(E, p, d)
            assert class_of(F_part) + class_of(T_part) == class_of(E)


def test_split_at_phase_hands_whole_objects_back():
    E = formal_object([(0, skyscraper()), (-1, make_torsion_free(1, 2))])
    assert split_at_phase(E, 1, Fraction(3, 10))[0] is E
    assert split_at_phase(E, 1, 1)[1] is E
    above, below = split_at_phase(E, 1, Fraction(3, 4))
    assert above == sheaf_at(0, make_torsion([("y", 1), ("~q", 2)]))
    assert below == sheaf_at(-1, make_locally_free(1))
    # the standard cut at level 0 reads no declared steps
    F = sheaf_at(0, Mixed(skyscraper(), make_torsion_free(1, 1)))
    assert split_at_phase(F, 0, Fraction(3, 4)) == (
        sheaf_at(0, skyscraper()), sheaf_at(0, make_torsion_free(1, 1))
    )


def test_split_at_phase_cuts_declared_steps():
    steps = [(KClass(1, 0), True), (KClass(1, -3), False)]
    E = sheaf_at(0, Mixed(skyscraper(), make_torsion_free(2, 3, hn=steps)))
    above, below = split_at_phase(E, 0, Fraction(3, 10))
    # phases 1 (torsion), 1/2 and arctan(1/3)/pi < 3/10
    assert above == sheaf_at(0, Mixed(skyscraper(), make_locally_free(1)))
    assert below == sheaf_at(0, make_torsion_free(1, 3, hn=steps[1:]))
    assert class_of(above) + class_of(below) == class_of(E)


def test_a_declared_step_is_cut_at_its_exact_phase():
    # the step (1, -3) has phase arccot(3)/pi = 0.10241638234956672582...,
    # above its float and above this cut
    E = sheaf_at(0, make_torsion_free(2, 3, ((KClass(1, 0), True), (KClass(1, -3), False))))
    cut = Fraction(0.10241638234956672) + Fraction(1, 10**30)
    assert split_at_phase(E, 0, cut) == (E, ZERO_OBJECT)
    assert phase_cut_pair(0, cut, 4).in_torsion(E)


def reference_step_phase(rk, n):
    """arccot(n / rk) / pi for positive integers, as a Fraction good to
    about 60 digits: atan by four halvings and the Taylor series, in decimal."""

    def atan(t):
        for _ in range(4):
            t /= 1 + (1 + t * t).sqrt()
        total, term, k = t, t, 1
        while abs(term) > Decimal(10) ** -68:
            term *= -t * t
            total += term / (2 * k + 1)
            k += 1
        return 16 * total

    with localcontext() as ctx:
        ctx.prec = 70
        return Fraction(atan(Decimal(rk) / n) / (4 * atan(Decimal(1))))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 30), st.integers(30, 40), st.booleans())
def test_declared_steps_sit_on_their_exact_side_of_a_cut(rk, n, digits, above):
    # a cut within 1e-30 of a step's phase, below it or above it
    cut = reference_step_phase(rk, n) + (-1 if above else 1) * Fraction(1, 10**digits)
    E = sheaf_at(0, make_torsion_free(rk, n, ((KClass(rk, -n), True),)))
    pair = phase_cut_pair(0, cut, 4)
    assert (pair.in_torsion(E), pair.in_free(E)) == (above, not above)
    assert split_at_phase(E, 0, cut) == ((E, ZERO_OBJECT) if above else (ZERO_OBJECT, E))
    F = sheaf_at(0, make_torsion_free(rk + 1, n, ((KClass(1, 0), True), (KClass(rk, -n), True))))
    assert pair.in_torsion(F) == above and not pair.in_free(F)
    assert (split_at_phase(F, 0, cut)[1] == ZERO_OBJECT) == above


def test_tilt_of_sheaves_is_the_first_heart():
    d = 3
    tilted = hrs_tilt(StandardHeart(0, d), standard_pair(0, d), max_check_mass=3)
    corpus = enumerate_objects(5, range(-1, 1), d)
    assert hearts_agree_on(tilted, iterated_heart(1, d), corpus) is None


def test_tilt_of_first_heart_is_the_second():
    d = 4
    base = iterated_heart(1, d)
    tilted = hrs_tilt(base, standard_pair(1, d), max_check_mass=3)
    corpus = enumerate_objects(4, range(-2, 1), d)
    direct = iterated_heart(2, d)
    assert hearts_agree_on(tilted, direct, corpus) is None


def test_trivial_pair_returns_the_same_heart():
    d = 3
    base = StandardHeart(0, d)
    zero = formal_object([])
    everything = TorsionPairSpec(
        name="trivial",
        in_torsion=lambda E: True,
        in_free=lambda E: E.is_zero(),
        decompose=lambda E: (E, zero),
    )
    tilted = hrs_tilt(base, everything, max_check_mass=3)
    corpus = enumerate_objects(4, range(-1, 1), d)
    assert hearts_agree_on(tilted, base, corpus) is None


def test_invalid_pair_is_rejected_with_witness():
    d = 3
    std = standard_pair(0, d)
    swapped = TorsionPairSpec(
        name="swapped",
        in_torsion=std.in_free,
        in_free=std.in_torsion,
        decompose=lambda E: tuple(reversed(std.decompose(E))),
    )
    with pytest.raises(InvalidTorsionPair) as err:
        hrs_tilt(StandardHeart(0, d), swapped, max_check_mass=2)
    assert err.value.witness is not None


def test_sample_members_cache_matches_a_fresh_enumeration():
    d = 4
    for p in range(d):
        heart = StandardHeart(p, d)
        list(heart.sample_members(3))  # a first walk must not change a second one
        sampled = list(StandardHeart(p, d).sample_members(3))
        degrees = (0,) if p == 0 else (-p, 0)
        fresh = [E for E in enumerate_objects(3, degrees, d) if heart_membership(E, p, d)]
        assert sampled == fresh


def test_hrs_tilt_checks_the_pair_on_every_call():
    d = 3
    std = standard_pair(0, d)
    hrs_tilt(StandardHeart(0, d), std, max_check_mass=2)  # a first check passes
    broken = TorsionPairSpec(
        name="broken",
        in_torsion=std.in_torsion,
        in_free=std.in_free,
        decompose=lambda E: (E, formal_object([])),
    )
    with pytest.raises(InvalidTorsionPair) as err:
        hrs_tilt(StandardHeart(0, d), broken, max_check_mass=2)
    assert err.value.witness[2] == "decomposition"


ZERO = formal_object([])
STD0 = standard_pair(0, 3)
SKY_X0 = sheaf_at(0, skyscraper("x0"))


@pytest.mark.parametrize(
    "in_torsion, in_free, decompose, message, kind",
    [
        (lambda E: True, lambda E: True, STD0.decompose,
         "object in both classes", "identity morphism"),
        (STD0.in_torsion, STD0.in_free, lambda E: (E, ZERO),
         "torsion part of", "decomposition"),
        (STD0.in_torsion, STD0.in_free, lambda E: (ZERO, E),
         "free part of", "decomposition"),
        (lambda E: True, lambda E: E.is_zero(), lambda E: (ZERO, ZERO),
         "does not add up in K", "class bookkeeping"),
        (STD0.in_free, STD0.in_torsion, lambda E: tuple(reversed(STD0.decompose(E))),
         "nonzero morphism from torsion class to free class", "nonzero morphism"),
        (lambda E: E.is_zero() or E == SKY_X0, lambda E: E != SKY_X0,
         lambda E: (E, ZERO) if E == SKY_X0 else (ZERO, E),
         "nonzero morphism from torsion class to free class", "nonzero morphism"),
    ],
    ids=["both-classes", "torsion-part", "free-part", "k-class", "morphism", "shared-point"],
)
def test_broken_pair_witness(in_torsion, in_free, decompose, message, kind):
    pair = TorsionPairSpec("broken", in_torsion, in_free, decompose)
    with pytest.raises(InvalidTorsionPair) as err:
        hrs_tilt(StandardHeart(0, 3), pair, max_check_mass=2)
    text = str(err.value)
    assert text.startswith("pair 'broken': ") and message in text
    first, second, what = err.value.witness
    assert what == kind
    assert str(first) in text
    if kind == "identity morphism":
        assert second == first
    elif kind == "decomposition":
        assert second == first  # the part that landed in the wrong class
    elif kind == "class bookkeeping":
        assert second == (ZERO, ZERO) and not first.is_zero()
    else:
        assert str(second) in text


SKY_Y = sheaf_at(0, skyscraper("y"))


class _OwnHeart:
    """A caller's own heart on the 3-torus: the members it is given, in order."""

    d = 3
    level = 0

    def __init__(self, *members):
        self.members = members

    def sample_members(self, max_mass):
        return iter(self.members)


def _pair_of_chosen_atoms(chosen, needs_data=lambda E: False):
    """Torsion class: zero and the objects in ``chosen``; free class: zero and
    every other object. Objects with ``needs_data`` raise MissingHNData."""

    def chosen_member(E):
        if needs_data(E):
            raise MissingHNData("no data for this object")
        return E in chosen

    return TorsionPairSpec(
        "broken",
        lambda E: E.is_zero() or chosen_member(E),
        lambda E: E.is_zero() or not chosen_member(E),
        lambda E: (E, ZERO) if chosen_member(E) else (ZERO, E),
    )


@pytest.mark.parametrize(
    "heart, chosen, needs_data, witness",
    [
        # a torsion-free sheaf maps into its hull, after two same-kind pairs
        (lambda: StandardHeart(1, 3),
         (sheaf_at(-1, make_locally_free(1)), sheaf_at(-1, make_torsion_free(2, 1))),
         lambda E: False,
         (sheaf_at(-1, make_torsion_free(2, 1)), sheaf_at(-1, make_locally_free(2)))),
        # two mixed sheaves through a shared point; pure torsion is skipped
        (lambda: StandardHeart(0, 3),
         (sheaf_at(0, Mixed(skyscraper("x0"), make_locally_free(1))),),
         lambda E: isinstance(E.component(0), Torsion),
         (sheaf_at(0, Mixed(skyscraper("x0"), make_locally_free(1))),
          sheaf_at(0, Mixed(skyscraper("x0"), make_torsion_free(1, 1))))),
        # Hom(O_x, L[3]) is dual to Hom(L, O_x) on the 3-torus
        (lambda: hrs_tilt(iterated_heart(2, 3), standard_pair(2, 3)),
         (SKY_X0,),
         lambda E: False,
         (SKY_X0, sheaf_at(-3, make_locally_free(1)))),
        # skyscrapers at two named points are isomorphic; only a caller's own
        # heart lists both, the standard ones enumerate one per class
        (lambda: _OwnHeart(SKY_X0, SKY_Y),
         (SKY_X0,),
         lambda E: False,
         (SKY_X0, SKY_Y)),
    ],
    ids=["hull-inclusion", "mixed-shared-point", "serre-duality", "two-named-skyscrapers"],
)
def test_certain_morphisms_reject_a_pair(heart, chosen, needs_data, witness):
    with pytest.raises(InvalidTorsionPair) as err:
        hrs_tilt(heart(), _pair_of_chosen_atoms(chosen, needs_data), max_check_mass=3)
    assert err.value.witness == (*witness, "nonzero morphism")
    assert "nonzero morphism from torsion class to free class" in str(err.value)


def test_pairs_may_separate_sheaves_whose_declared_steps_differ():
    # same rank and colength, different HN filtrations: not isomorphic, so
    # the model certifies no morphism from one to the other
    steps_a = [(KClass(1, 0), True), (KClass(1, -3), True)]
    steps_b = [(KClass(1, -1), True), (KClass(1, -2), True)]
    A = sheaf_at(0, make_torsion_free(2, 3, hn=steps_a))
    B = sheaf_at(0, make_torsion_free(2, 3, hn=steps_b))
    assert class_of(A) == class_of(B) == KClass(2, -3)
    assert not objects_isomorphic(A, B)
    pair = _pair_of_chosen_atoms((A,))
    tilted = hrs_tilt(_OwnHeart(A, B), pair, max_check_mass=3)
    assert tilted.pair is pair


def _declared(*steps):
    """The degree-0 torsion-free sheaf with these declared (rank, chd) steps."""
    classes = [KClass(*step) for step in steps]
    cls = sum(classes, KClass(0, 0))
    return sheaf_at(0, make_torsion_free(cls.rk, -cls.chd, hn=[(c, True) for c in classes]))


@pytest.mark.parametrize("gamma", [Fraction(1, 20), Fraction(1, 5), Fraction(3, 10)])
def test_level_zero_cuts_pass_the_tilt_check_on_declared_filtrations(gamma):
    # the enumerated members carry no declared steps, so hrs_tilt sees the
    # split of the p = 0 cut below 1/2 only on a caller's members: the steps
    # of phase 1/2, 1/4 and arctan(1/3)/pi fall on both sides of 1/5 and 3/10
    F3 = _declared((1, 0), (1, -1), (1, -3))
    members = (F3, _declared((1, 0), (1, -3)), _declared((1, -1), (1, -2)),
               sheaf_at(0, make_locally_free(2)), SKY_Y)
    pair = phase_cut_pair(0, gamma, 3)
    assert hrs_tilt(_OwnHeart(*members), pair, max_check_mass=3).pair is pair
    # the cut keeps the steps of phase above gamma on top, the rest below
    above, below = pair.decompose(F3)
    for part, keep in ((above, True), (below, False)):
        classes = [c for c, _ in F3.component(0).hn
                   if (math.atan2(c.rk, -c.chd) / math.pi > gamma) == keep]
        assert class_of(part) == sum(classes, KClass(0, 0))


def _shape_predicates(level):
    """The standard pair on heart ``level`` by atom kinds: degree-0 torsion
    against one shifted locally free atom, or torsion-free at level 0."""
    free_kind = LocallyFree if level else (LocallyFree, TorsionFree)

    def in_torsion(E):
        return E.is_zero() or (E.degrees() == (0,) and isinstance(E.component(0), Torsion))

    def in_free(E):
        return E.is_zero() or (
            E.degrees() == (-level,) and isinstance(E.component(-level), free_kind)
        )

    return in_torsion, in_free


def _hand_split(E, level):
    """(torsion part, free part) of a member of the standard heart ``level``:
    the torsion with the hull defect at "~q", against the hull."""
    if level == 0:
        S = E.component(0)
        t, F = torsion_part(S), positive_rank_part(S)
    else:
        t, F = E.component(0), E.component(-level)
        if isinstance(F, TorsionFree):
            t = sheaf_sum(t, make_torsion([("~q", F.colength)]))
            F = make_locally_free(F.rank)
    return (
        formal_object([] if t is None else [(0, t)]),
        formal_object([] if F is None else [(-level, F)]),
    )


@pytest.mark.parametrize("d", [3, 4, 5])
def test_every_pair_is_the_cut_its_reference_describes(d):
    for p in range(d):
        in_torsion, in_free = _shape_predicates(p)
        standard = (in_torsion, in_free, lambda E: _hand_split(E, p))
        trivial = (lambda E: True, lambda E: E.is_zero(), lambda E: (E, ZERO))
        cases = [
            (standard_pair(p, d), standard),
            (phase_cut_pair(p, Fraction(7, 10), d), standard),
            (phase_cut_pair(p, 0.65, d), standard),
        ]
        if p >= 1:
            cases.append((phase_cut_pair(p, Fraction(3, 10), d), trivial))
        members = list(StandardHeart(p, d).sample_members(4))
        assert members
        for pair, (ref_torsion, ref_free, ref_split) in cases:
            for E in members:
                assert pair.in_torsion(E) == ref_torsion(E), (pair.name, E)
                assert pair.in_free(E) == ref_free(E), (pair.name, E)
                assert pair.decompose(E) == ref_split(E), (pair.name, E)


@pytest.mark.parametrize("level", [-1, 4, 9])
def test_standard_pair_rejects_levels_outside_the_hearts(level):
    with pytest.raises(DomainError):
        standard_pair(level, 4)


def test_iterated_heart_level_zero():
    h = iterated_heart(0, 4)
    assert h.level == 0
    assert h.contains(sky_obj())
    assert not h.contains(sky_obj(degree=-1))


def test_iterated_heart_matches_direct_membership():
    d = 5
    hearts = [iterated_heart(p, d) for p in range(d)]
    for E in enumerate_objects(3, range(-(d - 1), 1), d):
        for p, h in enumerate(hearts):
            assert h.contains(E) == heart_membership(E, p, d)


def test_iterated_heart_validates_index():
    with pytest.raises(DomainError):
        iterated_heart(4, 4)
    with pytest.raises(DomainError):
        iterated_heart(-1, 4)


def test_members_have_base_cohomology_in_the_tilt_window():
    d = 4
    h2 = iterated_heart(2, d)
    for E in enumerate_objects(3, range(-2, 1), d):
        if h2.contains(E):
            # tilted membership forces base cohomology into degrees {-1, 0}
            assert set(h2.base.cohomology(E)) <= {-1, 0}
            # and the member's own cohomology concentrates in degree 0
            assert set(h2.cohomology(E)) <= {0}


def test_chain_stabilizes_constant():
    E = sky_obj()
    assert chain_stabilizes([E, E], 1, 4) == 0


def test_chain_stabilizes_quotient_chain():
    two = formal_object([(0, make_torsion([("y", 1), ("z", 1)]))])
    one = sky_obj()
    assert chain_stabilizes([two, one, one], 1, 4) == 1


def test_chain_stabilizes_ignores_point_names():
    a = sky_obj("y")
    b = sky_obj("z")
    assert objects_isomorphic(a, b)
    assert chain_stabilizes([a, b], 1, 3) == 0


def test_chain_must_stay_in_the_heart():
    with pytest.raises(NotInHeart):
        chain_stabilizes([sky_obj(degree=-1)], 1, 4)


def test_chain_must_stabilize_before_running_out():
    two = formal_object([(0, make_torsion([("y", 2)]))])
    one = sky_obj()
    with pytest.raises(DomainError):
        chain_stabilizes([two, one], 1, 4)


def test_hearts_agree_on_reports_the_witness():
    d = 3
    h0, h1 = iterated_heart(0, d), iterated_heart(1, d)
    witness = hearts_agree_on(h0, h1, enumerate_objects(2, range(-1, 1), d))
    assert witness is not None
    assert h0.contains(witness) != h1.contains(witness)
