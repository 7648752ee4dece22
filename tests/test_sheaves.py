"""The formal sheaf and object model: constructors, classes, enumeration."""

import pytest

from stabtorus.charges import KClass
from stabtorus.errors import DomainError, InconsistentMorphism
from stabtorus.sheaves import (
    FormalObject,
    LocallyFree,
    Mixed,
    Torsion,
    TorsionFree,
    class_of,
    enumerate_objects,
    enumerate_sheaves,
    formal_object,
    hull_defect_length,
    hull_rank,
    identity_torsion_morphism,
    make_locally_free,
    make_mixed,
    make_torsion,
    make_torsion_free,
    object_is_legal,
    object_mass,
    object_shift,
    object_sum,
    objects_isomorphic,
    sheaf_at,
    sheaf_class,
    sheaf_mass,
    sheaf_sum,
    skyscraper,
    torsion_kernel_cokernel,
    torsion_part,
    positive_rank_part,
    zero_torsion_morphism,
)


def test_torsion_sheaf_class_and_mass():
    t = make_torsion([("y", 2), ("z", 1)])
    assert sheaf_class(t) == KClass(0, 3)
    assert sheaf_mass(t) == 3
    assert t.total_length() == 3


def test_torsion_needs_positive_lengths():
    with pytest.raises(DomainError):
        make_torsion([("y", 0)])
    with pytest.raises(DomainError):
        make_torsion([])


def test_locally_free_class():
    assert sheaf_class(make_locally_free(2)) == KClass(2, 0)
    with pytest.raises(DomainError):
        make_locally_free(0)


def test_torsion_free_class_is_rank_minus_colength():
    F = make_torsion_free(2, 3)
    assert isinstance(F, TorsionFree)
    assert sheaf_class(F) == KClass(2, -3)
    assert hull_rank(F) == 2
    assert hull_defect_length(F) == 3


def test_zero_colength_collapses_to_the_hull():
    assert make_torsion_free(2, 0) == make_locally_free(2)
    with pytest.raises(DomainError):
        make_torsion_free(2, 0, hn=[(KClass(2, 0), True)])


def test_declared_filtration_needs_decreasing_phases():
    # phases under the level-zero charge: (1, 0) at 1/2, then (1, -3) lower
    ok = make_torsion_free(2, 3, hn=[(KClass(1, 0), True), (KClass(1, -3), True)])
    assert ok.hn == ((KClass(1, 0), True), (KClass(1, -3), True))
    with pytest.raises(DomainError):
        make_torsion_free(2, 3, hn=[(KClass(1, -3), True), (KClass(1, 0), True)])
    with pytest.raises(DomainError):
        # equal phases are not strictly decreasing
        make_torsion_free(2, 2, hn=[(KClass(1, -1), True), (KClass(1, -1), True)])
    with pytest.raises(DomainError):
        # factors must sum to the ambient class
        make_torsion_free(2, 3, hn=[(KClass(1, 0), True), (KClass(1, -2), True)])


@pytest.mark.parametrize(
    "step",
    [
        (KClass(1, -1), "false"),
        (KClass(1, -1), 0),
        (KClass(1, -1), None),
        (KClass(1, -1), []),
        (KClass(1, -1),),
        (KClass(1, -1), True, True),
        KClass(1, -1),
        ((1, -1), True),
        5,
    ],
    ids=["string-flag", "zero-flag", "none-flag", "list-flag", "one-entry", "three-entries",
         "bare-class", "tuple-class", "int"],
)
def test_declared_steps_are_kclass_bool_pairs(step):
    with pytest.raises(DomainError):
        make_torsion_free(1, 1, hn=[step])


def test_declared_filtration_must_be_iterable():
    with pytest.raises(DomainError, match="must be iterable"):
        TorsionFree(1, 1, hn=5)
    with pytest.raises(DomainError, match="must be iterable"):
        make_torsion_free(1, 1, hn=5)
    # any iterable of steps is read once and stored as a tuple
    S = make_torsion_free(1, 1, hn=(step for step in [(KClass(1, -1), True)]))
    assert S.hn == ((KClass(1, -1), True),)


def test_mixed_sheaf():
    m = make_mixed(skyscraper("y", 2), make_locally_free(1))
    assert isinstance(m, Mixed)
    assert sheaf_class(m) == KClass(1, 2)
    assert torsion_part(m) == skyscraper("y", 2)
    assert positive_rank_part(m) == make_locally_free(1)
    # degenerate mixes collapse
    assert make_mixed(None, make_locally_free(1)) == make_locally_free(1)
    assert make_mixed(skyscraper(), None) == skyscraper()


def test_sheaf_sum():
    s = sheaf_sum(skyscraper("y", 1), skyscraper("y", 2))
    assert sheaf_class(s) == KClass(0, 3)
    f = sheaf_sum(make_locally_free(1), make_locally_free(2))
    assert f == make_locally_free(3)
    m = sheaf_sum(skyscraper(), make_torsion_free(1, 1))
    assert sheaf_class(m) == KClass(1, 0)


def test_object_class_is_alternating():
    E = formal_object([(0, skyscraper("y", 2)), (-1, make_locally_free(1))])
    assert class_of(E) == KClass(0, 2) - KClass(1, 0)
    assert object_mass(E) == 3


def test_shift_relabels_and_negates():
    E = formal_object([(0, skyscraper())])
    sE = object_shift(E, 1)
    assert sE.degrees() == (-1,)
    assert class_of(sE) == -class_of(E)
    assert object_shift(sE, -1) == E


def test_object_sum_merges_degreewise():
    E1 = formal_object([(0, skyscraper("y", 1))])
    E2 = formal_object([(0, skyscraper("z", 2)), (-1, make_locally_free(1))])
    s = object_sum(E1, E2)
    assert class_of(s) == class_of(E1) + class_of(E2)
    assert object_mass(s) == 4


def test_isomorphism_ignores_point_labels():
    E1 = formal_object([(0, make_torsion([("y", 2), ("z", 1)]))])
    E2 = formal_object([(0, make_torsion([("a", 1), ("b", 2)]))])
    E3 = formal_object([(0, make_torsion([("a", 1), ("b", 3)]))])
    assert objects_isomorphic(E1, E2)
    assert not objects_isomorphic(E1, E3)


def test_flags_must_join_adjacent_occupied_degrees():
    ok = formal_object(
        [(0, skyscraper()), (-1, make_locally_free(1))], nonsplit=[(-1, 0)]
    )
    assert ok.flag(-1, 0) == "nonsplit"
    with pytest.raises(DomainError):
        formal_object([(0, skyscraper())], nonsplit=[(-1, 0)])
    # a flag is a pair of degrees: no kind tag, no other length
    atoms = [(0, skyscraper()), (-1, make_locally_free(1))]
    for entry in [(-1, 0, "nonsplit"), (-1, 0, "split"), (-1,), 5]:
        with pytest.raises(DomainError):
            formal_object(atoms, nonsplit=[entry])


LINE_UNDER_SKY = ((-1, LocallyFree(1)), (0, Torsion((("y", 1),))))


@pytest.mark.parametrize(
    "graded, nonsplit",
    [
        (((0, Torsion((("y", 1),))), (0, LocallyFree(1))), ()),
        (((True, LocallyFree(1)),), ()),
        (((0.5, LocallyFree(1)),), ()),
        ((("0", LocallyFree(1)),), ()),
        (LINE_UNDER_SKY, ((-1.0, 0),)),
        (LINE_UNDER_SKY, ((-1.9, 0.7),)),
        (LINE_UNDER_SKY, ((-1, False),)),
    ],
    ids=["duplicate-unorderable", "bool", "half", "string", "float-flag",
         "fractional-flag", "bool-flag"],
)
def test_degrees_and_flags_are_integers(graded, nonsplit):
    with pytest.raises(DomainError):
        FormalObject(graded, nonsplit)


def test_legality_of_nonsplit_extensions():
    d = 4
    # torsion over a locally free shift needs the span to be exactly d
    tight = formal_object(
        [(0, skyscraper()), (1 - d, make_locally_free(1))], nonsplit=[(1 - d, 0)]
    )
    assert object_is_legal(tight, d) == (True, None)
    short = formal_object(
        [(0, skyscraper()), (-1, make_locally_free(1))], nonsplit=[(-1, 0)]
    )
    ok, reason = object_is_legal(short, d)
    assert not ok and "span" in reason
    # other kind pairs may be nonsplit at short span
    mixed = formal_object(
        [(0, skyscraper()), (-1, make_torsion_free(1, 1))], nonsplit=[(-1, 0)]
    )
    assert object_is_legal(mixed, d) == (True, None)
    # nothing extends past a window of length d
    wide = formal_object(
        [(0, skyscraper()), (-d, skyscraper("z"))], nonsplit=[(-d, 0)]
    )
    ok, reason = object_is_legal(wide, d)
    assert not ok


def test_torsion_kernel_cokernel_identity_and_zero():
    t3 = make_torsion([("y", 3)])
    assert torsion_kernel_cokernel(identity_torsion_morphism(t3), 0) == (None, None)
    t2, t5 = make_torsion([("y", 2)]), make_torsion([("y", 5)])
    ker, coker = torsion_kernel_cokernel(zero_torsion_morphism(t2, t5), 1)
    assert ker == t2 and coker == t5


def test_torsion_surjection_heart_independent():
    f_src = make_torsion([("y", 5)])
    f_tgt = make_torsion([("y", 2)])
    from stabtorus.sheaves import TorsionMorphism

    f = TorsionMorphism(f_src, f_tgt, (("y", 3, 0),))
    results = {torsion_kernel_cokernel(f, p) for p in range(4)}
    assert results == {(make_torsion([("y", 3)]), None)}


def test_inconsistent_morphisms_are_rejected():
    from stabtorus.sheaves import TorsionMorphism

    t2, t5 = make_torsion([("y", 2)]), make_torsion([("y", 5)])
    with pytest.raises(InconsistentMorphism):
        # 2 - 0 != 5 - 1
        torsion_kernel_cokernel(TorsionMorphism(t2, t5, (("y", 0, 1),)), 0)
    with pytest.raises(InconsistentMorphism):
        torsion_kernel_cokernel(TorsionMorphism(t2, t5, (("y", 3, 6),)), 0)


def test_enumerate_sheaves_is_duplicate_free():
    seen = list(enumerate_sheaves(4))
    assert len(seen) == len(set(seen))
    for S in seen:
        assert 1 <= sheaf_mass(S) <= 4


def test_enumerate_objects_respects_mass_and_window():
    objs = list(enumerate_objects(3, range(-1, 1), 3))
    assert len(objs) == len(set(objs))
    for E in objs:
        assert object_mass(E) <= 3
        assert set(E.degrees()) <= {-1, 0}
        assert object_is_legal(E, 3)[0]


def test_enumeration_includes_flag_variants():
    # at d = 3 the torsion-over-bundle pair across (-2, 0) may be nonsplit
    objs = list(enumerate_objects(2, range(-2, 1), 3))
    flagged = [E for E in objs if E.nonsplit]
    assert flagged
    assert all(object_is_legal(E, 3)[0] for E in flagged)


def test_sheaf_at_wraps_single_atom():
    E = sheaf_at(-2, make_locally_free(1))
    assert E.degrees() == (-2,)
    assert class_of(E) == KClass(1, 0)
