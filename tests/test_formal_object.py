"""The FormalObject constructor against the validator it replaced, kept in
this file as the reference.

The reference rebuilds lists and sets, sorts and builds the adjacency set on
every call. The constructor under test checks input already in normal form in
one pass and sends everything else to a careful path. Both must store the
same ``graded`` and ``nonsplit`` tuples, to the repr, or raise the same
exception class with the same message. They differ on purpose on one input:
the reference reads ``graded`` twice, so a one-shot iterable came out empty.
"""

from dataclasses import dataclass

from hypothesis import example, given, settings, strategies as st

from stabtorus.charges import is_int
from stabtorus.errors import DomainError
from stabtorus.sheaves import (
    FormalObject,
    LocallyFree,
    Mixed,
    Torsion,
    TorsionFree,
    enumerate_objects,
    formal_object,
    skyscraper,
)

_SHEAF_KINDS = (Torsion, LocallyFree, TorsionFree, Mixed)


@dataclass(frozen=True)
class ReferenceObject:
    graded: tuple = ()
    nonsplit: tuple = ()

    def __post_init__(self):
        try:
            degrees = [i for i, _ in self.graded]
        except (TypeError, ValueError):
            raise DomainError(f"graded data is (degree, sheaf) pairs: {self.graded!r}") from None
        for i in degrees:
            if not is_int(i):
                raise DomainError(f"a degree must be an integer, got {i!r}")
        if len(set(degrees)) != len(degrees):
            raise DomainError("duplicate degree in graded data")
        entries = tuple(sorted((i, S) for i, S in self.graded))
        for _, S in entries:
            if not isinstance(S, _SHEAF_KINDS):
                raise DomainError(f"not a sheaf: {S!r}")
        degrees.sort()
        adj = set(zip(degrees, degrees[1:]))
        flags = set()
        for entry in self.nonsplit:
            try:
                i, j = entry
            except (TypeError, ValueError):
                i = j = None
            if not (is_int(i) and is_int(j)):
                raise DomainError(f"a flag is a pair of degrees, got {entry!r}")
            if (i, j) not in adj:
                raise DomainError(f"flag on non-adjacent degrees ({i}, {j})")
            flags.add((i, j))
        object.__setattr__(self, "graded", entries)
        object.__setattr__(self, "nonsplit", tuple(sorted(flags)))


def reference_formal_object(graded, nonsplit=()):
    if isinstance(graded, dict):
        graded = tuple(graded.items())
    return ReferenceObject(tuple(graded), tuple(nonsplit))


class Degree(int):
    """An int subclass: an integer degree outside the one-pass test."""


def outcome(build, *args):
    try:
        E = build(*args)
    except Exception as exc:  # the class and message are what is compared
        return ("raises", type(exc), str(exc))
    return ("builds", repr(E.graded), repr(E.nonsplit), [type(a) for a in E.graded])


SHEAVES = [skyscraper(), skyscraper("z", 2), LocallyFree(1), LocallyFree(2), TorsionFree(1, 1),
           Mixed(skyscraper(), LocallyFree(1))]
# none of these sheaves can be ordered, so a repeated degree must be refused
# before any sort compares two atoms
sheaves = st.sampled_from(SHEAVES)
atoms = st.one_of(sheaves, sheaves, sheaves, st.sampled_from(["x", 3, None, (), LocallyFree]))
int_degrees = st.integers(-4, 4)
degrees = st.one_of(
    int_degrees, int_degrees, int_degrees,
    st.sampled_from([True, False, 1.0, 2.5, "1", None, 10**30, -(10**30)]),
    int_degrees.map(Degree),
)
entries = st.one_of(
    st.tuples(degrees, atoms), st.tuples(degrees, atoms), st.tuples(degrees, atoms),
    st.tuples(degrees, atoms).map(list),
    st.tuples(degrees), st.tuples(degrees, atoms, st.just(0)),
    st.sampled_from([5, "ab", None, "", "abc"]),
)


@st.composite
def graded_data(draw):
    """Mostly input in normal form, then shuffled, repeated or broken."""
    if draw(st.booleans()):
        chosen = draw(st.lists(int_degrees, max_size=5, unique=True))
        pairs = [(i, draw(sheaves)) for i in sorted(chosen)]
        if draw(st.booleans()):
            pairs = draw(st.permutations(pairs))
        if pairs and draw(st.booleans()):
            pairs.insert(draw(st.integers(0, len(pairs))), draw(entries))
    else:
        pairs = draw(st.lists(entries, max_size=5))
    return tuple(pairs) if draw(st.booleans()) else pairs


def flag_data(draw, graded):
    present = sorted({e[0] for e in graded if isinstance(e, (tuple, list)) and len(e) == 2
                      and is_int(e[0])})
    adjacent = list(zip(present, present[1:]))
    flag = st.one_of(
        st.sampled_from(adjacent) if adjacent else st.tuples(int_degrees, int_degrees),
        st.tuples(int_degrees, int_degrees),
        st.tuples(degrees, degrees),
        st.sampled_from([(1,), (0, 1, 2), 5, None, "ab", [0, 1]]),
    )
    flags = draw(st.lists(flag, max_size=4))
    if adjacent and draw(st.booleans()):
        flags = flags + flags[:1]  # a repeated flag
    return tuple(flags) if draw(st.booleans()) else flags


@st.composite
def build_data(draw):
    graded = draw(graded_data())
    nonsplit = flag_data(draw, graded) if draw(st.booleans()) else ()
    return graded, nonsplit


SKY, LINE = skyscraper(), LocallyFree(1)


@settings(max_examples=1500, deadline=None)
@given(build_data())
@example((((True, SKY),), ()))  # a bool degree in otherwise normal form
@example((((0.0, SKY),), ()))
@example((((Degree(1), SKY), (0, LINE)), ()))
@example((((1, SKY), (0, LINE)), ((0, 1),)))  # unsorted atoms
@example((((0, SKY), (0, LINE)), ()))  # a repeated degree whose sheaves cannot be ordered
@example((((0, SKY), (1, "x"), (2, None)), ()))
@example((((0,), (1, SKY)), ()))
@example(([(0, SKY), [1, LINE]], []))
@example((((0, SKY), (1, LINE), (2, SKY)), [(1, 2), [0, 1], (1, 2)]))  # unsorted, repeated
@example((((0, SKY), (2, LINE)), ((0, 1),)))
@example((((0, SKY), (1, LINE)), ((0.0, 1),)))
def test_the_constructor_stores_and_refuses_what_the_reference_does(data):
    graded, nonsplit = data
    assert outcome(FormalObject, graded, nonsplit) == outcome(ReferenceObject, graded, nonsplit)


@settings(max_examples=500, deadline=None)
@given(build_data(), st.booleans())
def test_formal_object_of_a_mapping_matches_the_reference(data, as_dict):
    graded, nonsplit = data
    if as_dict:
        pairs = [e for e in graded if isinstance(e, tuple) and len(e) == 2]
        try:
            graded = dict(pairs)
        except TypeError:  # an unhashable degree cannot key a mapping
            graded = {}
    assert (outcome(formal_object, graded, nonsplit)
            == outcome(reference_formal_object, graded, nonsplit))


def test_the_sweep_corpus_builds_as_the_reference_does():
    # the objects the tilt sweep streams, rebuilt from their stored tuples
    for E in enumerate_objects(3, range(-3, 1), 4):
        R = ReferenceObject(E.graded, E.nonsplit)
        assert (E.graded, E.nonsplit) == (R.graded, R.nonsplit)


def test_a_flag_argument_that_is_not_iterable_fails_as_before():
    graded = ((0, skyscraper()),)
    assert outcome(FormalObject, graded, None) == outcome(ReferenceObject, graded, None)
    assert outcome(FormalObject, graded, None)[1] is TypeError


def test_a_one_shot_iterable_of_atoms_keeps_its_atoms():
    # the reference reads its input twice, so a generator came out empty
    assert ReferenceObject(atom for atom in [(0, SKY)]).graded == ()
    assert FormalObject(atom for atom in [(1, LINE), (0, SKY)]).graded == ((0, SKY), (1, LINE))
