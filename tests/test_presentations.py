"""Van Kampen bookkeeping for the orbit complex."""

import pytest

from stabtorus.errors import Disconnected, DomainError
from stabtorus.presentations import (
    pi1,
    pi1_components,
    tietze_simplify,
)
from stabtorus.walls import (
    ComplexNode,
    OrbitComplex,
    orbit_complex,
    remove_node,
    wall_only_complex,
)


@pytest.mark.parametrize("d", range(3, 8))
def test_pi1_of_the_region_is_trivial(d):
    group = pi1(orbit_complex(d))
    assert group.is_trivial
    assert group.name == "trivial"
    assert len(group.generators) == d - 1
    assert len(group.relations) == d - 1
    assert group.free_rank == 0


def test_pi1_of_a_lone_wall_is_infinite_cyclic():
    group = pi1(wall_only_complex())
    assert group.name == "infinite-cyclic"
    assert group.free_rank == 1
    assert not group.is_trivial


def test_pi1_of_a_lone_cell_is_trivial():
    cx = remove_node(remove_node(orbit_complex(3), "wall-1"), "wall-2")
    with pytest.raises(Disconnected):
        pi1(cx)
    comps = pi1_components(cx)
    assert [g.name for g in comps] == ["trivial", "trivial", "trivial"]


def test_removing_an_end_cell_keeps_one_wall_loop_alive():
    # without std-0, the wall-1 circle only touches one cell: its generator
    # survives with a single filling side gone
    cx = remove_node(orbit_complex(3), "std-0")
    group = pi1(cx)
    assert group.name == "infinite-cyclic"
    assert group.free_rank == 1


def test_removing_the_middle_cell_disconnects():
    cx = remove_node(orbit_complex(3), "std-1")
    with pytest.raises(Disconnected):
        pi1(cx)
    comps = pi1_components(cx)
    assert [g.name for g in comps] == ["infinite-cyclic", "infinite-cyclic"]


def test_pi1_components_of_the_full_complex():
    comps = pi1_components(orbit_complex(4))
    assert len(comps) == 1 and comps[0].is_trivial


def test_pi1_of_the_empty_complex_is_rejected():
    cx = wall_only_complex()
    with pytest.raises(Disconnected):
        pi1(remove_node(cx, cx.nodes[0].name))


def test_tietze_kills_single_generator_relators():
    gens, rels = tietze_simplify(("a", "b", "c"), (("a",), ("b", "c")))
    assert gens == ("b", "c")
    assert rels == (("b", "c"),)
    # cascading: killing b empties the second relation as well
    gens, rels = tietze_simplify(("a", "b"), (("a",), ("a", "b")))
    assert gens == ()
    assert rels == ()


def test_tietze_rejects_unknown_generators():
    with pytest.raises(DomainError):
        tietze_simplify(("a",), (("z",),))


def test_presented_group_reports_its_rank():
    cx = orbit_complex(5)
    g = pi1(cx)
    # all wall loops die against the spanning tree chords
    assert g.free_rank == 0
    survivors, _ = tietze_simplify(g.generators, g.relations)
    assert survivors == ()


def test_pi1_components_names_every_chord():
    # two walls glue the cells a-0 and a-1 into a cycle; b-0 and v-1 form a
    # second component. The tree grows from a-0 over the edges in order, so
    # (w-2, a-1), the one edge joining two reached nodes, is the chord.
    def node(name):
        if name[0] in "vw":
            return ComplexNode(name, "wall", 1, "circle")
        return ComplexNode(name, "cell", 0, "contractible")

    names = ("w-2", "a-1", "v-1", "a-0", "b-0", "w-1")
    edges = (("w-1", "a-0"), ("v-1", "b-0"), ("w-1", "a-1"), ("w-2", "a-0"), ("w-2", "a-1"))
    cx = OrbitComplex(tuple(map(node, names)), edges)
    with pytest.raises(Disconnected):
        pi1(cx)
    first, second = pi1_components(cx)
    assert first.generators == ("loop-w-2", "loop-w-1", "chord-w-2-a-1")
    assert first.relations == (("loop-w-2",), ("loop-w-1",))
    assert first.free_generators == ("chord-w-2-a-1",)
    assert first.name == "infinite-cyclic"
    assert second.generators == ("loop-v-1",)
    assert second.relations == ()
    assert second.free_generators == ("loop-v-1",)
