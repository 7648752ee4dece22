"""Fundamental groups of orbit complexes by a combinatorial van Kampen.

The complex is a bipartite graph of spaces: cell nodes are contractible,
wall nodes are circles. The loop of a wall climbs one full turn of the
ambient helix, so the disk filling it has to pass through both neighbouring
cells; a wall keeps its infinite cyclic group until at least two cell edges
are glued to it. Graph loops, the edges left out of the spanning tree that
one walk per component grows from its smallest node, contribute free
generators on top.

The resulting presentations only ever carry relations that kill a single
generator, so Tietze simplification reduces them to free groups and the
classification is by rank.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import Disconnected, DomainError

# OrbitComplex in the annotations is walls.OrbitComplex; annotations are not
# evaluated, so computing a group needs no import of walls


@dataclass(frozen=True)
class PresentedGroup:
    """A finitely presented group together with its simplified form.

    ``generators`` and ``relations`` are the raw van Kampen data (one
    relation is a tuple of generator names whose product bounds).
    ``free_generators`` survive simplification; ``name`` classifies the
    simplified group and ``free_rank`` is its rank.
    """

    generators: tuple
    relations: tuple
    free_generators: tuple
    name: str
    free_rank: int

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0


def tietze_simplify(generators, relations):
    """Kill generators that appear alone in a relation, repeatedly.

    Returns (surviving generators, remaining relations). The van Kampen
    construction below only emits single-generator relations, for which this
    is a complete normal form (a free group on the survivors).
    """
    gens = list(generators)
    rels = [tuple(r) for r in relations]
    for r in rels:
        for x in r:
            if x not in gens:
                raise DomainError(f"relation mentions unknown generator {x!r}")
    changed = True
    while changed:
        changed = False
        for r in rels:
            if len(r) == 1:
                dead = r[0]
                gens.remove(dead)
                rels = [tuple(x for x in rr if x != dead) for rr in rels]
                rels = [rr for rr in rels if rr]
                changed = True
                break
    return tuple(gens), tuple(rels)


def _classify_free(rank: int) -> str:
    if rank == 0:
        return "trivial"
    if rank == 1:
        return "infinite-cyclic"
    return f"free-of-rank-{rank}"


def _forest(cx: OrbitComplex):
    """The components of cx, ordered by smallest node name, each as (its
    node names, the indices in cx.edges of its tree edges). A scan of the
    edges, in order, takes every edge that reaches one new node into the
    tree; the scans repeat until one takes none."""
    names = {nd.name for nd in cx.nodes}
    for w, c in cx.edges:
        if w not in names or c not in names:
            raise DomainError(f"edge ({w!r}, {c!r}) mentions a missing node")
    forest = []
    reached = set()
    for start in sorted(names):
        if start in reached:
            continue
        comp, tree = {start}, set()
        grew = True
        while grew:
            grew = False
            for k, (w, c) in enumerate(cx.edges):
                if (w in comp) != (c in comp):
                    tree.add(k)
                    comp.update((w, c))
                    grew = True
        reached |= comp
        forest.append((comp, tree))
    return forest


def _pi1_connected(cx: OrbitComplex, comp, tree) -> PresentedGroup:
    walls = [nd for nd in cx.nodes if nd.name in comp and nd.homotopy == "circle"]
    chords = [e for k, e in enumerate(cx.edges) if e[0] in comp and k not in tree]
    generators = tuple(f"loop-{nd.name}" for nd in walls) + tuple(
        f"chord-{w}-{c}" for w, c in chords
    )
    degree = Counter(w for w, _ in cx.edges)
    relations = tuple(
        (f"loop-{nd.name}",) for nd in walls if degree[nd.name] >= 2
    )
    # every relation has one generator, so none is left over
    free_gens, _ = tietze_simplify(generators, relations)
    rank = len(free_gens)
    return PresentedGroup(generators, relations, free_gens, _classify_free(rank), rank)


def pi1(cx: OrbitComplex) -> PresentedGroup:
    """Fundamental group of a connected orbit complex.

    Generators: one loop per wall node plus one letter per edge outside a
    spanning tree. Relations: a wall loop bounds once the wall has at least
    two cell edges attached (its filling disk crosses both neighbouring
    cells). Raises Disconnected on a disconnected complex; see
    pi1_components for the componentwise answer.
    """
    if not cx.nodes:
        raise Disconnected("the empty complex has no base point")
    forest = _forest(cx)
    if len(forest) > 1:
        raise Disconnected(
            f"complex has {len(forest)} components; compute them separately"
        )
    return _pi1_connected(cx, *forest[0])


def pi1_components(cx: OrbitComplex):
    """Fundamental groups of the components, ordered by smallest node name."""
    return tuple(_pi1_connected(cx, comp, tree) for comp, tree in _forest(cx))
