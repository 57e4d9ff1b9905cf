import random
from typing import Sequence

import pytest

from surfenum.canon import minimal_code
from surfenum.cli import parse_triangulation_text
from surfenum.core import (Edge, SurfaceClass, SurfaceKind, Triangle,
                           Triangulation, boundary_cycles, classify,
                           edge_triangles, validate)
from surfenum.moves import MoveError, _require_closed

# well-known fixtures (compact single-digit format)
TETRAHEDRON = "123 124 134 234"
OCTAHEDRON = "123 124 135 145 236 246 356 456"
RP2_SIX = "123 124 135 146 156 236 245 256 345 346"
MOBIUS = "123 124 135 245 345"
ANNULUS = "123 124 135 246 267 358 589 679 789"
THREE_FAN_DISC = "123 124 135"


@pytest.fixture
def tetra() -> Triangulation:
    return parse_triangulation_text(TETRAHEDRON)


@pytest.fixture
def octa() -> Triangulation:
    return parse_triangulation_text(OCTAHEDRON)


@pytest.fixture
def rp2_six() -> Triangulation:
    return parse_triangulation_text(RP2_SIX)


@pytest.fixture
def mobius() -> Triangulation:
    return parse_triangulation_text(MOBIUS)


@pytest.fixture
def annulus() -> Triangulation:
    return parse_triangulation_text(ANNULUS)


def relabel(t: Triangulation, rng: random.Random) -> tuple[Triangulation, dict]:
    """Random relabeling of a triangulation; returns it with the map used."""
    labels = list(range(1, t.vertex_count + 1))
    shuffled = labels[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(labels, shuffled))
    return (
        Triangulation([tuple(mapping[v] for v in tri) for tri in t.triangles]),
        mapping,
    )


def state_key(tris, marked_edges):
    """Canonical key for a complex together with a set of marked edges,
    invariant under relabeling (automorphisms are minimized over); the
    reference that the flag-key gates compare ``canon.flag_key`` with."""
    code, wits = minimal_code(tris, with_witnesses=True)
    marked = list(marked_edges)
    best_marked = None
    for w in wits:
        image = tuple(sorted(tuple(sorted((w[a], w[b]))) for a, b in marked))
        if best_marked is None or image < best_marked:
            best_marked = image
    return code, best_marked


def mixed_lex_compare(a: Sequence[Triangle], b: Sequence[Triangle]) -> int:
    """-1, 0 or 1; both lists must be normalized (triples and list sorted)."""
    val_a = sum(1 for t in a if 1 in t)
    val_b = sum(1 for t in b if 1 in t)
    if val_a != val_b:
        return -1 if val_a > val_b else 1
    ta, tb = tuple(a), tuple(b)
    if ta == tb:
        return 0
    return -1 if ta < tb else 1


def cone_and_classify(tris) -> SurfaceClass:
    """The class of a surface with boundary capped by coning each boundary
    cycle to a fresh vertex: the reference for ``core.surface_class``."""
    t = Triangulation(tris)
    assert validate(t).kind is SurfaceKind.SURFACE_WITH_BOUNDARY
    capped = list(t.triangles)
    apex = t.vertex_count
    for cycle in boundary_cycles(t.triangles):
        apex += 1
        capped += [(cycle[i - 1], cycle[i], apex) for i in range(len(cycle))]
    return classify(Triangulation(capped))


def edge_expand_4valent(t: Triangulation, e: Edge) -> Triangulation:
    """Split the two triangles at ``e`` around a new 4-valent vertex.

    The new vertex V+1 is adjacent to both endpoints of ``e`` and to the
    two link vertices of ``e``; the expansion never creates a 3-valent
    vertex, so it maps roots to roots.
    """
    _require_closed(t)
    e = tuple(sorted(e))
    at_e = edge_triangles(t.triangles).get(e, [])
    if len(at_e) != 2:
        raise MoveError(f"edge {e} not an interior edge of the triangulation")
    a, b = e
    c, d = sorted(next(x for x in tri if x not in e) for tri in at_e)
    w = t.vertex_count + 1
    tris = [u for u in t.triangles if u not in at_e]
    tris += [(a, c, w), (b, c, w), (a, d, w), (b, d, w)]
    return Triangulation(tris)
