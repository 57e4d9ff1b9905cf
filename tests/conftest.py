import random

import pytest

from surfenum.canon import minimal_code
from surfenum.cli import parse_triangulation_text
from surfenum.core import Triangulation

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
