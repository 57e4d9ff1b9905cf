"""Elementary moves on closed triangulations and root computation.

The vertex-adding move replaces a triangle by the cone over its boundary
from a fresh 3-valent vertex; its inverse removes a 3-valent vertex whose
link does not already bound a triangle.  Repeating the inverse move until
it no longer applies yields the root, which is unique regardless of the
removal order.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .canon import canonical_form, minimal_code
from .core import (
    SurfaceKind,
    Triangle,
    Triangulation,
    validate,
    vertex_triangles,
)


class MoveError(ValueError):
    pass


class NotThreeValentError(MoveError):
    pass


class LinkBoundsTriangleError(MoveError):
    """The neighbour triangle is already present; only the boundary of the
    tetrahedron has a 3-valent vertex in this situation."""


def _require_closed(t: Triangulation) -> None:
    report = validate(t)
    if report.kind is not SurfaceKind.CLOSED_SURFACE:
        raise MoveError(f"move needs a closed surface, got {report.kind.value}")


def t_move(t: Triangulation, tri: Triangle) -> Triangulation:
    """Replace ``tri`` by the star of a new 3-valent vertex labeled V+1."""
    _require_closed(t)
    tri = tuple(sorted(tri))
    if tri not in t.triangles:
        raise MoveError(f"triangle {tri} not in triangulation")
    return Triangulation(_cone(t.triangles, tri, t.vertex_count + 1))


def _cone(tris: Sequence[Triangle], tri: Triangle, w: int) -> list[Triangle]:
    """:func:`t_move` on a triangle list without its checks: ``tri`` must
    be a sorted triangle of ``tris`` and ``w`` the label after the largest.
    The move keeps a closed surface closed."""
    a, b, c = tri
    out = [u for u in tris if u != tri]
    out += [(a, b, w), (a, c, w), (b, c, w)]
    return out


def inverse_t_move(t: Triangulation, v: int) -> Triangulation:
    """Remove the 3-valent vertex ``v`` and fill with its neighbour
    triangle; labels above ``v`` are shifted down to stay contiguous."""
    _require_closed(t)
    at_v = vertex_triangles(t.triangles).get(v, [])
    if len(at_v) != 3:
        raise NotThreeValentError(f"vertex {v} has valence {len(at_v)}, need 3")
    neighbours = tuple(sorted({x for tri in at_v for x in tri if x != v}))
    if neighbours in t.triangles:
        raise LinkBoundsTriangleError(
            f"link of vertex {v} already bounds a triangle"
        )
    out = [u for u in t.triangles if v not in u] + [neighbours]
    compact = lambda x: x - 1 if x > v else x
    return Triangulation([tuple(compact(x) for x in tri) for tri in out])


def _removable_vertices(tris: Sequence[Triangle]) -> list[int]:
    """The vertices of the sorted triangles ``tris`` that an inverse move
    removes, ascending."""
    present = set(tris)
    out = []
    for v, at_v in vertex_triangles(tris).items():
        if len(at_v) != 3:
            continue
        neighbours = tuple(sorted({x for tri in at_v for x in tri if x != v}))
        if neighbours not in present:
            out.append(v)
    return sorted(out)


def is_root(t: Triangulation) -> bool:
    """True when no inverse move applies: either no 3-valent vertex exists
    or the triangulation is the boundary of the tetrahedron."""
    _require_closed(t)
    return not _removable_vertices(t.triangles)


def compute_root(t: Triangulation) -> Triangulation:
    """Apply inverse moves (lowest removable vertex first, for a
    reproducible trace) until none applies; return the root's minimal
    code.  A root input's code is its canonical form (kept on ``t``, see
    :func:`canonical_form`), so only a root reached by inverse moves is
    labeled here.  The moves leave the labels with gaps (compacting keeps
    their order, so the lowest removable vertex is the same) and re-check
    only the removed vertex's neighbours, whose stars alone change."""
    _require_closed(t)
    removable = _removable_vertices(t.triangles)  # sorted, so a heap
    if not removable:
        return Triangulation(canonical_form(t).triangles)
    star = {v: set(at_v) for v, at_v in vertex_triangles(t.triangles).items()}
    while removable:
        v = heapq.heappop(removable)
        at_v = star.get(v, ())
        link = tuple(sorted({x for tri in at_v for x in tri if x != v}))
        if len(at_v) != 3 or link in star[link[0]]:
            continue
        del star[v]
        for x in link:
            star[x] -= at_v
            star[x].add(link)
            if len(star[x]) == 3:
                heapq.heappush(removable, x)
    return Triangulation(minimal_code(set().union(*star.values())))
