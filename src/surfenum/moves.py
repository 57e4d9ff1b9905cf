"""Elementary moves on closed triangulations and root computation.

The vertex-adding move replaces a triangle by the cone over its boundary
from a fresh 3-valent vertex; its inverse removes a 3-valent vertex whose
link does not already bound a triangle.  Repeating the inverse move until
it no longer applies yields the root, which is unique regardless of the
removal order.
"""

from __future__ import annotations

from .canon import canonical_form
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
    return _cone(t, tri)


def _cone(t: Triangulation, tri: Triangle) -> Triangulation:
    """:func:`t_move` without its checks: ``tri`` must be a sorted triangle
    of ``t``.  The move keeps a closed surface closed."""
    a, b, c = tri
    w = t.vertex_count + 1
    tris = [u for u in t.triangles if u != tri]
    tris += [(a, b, w), (a, c, w), (b, c, w)]
    return Triangulation(tris)


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
    return _remove_vertex(t, v)


def _remove_vertex(t: Triangulation, v: int) -> Triangulation:
    """:func:`inverse_t_move` without its checks: ``v`` must be a removable
    vertex of ``t``.  The move keeps a closed surface closed."""
    tris = [u for u in t.triangles if v not in u]
    tris.append(tuple(sorted({x for u in t.triangles if v in u
                              for x in u if x != v})))
    compact = lambda x: x - 1 if x > v else x
    return Triangulation([tuple(compact(x) for x in tri) for tri in tris])


def _removable_vertices(t: Triangulation) -> list[int]:
    out = []
    for v, at_v in vertex_triangles(t.triangles).items():
        if len(at_v) != 3:
            continue
        neighbours = tuple(sorted({x for tri in at_v for x in tri if x != v}))
        if neighbours not in t.triangles:
            out.append(v)
    return sorted(out)


def is_root(t: Triangulation) -> bool:
    """True when no inverse move applies: either no 3-valent vertex exists
    or the triangulation is the boundary of the tetrahedron."""
    _require_closed(t)
    return not _removable_vertices(t)


def compute_root(t: Triangulation) -> Triangulation:
    """Apply inverse moves (lowest removable vertex first, for a
    reproducible trace) until none applies; return the canonical form."""
    _require_closed(t)
    while True:
        removable = _removable_vertices(t)
        if not removable:
            return canonical_form(t).triangulation()
        t = _remove_vertex(t, removable[0])
