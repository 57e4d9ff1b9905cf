"""Simplicial surface representation, validation and topological classification.

A triangulation is stored as its triangle list: a sorted tuple of sorted
vertex triples with labels 1..V.  Validation, the surface classes, the
canonical labeling and the growth searches read one edge and vertex index,
by triangle position (:func:`build_index`): a growth state carries its
triangles as a tuple in the order they were glued, with that index and its
boundary vertices' links as path ends (:func:`link_ends`), and a child
gets its parent's through :func:`with_triangle`, its new triangle at the
next position.  The moves read vertex stars as triangle lists
(:func:`vertex_triangles`).
The operations are pure except that a :class:`Triangulation` keeps the
answers that depend on its triangles alone once they are computed: its
validation report (written here) and its canonical code (written by
``canon.canonical_form``).

Validation is one walk round each vertex star (:func:`_validate`): link
shapes, boundary, components and orientability together.  With no vertex
offending each star is joined across its edges, so components by shared
vertex are components by shared edge, and every interior edge is crossed,
so every sign conflict is seen.  :func:`classify` and
:func:`surface_class` read orientability off the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

Triangle = tuple[int, int, int]
Edge = tuple[int, int]


def normalize_triangles(triangles: Iterable[Iterable[int]]) -> tuple[Triangle, ...]:
    """Sort every triple and the whole list."""
    return tuple(sorted(tuple(sorted(t)) for t in triangles))


class Triangulation:
    """An immutable 2-dimensional simplicial complex given by its triangles.

    Vertex labels must be the contiguous range 1..V.  The structural
    invariants (distinct labels per triple, no duplicate triangles) are
    enforced here; whether the complex is a surface is decided by
    :func:`validate`.  The package builds one from outside input and around
    a public function's result; inside, complexes pass as triangle tuples.

    The object also keeps its :class:`ValidationReport` and its canonical
    code once the first :func:`validate`/:func:`classify` and
    ``canonical_form`` call has computed them, so the queries on one object
    run each at most once.  Both depend on ``triangles`` alone, which never
    changes; equality, hashing and pickling read ``triangles`` alone, so an
    unpickled copy starts with neither and computes its own.
    """

    __slots__ = ("triangles", "_report", "_code")

    def __init__(self, triangles: Iterable[Iterable[int]]):
        tris = normalize_triangles(triangles)
        if not tris:
            raise ValueError("a triangulation needs at least one triangle")
        if (len(set(tris)) < len(tris) or set(map(len, map(set, tris))) != {3}
                or tris[0][0] < 1):  # then name the first bad triangle
            seen = set()
            for t in tris:
                if len(set(t)) != 3:
                    raise ValueError(f"degenerate triangle {t}")
                if t in seen:
                    raise ValueError(f"duplicate triangle {t}")
                if t[0] < 1:
                    raise ValueError(f"vertex labels must be positive, got {t}")
                seen.add(t)
        labels = set().union(*tris)
        if labels != set(range(1, len(labels) + 1)):
            raise ValueError("vertex labels must be contiguous 1..V")
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_code", None)

    def __setattr__(self, name, value):
        raise AttributeError("Triangulation is immutable")

    def __reduce__(self):
        # unpickling rebuilds through __init__, which checks the labels again
        # and starts with no stored report or code
        return Triangulation, (self.triangles,)

    def __eq__(self, other):
        return isinstance(other, Triangulation) and self.triangles == other.triangles

    def __hash__(self):
        return hash(self.triangles)

    def __repr__(self):
        return f"Triangulation({list(self.triangles)!r})"

    @property
    def vertex_count(self) -> int:
        return max(v for t in self.triangles for v in t)


def vertex_triangles(tris: Iterable[Triangle]) -> dict[int, list[Triangle]]:
    """Vertex -> incident triangles."""
    out: dict[int, list[Triangle]] = {}
    for t in tris:
        for v in t:
            out.setdefault(v, []).append(t)
    return out


def closed_cycles(edges: Iterable[Edge]) -> list[list[int]] | None:
    """Closed cycles of a graph of maximum degree 2, each walked from its
    smallest vertex towards its first neighbour in sorted edge order.
    Path components are skipped; None when some vertex has degree above 2.
    """
    adj: dict[int, list[int]] = {}
    for a, b in sorted(edges):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(len(nbrs) > 2 for nbrs in adj.values()):
        return None
    cycles: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        walk = [start]
        seen.add(start)
        prev, cur = None, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if nxt and nxt[0] == start:
                cycles.append(walk)
                break
            # a path end, or the rest of a path walked from an earlier start
            if not nxt or nxt[0] in seen:
                break
            prev, cur = cur, nxt[0]
            walk.append(cur)
            seen.add(cur)
    return cycles


def build_index(tris: Sequence[Triangle]) -> tuple[dict, dict]:
    """The edge and vertex index of the sorted triples ``tris``, by position
    in ``tris``: edge -> [(position, apex)] and vertex -> [(position, the
    two other vertices, ascending)], each list ascending by position."""
    by_edge: dict[Edge, list[tuple[int, int]]] = {}
    by_vertex: dict[int, list[tuple[int, int, int]]] = {}
    for i, (a, b, c) in enumerate(tris):
        by_edge.setdefault((a, b), []).append((i, c))
        by_edge.setdefault((a, c), []).append((i, b))
        by_edge.setdefault((b, c), []).append((i, a))
        by_vertex.setdefault(a, []).append((i, b, c))
        by_vertex.setdefault(b, []).append((i, a, c))
        by_vertex.setdefault(c, []).append((i, a, b))
    return by_edge, by_vertex


def link_ends(star: Iterable[tuple[int, int, int]]) -> dict[int, int]:
    """The link of a vertex in a growth state (empty, a circle or disjoint
    paths), given its star entries (position, p, q) from :func:`build_index`,
    one link edge (p, q) each, as :func:`link_after` reads it: path end ->
    the other end of its path, empty for a circle.  Added in any order, each
    edge meets at most path ends, so :func:`link_with` takes it."""
    partner: dict[int, int] = {}
    for _i, p, q in star:
        partner = link_with(partner, p, q)
    return partner


def link_after(partner: dict[int, int], p: int, q: int) -> str:
    """The shape of a vertex v's link, given by its path ends ``partner``
    (from :func:`link_ends`), once the new link edge (p, q), not in it yet,
    is added: 'circle', 'interval', 'paths' (two or more disjoint simple
    paths, a pinch for a finished surface but acceptable while growing) or
    'bad'.

    This is the link test of both growth searches, the genus-surface search
    and the oracle.  Each adds one triangle at a time and keeps a state only
    when no link it changes turns 'bad', so every link of a state is empty
    (a fresh vertex), a circle or disjoint paths.  A link vertex p on two
    link edges (the edge (v, p) in two triangles) takes no third, so a
    circle takes no new edge that meets it, nor one apart from it.  Both
    searches skip these first, which is this test's contract: v is a
    boundary vertex or the fresh one, and neither (v, p) nor (v, q) lies in
    two triangles, so each of p, q is a path end or new to the link.  A
    state carries the links of its boundary vertices alone, each child's
    updated from its parent's (:func:`with_triangle`).
    """
    if partner.get(p) == q:
        # the edge closes its path: a circle only if no other path remains
        return "circle" if len(partner) == 2 else "bad"
    # each of p, q already in the link is a path end, which the edge joins
    paths = len(partner) // 2 + 1 - (p in partner) - (q in partner)
    return "interval" if paths == 1 else "paths"


def link_with(partner: dict[int, int], p: int, q: int) -> dict[int, int]:
    """The path ends ``partner`` (from :func:`link_ends`) once the new link
    edge (p, q), which :func:`link_after` does not call 'bad', is added, as
    a new dict: empty when the edge closes its path into a circle."""
    if partner.get(p) == q:
        return {}
    # it joins the paths ending in p and q (a new link vertex is one) at p, q
    partner = {**partner}
    far_p, far_q = partner.pop(p, p), partner.pop(q, q)
    partner[far_p], partner[far_q] = far_q, far_p
    return partner


def with_triangle(tris: tuple[Triangle, ...], by_edge: dict, by_vertex: dict,
                  links: dict, tri: Triangle) -> tuple[tuple, dict, dict, dict]:
    """A growth state's triangles with the sorted triangle ``tri``, which
    :func:`link_after` passes, appended at position ``len(tris)``, and
    copies of its :func:`build_index` indices and its boundary vertices'
    links (:func:`link_ends`) with ``tri`` added; a vertex whose link closes
    into a circle drops it.  The given dicts and their lists never change."""
    a, b, c = tri
    i = len(tris)
    sides, star, links = dict(by_edge), dict(by_vertex), dict(links)
    for f, apex in (((a, b), c), ((a, c), b), ((b, c), a)):
        sides[f] = sides.get(f, []) + [(i, apex)]
    for v, p, q in ((a, b, c), (b, a, c), (c, a, b)):
        star[v] = star.get(v, []) + [(i, p, q)]
        links[v] = link_with(links.get(v, {}), p, q)
        if not links[v]:
            del links[v]  # a circle
    return tris + (tri,), sides, star, links


class SurfaceKind(Enum):
    CLOSED_SURFACE = "ClosedSurface"
    SURFACE_WITH_BOUNDARY = "SurfaceWithBoundary"
    NOT_A_SURFACE = "NotASurface"


@dataclass(frozen=True)
class ValidationReport:
    kind: SurfaceKind
    offending_vertices: tuple[int, ...] = ()
    orientable: bool | None = None  # None for a non-surface

    @property
    def is_surface(self) -> bool:
        return self.kind is not SurfaceKind.NOT_A_SURFACE


def validate(t: Triangulation) -> ValidationReport:
    """Decide whether the complex is a closed surface, a surface with
    boundary, or not a surface at all (with the offending vertices), and
    whether a surface is orientable.  The report is computed on the first
    call and kept on ``t``."""
    report = t._report
    if report is None:
        report = _validate(t.triangles, *build_index(t.triangles))
        object.__setattr__(t, "_report", report)
    return report


def _validate(tris: Sequence[Triangle], by_edge: dict,
              by_vertex: dict) -> ValidationReport:
    """:func:`validate`, given :func:`build_index` of the sorted triples
    ``tris`` in any order: one walk round each vertex star.  Vertices come
    off a stack with the position of a signed triangle of their star (+1
    orients a sorted (a, b, c) as a -> b -> c); a vertex no walk has reached
    starts a new component.  The walk at ``v`` turns across the edges at
    ``v`` one way and, from an edge in one triangle (boundary), the other
    way, carrying the orientation into each triangle it enters, whose apex
    on the edge is the walk's next edge end; a sign there that differs is a
    conflict.  ``v`` is offending when the walk, which stops at an edge in
    three triangles, covers fewer triangles than ``v`` has: its link is
    neither a circle nor an interval.  With none offending each star is
    joined across its edges, so the components by shared vertex are those
    by shared edge, and every interior edge is crossed, so a conflict-free
    surface is orientable.  None of this depends on the order of ``tris``,
    so the report does not either."""
    sign = [0] * len(tris)
    seen: set[int] = set()
    offending = []
    has_boundary = False
    orientable = True
    components = 0
    for root, at_root in by_vertex.items():
        if root in seen:
            continue
        components += 1
        seen.add(root)
        sign[at_root[0][0]] = 1
        stack = [(root, at_root[0][0])]
        while stack:
            v, start = stack.pop()
            a, b, c = tris[start]
            # start is v -> p -> q when its sign is +1
            p, q = (b, c) if v == a else (c, a) if v == b else (a, b)
            covered = 1
            # the walk turns v -> y -> r in u: sign s if (v, y, r) rotates u, else -s
            for s, y in ((sign[start], q), (-sign[start], p)):
                t = start
                while True:
                    if y not in seen:
                        seen.add(y)
                        stack.append((y, t))
                    ts = by_edge[(v, y) if v < y else (y, v)]
                    if len(ts) != 2:
                        break
                    u, r = ts[1] if ts[0][0] == t else ts[0]
                    want = s if (v < y) + (y < r) + (r < v) == 2 else -s
                    if not sign[u]:
                        sign[u] = want
                    elif sign[u] != want:
                        orientable = False
                    if u == start:
                        break
                    covered += 1
                    t, y = u, r
                if len(ts) != 1:
                    break  # round the circle, or stopped at a 3-edge
                has_boundary = True
            if covered < len(by_vertex[v]):
                offending.append(v)
    if offending:
        return ValidationReport(SurfaceKind.NOT_A_SURFACE, tuple(sorted(offending)))
    if components > 1:
        return ValidationReport(SurfaceKind.NOT_A_SURFACE)
    kind = (SurfaceKind.SURFACE_WITH_BOUNDARY if has_boundary
            else SurfaceKind.CLOSED_SURFACE)
    return ValidationReport(kind, orientable=orientable)


def _euler(tris: Sequence[Triangle], by_edge: dict) -> int:
    """V - E + T, given the edge index ``by_edge`` of ``tris`` (from
    :func:`build_index`; only its keys are read)."""
    verts = {v for tri in tris for v in tri}
    return len(verts) - len(by_edge) + len(tris)


@dataclass(frozen=True, order=True)
class SurfaceClass:
    """Homeomorphism type of a closed surface: orientability and genus."""

    orientable: bool
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if not self.orientable and self.genus == 0:
            raise ValueError("a non-orientable surface has genus >= 1")

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    @property
    def name(self) -> str:
        if self.orientable:
            return {0: "S2", 1: "T2"}.get(self.genus, f"S+{self.genus}")
        return {1: "RP2", 2: "K2"}.get(self.genus, f"S-{self.genus}")

    def __str__(self) -> str:
        return self.name

    @classmethod
    def from_name(cls, name: str) -> "SurfaceClass":
        fixed = {"S2": (True, 0), "T2": (True, 1), "RP2": (False, 1), "K2": (False, 2)}
        if name in fixed:
            return cls(*fixed[name])
        if len(name) > 2 and name[0] == "S" and name[1] in "+-" and name[2:].isdigit():
            return cls(name[1] == "+", int(name[2:]))
        raise ValueError(f"unknown surface name {name!r}")

    def sort_key(self) -> tuple[int, int]:
        # orientable-first, then genus
        return (0 if self.orientable else 1, self.genus)


SPHERE = SurfaceClass(True, 0)
TORUS = SurfaceClass(True, 1)
PROJECTIVE_PLANE = SurfaceClass(False, 1)
KLEIN_BOTTLE = SurfaceClass(False, 2)


def _surface_class(chi: int, orientable: bool) -> SurfaceClass:
    """The closed surface with Euler characteristic ``chi``: orientable
    with genus (2 - chi) / 2, or non-orientable with genus 2 - chi."""
    if orientable:
        if chi % 2 != 0:
            raise AssertionError("orientable surface with odd Euler characteristic")
        return SurfaceClass(True, (2 - chi) // 2)
    return SurfaceClass(False, 2 - chi)


def surface_class(tris: tuple[Triangle, ...], by_edge: dict, by_vertex: dict,
                  holes: int = 0) -> SurfaceClass:
    """Class of the closed surface obtained by capping each of the ``holes``
    boundary cycles of the connected surface ``tris`` with a disc, given its
    :func:`build_index`, with orientability read off its validation report;
    ``ValueError`` when ``tris`` is not a surface.  Capping keeps
    orientability and adds 1 to chi per hole."""
    report = _validate(tris, by_edge, by_vertex)
    if not report.is_surface:
        raise ValueError("surface_class needs a surface, got NotASurface")
    return _surface_class(_euler(tris, by_edge) + holes, report.orientable)


def classify(t: Triangulation) -> SurfaceClass:
    """Surface type of a closed triangulation, read off its validation
    report (see :func:`validate`): a closed surface has 3T/2 edges, so
    chi = V - T/2, and the report records orientability."""
    report = validate(t)
    if report.kind is not SurfaceKind.CLOSED_SURFACE:
        raise ValueError(f"classify needs a closed surface, got {report.kind.value}")
    return _surface_class(t.vertex_count - len(t.triangles) // 2, report.orientable)


def boundary_cycles(by_edge: dict) -> list[list[int]] | None:
    """Boundary cycles of a raw triangle collection, given its edge index
    ``by_edge`` (no validity check); None when some vertex has more than two
    boundary edges."""
    return closed_cycles(e for e, ts in by_edge.items() if len(ts) == 1)
