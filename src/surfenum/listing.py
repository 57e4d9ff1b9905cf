"""The listing pipeline: discs, genus-surfaces, gluings, non-roots.

Closed triangulations are listed root-first.  Every root but the
tetrahedron, which is added directly, is cut into a genus-surface (the
piece carrying the topology) and one main disc holding a maximal-valence
vertex in its interior, plus at most one small extra disc when at most 11
vertices are requested.  For the sphere the genus-surface is one triangle,
so sphere roots are main discs with a 3-cycle boundary glued onto it by the
same gluing as every other root.  Genus-surface candidates are grown
exhaustively within the vertex budget, the only size bound, and
pruned by the necessary conditions for minimal decompositions: a partial
candidate is dropped as soon as it breaks one that no later triangle or
frozen boundary edge can repair (the opposite vertex of a boundary edge on
the boundary, one boundary path per boundary vertex, adjacent triangles on
one boundary component, a boundary cycle that can take the main disc), and
each finished candidate is checked in full.
Gluing the discs back recovers every root: an extra disc goes on each
boundary cycle but the host one, then a main disc on the host cycle, in
every rotation and direction that adds no triangle or edge already there,
one per class of rotations that a rim symmetry of the disc maps onto each
other (they glue one complex up to its fresh labels); the root's vertex
count is the glued base's plus the main disc's interior count; a main
disc's rotation is built only when the valences it gives the host cycle
are in range.  Repeated vertex-adding moves recover the non-roots.  A
disc grows one triangle once per orbit of that triangle, a main disc
glued straight onto a genus-surface g is glued once per orbit of Aut(g),
and a vertex is added once per orbit of triangles: an automorphism of the
parent, fixing the new vertices, maps one child of an orbit onto the
others (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26
(1998)).  For a disc, an automorphism p of its code maps the child code +
t onto code + p(t), and p keeps the valences and chords that growth
tests.  Each piece carries what the gluing reads (a Disc its valences,
chords, largest interior valence, m for a main disc, and one rotation per
rim-symmetry class; a GenusSurface its automorphisms), so the stages pass
plain lists.  Discs and closed surfaces are keyed by their minimal code.
The genus-surface search drops isomorphic states, frozen edges marked,
through canon.Isomorphs with canon.flag_key as the certificate, read off
each state's carried index and ranks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Sequence

from .canon import (Code, Isomorphs, _flag_key, _ranks_with, _vertex_ranks,
                    automorphisms, flag_key, minimal_code)
from .core import (
    SPHERE,
    Edge,
    SurfaceClass,
    Triangle,
    boundary_cycles,
    build_index,
    link_after,
    link_ends,
    surface_class,
    with_triangle,
)
from .moves import _cone, _removable_vertices

TETRAHEDRON: Code = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


@dataclass(frozen=True)
class SearchConfig:
    """Search bounds: vertex budget, the at-most-11 specialization, an
    optional target surface, and the worker count for sharded stages."""

    max_vertices: int
    specialized: bool | None = None
    surface: SurfaceClass | None = None
    workers: int = 1

    def __post_init__(self):
        if self.max_vertices < 3:
            raise ValueError("max_vertices must be at least 3")
        if self.specialized is None:
            object.__setattr__(self, "specialized", self.max_vertices <= 11)
        elif self.specialized and self.max_vertices > 11:
            raise ValueError("the specialization is only valid up to 11 vertices")
        if self.workers < 1:
            raise ValueError("workers must be positive")


def _host_splits(comps: Sequence[Sequence[int]], cfg: SearchConfig) -> list:
    """(host cycle, other cycles) for each boundary cycle that can take the
    main disc while every other cycle takes an extra disc.  Up to 11
    vertices a root needs at most one extra disc, a triangle or a square:
    one other cycle, of length 3 or 4."""
    splits = [(c, comps[:i] + comps[i + 1:]) for i, c in enumerate(comps)]
    if cfg.specialized:
        splits = [(c, others) for c, others in splits
                  if not others or (len(others) == 1 and len(others[0]) in (3, 4))]
    return splits


@dataclass(frozen=True)
class Disc:
    """A triangulated disc: one boundary cycle (the rim), Euler
    characteristic 1.  It carries what a gluing reads: its vertex valences,
    its chords (inner edges with both ends on the rim), its largest
    interior valence, 0 with none (growth from an m-star keeps that m, see
    :func:`_disc_children`), and its rotations, the first rim map (reflect,
    offset) of each coset r o G in the order (False, 0 .. L-1), (True, 0 ..
    L-1), G the rim maps of the automorphisms ``autos`` of its minimal
    code ``code`` (maps v -> image, from :func:`canon.automorphisms`); see
    :func:`_gluings`.  Equality is that of (triangles, boundary)."""

    triangles: Code
    boundary: tuple[int, ...]
    valences: dict[int, int] = field(compare=False)
    max_interior_valence: int = field(compare=False)
    chords: tuple[Edge, ...] = field(compare=False)
    rotations: tuple[tuple[bool, int], ...] = field(compare=False)

    @classmethod
    def from_triangles(cls, code: Code,
                       autos: Sequence[Sequence[int]]) -> "Disc":
        by_edge, by_vertex = build_index(code)
        cycles = boundary_cycles(by_edge)
        if cycles is None or len(cycles) != 1:
            raise ValueError("a disc has exactly one boundary component")
        rim = tuple(cycles[0])
        L = len(rim)
        at = {v: i for i, v in enumerate(rim)}
        # the rim map (eps, s) of each automorphism: rim vertex i goes to
        # s - i when it reflects (eps), else to s + i
        group = {(at[p[rim[1]]] != (at[p[rim[0]]] + 1) % L, at[p[rim[0]]])
                 for p in autos}
        # r o (eps, s) = (reflect xor eps, offset - s or offset + s as r
        # reflects or not); r is kept when no earlier r marked its coset
        rotations, marked = [], set()
        for reflect, offset in itertools.product((False, True), range(L)):
            if (reflect, offset) not in marked:
                rotations.append((reflect, offset))
                marked.update(
                    (reflect != eps, (offset - s if reflect else offset + s) % L)
                    for eps, s in group)
        vals = {v: len(star) for v, star in by_vertex.items()}
        return cls(code, rim, vals,
                   max((k for v, k in vals.items() if v not in at), default=0),
                   tuple(e for e, ts in by_edge.items()
                         if len(ts) == 2 and e[0] in at and e[1] in at),
                   tuple(rotations))

    @property
    def vertex_count(self) -> int:
        return len(self.valences)

    @property
    def interior_count(self) -> int:
        return self.vertex_count - len(self.boundary)


@dataclass(frozen=True)
class GenusSurface:
    """The non-disc piece of a decomposition as its minimal code, with its
    boundary cycles, the closed surface obtained by capping them and its
    automorphism group (:func:`canon.automorphisms`), which equality leaves
    out.  Capping a cycle with a disc keeps orientability and adds 1 to
    chi, so the capped class comes from the piece's own orientability, chi
    and number of holes.  ``from_triangles`` raises ``ValueError`` when its
    input is not a connected surface (:func:`core.surface_class`)."""

    triangles: Code
    boundary: tuple[tuple[int, ...], ...]
    capped_class: SurfaceClass
    automorphisms: tuple[tuple[int, ...], ...] = field(compare=False)

    @classmethod
    def from_triangles(cls, triangles: Iterable[Triangle]) -> "GenusSurface":
        code, witnesses = minimal_code(triangles, with_witnesses=True)
        by_edge, by_vertex = build_index(code)
        cycles = boundary_cycles(by_edge)
        if cycles is None:
            raise ValueError("not a surface: a vertex on more than two "
                             "boundary edges")
        capped = surface_class(code, by_edge, by_vertex, len(cycles))
        return cls(triangles=code, boundary=tuple(map(tuple, cycles)),
                   capped_class=capped,
                   automorphisms=tuple(automorphisms(witnesses)))

    @property
    def vertex_count(self) -> int:
        return max(v for t in self.triangles for v in t)


class CountsTable:
    """(V, surface) -> (triangulations, roots, non-roots)."""

    def __init__(self):
        self._rows: dict[tuple[int, SurfaceClass], list[int]] = {}

    def add_root(self, v: int, cls: SurfaceClass, count: int = 1) -> None:
        self._rows.setdefault((v, cls), [0, 0])[0] += count

    def add_nonroot(self, v: int, cls: SurfaceClass, count: int = 1) -> None:
        self._rows.setdefault((v, cls), [0, 0])[1] += count

    def rows(self) -> list[tuple[int, SurfaceClass, int, int, int]]:
        out = []
        for (v, cls), (roots, nonroots) in self._rows.items():
            out.append((v, cls, roots + nonroots, roots, nonroots))
        out.sort(key=lambda row: (row[0], row[1].sort_key()))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountsTable):
            return NotImplemented
        mine = {k: tuple(v) for k, v in self._rows.items() if any(v)}
        theirs = {k: tuple(v) for k, v in other._rows.items() if any(v)}
        return mine == theirs

    def __repr__(self):
        return f"CountsTable({self.rows()!r})"


# --------------------------------------------------------------------------
# Step 1: triangulated discs
# --------------------------------------------------------------------------

def _disc_children(disc: Disc, m: float, max_vertices: int) -> list[Triangle]:
    """The new triangle of each one-triangle extension of ``disc``, in its
    labels, that keeps boundary valences at most m-1 and makes no interior
    vertex of valence outside [4, m]: a fresh vertex on a rim edge, or a
    closed corner that becomes interior with a new far edge.  It reads the
    disc's valences, rim and chords, and builds no index."""
    vals, rim = disc.valences, disc.boundary
    fresh = len(vals) + 1  # labels are 1..n_v
    n = len(rim)
    out = []
    for i in range(n):
        a, b, c = rim[i], rim[(i + 1) % n], rim[(i + 2) % n]
        # the valences of a, b and c with one more triangle
        ka, kb, kc = vals[a] + 1, vals[b] + 1, vals[c] + 1
        # a fresh vertex on the edge (a, b): both endpoints stay on the boundary
        if fresh <= max_vertices and ka <= m - 1 and kb <= m - 1:
            out.append(tuple(sorted((a, b, fresh))))
        # close the corner at b with the triangle (a, b, c): b becomes
        # interior and (a, c) a boundary edge, which must be new.  On a
        # 3-cycle rim it is a rim edge; on a longer one, with a and c two
        # apart, it is an edge only as a chord
        if (4 <= kb <= m and ka <= m - 1 and kc <= m - 1 and n > 3
                and tuple(sorted((a, c))) not in disc.chords):
            out.append(tuple(sorted((a, b, c))))
    return out


def _grow_discs(tris: Iterable[Triangle], m: float,
                max_vertices: int) -> list[Disc]:
    """Every disc grown from the disc ``tris`` by :func:`_disc_children`,
    one canonical copy per isomorphism class, in discovery order.  Each
    disc popped is coded; a new one is grown from its minimal code, one
    child per orbit of the new triangle under the code's automorphisms
    extended to fix the fresh vertex (module docstring)."""
    found: dict[Code, Disc] = {}
    stack = [tris]
    while stack:
        code, witnesses = minimal_code(stack.pop(), with_witnesses=True)
        if code in found:
            continue
        autos = automorphisms(witnesses)
        disc = found[code] = Disc.from_triangles(code, autos)
        # p[0] = 0, so the fresh vertex is len(p)
        autos = [p + (len(p),) for p in autos]
        grown = set()
        for t in _disc_children(disc, m, max_vertices):
            if t not in grown:
                a, b, c = t
                grown.update(tuple(sorted((p[a], p[b], p[c]))) for p in autos)
                stack.append(code + (t,))
    return list(found.values())


def enumerate_main_discs(max_interior_valence: int,
                         max_vertices: int) -> list[Disc]:
    """All discs usable as main discs: grown from the closed star of a
    vertex of the given valence, interior valences in [4, m] (except the
    bare 3-star), boundary valences at most m-1."""
    m = max_interior_valence
    # the closed star of the hub 1 with rim 2 .. m+1
    rim = tuple(range(2, m + 2))
    star = frozenset(tuple(sorted((1, rim[i - 1], rim[i]))) for i in range(m))
    return _grow_discs(star, m, max_vertices)


def enumerate_discs(cfg: SearchConfig) -> set[Disc]:
    """All triangulated discs with at most the configured number of
    vertices and no 3-valent interior vertex, up to isomorphism."""
    return set(_grow_discs(((1, 2, 3),), math.inf, cfg.max_vertices))


# --------------------------------------------------------------------------
# Step 2: genus-surfaces
# --------------------------------------------------------------------------

def genus_surface_admissible(g: GenusSurface, cfg: SearchConfig) -> bool:
    """Necessary conditions for a candidate to be the genus-surface of a
    minimal decomposition of a root within the configured vertex budget,
    and of the configured surface if there is one."""
    if not g.boundary:
        return False
    if cfg.surface is not None and g.capped_class != cfg.surface:
        return False
    if g.capped_class == SPHERE:
        # the only planar genus-surface of a minimal decomposition
        return len(g.triangles) == 1
    tris, comps = g.triangles, g.boundary
    bverts = {v for c in comps for v in c}
    # vertex budget (the root needs at least one more vertex)
    if g.vertex_count > cfg.max_vertices - 1:
        return False
    # valence floors, and at least one boundary vertex of valence >= 3; the
    # vertex budget bounds every valence from above
    by_edge, by_vertex = build_index(tris)
    if any(len(star) < (2 if v in bverts else 4) for v, star in by_vertex.items()):
        return False
    if not any(len(by_vertex[v]) >= 3 for v in bverts):
        return False
    # the link of every boundary edge lies on the boundary
    bedges = set()
    for e, ts in by_edge.items():
        if len(ts) == 1:
            bedges.add(e)
            if ts[0][1] not in bverts:
                return False
    # every triangle meets the boundary
    for t in tris:
        if not any(v in bverts for v in t):
            return False
    # no edge-adjacent triangle pair touching two different boundary comps
    if _splits_boundary(comps, bedges, tris, by_edge):
        return False
    # some boundary cycle can take the main disc
    return bool(_host_splits(comps, cfg))


def _splits_boundary(cycles, bedges, tris, by_edge, starts=None) -> bool:
    """Whether two edge-adjacent triangles of ``tris`` (with its
    ``core.build_index`` edge index ``by_edge``) touch boundary edges
    ``bedges`` of different boundary components, ``cycles`` the closed
    cycles of ``bedges``, one on an edge of ``starts`` (default
    ``bedges``).  In a growth state ``bedges`` are the frozen edges: a
    closed cycle of them is a whole final component, so no frozen edge off
    it can join it."""
    if not cycles:
        return False
    # boundary edge -> its closed cycle, or None while its path is open
    comp = {}
    for i, c in enumerate(cycles):
        for j in range(len(c)):
            comp[tuple(sorted((c[j - 1], c[j])))] = i

    def touched(t: Triangle) -> set:
        a, b, c = t
        return {comp.get(f) for f in ((a, b), (a, c), (b, c)) if f in bedges}

    for f in bedges if starts is None else starts:
        i = by_edge[f][0][0]
        t = tris[i]
        mine = touched(t)
        a, b, c = t
        for g in ((a, b), (a, c), (b, c)):
            ts = by_edge[g]
            if len(ts) == 2:
                theirs = touched(tris[ts[1][0] if ts[0][0] == i else ts[0][0]])
                # None against None is open: two open paths may still join
                if any(x != y for x in mine for y in theirs):
                    return True
    return False


class _GenusSurfaceSearch:
    """Exhaustive growth of bounded-surface candidates with one declared
    decision per boundary edge: cover it with some triangle or freeze it
    into the final boundary.  Every state is edge-connected, with no edge
    in three triangles and each link a circle or disjoint paths.

    Partial states are checked only for what growth cannot undo: a triangle
    once added and an edge once frozen are permanent, and a vertex once
    interior gets no further triangle (the link test,
    :func:`core.link_after`, says why).  ``children`` caps the vertices at
    ``max_v``, the only size bound: it bounds every valence, the number of
    frozen edges and, with each edge in at most two triangles, the number
    of triangles.  ``children`` gives a finished vertex valence >= 4 and a
    triangle a vertex off the interior, allows a vertex at most two frozen
    edges and keeps the opposite vertex of a frozen edge on the boundary.
    ``_dead_end`` rejects a child that breaks a leaf condition of
    :func:`genus_surface_admissible` for good (rules R1-R4).  The leaves
    get the rest in ``emit``: the valence floors and the capped surface
    class.

    R4 is the at-most-11 host rule of :func:`_host_splits`, read off the
    closed cycles of frozen edges that a freeze child has: each is a final
    boundary component, and a leaf's components have a host split only if
    these cycles have one.  It needs no mode guard, as in the general mode
    ``_host_splits`` rejects nothing.  In the specialized mode the cycles
    are vertex-disjoint (no vertex is on three frozen edges), and the rule
    fires only on three or more cycles (at least 9 vertices) or on two of
    length 5 or more (at least 10), so never below a budget of 10 vertices.

    A state carries, updated from its parent's, its triangles as a tuple in
    the order they were glued, its frozen edges, the triangles'
    ``core.build_index`` (edge and vertex index by position), the links of
    its boundary vertices as path ends, keyed by them (a vertex is interior
    exactly when its link is a circle), each vertex's frozen ends (far ends
    of its frozen edges), the closed cycles of frozen edges and its vertex
    ranks (in the base of the vertex budget).  Its open edges are the
    one-triangle edges not frozen.  A cover child appends its triangle
    through ``core.with_triangle``; a freeze child shares all of it but for
    the ranks of its edge's ends.  No stacked state has a pair R3 rejects (induction: a cover child adds no frozen
    edge).  A freeze child walks the frozen path from one end of its edge;
    when the walk ends at the other, it is the new cycle, and R3 starts
    from its edges only: they sat on an open path in the parent (None
    against None passes), so every other pair compares as there.  A
    freeze child whose edge closes no cycle keeps its parent's
    cycles, which passed R4, and only its edge's triangle touches a new
    frozen edge (no cycle vertex takes a third): R3 tests that one's pairs.

    The open edge decided next is the one at the most advanced vertex: the
    larger valence of its two ends, then the frozen edges at both ends, both
    descending, then the least edge by label.  This is the fail-first rule
    of constraint search (Haralick & Elliott, Artificial Intelligence 14
    (1980)), and it closes one vertex link at a time as lextri does (Sulanke
    & Lutz, arXiv:math/0610022): a full star and frozen ends leave the
    fewest children, and a dead end shows sooner.  Any order is complete:
    every final surface that contains a state covers or freezes each of its
    open edges, so deciding any one open edge in every way loses none of
    them.  Each pruning rule above is argued from what is permanent, not
    from the order, so it holds whatever is decided later.

    A popped state isomorphic to one already expanded, frozen edges
    included, is dropped by :class:`canon.Isomorphs` with ``flag_key`` as
    the certificate; its docstring argues that the states expanded, their
    order and the candidates emitted are those of keying every state.  The
    filter certifies a popped state from its carried tuple, index and ranks
    (``canon._flag_key``) and a bucket's lone member from its stored
    triangles; the ``canon`` module docstring argues that both give
    ``flag_key``.
    """

    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg
        self.max_v = cfg.max_vertices - 1
        self.expanded = 0
        self.emitted: list[GenusSurface] = []

    def run(self):
        # the one-triangle candidate is emitted directly: its vertices close
        # with valence 1, which ``_dead_end`` rejects in every other state;
        # its three vertices need max_v >= 3
        start = ((1, 2, 3),)
        if self.max_v >= 3:
            self.emit(start)
        seen = Isomorphs(flag_key, _flag_key)
        by_edge, by_vertex = build_index(start)
        # each state with the fields it carries (class docstring); every
        # vertex of one triangle is a boundary vertex
        stack = [(start, frozenset(), by_edge, by_vertex,
                  {v: link_ends(star) for v, star in by_vertex.items()},
                  {}, [],
                  _vertex_ranks(by_edge, by_vertex, (), self.cfg.max_vertices))]
        while stack:
            state = stack.pop()
            tris, frozen, by_edge, by_vertex = state[:4]
            if not seen.add(tris, by_edge, by_vertex, state[-1], frozen):
                continue
            self.expanded += 1
            children = self.children(*state)
            if children is None:
                self.emit(tris)
            else:
                stack.extend(children)
        return self

    def children(self, tris: tuple, frozen: frozenset, by_edge: dict,
                 by_vertex: dict, links: dict, frozen_ends: dict, cycles: list,
                 rank: dict):
        # fail first: the open edge at the most advanced vertex (docstring),
        # in one pass: 5 x the larger valence + the frozen ends at both ends,
        # at most 4, orders as the valence and then the ends; ties go to the
        # least edge
        e, best = None, -1
        for f, ts in by_edge.items():
            if len(ts) == 1 and f not in frozen:
                p, q = f
                kp, kq = len(by_vertex[p]), len(by_vertex[q])
                score = (5 * (kp if kp > kq else kq) + len(frozen_ends.get(p, ()))
                         + len(frozen_ends.get(q, ())))
                if score > best or score == best and f < e:
                    e, best = f, score
        if e is None:
            return None
        a, b = e
        out = []
        # freezing e leaves a vertex on at most two frozen edges, and the
        # opposite vertex of a boundary edge must end up on the boundary
        apex = by_edge[e][0][1]
        ends_a, ends_b = frozen_ends.get(a, ()), frozen_ends.get(b, ())
        if len(ends_a) < 2 and len(ends_b) < 2 and apex in links:
            changes = []
            for v, w, ends in ((a, b, ends_a), (b, a, ends_b)):
                # freezing e makes w a frozen end of v; the link is unchanged
                partner = links[v]
                changes.append((v, len(by_vertex[v]),
                                "interval" if len(partner) == 2 else "paths",
                                len(ends) == 1 and partner.get(ends[0]) == w))
            child = frozen | {e}
            # e closes a cycle exactly when the frozen path from a ends at b
            prev, walk = None, [a]
            while nxt := [w for w in frozen_ends.get(walk[-1], ()) if w != prev]:
                prev = walk[-1]
                walk.append(nxt[0])
            if walk[-1] == b:  # the walk is the new cycle: R3 round it
                new_cycles = cycles + [walk]
                split = _splits_boundary(
                    new_cycles, child, tris, by_edge,
                    [e] + [tuple(sorted(f)) for f in zip(walk, walk[1:])])
            else:  # the parent's cycles stand: R3 round e only (docstring)
                new_cycles = []
                split = _splits_boundary(cycles, child, tris, by_edge, (e,))
            if self._dead_end(changes, frozen, by_vertex, new_cycles,
                              split) is None:
                child_ends = {**frozen_ends, a: ends_a + (b,), b: ends_b + (a,)}
                # a marked edge counts 1 in a rank (``canon._vertex_ranks``)
                out.append((tris, child, by_edge, by_vertex, links, child_ends,
                            new_cycles or cycles,
                            {**rank, a: rank[a] + 1, b: rank[b] + 1}))
        n_v = len(by_vertex)
        # an interior vertex takes no triangle (``core.link_after``): the
        # third vertex is a boundary vertex or the fresh one, not the apex
        # of e's one triangle
        cands = sorted(links.keys() - {a, b, apex})
        if n_v < self.max_v:
            cands.append(n_v + 1)
        for x in cands:
            new_tri = tuple(sorted((a, b, x)))
            ea, eb = tuple(sorted((a, x))), tuple(sorted((b, x)))
            # an edge in two triangles takes no third (``core.link_after``)
            if (ea in frozen or eb in frozen or len(by_edge.get(ea, ())) > 1
                    or len(by_edge.get(eb, ())) > 1):
                continue
            changes = []
            # the new triangle adds the link edge (p, q) at v
            for v, p, q in ((a, b, x), (b, a, x), (x, a, b)):
                k = len(by_vertex.get(v, ())) + 1
                ends = frozen_ends.get(v, ())
                partner = links.get(v, {})
                shape = link_after(partner, p, q)
                # a finished interior vertex needs valence >= 4
                if shape == "bad" or (shape == "circle" and k < 4):
                    break
                # the frozen ends are never p or q (the triangle's edges at v
                # are not frozen); the new edge joins the paths ending in p, q
                closed = len(ends) == 2 and (
                    partner.get(ends[0]) == ends[1]
                    or {partner.get(p, p), partner.get(q, q)} == set(ends))
                changes.append((v, k, shape, closed))
            if len(changes) < 3:
                continue  # the loop stopped at a failing vertex
            # no triangle may end up with all three vertices interior; such a
            # triangle meets a, b or x, so one of them has just been finished
            # (a fresh x finishes none of them: it is on no link)
            finished = [v for v, _k, shape, _c in changes if shape == "circle"]
            if finished and any(
                    all(u in finished or u not in links for u in t)
                    for v in finished
                    for t in itertools.chain(
                        (tris[i] for i, _p, _q in by_vertex.get(v, ())),
                        (new_tri,))):
                continue
            # the new triangle has no frozen edge and closes no cycle of
            # them, so it splits no boundary
            if self._dead_end(changes, frozen, by_vertex, [], False) is None:
                child_tris, *fields = with_triangle(tris, by_edge, by_vertex,
                                                   links, new_tri)
                out.append((child_tris, frozen, *fields, frozen_ends, cycles,
                            _ranks_with(rank, self.cfg.max_vertices, by_edge,
                                        new_tri)))
        return out

    def _dead_end(self, changes, frozen, by_vertex, cycles,
                  split: bool) -> str | None:
        """The rule by which no leaf below a child passes
        :func:`genus_surface_admissible` (the one-triangle candidate aside, which
        ``run`` emits directly), or None.  ``changes`` holds, for each
        vertex v the child changes, (v, valence, link shape, closed) after
        the change, where closed means that one link path joins the far ends
        of v's two frozen edges; ``frozen`` and ``by_vertex`` are the
        parent's frozen edges and vertex index, ``cycles`` the closed cycles
        of a freeze child whose edge closes one (else none: the parent's
        passed R4), and ``split`` is :func:`_splits_boundary` of the child."""
        for v, k, shape, closed in changes:
            # R1: a frozen edge keeps its one triangle and a finished vertex
            # stays interior, so that boundary edge's link stays off the
            # boundary.  v is opposite a frozen edge when its star has one as
            # a link edge; only a cover child finishes v, and the link edges
            # of its new triangle are not frozen, so the parent's star does
            if shape == "circle" and any((p, q) in frozen
                                         for _i, p, q in by_vertex[v]):
                return "R1"
            # R2: a frozen end stays a link end, so a path joining both is
            # v's final link: no other link path can ever join it (the
            # boundary pinches at v), and v's valence is final (below 2)
            if closed and (shape != "interval" or k < 2):
                return "R2"
        # R3: the two triangles, their shared edge and their frozen edges
        # are permanent, and so is a closed cycle of frozen edges as a
        # boundary component, so the pair stays on two components
        if split:
            return "R3"
        # R4: the closed cycles are boundary components of every leaf below,
        # so the at-most-11 host rule reads them now (class docstring)
        if cycles and not _host_splits(cycles, self.cfg):
            return "R4"
        return None

    def emit(self, tris: tuple[Triangle, ...]) -> None:
        # a state is edge-connected with circle or path links, and no leaf
        # has a vertex on three frozen edges, so a leaf with boundary edges
        # is a surface with boundary.  No two leaves are isomorphic: a
        # leaf's frozen edges are exactly its boundary edges, so isomorphic
        # leaves are isomorphic as marked states, and run drops the second
        g = GenusSurface.from_triangles(tris)
        if genus_surface_admissible(g, self.cfg):
            self.emitted.append(g)


def enumerate_genus_surfaces(cfg: SearchConfig) -> list[GenusSurface]:
    """All isomorphism classes of admissible genus-surface candidates with
    at most max_vertices - 1 vertices (a superset of the minimal
    genus-surfaces of all roots within the budget), once each."""
    return _GenusSurfaceSearch(cfg).run().emitted


# --------------------------------------------------------------------------
# Step 3: gluings
# --------------------------------------------------------------------------

def _gluings(base: frozenset, cycle: Sequence[int], disc: Disc,
             base_edges: Collection[Edge], room: dict[int, range] | None = None,
             autos: Sequence[tuple[int, ...]] = ()) -> Iterator[frozenset]:
    """``base`` with ``disc`` glued onto its boundary cycle ``cycle``, for
    each of the disc's rotations (``Disc.rotations``) that adds no triangle
    or edge ``base`` already has (``base_edges``) and, when ``room`` is
    given, lands each rim vertex of disc valence k on a cycle vertex c with
    k in ``room[c]``, tested before the rotation's mapping is built.  One
    gluing is yielded per rotation class (one for a bare m-star) and per
    orbit of the automorphisms ``autos`` of ``base`` (tuples as from
    :func:`canon.automorphisms`).
    The disc's interior vertices get fresh labels after ``base``'s, so
    only its triangles and chords with every vertex on the rim can land on
    ``base``.  The chord test keeps both off: a rim triangle off a 3-cycle
    has a chord, and on a 3-cycle it is the whole disc, which lands on
    ``base`` only when ``base`` is that one triangle.  So ``disc`` must not
    be the lone triangle when ``base`` is one; no caller glues it so.

    Both prunings are McKay's orbit argument and exact.  A rotation r =
    (rho, o) sends rim vertex i to cycle position o + rho * i, and a rim
    symmetry sigma = (phi, s) of the disc sends it to s + phi * i, so r o
    sigma = (rho * phi, o + rho * s).  It passes ``room`` and the chord test
    exactly when r does (sigma keeps valences and chords), and glues r's
    complex relabeled on the fresh interior labels only.  An automorphism
    s of ``base``, extended to fix the fresh labels, maps ``base`` with the
    disc image I glued onto ``base`` with s(I) glued; the orbit of each
    image yielded is added to the seen images, and a later rotation that
    lands in it is skipped.  ``room`` is the valence
    precheck: a cycle vertex ends up with its valence in ``base`` plus its
    rim vertex's valence in the disc, and no other vertex's valence
    depends on the rotation, so the caller checks those once.

    For a connected surface ``base`` every yield is ``base`` with ``cycle``
    capped, so no caller validates it.  Rim edges land on cycle edges, each
    in one triangle on either side, and the chord test keeps every other
    disc edge off ``base``, so each edge is in two triangles but those on
    the other cycles.  A cycle vertex v with cycle neighbours u, w has a
    link path from u to w in ``base`` and another in the disc; a vertex
    inside both would make an edge at v a chord on ``base``, and a link edge
    (u, w) in both a disc triangle in ``base``, so the paths close into a
    circle.  The other links are unchanged and the result is connected.
    Capping a cycle keeps orientability and adds 1 to chi, so a
    genus-surface with every cycle capped is a closed surface of its capped
    class."""
    L = len(cycle)
    rim = disc.boundary
    if len(rim) != L:
        raise ValueError(f"cycle length {L} vs disc boundary length {len(rim)}")
    fresh = max(v for t in base for v in t)
    inner: dict[int, int] = {}
    for v in disc.valences:
        if v not in rim:
            fresh += 1
            inner[v] = fresh
    # the automorphisms extended to fix the fresh labels
    autos = [p + tuple(range(len(p), fresh + 1)) for p in autos]
    images = set()  # the disc's mapped triangles yielded, with their orbits
    for reflect, offset in disc.rotations:
        step = -1 if reflect else 1
        if room is not None and any(
                disc.valences[v] not in room[cycle[(offset + step * i) % L]]
                for i, v in enumerate(rim)):
            continue
        mapping = {v: cycle[(offset + step * i) % L] for i, v in enumerate(rim)}
        if any(tuple(sorted((mapping[a], mapping[b]))) in base_edges
               for a, b in disc.chords):
            continue
        mapping.update(inner)
        image = frozenset(tuple(sorted(mapping[v] for v in t)) for t in disc.triangles)
        if image not in images:
            images.add(image)
            images.update(frozenset(tuple(sorted((p[a], p[b], p[c])))
                                    for a, b, c in image) for p in autos)
            yield base | image


def _index_discs(cfg: SearchConfig) -> tuple[dict[int, list[Disc]],
                                             dict[int, list[Disc]]]:
    """The main discs, of hub valence m = 4 .. V-1, and the extra discs,
    both keyed by boundary length.  Up to 11 vertices the extra discs are
    those with at most four vertices: the triangle and the square."""
    extras = enumerate_discs(SearchConfig(4) if cfg.specialized else cfg)
    mains = (disc for m in range(4, cfg.max_vertices)
             for disc in enumerate_main_discs(m, cfg.max_vertices))
    main: dict[int, list[Disc]] = {}
    extra: dict[int, list[Disc]] = {}
    for index, discs in ((main, mains), (extra, extras)):
        for disc in discs:
            index.setdefault(len(disc.boundary), []).append(disc)
    return main, extra


def _roots_from_genus_surface(
    g: GenusSurface,
    cfg: SearchConfig,
    discs: tuple[dict[int, list[Disc]], dict[int, list[Disc]]],
) -> set[tuple[int, SurfaceClass, Code]]:
    """All roots arising from one genus-surface, as (V, class, code): an
    extra disc on each boundary cycle but the host, then a main disc of
    ``discs`` (from :func:`_index_discs`) on the host cycle, in valence
    range and glued once per orbit of ``g``'s automorphisms when there is
    no extra disc (see :func:`_gluings`)."""
    main_discs, extra_discs = discs
    found: set[tuple[int, SurfaceClass, Code]] = set()
    for cycle, others in _host_splits(g.boundary, cfg):
        # glue the extra discs first, each only if a main disc's hub still fits
        bases = {frozenset(g.triangles)}
        for other in others:
            glued_bases = set()
            for base in bases:
                n_base = max(v for t in base for v in t)
                base_edges = build_index(base)[0]
                for disc in extra_discs.get(len(other), ()):
                    if n_base + disc.interior_count + 1 <= cfg.max_vertices:
                        glued_bases.update(_gluings(base, other, disc, base_edges))
            bases = glued_bases
        # with an extra disc glued the base is not g, and g's automorphisms
        # do not act on it
        base_autos = () if others else g.automorphisms
        for base in bases:
            n_base = max(v for t in base for v in t)
            base_edges, by_vertex = build_index(base)
            # the vertices off the host cycle keep their valence, and a main
            # disc's inner vertices are in [4, m] (see Disc)
            off = [len(star) for v, star in by_vertex.items() if v not in cycle]
            if off and min(off) < 4:
                continue
            for disc in main_discs.get(len(cycle), ()):
                m = disc.max_interior_valence
                total = n_base + disc.interior_count
                if total > cfg.max_vertices or m < max(off, default=0):
                    continue
                room = {c: range(4 - len(by_vertex[c]), m - len(by_vertex[c]) + 1)
                        for c in cycle}
                for glued in _gluings(base, cycle, disc, base_edges, room,
                                      base_autos):
                    # a closed surface of g's capped class (see _gluings);
                    # the set keeps one of the gluings that are isomorphic
                    found.add((total, g.capped_class, minimal_code(glued)))
    return found


def enumerate_roots(cfg: SearchConfig) -> dict[tuple[int, SurfaceClass], set[Code]]:
    """All roots within the vertex budget, keyed by (V, surface class):
    the tetrahedron, and the gluings of main discs onto every genus-surface
    candidate (the one-triangle candidate for the other sphere roots)."""
    roots: dict[tuple[int, SurfaceClass], set[Code]] = {}

    def add(v: int, cls: SurfaceClass, code: Code) -> None:
        roots.setdefault((v, cls), set()).add(code)

    if cfg.max_vertices >= 4 and cfg.surface in (None, SPHERE):
        add(4, SPHERE, TETRAHEDRON)
    genus_surfaces = enumerate_genus_surfaces(cfg)
    if genus_surfaces:
        discs = _index_discs(cfg)
        results = _map_maybe_parallel(
            _roots_from_genus_surface,
            [(g, cfg, discs) for g in genus_surfaces],
            cfg.workers,
        )
        for batch in results:
            for v, cls, code in batch:
                add(v, cls, code)
    return roots


# --------------------------------------------------------------------------
# Step 4: non-roots
# --------------------------------------------------------------------------

def enumerate_nonroots(root: Sequence[Triangle], cfg: SearchConfig) -> set[Code]:
    """The minimal codes of every non-root within the vertex budget whose
    root is ``root``, the triangles of a closed surface in any labelling
    (a code of :func:`enumerate_roots` is one, see :func:`_gluings`), found
    by breadth-first vertex-adding moves.  Each triangulation is coned from
    its minimal code, on one triangle per orbit of its automorphisms: the
    least, as the code's triangles ascend.  This loses nothing, as the cone
    on s(t) is the cone on t relabeled by s with the new vertex fixed."""
    code, witnesses = minimal_code(root, with_witnesses=True)
    if _removable_vertices(code):
        raise ValueError("enumerate_nonroots needs a root")
    found: set[Code] = set()
    # (code, witnesses) of each triangulation the next level cones
    frontier = [(code, witnesses)]
    # each level of cones has one vertex more than the last; the last
    # level is never coned, so its cones are coded without witnesses
    for v in range(max(x for t in code for x in t) + 1, cfg.max_vertices + 1):
        nxt = []
        for code, witnesses in frontier:
            autos = automorphisms(witnesses)
            coned = set()
            for tri in code:
                if tri in coned:
                    continue
                a, b, c = tri
                coned.update(tuple(sorted((p[a], p[b], p[c]))) for p in autos)
                # the move keeps the root's surface closed
                cone = _cone(code, tri, v)
                if v < cfg.max_vertices:
                    moved, wits = minimal_code(cone, with_witnesses=True)
                else:
                    moved, wits = minimal_code(cone), None
                if moved not in found:
                    found.add(moved)
                    nxt.append((moved, wits))
        frontier = nxt
    return found


# --------------------------------------------------------------------------
# Full pipeline
# --------------------------------------------------------------------------

@dataclass
class EnumerationResult:
    counts: CountsTable
    roots: dict[tuple[int, SurfaceClass], set[Code]]
    nonroots: dict[tuple[int, SurfaceClass], set[Code]]

    def all_codes(self) -> dict[tuple[int, SurfaceClass], set[Code]]:
        out: dict[tuple[int, SurfaceClass], set[Code]] = {}
        for store in (self.roots, self.nonroots):
            for key, codes in store.items():
                out.setdefault(key, set()).update(codes)
        return out


def enumerate_all(cfg: SearchConfig) -> EnumerationResult:
    """Roots, then non-roots by repeated vertex-adding moves; returns the
    counts table plus the canonical triangle lists behind it."""
    roots = enumerate_roots(cfg)
    tasks, classes = [], []
    for (v, cls), codes in roots.items():
        if v < cfg.max_vertices:
            for code in codes:
                tasks.append((code, cfg))
                classes.append(cls)
    nonroots: dict[tuple[int, SurfaceClass], set[Code]] = {}
    grown = _map_maybe_parallel(enumerate_nonroots, tasks, cfg.workers)
    for cls, found in zip(classes, grown):
        for code in found:
            v = max(x for t in code for x in t)
            nonroots.setdefault((v, cls), set()).add(code)
    counts = CountsTable()
    for (v, cls), codes in roots.items():
        counts.add_root(v, cls, len(codes))
    for (v, cls), codes in nonroots.items():
        counts.add_nonroot(v, cls, len(codes))
    return EnumerationResult(counts=counts, roots=roots, nonroots=nonroots)


def _map_maybe_parallel(fn, tasks, workers: int):
    """``fn(*task)`` for each argument tuple of ``tasks``, in order."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    import concurrent.futures

    # the fork start method starts every worker at once, however few tasks
    workers = min(workers, len(tasks))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks),
                             chunksize=max(1, len(tasks) // (4 * workers))))

