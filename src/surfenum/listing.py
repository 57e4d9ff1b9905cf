"""The listing pipeline: discs, genus-surfaces, gluings, non-roots.

Closed triangulations are listed root-first.  Every root but the
tetrahedron, which is added directly, is cut into a genus-surface (the
piece carrying the topology) and one main disc holding a maximal-valence
vertex in its interior, plus at most one small extra disc when at most 11
vertices are requested.  For the sphere the genus-surface is one triangle,
so sphere roots are main discs with a 3-cycle boundary glued onto it by the
same gluing as every other root.  Genus-surface candidates are grown
exhaustively and pruned by the necessary conditions for minimal
decompositions: a partial candidate is dropped as soon as it breaks one that
no later triangle or frozen boundary edge can repair (valence caps, the
opposite vertex of a boundary edge on the boundary, one boundary path per
boundary vertex, adjacent triangles on one boundary component), and each
finished candidate is checked in full.  Gluing the discs back recovers every
root: an extra disc goes on each boundary cycle but the host one, then a
main disc on the host cycle, in every rotation and direction that adds no
triangle or edge already there; the root's vertex count is the glued base's
plus the main disc's interior count.  Repeated vertex-adding moves recover
the non-roots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .canon import Code, flag_key, minimal_code
from .core import (
    SPHERE,
    SurfaceClass,
    SurfaceKind,
    Triangle,
    Triangulation,
    boundary_cycles,
    closed_cycles,
    degrees,
    edge_triangles,
    euler_characteristic,
    normalize_triangles,
    surface_class,
    valences,
    validate,
    vertex_triangles,
)
from .moves import _cone, is_root

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
    """A triangulated disc: one boundary cycle, Euler characteristic 1."""

    triangles: Code
    boundary: tuple[int, ...]

    @classmethod
    def from_triangles(cls, triangles: Iterable[Triangle]) -> "Disc":
        tris = normalize_triangles(triangles)
        cycles = boundary_cycles(tris)
        if cycles is None or len(cycles) != 1:
            raise ValueError("a disc has exactly one boundary component")
        return cls(triangles=tris, boundary=tuple(cycles[0]))

    @property
    def vertex_count(self) -> int:
        return len({v for t in self.triangles for v in t})

    @property
    def interior_count(self) -> int:
        return self.vertex_count - len(self.boundary)


@dataclass(frozen=True)
class GenusSurface:
    """The non-disc piece of a decomposition, with its boundary cycles and
    the closed surface obtained by capping them.  Capping a cycle with a
    disc keeps orientability and adds 1 to chi, so the capped class comes
    from the piece's own orientability, chi and number of holes.
    ``from_triangles`` does not check that its input is a connected
    surface."""

    triangles: Code
    boundary: tuple[tuple[int, ...], ...]
    capped_class: SurfaceClass

    @classmethod
    def from_triangles(cls, triangles: Iterable[Triangle]) -> "GenusSurface":
        tris = normalize_triangles(triangles)
        cycles = tuple(tuple(c) for c in boundary_cycles(tris))
        capped = surface_class(Triangulation(tris), len(cycles))
        return cls(triangles=tris, boundary=cycles, capped_class=capped)

    @property
    def vertex_count(self) -> int:
        return max(v for t in self.triangles for v in t)


@dataclass(frozen=True)
class Decomposition:
    """(genus-surface, main disc, extra discs), each a triangle subset of a
    common closed triangulation."""

    genus_surface: tuple[Triangle, ...]
    main_disc: tuple[Triangle, ...]
    extra_discs: tuple[tuple[Triangle, ...], ...] = ()


@dataclass(frozen=True)
class DecompositionCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class CountsTable:
    """(V, surface) -> (triangulations, roots, non-roots)."""

    def __init__(self):
        self._rows: dict[tuple[int, SurfaceClass], list[int]] = {}

    def add_root(self, v: int, cls: SurfaceClass, count: int = 1) -> None:
        self._rows.setdefault((v, cls), [0, 0])[0] += count

    def add_nonroot(self, v: int, cls: SurfaceClass, count: int = 1) -> None:
        self._rows.setdefault((v, cls), [0, 0])[1] += count

    def get(self, v: int, cls: SurfaceClass) -> tuple[int, int, int]:
        roots, nonroots = self._rows.get((v, cls), (0, 0))
        return roots + nonroots, roots, nonroots

    def rows(self) -> list[tuple[int, SurfaceClass, int, int, int]]:
        out = []
        for (v, cls), (roots, nonroots) in self._rows.items():
            out.append((v, cls, roots + nonroots, roots, nonroots))
        out.sort(key=lambda row: (row[0], row[1].sort_key()))
        return out

    def merge(self, other: "CountsTable") -> None:
        for (v, cls), (roots, nonroots) in other._rows.items():
            self.add_root(v, cls, roots)
            self.add_nonroot(v, cls, nonroots)

    def total_triangulations(self) -> int:
        return sum(r + n for r, n in self._rows.values())

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

def _disc_children(tris: frozenset, bnd: tuple[int, ...], m: float,
                   max_vertices: int) -> list[tuple[frozenset, tuple[int, ...]]]:
    """One-triangle extensions of the disc ``tris`` with boundary cycle
    ``bnd`` that keep boundary valences at most m-1 and make no interior
    vertex of valence outside [4, m]: a fresh vertex on a boundary edge, or
    a closed corner that becomes interior with a new far edge."""
    vals = valences(tris)
    n_v = len(vals)  # labels are 1..n_v
    edges = edge_triangles(tris)
    n = len(bnd)
    out = []
    for i in range(n):
        a, b, c = bnd[i], bnd[(i + 1) % n], bnd[(i + 2) % n]
        # a fresh vertex on the edge (a, b): both endpoints stay on the boundary
        if n_v < max_vertices and vals[a] + 1 <= m - 1 and vals[b] + 1 <= m - 1:
            w = n_v + 1
            out.append((tris | {tuple(sorted((a, b, w)))},
                        bnd[:i + 1] + (w,) + bnd[i + 1:]))
        # close the corner at b with the triangle (a, b, c): b becomes
        # interior and (a, c) a boundary edge, which must be new; closing a
        # corner of a 3-cycle boundary would close the disc
        if (n > 3 and 4 <= vals[b] + 1 <= m and vals[a] + 1 <= m - 1
                and vals[c] + 1 <= m - 1 and tuple(sorted((a, c))) not in edges):
            j = (i + 1) % n
            out.append((tris | {tuple(sorted((a, b, c)))}, bnd[:j] + bnd[j + 1:]))
    return out


def _grow_discs(tris: frozenset, bnd: tuple[int, ...], m: float,
                max_vertices: int) -> list[Disc]:
    """Every disc grown from the disc ``tris`` with boundary ``bnd``, one
    canonical copy per isomorphism class, in discovery order."""
    seen = set()
    found = []
    stack = [(tris, bnd)]
    while stack:
        tris, bnd = stack.pop()
        key = flag_key(tris)
        if key in seen:
            continue
        seen.add(key)
        found.append(Disc.from_triangles(minimal_code(tris)))
        stack.extend(_disc_children(tris, bnd, m, max_vertices))
    return found


def enumerate_main_discs(max_interior_valence: int,
                         max_vertices: int) -> list[Disc]:
    """All discs usable as main discs: grown from the closed star of a
    vertex of the given valence, interior valences in [4, m] (except the
    bare 3-star), boundary valences at most m-1."""
    m = max_interior_valence
    # the closed star of the hub 1 with rim 2 .. m+1
    rim = tuple(range(2, m + 2))
    star = frozenset(tuple(sorted((1, rim[i - 1], rim[i]))) for i in range(m))
    if m == 3:
        # the bare star: the only disc whose interior vertex is 3-valent
        # ever needed (it closes up to the boundary of the tetrahedron)
        return [Disc.from_triangles(star)]
    return _grow_discs(star, rim, m, max_vertices)


def enumerate_discs(cfg: SearchConfig) -> set[Disc]:
    """All triangulated discs with at most the configured number of
    vertices and no 3-valent interior vertex, up to isomorphism."""
    return set(_grow_discs(frozenset({(1, 2, 3)}), (1, 2, 3), math.inf,
                           cfg.max_vertices))


# --------------------------------------------------------------------------
# Step 2: genus-surfaces
# --------------------------------------------------------------------------

def main_disc_boundary_lower_bound(
    g: GenusSurface, cond_a: bool, cond_b: bool, total_vertices: int
) -> int:
    """Lower bound on the main-disc boundary length for a non-sphere root.

    cond_a: the genus-surface has all but one of the root's vertices.
    cond_b: the maximal degree in the genus-surface is achieved on the
    boundary circle shared with the main disc.
    """
    md = max(degrees(g.triangles).values())
    slack = g.vertex_count - total_vertices
    if cond_a:
        return md + 1 if cond_b else md
    return md + 3 + slack if cond_b else md + 2 + slack


def genus_surface_admissible(g: GenusSurface | Triangulation,
                             cfg: SearchConfig) -> bool:
    """Necessary conditions for a candidate to be the genus-surface of a
    minimal decomposition of a root within the configured vertex budget,
    and of the configured surface if there is one."""
    if isinstance(g, Triangulation):
        if not validate(g).is_surface:
            raise ValueError("genus_surface_admissible needs a surface")
        g = GenusSurface.from_triangles(g.triangles)
    if not g.boundary:
        return False
    if cfg.surface is not None and g.capped_class != cfg.surface:
        return False
    if g.capped_class == SPHERE:
        # the only planar genus-surface of a minimal decomposition
        return len(g.triangles) == 1
    tris, comps = g.triangles, g.boundary
    n_budget = cfg.max_vertices
    n_verts = max(v for t in tris for v in t)
    bverts = {v for c in comps for v in c}
    vals = valences(tris)
    # vertex budget (the root needs at least one more vertex)
    if n_verts > n_budget - 1:
        return False
    # valence bounds, and at least one boundary vertex of valence >= 3
    for v, k in vals.items():
        if v in bverts:
            if not 2 <= k <= n_budget - 3:
                return False
        elif not 4 <= k <= n_budget - 2:
            return False
    if not any(vals[v] >= 3 for v in bverts):
        return False
    # the link of every boundary edge lies on the boundary
    edge_map = edge_triangles(tris)
    bedges = set()
    for e, ts in edge_map.items():
        if len(ts) == 1:
            bedges.add(e)
            opposite = next(x for x in ts[0] if x not in e)
            if opposite not in bverts:
                return False
    # every triangle meets the boundary
    for t in tris:
        if not any(v in bverts for v in t):
            return False
    # no edge-adjacent triangle pair touching two different boundary comps
    if _splits_boundary(bedges, edge_map):
        return False
    # some component must be able to host a main disc of the required
    # minimum boundary length (checked with the weakest of the four cases)
    md = max(degrees(tris).values())
    bound = md + min(0, 2 + n_verts - n_budget)
    return any(len(c) >= bound for c, _others in _host_splits(comps, cfg))


def _link_ends(star: Iterable[Triangle],
               v: int) -> tuple[dict[int, list[int]], dict[int, int]]:
    """The link of ``v`` in a growth state, whose links are circles or
    disjoint paths: link vertex -> neighbours, and path end -> other end."""
    adj: dict[int, list[int]] = {}
    for a, b, c in star:
        p, q = (b, c) if v == a else (a, c) if v == b else (a, b)
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    partner: dict[int, int] = {}
    for end, nbrs in adj.items():
        if len(nbrs) == 1 and end not in partner:
            prev, cur = end, nbrs[0]
            while len(adj[cur]) == 2:
                x, y = adj[cur]
                prev, cur = cur, (y if x == prev else x)
            partner[end] = cur
            partner[cur] = end
    return adj, partner


def _link_after(link, p: int, q: int) -> str:
    """:func:`core.link_shape` of the link ``link`` (from :func:`_link_ends`)
    with the new link edge (p, q), which is not in it yet."""
    adj, partner = link
    # a circle link, or a link vertex already on two link edges, is closed off
    if (adj and not partner) or len(adj.get(p, ())) == 2 or len(adj.get(q, ())) == 2:
        return "bad"
    if partner.get(p) == q:
        # the edge closes its path: a circle only if no other path remains
        return "circle" if len(partner) == 2 else "bad"
    # each of p, q already in the link is a path end, which the edge joins
    paths = len(partner) // 2 + 1 - (p in adj) - (q in adj)
    return "interval" if paths == 1 else "paths"


def _splits_boundary(bedges, edge_map) -> bool:
    """Whether two edge-adjacent triangles touch boundary edges ``bedges``
    of different boundary components.  In a growth state ``bedges`` are the
    frozen edges: a closed cycle of them is a whole final component, so no
    frozen edge off it can join it."""
    cycles = closed_cycles(bedges)
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

    for f in bedges:
        t = edge_map[f][0]
        mine = touched(t)
        a, b, c = t
        for g in ((a, b), (a, c), (b, c)):
            ts = edge_map[g]
            if len(ts) == 2:
                theirs = touched(ts[1] if ts[0] == t else ts[0])
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
    interior (circle link) gets no further triangle.  ``children`` and
    ``_freeze_ok`` cap valences, vertices, triangles and frozen edges, give
    a finished vertex valence >= 4 and a triangle a vertex off the interior,
    keep the opposite vertex of a frozen edge on the boundary, and in the
    specialized mode limit the closed cycles of frozen edges.
    ``_dead_end`` rejects a child that breaks a leaf condition of
    :func:`genus_surface_admissible` for good (rules R1-R3).  The leaves get
    the rest in ``emit``: the valence floors, the main-disc host bound and
    the capped surface class.
    """

    def __init__(self, cfg: SearchConfig, max_surface_vertices: int | None = None):
        self.cfg = cfg
        n = cfg.max_vertices
        self.max_v = n - 1
        if max_surface_vertices is not None:
            self.max_v = min(self.max_v, max_surface_vertices)
        # a non-sphere root spends at least five triangles on the main disc
        self.max_t = n * (n - 1) // 3 - 5
        self.visited: set = set()
        self.emitted: dict[Code, GenusSurface] = {}

    def run(self):
        # the one-triangle candidate is emitted directly: its vertices close
        # with valence 1, which ``_dead_end`` rejects in every other state;
        # its three frozen edges need max_v >= 3, as in the search
        if self.max_v >= 3:
            self.emit(frozenset({(1, 2, 3)}))
        stack = [(frozenset({(1, 2, 3)}), frozenset())]
        while stack:
            tris, frozen = stack.pop()
            key = flag_key(tris, frozen)
            if key in self.visited:
                continue
            self.visited.add(key)
            children = self.children(tris, frozen)
            if children is None:
                self.emit(tris)
            else:
                stack.extend(children)
        return self

    def children(self, tris: frozenset, frozen: frozenset):
        # one edge and one vertex index per state; the rest is read off them
        edge_map = edge_triangles(tris)
        by_vertex = vertex_triangles(tris)
        bedges = [e for e, ts in edge_map.items() if len(ts) == 1]
        open_edges = [e for e in bedges if e not in frozen]
        if not open_edges:
            return None
        e = min(open_edges)
        # no bad link and no edge in three triangles: a vertex has a circle
        # link (is interior) exactly when no boundary edge meets it
        bverts = {v for edge in bedges for v in edge}
        vals = {v: len(ts) for v, ts in by_vertex.items()}
        # the far ends of each vertex's frozen edges, and the vertex opposite
        # each frozen edge in its one triangle
        frozen_ends: dict[int, list[int]] = {}
        opposite = set()
        for f in frozen:
            x, y = f
            frozen_ends.setdefault(x, []).append(y)
            frozen_ends.setdefault(y, []).append(x)
            opposite.add(next(w for w in edge_map[f][0] if w != x and w != y))
        a, b = e
        links = {a: _link_ends(by_vertex[a], a), b: _link_ends(by_vertex[b], b)}
        out = []
        if self._freeze_ok(frozen, e, vals, frozen_ends, edge_map, bverts):
            changes = []
            for v, w in ((a, b), (b, a)):
                # freezing e makes w a frozen end of v; the link is unchanged
                ends = frozen_ends.get(v, ())
                partner = links[v][1]
                changes.append((v, vals[v],
                                "interval" if len(partner) == 2 else "paths",
                                len(ends) == 1 and partner.get(ends[0]) == w))
            if self._dead_end(changes, opposite,
                              _splits_boundary(frozen | {e}, edge_map)) is None:
                out.append((tris, frozen | {e}))
        n_v = len(vals)
        cands = [x for x in range(1, n_v + 1) if x != a and x != b]
        if n_v < self.max_v:
            cands.append(n_v + 1)
        if len(tris) >= self.max_t:
            return out
        n_max = self.cfg.max_vertices
        for x in cands:
            new_tri = tuple(sorted((a, b, x)))
            if new_tri in tris:
                continue
            ea, eb = tuple(sorted((a, x))), tuple(sorted((b, x)))
            if len(edge_map.get(ea, ())) > 1 or len(edge_map.get(eb, ())) > 1:
                continue
            if ea in frozen or eb in frozen:
                continue
            changes = []
            # the new triangle adds the link edge (p, q) at v
            for v, p, q in ((a, b, x), (b, a, x), (x, a, b)):
                # interior valence <= N-2, boundary valence <= N-3
                k = vals.get(v, 0) + 1
                ends = frozen_ends.get(v, ())
                if k > (n_max - 3 if ends else n_max - 2):
                    break
                link = links.get(v) or _link_ends(by_vertex.get(v, ()), v)
                shape = _link_after(link, p, q)
                # a finished interior vertex needs valence >= 4
                if shape == "bad" or (shape == "circle" and k < 4):
                    break
                # the frozen ends are never p or q (the triangle's edges at v
                # are not frozen); the new edge joins the paths ending in p, q
                partner = link[1]
                closed = len(ends) == 2 and (
                    partner.get(ends[0]) == ends[1]
                    or {partner.get(p, p), partner.get(q, q)} == set(ends))
                changes.append((v, k, shape, closed))
            if len(changes) < 3:
                continue  # the loop stopped at a failing vertex
            finished = {v: shape == "circle" for v, _k, shape, _c in changes}
            # no triangle may end up with all three vertices interior; such a
            # triangle meets a, b or x, so one of them has just been finished
            if any(all(finished[u] if u in finished else u not in bverts
                       for u in t)
                   for v in (a, b, x) if finished[v]
                   for t in itertools.chain(by_vertex.get(v, ()), (new_tri,))):
                continue
            # the new triangle has no frozen edge, so it splits no boundary
            if self._dead_end(changes, opposite, False) is None:
                out.append((tris | {new_tri}, frozen))
        return out

    def _freeze_ok(self, frozen, e, vals, frozen_ends, edge_map, bverts) -> bool:
        if len(frozen) + 1 > self.max_v:
            return False
        a, b = e
        cap = self.cfg.max_vertices - 3
        if vals[a] > cap or vals[b] > cap:
            return False
        if len(frozen_ends.get(a, ())) >= 2 or len(frozen_ends.get(b, ())) >= 2:
            return False
        # the opposite vertex of a boundary edge must end up on the boundary
        tri = edge_map[e][0]
        w = next(x for x in tri if x not in e)
        if w not in bverts:
            return False
        if self.cfg.specialized:
            # the closed cycles so far are final boundary components
            cycles = closed_cycles(frozen | {e})
            if cycles is None or (cycles and not _host_splits(cycles, self.cfg)):
                return False
        return True

    @staticmethod
    def _dead_end(changes, opposite, split: bool) -> str | None:
        """The rule by which no leaf below a child passes
        :func:`genus_surface_admissible` (the one-triangle candidate aside, which
        ``run`` emits directly), or None.  ``changes`` holds, for each
        vertex v the child changes, (v, valence, link shape, closed) after
        the change, where closed means that one link path joins the far ends
        of v's two frozen edges; ``opposite`` holds the vertices opposite a
        frozen edge, and ``split`` is :func:`_splits_boundary` of the child."""
        for v, k, shape, closed in changes:
            # R1: a frozen edge keeps its one triangle and a finished vertex
            # stays interior, so that boundary edge's link stays off the boundary
            if shape == "circle" and v in opposite:
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
        return None

    def emit(self, tris: frozenset) -> None:
        # a state is edge-connected with circle or path links, and no leaf
        # has a vertex on three frozen edges, so a leaf with boundary edges
        # is a surface with boundary
        if genus_surface_admissible(GenusSurface.from_triangles(tris), self.cfg):
            code = minimal_code(tris)
            if code not in self.emitted:
                self.emitted[code] = GenusSurface.from_triangles(code)


def enumerate_genus_surfaces(
    cfg: SearchConfig, max_surface_vertices: int | None = None
) -> set[GenusSurface]:
    """All isomorphism classes of admissible genus-surface candidates with
    at most max_vertices - 1 vertices (a superset of the minimal
    genus-surfaces of all roots within the budget).  The optional cap
    restricts the candidates' own vertex count without tightening the
    admissibility budget."""
    search = _GenusSurfaceSearch(cfg, max_surface_vertices).run()
    return set(search.emitted.values())


# --------------------------------------------------------------------------
# Step 3: gluings
# --------------------------------------------------------------------------

def _gluings(base: frozenset, cycle: Sequence[int],
             disc: Disc) -> Iterator[frozenset]:
    """``base`` with ``disc`` glued onto its boundary cycle ``cycle``, for
    each rotation and direction of the rim that adds no triangle or edge
    ``base`` already has.  The disc's interior vertices get fresh labels
    after ``base``'s, so only its triangles and chords with every vertex on
    the rim can land on ``base``."""
    L = len(cycle)
    if len(disc.boundary) != L:
        raise ValueError(f"cycle length {L} vs disc boundary length {len(disc.boundary)}")
    base_edges = set(edge_triangles(base))
    rim = set(disc.boundary)
    fresh = max(v for t in base for v in t)
    inner: dict[int, int] = {}
    for t in disc.triangles:
        for v in t:
            if v not in rim and v not in inner:
                fresh += 1
                inner[v] = fresh
    rim_tris = [t for t in disc.triangles if rim.issuperset(t)]
    chords = [e for e, ts in edge_triangles(disc.triangles).items()
              if len(ts) == 2 and rim.issuperset(e)]
    for reflect in (False, True):
        for offset in range(L):
            mapping = {v: cycle[(offset - i if reflect else offset + i) % L]
                       for i, v in enumerate(disc.boundary)}
            if any(tuple(sorted(mapping[v] for v in t)) in base for t in rim_tris):
                continue
            if any(tuple(sorted((mapping[a], mapping[b]))) in base_edges
                   for a, b in chords):
                continue
            mapping.update(inner)
            yield base | {tuple(sorted(mapping[v] for v in t)) for t in disc.triangles}


def _index_discs(cfg: SearchConfig):
    """The main discs, each with its hub valence m = 4 .. V-1, and the extra
    discs, both keyed by boundary length.  Up to 11 vertices the extra
    discs are the triangle and the square."""
    main: dict[int, list[tuple[int, Disc]]] = {}
    for m in range(4, cfg.max_vertices):
        for disc in enumerate_main_discs(m, cfg.max_vertices):
            main.setdefault(len(disc.boundary), []).append((m, disc))
    if cfg.specialized:
        extras = [Disc.from_triangles([(1, 2, 3)]),
                  Disc.from_triangles([(1, 2, 3), (1, 3, 4)])]
    else:
        extras = enumerate_discs(cfg)
    extra: dict[int, list[Disc]] = {}
    for disc in extras:
        extra.setdefault(len(disc.boundary), []).append(disc)
    return main, extra


def _roots_from_genus_surface(
    g: GenusSurface,
    cfg: SearchConfig,
    discs: tuple[dict[int, list[tuple[int, Disc]]], dict[int, list[Disc]]],
) -> set[tuple[int, SurfaceClass, Code]]:
    """All roots arising from one genus-surface, as (V, class, code): an
    extra disc on each boundary cycle but the host, then a main disc of
    ``discs`` (from :func:`_index_discs`) on the host cycle."""
    main_discs, extra_discs = discs
    found: set[tuple[int, SurfaceClass, Code]] = set()
    degs = degrees(g.triangles)
    md = max(degs.values())
    seen = set()  # flag keys of the gluings already checked
    for cycle, others in _host_splits(g.boundary, cfg):
        # glue the extra discs first (cheap, and independent of the main disc)
        bases = {frozenset(g.triangles)}
        for other in others:
            bases = {glued for base in bases for disc in extra_discs.get(len(other), ())
                     for glued in _gluings(base, other, disc)}
        cond_b = any(degs[v] == md for v in cycle)
        for base in bases:
            # the root sizes within the budget whose main-disc boundary
            # bound the host cycle meets
            n_base = max(v for t in base for v in t)
            totals = {n for n in range(n_base + 1, cfg.max_vertices + 1)
                      if len(cycle) >= main_disc_boundary_lower_bound(
                          g, n == g.vertex_count + 1, cond_b, n)}
            for m, disc in main_discs.get(len(cycle), ()):
                total = n_base + disc.interior_count
                if total not in totals:
                    continue
                for glued in _gluings(base, cycle, disc):
                    vals = valences(glued)
                    if min(vals.values()) < 4 or max(vals.values()) > m:
                        continue
                    # the disc's interior hub has valence m, so a class fixes
                    # m; validity is a class property too, so each class is
                    # checked once
                    key = flag_key(glued)
                    if key in seen:
                        continue
                    seen.add(key)
                    t = Triangulation(glued)
                    if validate(t).kind is not SurfaceKind.CLOSED_SURFACE:
                        continue
                    cls = surface_class(t)
                    if cls != g.capped_class:
                        raise AssertionError(
                            "glued surface class differs from capped genus-surface")
                    found.add((total, cls, minimal_code(glued)))
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
            _roots_from_genus_surface_task,
            [(g, cfg, discs) for g in genus_surfaces],
            cfg.workers,
        )
        for batch in results:
            for v, cls, code in batch:
                add(v, cls, code)
    return roots


def _roots_from_genus_surface_task(args):
    return _roots_from_genus_surface(*args)


# --------------------------------------------------------------------------
# Step 4: non-roots
# --------------------------------------------------------------------------

def enumerate_nonroots(root: Triangulation, cfg: SearchConfig) -> set[Triangulation]:
    """Every non-root within the vertex budget whose root is ``root``,
    found by breadth-first vertex-adding moves."""
    if not is_root(root):
        raise ValueError("enumerate_nonroots needs a root")
    seen = set()
    found: set[Code] = set()
    frontier = [root]
    while frontier:
        nxt = []
        for t in frontier:
            if t.vertex_count >= cfg.max_vertices:
                continue
            for tri in t.triangles:
                moved = _cone(t, tri)  # closed: the root was checked
                key = flag_key(moved.triangles)
                if key not in seen:
                    seen.add(key)
                    found.add(minimal_code(moved.triangles))
                    nxt.append(moved)
        frontier = nxt
    return {Triangulation(code) for code in found}


def _nonroots_task(args):
    code, cfg = args
    return code, {t.triangles
                  for t in enumerate_nonroots(Triangulation(code), cfg)}


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
    nonroots: dict[tuple[int, SurfaceClass], set[Code]] = {}
    tasks = []
    class_of: dict[Code, SurfaceClass] = {}
    for (v, cls), codes in roots.items():
        for code in codes:
            if v < cfg.max_vertices:
                tasks.append((code, cfg))
                class_of[code] = cls
    for code, grown in _map_maybe_parallel(_nonroots_task, tasks, cfg.workers):
        cls = class_of[code]
        for nr in grown:
            v = max(x for t in nr for x in t)
            nonroots.setdefault((v, cls), set()).add(nr)
    counts = CountsTable()
    for (v, cls), codes in roots.items():
        counts.add_root(v, cls, len(codes))
    for (v, cls), codes in nonroots.items():
        counts.add_nonroot(v, cls, len(codes))
    return EnumerationResult(counts=counts, roots=roots, nonroots=nonroots)


def _map_maybe_parallel(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


# --------------------------------------------------------------------------
# Decomposition validation
# --------------------------------------------------------------------------

def _piece_simplices(tris: Iterable[Triangle]):
    verts = {v for t in tris for v in t}
    edges = set(edge_triangles(tris))
    return verts, edges


def _is_disc(tris: tuple[Triangle, ...]) -> bool:
    try:
        t = Triangulation(_relabel_contiguous(tris))
    except ValueError:
        return False
    if validate(t).kind is not SurfaceKind.SURFACE_WITH_BOUNDARY:
        return False
    return euler_characteristic(t) == 1 and len(boundary_cycles(t.triangles)) == 1


def _relabel_contiguous(tris: Iterable[Triangle]) -> list[Triangle]:
    labels = sorted({v for t in tris for v in t})
    remap = {v: i + 1 for i, v in enumerate(labels)}
    return [tuple(sorted(remap[v] for v in t)) for t in tris]


def validate_decomposition(t: Triangulation, dec: Decomposition) -> DecompositionCheck:
    """Check every clause of the decomposition definition against ``t``."""
    pieces = [normalize_triangles(p)
              for p in (dec.genus_surface, dec.main_disc, *dec.extra_discs)]
    all_tris = set(t.triangles)
    for p in pieces:
        if not p:
            return DecompositionCheck(False, "empty piece")
        if not set(p) <= all_tris:
            return DecompositionCheck(False, "piece not a sub-triangulation")
    union = set().union(*(set(p) for p in pieces))
    if union != all_tris:
        return DecompositionCheck(False, "pieces do not cover the triangulation")
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if set(pieces[i]) & set(pieces[j]):
                return DecompositionCheck(False, "pieces share a triangle")
            vi, ei = _piece_simplices(pieces[i])
            vj, ej = _piece_simplices(pieces[j])
            common_v, common_e = vi & vj, ei & ej
            if not common_v and not common_e:
                continue
            # the intersection must be a triangulated circle
            cycles = closed_cycles(common_e)
            if cycles is None:
                return DecompositionCheck(False, "shared part is not a circle")
            on_cycle = {v for c in cycles for v in c}
            if any(a not in on_cycle for a, _b in common_e):
                return DecompositionCheck(False, "dangling shared edge")
            if on_cycle != common_v:
                return DecompositionCheck(False, "shared part is not a circle")
            if len(cycles) != 1:
                return DecompositionCheck(False, "shared part is not one circle")
    for p, name in [(pieces[1], "main disc")] + [
        (p, "extra disc") for p in pieces[2:]
    ]:
        if not _is_disc(p):
            return DecompositionCheck(False, f"{name} is not a disc")
    # the main disc holds a maximal-valence vertex in its interior
    vals = valences(t.triangles)
    mv = max(vals.values())
    main = pieces[1]
    interior = {v for tri in main for v in tri} - {
        v for c in boundary_cycles(main) for v in c
    }
    if not any(vals[v] == mv for v in interior):
        return DecompositionCheck(
            False, "main disc has no maximal-valence interior vertex")
    return DecompositionCheck(True)
