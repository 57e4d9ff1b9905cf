import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import pytest

from surfenum.canon import (Code, Isomorphs, _minimal_code, _vertex_ranks,
                            automorphisms, minimal_code)
from surfenum.cli import parse_triangulation_text
from surfenum.core import (KLEIN_BOTTLE, SPHERE, Edge, SurfaceClass,
                           SurfaceKind, Triangle, Triangulation,
                           _euler, boundary_cycles, classify, closed_cycles,
                           ValidationReport, build_index, link_ends,
                           normalize_triangles, validate, vertex_triangles)
from surfenum import listing, oracle
from surfenum.listing import (GenusSurface, SearchConfig, _host_splits,
                              _index_discs, _splits_boundary,
                              enumerate_genus_surfaces)
from surfenum.moves import MoveError, _cone, _require_closed

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


def edge_triangles(tris: Iterable[Triangle]) -> dict[Edge, list[Triangle]]:
    """Edge -> incident triangles of the sorted triples ``tris``: the edge
    map the references read, apart from ``core.build_index``."""
    out: dict[Edge, list[Triangle]] = {}
    for t in tris:
        a, b, c = t
        for e in ((a, b), (a, c), (b, c)):
            out.setdefault(e, []).append(t)
    return out


def valences(tris: Iterable[Triangle]) -> dict[int, int]:
    """Vertex -> number of incident triangles."""
    val: dict[int, int] = {}
    for t in tris:
        for v in t:
            val[v] = val.get(v, 0) + 1
    return val


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


def torus_grid(n: int) -> list[Triangle]:
    """The n x n grid on the torus: 2n^2 triangles, every vertex of
    valence 6."""
    label = lambda i, j: (i % n) * n + j % n + 1
    return ([(label(i, j), label(i + 1, j), label(i + 1, j + 1))
             for i in range(n) for j in range(n)]
            + [(label(i, j), label(i, j + 1), label(i + 1, j + 1))
               for i in range(n) for j in range(n)])


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


def link_shape(tris_at_v: Iterable[Triangle], v: int) -> str:
    """Classify the link of ``v``: 'circle', 'interval', 'paths' or 'bad'.

    'paths' means two or more disjoint simple paths (a pinch for a finished
    surface but an acceptable intermediate state during growth searches).
    The reference that ``core.link_after`` is compared with.
    """
    adj: dict[int, list[int]] = {}
    for t in tris_at_v:
        p, q = (x for x in t if x != v)
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    if any(len(nbrs) > 2 or len(set(nbrs)) != len(nbrs) for nbrs in adj.values()):
        return "bad"
    endpoints = sum(1 for nbrs in adj.values() if len(nbrs) == 1)
    # count connected components
    seen: set[int] = set()
    components = 0
    for start in adj:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    if endpoints == 0:
        return "circle" if components == 1 else "bad"
    if endpoints == 2 * components:
        return "interval" if components == 1 else "paths"
    return "bad"


def path_ends(tris_at_v: Iterable[Triangle], v: int) -> dict[int, int]:
    """Path end -> the other end of its path in the link of ``v``, walked on
    the link graph of its triangles, a circle or disjoint paths: the
    reference that ``core.link_ends`` is compared with."""
    adj: dict[int, list[int]] = {}
    for t in tris_at_v:
        p, q = (x for x in t if x != v)
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    ends = {}
    for end, nbrs in adj.items():
        if len(nbrs) == 1 and end not in ends:
            prev, cur = end, nbrs[0]
            while len(adj[cur]) == 2:
                x, y = adj[cur]
                prev, cur = cur, (y if x == prev else x)
            ends[end], ends[cur] = cur, end
    return ends


def rebuilt_links(tris) -> dict:
    """The links a growth state carries, rebuilt from its triangles:
    boundary vertex -> :func:`path_ends` of its star; no interior vertex
    has one."""
    boundary = {v for e, ts in edge_triangles(tris).items() if len(ts) == 1
                for v in e}
    return {v: path_ends(ts, v) for v, ts in vertex_triangles(tris).items()
            if v in boundary}


def star_entries(tris_at_v: Iterable[Triangle], v: int) -> list:
    """The ``core.build_index`` star entries (position, the two other
    vertices) of ``v`` in the triangle list ``tris_at_v``."""
    return [(i, *(x for x in t if x != v)) for i, t in enumerate(tris_at_v)]


def star_triangles(tris, entries) -> list:
    """The triangles of ``core.build_index`` star entries, read off the
    triangle tuple ``tris`` by position."""
    return [tris[entry[0]] for entry in entries]


def code_isomorphs() -> Isomorphs:
    """An isomorph filter that certifies by the minimal code, as the
    oracle's does: from the triangles, or from a state's carried index."""
    return Isomorphs(lambda tris, _marked: minimal_code(tris),
                     lambda tris, by_edge, by_vertex, _rank, _marked:
                     _minimal_code(tris, by_edge, by_vertex))


def oracle_start(m: int, max_vertices: int) -> tuple:
    """The growth state from which the oracle's valence task m starts: its
    m-fan with the indices, ranks and rim links that it carries."""
    fan = oracle._m_fan(m)
    by_edge, by_vertex = build_index(fan)
    return (fan, by_edge, by_vertex,
            {v: link_ends(by_vertex[v]) for v in range(2, m + 2)},
            _vertex_ranks(by_edge, by_vertex, (), max_vertices))


def orientable(tris: tuple[Triangle, ...]) -> bool:
    """Propagate a chosen cyclic vertex order per triangle across shared
    edges, as directed-edge sets; a conflict means non-orientable.  The
    reference for the orientability in ``core.validate``'s report."""
    by_edge = edge_triangles(tris)
    orient: dict[Triangle, tuple[int, int, int]] = {}
    for start in tris:
        if start in orient:
            continue
        orient[start] = start
        stack = [start]
        while stack:
            t = stack.pop()
            x, y, z = orient[t]
            directed = {(x, y), (y, z), (z, x)}
            a, b, c = t
            for e in ((a, b), (a, c), (b, c)):
                for u in by_edge[e]:
                    if u is t or u == t:
                        continue
                    # u must carry edge e in the opposite direction
                    want = e if (e[1], e[0]) in directed else (e[1], e[0])
                    w = next(v for v in u if v not in e)
                    target = (want[0], want[1], w)
                    if u in orient:
                        ox, oy, oz = orient[u]
                        have = {(ox, oy), (oy, oz), (oz, ox)}
                        if (want[0], want[1]) not in have:
                            return False
                    else:
                        orient[u] = target
                        stack.append(u)
    return True


def edge_components(tris: tuple[Triangle, ...]) -> int:
    """The number of components of ``tris`` joined along shared edges, by a
    plain depth-first search; the reference for the connectivity in
    ``core.validate``'s report."""
    by_edge = edge_triangles(tris)
    seen: set[Triangle] = set()
    components = 0
    for start in tris:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        stack = [start]
        while stack:
            a, b, c = stack.pop()
            for e in ((a, b), (a, c), (b, c)):
                for u in by_edge[e]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
    return components


def reference_report(tris: tuple[Triangle, ...]) -> ValidationReport:
    """The validation report of ``tris`` from the references above: the
    ends of an edge in three triangles and the vertices whose link is
    'bad' or 'paths' are offending; with none, more than one
    edge-component is not a surface, and a vertex with an 'interval' link
    puts the surface's boundary there.  The reference for
    ``core._validate``, which finds all of it in one walk."""
    offending = {v for e, ts in edge_triangles(tris).items() if len(ts) > 2
                 for v in e}
    shapes = {v: link_shape(ts, v) for v, ts in vertex_triangles(tris).items()}
    offending.update(v for v, shape in shapes.items()
                     if shape in ("bad", "paths"))
    if offending:
        return ValidationReport(SurfaceKind.NOT_A_SURFACE, tuple(sorted(offending)))
    if edge_components(tris) > 1:
        return ValidationReport(SurfaceKind.NOT_A_SURFACE)
    kind = (SurfaceKind.SURFACE_WITH_BOUNDARY if "interval" in shapes.values()
            else SurfaceKind.CLOSED_SURFACE)
    return ValidationReport(kind, orientable=orientable(tris))


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
    for cycle in boundary_cycles(edge_triangles(t.triangles)):
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


def canonical_witness(t: Triangulation) -> dict[int, int]:
    """One relabeling (old -> new) realizing the canonical form."""
    _code, wits = minimal_code(t.triangles, with_witnesses=True)
    return wits[0]


def is_isomorphic(a: Triangulation, b: Triangulation) -> bool:
    return minimal_code(a.triangles) == minimal_code(b.triangles)


def heawood_min_vertices(s: SurfaceClass) -> int:
    """Minimal vertex count of a triangulation of ``s``: the ceiling of
    (7 + sqrt(49 - 24 chi)) / 2, plus one for the three exceptional
    surfaces (orientable genus 2, the Klein bottle, non-orientable genus 3).
    """
    chi = s.euler_characteristic
    disc = 49 - 24 * chi
    root = math.isqrt(disc)
    if root * root == disc:
        bound = -((7 + root) // -2)
    else:
        bound = (7 + root) // 2 + 1
    exceptional = s in (SurfaceClass(True, 2), KLEIN_BOTTLE, SurfaceClass(False, 3))
    return bound + (1 if exceptional else 0)


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
    tris = t.triangles
    by_edge = edge_triangles(tris)
    return _euler(tris, by_edge) == 1 and len(boundary_cycles(by_edge)) == 1


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
        v for c in boundary_cycles(edge_triangles(main)) for v in c
    }
    if not any(vals[v] == mv for v in interior):
        return DecompositionCheck(
            False, "main disc has no maximal-valence interior vertex")
    return DecompositionCheck(True)


def reference_admissible(g: GenusSurface, cfg: SearchConfig) -> bool:
    """Necessary conditions for a candidate to be the genus-surface of a
    minimal decomposition of a root within the configured vertex budget,
    and of the configured surface if there is one: the leaf conditions that
    the genus-surface search's partial rules imply, checked in full."""
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
    if _splits_boundary(comps, bedges, tris, by_edge, bedges):
        return False
    # some boundary cycle can take the main disc
    return bool(_host_splits(comps, cfg))


def reference_nonroots(root: Triangulation, max_vertices: int) -> set[Code]:
    """The minimal codes of every non-root within ``max_vertices`` whose root
    is ``root``, by coning every triangle of every triangulation found,
    breadth first: the un-pruned reference for ``enumerate_nonroots``."""
    found: set[Code] = set()
    frontier = [root]
    while frontier:
        nxt = []
        for t in frontier:
            if t.vertex_count >= max_vertices:
                continue
            for tri in t.triangles:
                moved = Triangulation(_cone(t.triangles, tri, t.vertex_count + 1))
                code = minimal_code(moved.triangles)
                if code not in found:
                    found.add(code)
                    nxt.append(moved)
        frontier = nxt
    return found


def reference_rotations(rim: Sequence[int], autos) -> tuple[tuple[bool, int], ...]:
    """The rotations of a disc with rim ``rim`` and automorphisms ``autos``
    (as from :func:`canon.automorphisms`): each rim map (reflect, offset),
    rim vertex i to cycle position offset -/+ i, that is the least of its
    class r o p over the rim permutations p of the automorphisms,
    composed as position lists."""
    L = len(rim)
    at = {v: i for i, v in enumerate(rim)}
    perms = [[at[p[v]] for v in rim] for p in autos]
    rotations = []
    for reflect, offset in itertools.product((False, True), range(L)):
        r = [(offset - i if reflect else offset + i) % L for i in range(L)]
        composed = ([r[j] for j in perm] for perm in perms)
        if (reflect, offset) == min((pos[1] != (pos[0] + 1) % L, pos[0])
                                    for pos in composed):
            rotations.append((reflect, offset))
    return tuple(rotations)


def reference_discs(tris: Iterable[Triangle], m: float,
                    max_vertices: int) -> set[tuple]:
    """(triangles, boundary, rotations) of every disc grown from the disc
    ``tris``, one per isomorphism class: the un-pruned reference for
    ``listing._grow_discs``.  It codes every disc it pops and pushes every
    one-triangle extension that keeps boundary valences at most m-1 and
    makes no interior vertex of valence outside [4, m]: a fresh vertex on a
    boundary edge, or a closed corner whose far edge is new."""
    found: dict[Code, tuple] = {}
    stack = [frozenset(tris)]
    while stack:
        tris = stack.pop()
        code, witnesses = minimal_code(tris, with_witnesses=True)
        if code in found:
            continue
        [rim] = boundary_cycles(build_index(code)[0])
        found[code] = (code, tuple(rim),
                       reference_rotations(rim, automorphisms(witnesses)))
        by_edge, by_vertex = build_index(tris)
        [bnd] = boundary_cycles(by_edge)
        n_v, n = len(by_vertex), len(bnd)
        for i in range(n):
            a, b, c = bnd[i], bnd[(i + 1) % n], bnd[(i + 2) % n]
            ka, kb, kc = (len(by_vertex[v]) + 1 for v in (a, b, c))
            if n_v < max_vertices and ka <= m - 1 and kb <= m - 1:
                stack.append(tris | {tuple(sorted((a, b, n_v + 1)))})
            if (4 <= kb <= m and ka <= m - 1 and kc <= m - 1
                    and tuple(sorted((a, c))) not in by_edge):
                stack.append(tris | {tuple(sorted((a, b, c)))})
    return set(found.values())


def reference_chords(disc) -> list[Edge]:
    """The edges inside ``disc`` with both ends on its rim, from its
    triangles and boundary alone."""
    rim = set(disc.boundary)
    return [e for e, ts in edge_triangles(disc.triangles).items()
            if len(ts) == 2 and rim.issuperset(e)]


def reference_interior_count(disc) -> int:
    """The vertices of ``disc`` off its rim, from its triangles and
    boundary alone."""
    return len({v for t in disc.triangles for v in t}) - len(disc.boundary)


def reference_gluings(base: frozenset, cycle, disc):
    """``base`` with ``disc`` glued onto ``cycle`` in every rotation and
    direction that adds no edge ``base`` has, each distinct triangle set
    once: the un-pruned reference for ``listing._gluings``."""
    L = len(cycle)
    base_edges = set(edge_triangles(base))
    rim = set(disc.boundary)
    fresh = max(v for t in base for v in t)
    inner: dict[int, int] = {}
    for t in disc.triangles:
        for v in t:
            if v not in rim and v not in inner:
                fresh += 1
                inner[v] = fresh
    chords = reference_chords(disc)
    images = set()
    for reflect in (False, True):
        for offset in range(L):
            mapping = {v: cycle[(offset - i if reflect else offset + i) % L]
                       for i, v in enumerate(disc.boundary)}
            if any(tuple(sorted((mapping[a], mapping[b]))) in base_edges
                   for a, b in chords):
                continue
            mapping.update(inner)
            image = frozenset(tuple(sorted(mapping[v] for v in t))
                              for t in disc.triangles)
            if image not in images:
                images.add(image)
                yield base | image


def reference_roots(cfg: SearchConfig) -> dict[tuple[int, SurfaceClass], set[Code]]:
    """``enumerate_roots`` with every gluing of :func:`reference_gluings`
    built, valence-checked and keyed, with no orbit pruning and no valence
    precheck: the reference for the gluing stage.  It reads no disc's
    stored rim data: m is the hub valence each main disc was grown for."""
    roots: dict[tuple[int, SurfaceClass], set[Code]] = {}
    if cfg.max_vertices >= 4 and cfg.surface in (None, SPHERE):
        roots[4, SPHERE] = {listing.TETRAHEDRON}
    main_discs = [(m, disc) for m in range(4, cfg.max_vertices)
                  for disc in listing.enumerate_main_discs(m, cfg.max_vertices)]
    _main, extra_discs = _index_discs(cfg)
    for g in enumerate_genus_surfaces(cfg):
        for cycle, others in _host_splits(g.boundary, cfg):
            bases = {frozenset(g.triangles)}
            for other in others:
                bases = {glued for base in bases
                         for disc in extra_discs.get(len(other), ())
                         if (max(v for t in base for v in t)
                             + reference_interior_count(disc) + 1
                             <= cfg.max_vertices)
                         for glued in reference_gluings(base, other, disc)}
            for base in bases:
                n_base = max(v for t in base for v in t)
                for m, disc in main_discs:
                    total = n_base + reference_interior_count(disc)
                    if len(disc.boundary) != len(cycle) or total > cfg.max_vertices:
                        continue
                    for glued in reference_gluings(base, cycle, disc):
                        vals = valences(glued).values()
                        if min(vals) >= 4 and max(vals) <= m:
                            roots.setdefault((total, g.capped_class), set()).add(
                                minimal_code(glued))
    return roots
