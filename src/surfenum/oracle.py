"""Independent brute-force enumeration of closed triangulations.

The oracle grows every closed triangulation directly, without discs,
genus-surfaces or root moves: for each target maximal valence m it starts
from the closed star of an m-valent vertex and glues one triangle at a time
onto one uncovered boundary edge, trying every admissible third vertex.  A
state isomorphic to one already expanded is dropped.  Only the basic surface
predicates (the link test among them), the index that the growth and the
labeling read (``core.build_index``), the canonical labeling and the
buckets of the isomorph filter, with their ranks, are shared with the
pipeline, so agreement of the two results is meaningful evidence.

The edge decided next is the one whose ends have the most triangles: the
larger star of its two ends, then the smaller, both descending, then the
least edge by label.  This is the fail-first rule of constraint search
(Haralick & Elliott, Artificial Intelligence 14 (1980)): a fuller star
leaves the third vertex the fewest choices under the valence cap and the
link test, so the tree is narrower near the root.  Any order is complete:
every closed surface that contains a state covers each of its uncovered
edges, so trying every third vertex on any one of them loses none of those
surfaces.  Each pruning rule holds for good, whatever is decided later,
because a glued triangle stays: an edge in three triangles, a valence above
m or a bad link is never repaired, and the vertex cap only binds harder.

A growth state carries its triangles as a tuple in the order they were
glued, their ``core.build_index`` (edge and vertex index by position), its
vertex ranks and its boundary vertices' links.  Each valence task builds
them once, for its m-fan; a child gets its parent's through
``core.with_triangle``, which appends the new triangle, and
``canon._ranks_with``, so a parent's tuple, dicts and lists never change.
The link test is ``core.link_after`` on the carried links' path ends.  Its
docstring argues that an interior vertex takes no further triangle and an
edge in two triangles no third, so the third vertex x of a new triangle on
the edge (a, b) is tried only among the boundary vertices (those with a
link) and the one fresh vertex, and skipped when (a, x) or (b, x) is in two
triangles.  A fresh x has valence 1 and the one link edge (a, b), so only a
and b are tested.

Open states are deduplicated by :class:`canon.Isomorphs`, the filter the
genus-surface search uses too, with the minimal code as the certificate:
an arriving state's from its carried tuple and index
(``canon._minimal_code``), a bucket's lone member's from its stored
triangles (``minimal_code``, which builds the index and runs the same
kernel).  The ``canon`` module docstring argues that both give the same
code, and the ``Isomorphs`` docstring that the filter is exact.  Sharing
the buckets keeps the oracle independent: a wrong invariant could split
isomorphic states into different buckets, which costs extra work but loses
nothing, and it can never merge two classes, as only the certificate does
that, here the reference code.  Closed states never enter the buckets:
each is coded from its carried index where it is found and, when its code
is new, validated on that carried index too (``core._validate`` reads it in
glue order), and its class is read off that validation report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import (Code, Isomorphs, _minimal_code, _ranks_with, _vertex_ranks,
                    minimal_code)
from .core import (
    Edge,
    SurfaceClass,
    SurfaceKind,
    Triangle,
    _surface_class,
    _validate,
    build_index,
    link_after,
    link_ends,
    vertex_triangles,
    with_triangle,
)
from .listing import CountsTable, SearchConfig, _map_maybe_parallel, enumerate_all

# a growth state: its triangles in the order they were glued, with their
# ``core.build_index`` (edge and vertex index by position), its boundary
# vertices' links (path ends) and its vertex ranks
State = tuple[tuple[Triangle, ...], dict[Edge, list[tuple[int, int]]],
              dict[int, list[tuple[int, int, int]]], dict[int, dict[int, int]],
              dict[int, int]]


def _m_fan(m: int) -> tuple[Triangle, ...]:
    rim = list(range(2, m + 2))
    return tuple(
        tuple(sorted((1, rim[i], rim[(i + 1) % m]))) for i in range(m)
    )


def _children(tris: tuple[Triangle, ...], by_edge: dict, by_vertex: dict,
              links: dict[int, dict], rank: dict[int, int], m: int,
              max_vertices: int) -> list[State]:
    # fail first (module docstring) in one pass: m x the larger star + both
    # stars, each at most m, orders as the larger and then the smaller star;
    # ties go to the least edge
    e, best = None, -1
    for f, ts in by_edge.items():
        if len(ts) == 1:
            kp, kq = len(by_vertex[f[0]]), len(by_vertex[f[1]])
            score = m * (kp if kp > kq else kq) + kp + kq
            if score > best or score == best and f < e:
                e, best = f, score
    if e is None:
        return []  # closed: a leaf
    a, b = e
    # (a, b, taken) is the one triangle already on (a, b)
    taken = by_edge[(a, b)][0][1]
    # an interior vertex takes no triangle (``core.link_after``): the third
    # vertex is a boundary vertex or the fresh one
    cands = sorted(links.keys() - {a, b, taken})
    n_v = len(by_vertex)
    if n_v < max_vertices:
        cands.append(n_v + 1)
    out = []
    for x in cands:
        # a < b, so the keys need no sort
        new_tri = (x, a, b) if x < a else (a, x, b) if x < b else (a, b, x)
        ea = (a, x) if a < x else (x, a)
        eb = (b, x) if b < x else (x, b)
        # an edge in two triangles takes no third (``core.link_after``)
        if len(by_edge.get(ea, ())) > 1 or len(by_edge.get(eb, ())) > 1:
            continue
        # the new triangle adds the link edge (p, q) at v; a fresh x has the
        # one link edge (a, b), so only a and b are tested
        tests = ((a, b, x), (b, a, x), (x, a, b))
        for v, p, q in tests if x <= n_v else tests[:2]:
            if len(by_vertex[v]) + 1 > m:
                break
            if link_after(links[v], p, q) == "bad":
                break
        else:
            out.append((*with_triangle(tris, by_edge, by_vertex, links, new_tri),
                        _ranks_with(rank, max_vertices, by_edge, new_tri)))
    return out


def _enumerate_with_max_valence(m: int,
                                max_vertices: int) -> dict[Code, SurfaceClass]:
    """Canonical code -> class of every closed triangulation with maximal
    valence exactly m and at most max_vertices vertices."""
    # the reference code, from the triangles or from a state's carried index
    seen = Isomorphs(lambda tris, _marked: minimal_code(tris),
                     lambda tris, by_edge, by_vertex, _rank, _marked:
                     _minimal_code(tris, by_edge, by_vertex))
    leaves: dict[Code, SurfaceClass] = {}
    fan = _m_fan(m)
    by_edge, by_vertex = build_index(fan)
    # the rim vertices 2..m+1 are the fan's boundary vertices
    stack = [(fan, by_edge, by_vertex,
              {v: link_ends(by_vertex[v]) for v in range(2, m + 2)},
              _vertex_ranks(by_edge, by_vertex, (), max_vertices))]
    while stack:
        state = stack.pop()
        tris, by_edge, by_vertex = state[:3]
        # no edge is in three triangles, so the state is closed exactly when
        # every edge is in two: 2E = 3T
        if 2 * len(by_edge) == 3 * len(tris):
            code = _minimal_code(tris, by_edge, by_vertex)
            if code not in leaves:
                report = _validate(tris, by_edge, by_vertex)
                if report.kind is SurfaceKind.CLOSED_SURFACE:
                    # chi = V - E + T with 2E = 3T
                    leaves[code] = _surface_class(
                        len(by_vertex) - len(tris) // 2, report.orientable)
        elif seen.add(tris, by_edge, by_vertex, state[-1]):
            stack.extend(_children(*state, m, max_vertices))
    return leaves


def _code_is_root(code: Code) -> bool:
    # a 3-valent vertex is removable unless its link bounds a triangle;
    # decided here so the oracle does not lean on the move module
    for v, at_v in vertex_triangles(code).items():
        if len(at_v) == 3:
            link = tuple(sorted({x for t in at_v for x in t if x != v}))
            if link not in code:
                return False
    return True


@dataclass
class OracleResult:
    counts: CountsTable
    codes: dict[tuple[int, SurfaceClass], set[Code]] = field(default_factory=dict)


def brute_force_enumerate(max_vertices: int, workers: int = 1) -> OracleResult:
    """Every closed triangulation with at most ``max_vertices`` vertices,
    up to isomorphism, found by direct growth."""
    if max_vertices < 3:
        raise ValueError("max_vertices must be at least 3")
    if workers < 1:
        raise ValueError("workers must be positive")
    tasks = [(m, max_vertices) for m in range(3, max_vertices)]
    result = OracleResult(CountsTable())
    for batch in _map_maybe_parallel(_enumerate_with_max_valence, tasks, workers):
        # each code validated and classified where it was found
        for code, cls in batch.items():
            v = max(x for t in code for x in t)
            # no two tasks share a code: each task's codes have their own
            # largest valence
            result.codes.setdefault((v, cls), set()).add(code)
            if _code_is_root(code):
                result.counts.add_root(v, cls)
            else:
                result.counts.add_nonroot(v, cls)
    return result


@dataclass
class CrossCheckReport:
    equal: bool
    total: int
    missing: dict[tuple[int, SurfaceClass], set[Code]]
    extra: dict[tuple[int, SurfaceClass], set[Code]]

    def summary(self) -> str:
        if self.equal:
            return f"cross-check OK: {self.total} triangulations agree"
        miss = sum(len(v) for v in self.missing.values())
        ext = sum(len(v) for v in self.extra.values())
        return (f"cross-check FAILED: {miss} missing from the pipeline, "
                f"{ext} not found by the oracle")


def cross_validate(max_vertices: int, workers: int = 1) -> CrossCheckReport:
    """Compare the decomposition pipeline against the brute-force oracle as
    sets of canonical forms, not just counts."""
    cfg = SearchConfig(max_vertices=max_vertices, workers=workers)
    oracle = brute_force_enumerate(max_vertices, workers=workers)
    pipeline = enumerate_all(cfg)
    mine = pipeline.all_codes()
    missing: dict[tuple[int, SurfaceClass], set[Code]] = {}
    extra: dict[tuple[int, SurfaceClass], set[Code]] = {}
    for key in set(oracle.codes) | set(mine):
        want = oracle.codes.get(key, set())
        got = mine.get(key, set())
        if want - got:
            missing[key] = want - got
        if got - want:
            extra[key] = got - want
    total = sum(len(v) for v in oracle.codes.values())
    return CrossCheckReport(
        equal=not missing and not extra, total=total,
        missing=missing, extra=extra,
    )
