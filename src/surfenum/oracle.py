"""Independent brute-force enumeration of closed triangulations.

The oracle grows every closed triangulation directly, without discs,
genus-surfaces or root moves: for each target maximal valence m it starts
from the closed star of an m-valent vertex and glues one triangle at a time
onto the smallest uncovered boundary edge, trying every admissible third
vertex, with canonical-form deduplication of intermediate states.  Only the
basic surface predicates and the canonical labeling are shared with the
pipeline, so agreement of the two results is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import Code, minimal_code
from .core import (
    SurfaceClass,
    SurfaceKind,
    Triangle,
    Triangulation,
    boundary_edges,
    edge_triangles,
    link_shape,
    surface_class,
    valences,
    validate,
    vertex_triangles,
)
from .listing import CountsTable, _map_maybe_parallel


def _m_fan(m: int) -> frozenset:
    rim = list(range(2, m + 2))
    return frozenset(
        tuple(sorted((1, rim[i], rim[(i + 1) % m]))) for i in range(m)
    )


def _children(tris: frozenset, m: int, max_vertices: int,
              max_triangles: int) -> list[frozenset] | None:
    open_edges = boundary_edges(tris)
    if not open_edges:
        return None  # closed: a leaf
    if len(tris) >= max_triangles:
        return []
    a, b = open_edges[0]
    vals = valences(tris)
    n_v = len(vals)
    cands = [x for x in sorted(vals) if x not in (a, b)]
    if n_v < max_vertices:
        cands.append(n_v + 1)
    edge_map = edge_triangles(tris)
    by_vertex = vertex_triangles(tris)
    out = []
    for x in cands:
        new_tri = tuple(sorted((a, b, x)))
        if new_tri in tris:
            continue
        ea, eb = tuple(sorted((a, x))), tuple(sorted((b, x)))
        if len(edge_map.get(ea, ())) > 1 or len(edge_map.get(eb, ())) > 1:
            continue
        ok = True
        for v in (a, b, x):
            if vals.get(v, 0) + 1 > m:
                ok = False
                break
            if link_shape(by_vertex.get(v, []) + [new_tri], v) == "bad":
                ok = False
                break
        if ok:
            out.append(tris | {new_tri})
    return out


def _enumerate_with_max_valence(m: int, max_vertices: int) -> set[Code]:
    """Canonical codes of all closed triangulations with maximal valence
    exactly m and at most max_vertices vertices."""
    max_triangles = max_vertices * (max_vertices - 1) // 3
    visited: set[Code] = set()
    leaves: set[Code] = set()
    stack = [_m_fan(m)]
    while stack:
        tris = stack.pop()
        code = minimal_code(tris)
        if code in visited:
            continue
        visited.add(code)
        children = _children(tris, m, max_vertices, max_triangles)
        if children is None:
            t = Triangulation(tris)
            if validate(t).kind is SurfaceKind.CLOSED_SURFACE:
                leaves.add(code)
        else:
            stack.extend(children)
    return leaves


def _code_is_root(code: Code) -> bool:
    # a 3-valent vertex is removable unless its link bounds a triangle;
    # computed from scratch so the oracle does not lean on the move module
    by_vertex: dict[int, list[Triangle]] = {}
    for t in code:
        for v in t:
            by_vertex.setdefault(v, []).append(t)
    for v, at_v in by_vertex.items():
        if len(at_v) == 3:
            link = tuple(sorted({x for t in at_v for x in t if x != v}))
            if link not in code:
                return False
    return True


@dataclass
class OracleResult:
    counts: CountsTable
    codes: dict[tuple[int, SurfaceClass], set[Code]] = field(default_factory=dict)


def _shard_task(args):
    m, max_vertices = args
    return _enumerate_with_max_valence(m, max_vertices)


def brute_force_enumerate(max_vertices: int, workers: int = 1) -> OracleResult:
    """Every closed triangulation with at most ``max_vertices`` vertices,
    up to isomorphism, found by direct growth."""
    if max_vertices < 3:
        raise ValueError("max_vertices must be at least 3")
    if max_vertices < 4:
        return OracleResult(CountsTable())
    tasks = [(m, max_vertices) for m in range(3, max_vertices)]
    result = OracleResult(CountsTable())
    for batch in _map_maybe_parallel(_shard_task, tasks, workers):
        for code in batch:
            v = max(x for t in code for x in t)
            # validated as a closed surface where it was found
            cls = surface_class(Triangulation(code))
            key = (v, cls)
            bucket = result.codes.setdefault(key, set())
            if code in bucket:
                continue
            bucket.add(code)
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
    from .listing import SearchConfig, enumerate_all

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
