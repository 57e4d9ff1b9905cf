import hashlib
import random
from collections import Counter

import pytest

from conftest import (edge_triangles, link_shape, oracle_start, rebuilt_links,
                      relabel, star_triangles, valences)
from surfenum import canon, oracle
from surfenum.canon import Isomorphs, _vertex_ranks, minimal_code
from surfenum.core import (SurfaceKind, Triangulation, build_index, classify,
                           validate, vertex_triangles)
from surfenum.listing import SearchConfig
from surfenum.oracle import brute_force_enumerate, cross_validate


def oracle_digest(result) -> str:
    """sha256 of the sorted (V, class name, sorted codes) of an oracle
    result's codes."""
    rows = sorted((v, cls.name, sorted(codes))
                  for (v, cls), codes in result.codes.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# oracle_digest of brute_force_enumerate(V) when the open edge decided next
# was the least by label
ORACLE_SHA256 = {
    4: "bb617fb84921a4358aee6a5764093e49d434567004c579721a4cb1a7a2f5f5f8",
    5: "b45a5d3c79d19853d67b49fe553940a7c99f66b92593d0e447abf4faae2506aa",
    6: "696c650bae085609c8508c48565ad6c2cf1cfeee94ffdc6b8fbdba7aaaf8a2d1",
    7: "b46b3e30198e53b5c6b0e8d28c73802b269b3233dbba01cdf3e7f9e6f0f7a7df",
    8: "b8fab3ac3c9d4cd3010627673427a69abcdc427f9a92203cb7651813f1e4adb6",
}


class TestBruteForce:
    @pytest.mark.parametrize("v", [4, 5, 6, 7, 8])
    def test_codes_are_pinned(self, v):
        assert oracle_digest(brute_force_enumerate(v)) == ORACLE_SHA256[v]

    def test_counts_up_to_six(self):
        result = brute_force_enumerate(6)
        rows = [(v, cls.name, t, r, n) for v, cls, t, r, n in result.counts.rows()]
        assert rows == [
            (4, "S2", 1, 1, 0),
            (5, "S2", 1, 0, 1),
            (6, "S2", 2, 1, 1),
            (6, "RP2", 1, 1, 0),
        ]

    def test_counts_at_seven(self):
        result = brute_force_enumerate(7)
        at_seven = {(cls.name): (t, r, n)
                    for v, cls, t, r, n in result.counts.rows() if v == 7}
        assert at_seven == {"S2": (5, 1, 4), "T2": (1, 1, 0), "RP2": (3, 2, 1)}

    def test_codes_are_canonical_closed_surfaces(self):
        result = brute_force_enumerate(6)
        for (v, cls), codes in result.codes.items():
            for code in codes:
                t = Triangulation(code)
                assert t.vertex_count == v
                assert validate(t).kind is SurfaceKind.CLOSED_SURFACE
                assert minimal_code(code) == code

    def test_trivial_budgets(self):
        assert brute_force_enumerate(3).counts.rows() == []
        by_v = Counter(v for (v, _cls) in brute_force_enumerate(4).codes)
        assert by_v == {4: 1}

    @pytest.mark.parametrize("budget", [-1, 0, 2])
    def test_budget_below_three_is_rejected(self, budget):
        # the same check and message as SearchConfig
        with pytest.raises(ValueError, match="at least 3"):
            SearchConfig(max_vertices=budget)
        with pytest.raises(ValueError, match="at least 3"):
            brute_force_enumerate(budget)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_is_rejected(self, workers):
        # the same check and message as SearchConfig
        with pytest.raises(ValueError, match="workers must be positive"):
            SearchConfig(max_vertices=8, workers=workers)
        with pytest.raises(ValueError, match="workers must be positive"):
            brute_force_enumerate(8, workers=workers)

    def test_valence_tasks_are_disjoint(self):
        # each task keeps the codes whose largest valence is its own m, so
        # no two tasks share a code and the merge keeps no duplicate check
        tasks = {m: oracle._enumerate_with_max_valence(m, 8) for m in range(3, 8)}
        assert [len(codes) for codes in tasks.values()] == [1, 2, 6, 20, 28]
        assert len(set().union(*tasks.values())) == 57
        for m, codes in tasks.items():
            assert all(max(valences(code).values()) == m for code in codes)
            # each class is read off the report of the leaf's validation
            for code, cls in codes.items():
                assert cls == classify(Triangulation(code)), code

    def test_minimal_code_calls(self, monkeypatch):
        calls = Counter()

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        # the certificates from stored triangles and from a carried index,
        # and the index builds of the oracle's fans and of minimal_code
        counting(oracle, "minimal_code")
        counting(oracle, "_minimal_code")
        counting(oracle, "build_index")
        counting(canon, "build_index")
        brute_force_enumerate(8)
        # one certificate per growth state whose invariant another state
        # shares, and per closed leaf; 1,267 when every popped state was
        # coded, 546 when the open edge decided next was the least by label
        assert calls["minimal_code"] + calls["_minimal_code"] == 381
        # only the 121 lone members of buckets are coded from their stored
        # triangles, each building an index, and each valence task builds
        # one for its m-fan; 381 builds when every certificate built one
        assert calls["minimal_code"] == 121
        assert calls["build_index"] == 5 + 121


def _growth_states(max_vertices: int) -> dict:
    """Code -> one growth state of that code, for every state the oracle
    expands at this budget (deduplicated by code alone)."""
    states = {}
    for m in range(3, max_vertices):
        stack = [oracle_start(m, max_vertices)]
        while stack:
            state = stack.pop()
            code = minimal_code(state[0])
            if code in states:
                continue
            states[code] = state[0]
            stack.extend(oracle._children(*state, m, max_vertices))
    return states


def _invariant(tris) -> int:
    # the ranks rebuilt in the base of an eight-vertex budget
    return Isomorphs.bucket(tris, _vertex_ranks(
        edge_triangles(tris), vertex_triangles(tris), (), 8))


class TestInvariant:
    def test_relabeling_invariant_on_eight_vertex_states(self):
        states = _growth_states(8)
        assert len(states) == 637
        rng = random.Random(14)
        for tris in states.values():
            key = _invariant(tris)
            for _ in range(3):
                moved = relabel(Triangulation(tris), rng)[0].triangles
                assert _invariant(moved) == key
        # states that share their invariant with a non-isomorphic one
        by_key = Counter(_invariant(tris) for tris in states.values())
        assert sum(n for n in by_key.values() if n > 1) == 40

    def test_non_isomorphic_states_can_share_it(self):
        # a 5-star at 1 with three triangles on its rim: the third meets
        # the first (at 7) or the second (at 8)
        star = ((1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                (2, 3, 7), (2, 4, 8))
        first, second = star + ((2, 5, 7),), star + ((2, 5, 8),)
        assert _invariant(first) == _invariant(second)
        assert minimal_code(first) != minimal_code(second)


def _reference_children(tris, m: int, max_vertices: int) -> list:
    """The triangle tuples of a growth state's children, from indices built
    afresh, with every labelled vertex and the fresh one tried as the third
    vertex and the reference link shape tested at a, b and x."""
    by_edge, by_vertex = edge_triangles(tris), vertex_triangles(tris)
    open_edges = [e for e, ts in by_edge.items() if len(ts) == 1]
    if not open_edges:
        return []
    # the oracle's fail-first edge
    a, b = min(open_edges, key=lambda e: (
        -max(len(by_vertex[e[0]]), len(by_vertex[e[1]])),
        -min(len(by_vertex[e[0]]), len(by_vertex[e[1]])), e))
    n_v = len(by_vertex)
    out = []
    for x in range(1, n_v + 2 if n_v < max_vertices else n_v + 1):
        new_tri = tuple(sorted((a, b, x)))
        # (a, b, taken) is already glued
        if x in (a, b) or new_tri in tris:
            continue
        if any(len(by_edge.get(tuple(sorted((v, x))), ())) > 1 for v in (a, b)):
            continue
        if all(len(by_vertex.get(v, [])) < m
               and link_shape(by_vertex.get(v, []) + [new_tri], v) != "bad"
               for v in (a, b, x)):
            out.append(tris + (new_tri,))
    return out


class TestGrowth:
    @pytest.mark.parametrize("v", [6, 7, 8])
    def test_children_match_a_reference(self, monkeypatch, v):
        real_children = oracle._children
        real_after = oracle.link_after
        pushed = []
        # id -> (link, its vertex, its star) for the links of the state
        # being expanded; holding the link keeps its id from being reused
        links_of = {}
        tested = []

        def rebuilt(tris):
            # the carried fields, built from the triangle tuple alone: its
            # index by position, its boundary links and its ranks
            by_edge, by_vertex = build_index(tris)
            return (by_edge, by_vertex, rebuilt_links(tris),
                    _vertex_ranks(by_edge, by_vertex, (), v))

        def carried(by_edge, by_vertex, links, rank):
            return by_edge, by_vertex, links, rank

        def recording_after(link, p, q):
            verdict = real_after(link, p, q)
            _link, x, star = links_of[id(link)]
            new_tri = tuple(sorted((x, p, q)))
            assert verdict == link_shape(star + [new_tri], x), (star, new_tri)
            tested.append(x)
            return verdict

        def checking(tris, by_edge, by_vertex, links, rank, m, max_vertices):
            fields = (by_edge, by_vertex, links, rank)
            reference = rebuilt(tris)
            assert carried(*fields) == reference
            links_of.clear()
            links_of.update((id(link),
                             (link, x, star_triangles(tris, by_vertex[x])))
                            for x, link in links.items())
            tested.clear()
            out = real_children(tris, *fields, m, max_vertices)
            # the parent's fields are unchanged by its children's
            assert carried(*fields) == reference
            assert [child[0] for child in out] == _reference_children(
                tris, m, max_vertices)
            # links are tested only at boundary vertices, never at a fresh
            # one, and always on the state's carried links
            assert set(tested) <= set(reference[2])
            pushed.extend(out)
            return out

        monkeypatch.setattr(oracle, "_children", checking)
        monkeypatch.setattr(oracle, "link_after", recording_after)
        result = brute_force_enumerate(v)
        assert sum(map(len, result.codes.values())) == {6: 5, 7: 14, 8: 57}[v]
        # every state pushed is popped once its siblings and their subtrees
        # are grown: its fields are still those of its triangles
        assert pushed
        for tris, *fields in pushed:
            assert carried(*fields) == rebuilt(tris)

    def test_growth_work_at_eight(self, monkeypatch):
        calls = Counter()

        def counting(name):
            real = getattr(oracle, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in ("build_index", "vertex_triangles", "_validate",
                     "link_ends", "link_after"):
            monkeypatch.setattr(oracle, name, counting(name))
        result = brute_force_enumerate(8)
        codes = sum(map(len, result.codes.values()))
        # one growth index per valence task m = 3..7, which also validates
        # each new closed leaf, and a vertex index per code in _code_is_root.
        # 57 more edge indices, one per leaf validation, before the leaves
        # were validated on their carried index; 5 edge and 5 + 57 vertex
        # indices when the states carried the validation's layout, 819 of
        # each when every popped state built its own
        assert calls["build_index"] == 5
        assert calls["_validate"] == codes == 57
        assert calls["vertex_triangles"] == codes
        # 2,777 link tests when every labelled vertex was tried as the third
        # vertex; 2,543 link graphs, one per test, before a and b got theirs
        # once per state, and 1,920 before each state carried its links:
        # only the rims of the m-fans, m = 3..7, are built
        assert calls["link_after"] == 2543
        assert calls["link_ends"] == 3 + 4 + 5 + 6 + 7


class TestCrossValidate:
    def test_agreement_at_seven(self):
        report = cross_validate(7)
        assert report.equal
        assert report.total == 14
        assert not report.missing and not report.extra
        assert "OK" in report.summary()
