import itertools
import random

import pytest

from conftest import (RP2_SIX, edge_expand_4valent, edge_triangles,
                      is_isomorphic, relabel, torus_grid, valences)
from surfenum.canon import canonical_form, minimal_code
from surfenum.cli import parse_triangulation_text
from surfenum.core import (SPHERE, SurfaceKind, Triangulation, classify,
                           validate)
from surfenum.moves import (
    LinkBoundsTriangleError,
    MoveError,
    NotThreeValentError,
    _cone,
    _removable_vertices,
    compute_root,
    inverse_t_move,
    is_root,
    t_move,
)
from surfenum.oracle import brute_force_enumerate


class TestTMove:
    def test_five_vertex_sphere(self, tetra):
        t = t_move(tetra, (2, 3, 4))
        assert t.triangles == tuple(sorted([
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)
        ]))
        assert valences(t.triangles)[5] == 3

    def test_preserves_class(self, rp2_six):
        for tri in rp2_six.triangles:
            assert classify(t_move(rp2_six, tri)) == classify(rp2_six)

    def test_missing_triangle(self, octa):
        with pytest.raises(MoveError):
            t_move(octa, (1, 2, 6))

    def test_round_trip(self, octa):
        t = t_move(octa, (1, 2, 3))
        back = inverse_t_move(t, t.vertex_count)
        assert back == octa


class TestInverseTMove:
    def test_not_three_valent(self, octa):
        with pytest.raises(NotThreeValentError):
            inverse_t_move(octa, 1)

    def test_tetrahedron_vertices_are_blocked(self, tetra):
        # the link of every tetrahedron vertex already bounds a triangle
        for v in range(1, 5):
            with pytest.raises(LinkBoundsTriangleError):
                inverse_t_move(tetra, v)

    def test_labels_stay_contiguous(self, tetra):
        t = t_move(t_move(tetra, (1, 2, 3)), (1, 2, 4))
        reduced = inverse_t_move(t, 5)  # removes the middle label
        assert reduced.vertex_count == 5
        assert reduced.triangles[-1][-1] == 5


class TestRoots:
    def test_tetrahedron_and_octahedron_are_roots(self, tetra, octa, rp2_six):
        assert is_root(tetra)
        assert is_root(octa)
        assert is_root(rp2_six)

    def test_inflated_is_not_root(self, octa):
        assert not is_root(t_move(octa, (1, 2, 3)))

    def test_root_of_inflation_is_original(self, octa, rp2_six):
        rng = random.Random(12)
        for base in (octa, rp2_six):
            t = base
            for _ in range(4):
                t = t_move(t, rng.choice(t.triangles))
            root = compute_root(t)
            assert is_isomorphic(root, base)

    def test_five_vertex_sphere_reduces_to_tetrahedron(self, tetra):
        t = parse_triangulation_text("123 124 134 235 245 345")
        assert compute_root(t) == Triangulation(minimal_code(tetra.triangles))

    def test_root_is_order_independent(self):
        # random removal orders always land on the same canonical root
        rng = random.Random(777)
        bases = [Triangulation(code)
                 for codes in brute_force_enumerate(6).codes.values()
                 for code in codes]
        for base in bases:
            t = base
            while t.vertex_count < 8:
                t = t_move(t, rng.choice(t.triangles))
            roots = set()
            for _ in range(5):
                cur = t
                while True:
                    removable = _removable_vertices(cur.triangles)
                    if not removable:
                        break
                    cur = inverse_t_move(cur, rng.choice(removable))
                roots.add(minimal_code(cur.triangles))
            assert len(roots) == 1

    @pytest.mark.parametrize("start", ["tetrahedron", "torus"])
    def test_long_growth_reduces_to_the_start(self, tetra, start):
        # hundreds of seeded cones, each on any triangle, cones on cones
        # too; relabelled, the removable vertices are scattered among the
        # labels and each move can make a neighbour removable
        base = tetra.triangles if start == "tetrahedron" else minimal_code(torus_grid(4))
        rng = random.Random(29)
        n0 = max(v for t in base for v in t)
        for n in (200, 400):
            tris = list(base)
            for w in range(n0 + 1, n0 + n + 1):
                tris = _cone(tris, rng.choice(tris), w)
            grown = Triangulation(tris)
            for t in (grown, relabel(grown, rng)[0]):
                assert compute_root(t) == Triangulation(minimal_code(base))

    def test_compute_root_validates_once(self, monkeypatch, octa):
        from surfenum import moves

        t = t_move(t_move(t_move(octa, (1, 2, 3)), (2, 4, 6)), (1, 2, 7))
        calls = []
        real = moves.validate

        def counting(u):
            calls.append(u.vertex_count)
            return real(u)

        monkeypatch.setattr(moves, "validate", counting)
        assert compute_root(t) == Triangulation(minimal_code(octa.triangles))
        assert calls == [9]

    def test_root_invariant_under_relabeling(self, rp2_six):
        rng = random.Random(3)
        t = t_move(t_move(rp2_six, (1, 2, 3)), (2, 4, 5))
        reference = compute_root(t)
        for _ in range(10):
            shuffled, _ = relabel(t, rng)
            assert compute_root(shuffled) == reference


def _count_calls(monkeypatch) -> dict[str, int]:
    """Route every package binding of ``canon.minimal_code`` and
    ``core._validate`` through a counter; returns the counts by name."""
    import sys

    from surfenum import canon, core

    counts = {"minimal_code": 0, "_validate": 0}
    for name, fn in (("minimal_code", canon.minimal_code),
                     ("_validate", core._validate)):
        def counting(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "surfenum" and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counting)
    return counts


QUERIES = (("canonical_form", lambda t: canonical_form(t).triangles),
           ("classify", classify),
           ("compute_root", lambda t: compute_root(t).triangles))
EVERY_ORDER = pytest.mark.parametrize(
    "order", list(itertools.permutations(range(3))),
    ids=lambda order: "-".join(QUERIES[i][0] for i in order))


class TestStoredAnswers:
    """A Triangulation keeps its validation report and its canonical code,
    so the queries on one object label and validate it once."""

    def test_canonical_form_labels_once(self, monkeypatch, rp2_six):
        counts = _count_calls(monkeypatch)
        first = canonical_form(rp2_six)
        second = canonical_form(rp2_six)
        assert first == second and first.triangles is second.triangles
        assert counts["minimal_code"] == 1

    @EVERY_ORDER
    def test_queries_on_a_root(self, monkeypatch, order):
        t = relabel(parse_triangulation_text(RP2_SIX), random.Random(5))[0]
        counts = _count_calls(monkeypatch)
        for i in order:
            QUERIES[i][1](t)
        assert counts == {"minimal_code": 1, "_validate": 1}

    @EVERY_ORDER
    def test_queries_on_a_nonroot(self, monkeypatch, order):
        t = t_move(t_move(parse_triangulation_text(RP2_SIX), (1, 2, 3)), (2, 4, 5))
        t = relabel(t, random.Random(6))[0]
        counts = _count_calls(monkeypatch)
        for i in order:
            QUERIES[i][1](t)
        # the input and the root reached by inverse moves are labeled once each
        assert counts == {"minimal_code": 2, "_validate": 1}

    def test_answers_equal_those_of_fresh_objects(self):
        rng = random.Random(2026)
        codes = [code for bucket in brute_force_enumerate(8).codes.values()
                 for code in bucket]
        assert len(codes) == 57
        for code in codes:
            t = relabel(Triangulation(code), rng)[0]
            # a root and a non-root of each class
            for u in (t, t_move(t, t.triangles[0])):
                fresh = [query(Triangulation(u.triangles)) for _n, query in QUERIES]
                for order in itertools.permutations(range(3)):
                    kept = Triangulation(u.triangles)
                    got = {i: QUERIES[i][1](kept) for i in order}
                    assert [got[i] for i in range(3)] == fresh
                    # the second round reads the stored answers
                    assert [query(kept) for _n, query in QUERIES] == fresh

    def test_bounded_input_is_rejected_after_validate(self, mobius):
        assert validate(mobius).kind is SurfaceKind.SURFACE_WITH_BOUNDARY
        for move in (compute_root, is_root, lambda t: t_move(t, t.triangles[0]),
                     lambda t: inverse_t_move(t, 1)):
            with pytest.raises(MoveError):
                move(mobius)
        with pytest.raises(ValueError):
            classify(mobius)
        # the canonical form of a bounded complex is still defined
        assert canonical_form(mobius).triangles == minimal_code(mobius.triangles)


class TestEdgeExpansion:
    def test_expansion_keeps_root_and_class(self, octa, rp2_six):
        for base in (octa, rp2_six):
            for e in sorted(edge_triangles(base.triangles)):
                grown = edge_expand_4valent(base, e)
                assert grown.vertex_count == base.vertex_count + 1
                assert classify(grown) == classify(base)
                assert is_root(grown)
                assert valences(grown.triangles)[grown.vertex_count] == 4

    def test_tetrahedron_expansion(self, tetra):
        # the tetrahedron is a root only by exception; its expansion keeps
        # two removable 3-valent vertices and reduces back to it
        grown = edge_expand_4valent(tetra, (1, 2))
        assert classify(grown) == SPHERE
        assert grown.vertex_count == 5
        assert not is_root(grown)
        assert is_isomorphic(compute_root(grown), tetra)
