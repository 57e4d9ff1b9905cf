import random

import pytest

from conftest import edge_expand_4valent, is_isomorphic, relabel
from surfenum.canon import minimal_code
from surfenum.cli import parse_triangulation_text
from surfenum.core import SPHERE, Triangulation, classify, valences
from surfenum.moves import (
    LinkBoundsTriangleError,
    MoveError,
    NotThreeValentError,
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


class TestEdgeExpansion:
    def test_expansion_keeps_root_and_class(self, octa, rp2_six):
        for base in (octa, rp2_six):
            for e in base.edges():
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
