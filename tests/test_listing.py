import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

from conftest import (Decomposition, cone_and_classify, edge_triangles,
                      link_shape, rebuilt_links, reference_admissible,
                      reference_chords, reference_discs, reference_gluings,
                      reference_nonroots, reference_roots, relabel,
                      star_triangles, state_key, valences,
                      validate_decomposition)
from surfenum.canon import (Code, Isomorphs, _flag_key, _flag_walk,
                            _vertex_ranks, automorphisms, flag_key,
                            minimal_code)
from surfenum.cli import parse_triangulation_text
from surfenum.core import (
    PROJECTIVE_PLANE,
    SPHERE,
    SurfaceClass,
    SurfaceKind,
    Triangulation,
    boundary_cycles,
    build_index,
    classify,
    validate,
    vertex_triangles,
)
from surfenum.listing import (
    CountsTable,
    Disc,
    GenusSurface,
    SearchConfig,
    _disc_children,
    _GenusSurfaceSearch,
    _gluings,
    _index_discs,
    _map_maybe_parallel,
    _roots_from_genus_surface,
    enumerate_all,
    enumerate_discs,
    enumerate_genus_surfaces,
    enumerate_main_discs,
    enumerate_nonroots,
    enumerate_roots,
)
from surfenum.moves import is_root
from surfenum.oracle import brute_force_enumerate


class TestSearchConfig:
    def test_specialization_defaults_to_small_budgets(self):
        assert SearchConfig(max_vertices=9).specialized is True
        assert SearchConfig(max_vertices=12).specialized is False

    def test_specialization_rejected_above_eleven(self):
        with pytest.raises(ValueError):
            SearchConfig(max_vertices=12, specialized=True)

    def test_specialized_is_read_in_four_places(self):
        # the mode's whole effect: the host rule, the extra discs and the
        # manifest; the genus-surface search reads it only through the host
        # rule
        import ast
        from pathlib import Path

        import surfenum

        readers = set()
        for path in Path(surfenum.__file__).parent.glob("*.py"):
            for top in ast.parse(path.read_text()).body:
                if any(isinstance(n, ast.Attribute) and n.attr == "specialized"
                       for n in ast.walk(top)):
                    readers.add((path.stem, top.name))
        assert readers == {("listing", "SearchConfig"), ("listing", "_host_splits"),
                           ("listing", "_index_discs"), ("cli", "_manifest_config")}


def closed_star(k: int) -> frozenset:
    """The closed star of the hub 1 with rim 2 .. k+1."""
    rim = range(2, k + 2)
    return frozenset(tuple(sorted((1, rim[i - 1], rim[i]))) for i in range(k))


def coded_disc(tris) -> tuple[Disc, dict[int, int]]:
    """The Disc of ``tris`` in its code labels, as the grower builds it,
    with a map from the labels of ``tris`` to them."""
    code, witnesses = minimal_code(tris, with_witnesses=True)
    return Disc.from_triangles(code, automorphisms(witnesses)), witnesses[0]


def rim_edges(tris) -> set[tuple[int, int]]:
    return {e for e, ts in build_index(tris)[0].items() if len(ts) == 1}


def cycle_edges(cycle) -> set[tuple[int, int]]:
    return {tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(len(cycle))}


class TestMainDiscGrowth:
    def test_closed_star(self):
        # no room for a fresh vertex, and no corner of the bare star closes
        [d] = enumerate_main_discs(5, 6)
        assert d.triangles == minimal_code(closed_star(5))
        assert len(d.triangles) == len(d.boundary) == 5
        assert d.interior_count == 1

    def test_one_edge_gluing_adds_boundary_vertex(self):
        # children come in the disc's code labels, the fresh vertex 7
        star, w = coded_disc(closed_star(5))
        t = tuple(sorted((w[2], w[3], 7)))
        assert t in _disc_children(star, 8, 9)
        assert rim_edges(star.triangles + (t,)) == cycle_edges(
            [w[2], 7, w[3], w[4], w[5], w[6]])

    def test_two_edge_gluing_closes_a_corner(self):
        # fresh vertices 7 on (2, 3) and 8 on (3, 4), then close the corner
        # at 3; each step is a child of the disc before it, in its code
        # labels
        tris = closed_star(5)
        for t in ((2, 3, 7), (3, 4, 8)):
            disc, w = coded_disc(tris)
            w[t[2]] = t[2]  # the fresh vertex
            assert tuple(sorted(w[v] for v in t)) in _disc_children(disc, 8, 9)
            tris = tris | {t}
        disc, w = coded_disc(tris)
        assert rim_edges(disc.triangles) == cycle_edges(
            [w[v] for v in (2, 7, 3, 8, 4, 5, 6)])
        t = tuple(sorted(w[v] for v in (3, 7, 8)))
        assert t in _disc_children(disc, 8, 9)
        assert rim_edges(disc.triangles + (t,)) == cycle_edges(
            [w[v] for v in (2, 7, 8, 4, 5, 6)])

    def test_corner_close_on_fresh_star_is_rejected(self):
        # the very first step can never close a corner: the corner would
        # become a 3-valent interior vertex
        star, _w = coded_disc(closed_star(5))
        children = _disc_children(star, 8, 9)
        assert len(children) == 5
        assert all(7 in t for t in children)

    def test_main_discs_have_no_small_interior_valence(self):
        for disc in enumerate_main_discs(5, 8):
            for v, k in valences(disc.triangles).items():
                if v in disc.boundary:
                    assert k <= 4
                else:
                    assert 4 <= k <= 5


def disc_digest(discs) -> str:
    """sha256 of the sorted (triangles, boundary, interior count) of discs."""
    rows = sorted((d.triangles, d.boundary, d.interior_count) for d in discs)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# disc_digest of enumerate_main_discs(m, 9) and of enumerate_discs at V=7,
# from the discs grown with a tally of gluing types
MAIN_DISC_SHA256 = {
    3: "ad1ea8ecd5e014d70cb645380b6bab73b4bf2d8b557445e06b2e3e599d059d62",
    4: "2ffbb98a4bc77dfd884877234211bbd88e7fd4ec11915f18acbe2519d8e53f36",
    5: "308b03066e1906c79f2d2686b7aeb5a937bf45f66c357f0d70d5c3d0bc4ce95e",
    6: "cf6219fb5d23831e1002d3e0a5a2d7592be3c7fad678b7b0f99409bfcab3f048",
    7: "6e523e7090cd1a098d757c3a3919e4ff04f63f76b5070f1a74caa89d7e13f11a",
    8: "7607231b2197ea2f2cdda88e410da7a485d013f148aa028e08f4e61ccf5045cf",
}
DISC_SHA256_V7 = "6322e3e76ad8c8341da177b12161798372efa13fcf254a3c49ef2aa3c86d87aa"


class TestDiscsPinned:
    @pytest.mark.parametrize("m, count", [(3, 1), (4, 5), (5, 71), (6, 64),
                                          (7, 14), (8, 1)])
    def test_main_discs_are_pinned(self, m, count):
        discs = enumerate_main_discs(m, 9)
        assert len(discs) == count
        assert disc_digest(discs) == MAIN_DISC_SHA256[m]

    def test_discs_are_pinned(self):
        discs = enumerate_discs(SearchConfig(max_vertices=7))
        assert len(discs) == 27
        assert disc_digest(discs) == DISC_SHA256_V7


def brute_force_discs(max_vertices: int) -> set:
    """Reference disc enumeration: filter all triangle subsets."""
    found = set()
    triples = list(itertools.combinations(range(1, max_vertices + 1), 3))
    for r in range(1, len(triples) + 1):
        for subset in itertools.combinations(triples, r):
            labels = sorted({v for t in subset for v in t})
            if len(labels) > max_vertices:
                continue
            remap = {v: i + 1 for i, v in enumerate(labels)}
            tris = [tuple(sorted(remap[v] for v in t)) for t in subset]
            if len(set(tris)) != len(tris):
                continue
            t = Triangulation(tris)
            if validate(t).kind is not SurfaceKind.SURFACE_WITH_BOUNDARY:
                continue
            cycles = boundary_cycles(build_index(t.triangles)[0])
            verts = {v for tri in t.triangles for v in tri}
            chi = len(verts) - len(edge_triangles(t.triangles)) + len(t.triangles)
            if chi != 1 or len(cycles) != 1:
                continue
            bverts = set(cycles[0])
            vals = Counter(v for tri in t.triangles for v in tri)
            if any(vals[v] < 4 for v in verts - bverts):
                continue
            found.add(minimal_code(t.triangles))
    return found


class TestDiscEnumeration:
    def test_matches_subset_brute_force_up_to_five_vertices(self):
        got = {d.triangles for d in enumerate_discs(SearchConfig(max_vertices=5))}
        assert got == brute_force_discs(5)

    def test_small_counts(self):
        by_v = Counter(d.vertex_count
                       for d in enumerate_discs(SearchConfig(max_vertices=4)))
        # one triangle, and two triangles sharing an edge
        assert by_v == {3: 1, 4: 1}


class TestAdmissibility:
    def test_mobius_strip_is_admissible(self, mobius):
        g = GenusSurface.from_triangles(mobius.triangles)
        assert reference_admissible(g, SearchConfig(max_vertices=6))

    def test_annulus_is_not_admissible(self, annulus):
        # planar, and not the single triangle
        g = GenusSurface.from_triangles(annulus.triangles)
        assert not reference_admissible(g, SearchConfig(max_vertices=11))

    def test_single_triangle_is_admissible(self):
        g = GenusSurface.from_triangles([(1, 2, 3)])
        assert reference_admissible(g, SearchConfig(max_vertices=7))

    def test_two_triangle_square_is_not(self):
        g = GenusSurface.from_triangles([(1, 2, 3), (1, 3, 4)])
        assert not reference_admissible(g, SearchConfig(max_vertices=7))

    def test_mobius_needs_enough_budget(self, mobius):
        # the vertex budget: a root on the five-vertex strip needs a sixth
        g = GenusSurface.from_triangles(mobius.triangles)
        assert not reference_admissible(g, SearchConfig(max_vertices=5))


class TestGenusSurfaces:
    def test_counts_up_to_seven_vertices(self):
        gs = enumerate_genus_surfaces(SearchConfig(max_vertices=7))
        counts = Counter((g.vertex_count, g.capped_class.name) for g in gs)
        assert counts == {
            (3, "S2"): 1, (5, "RP2"): 1, (6, "RP2"): 2, (6, "T2"): 1,
        }

    def test_mobius_is_the_five_vertex_candidate(self, mobius):
        gs = enumerate_genus_surfaces(SearchConfig(max_vertices=6))
        five = [g for g in gs if g.vertex_count == 5]
        assert len(five) == 1
        assert five[0].triangles == minimal_code(mobius.triangles)
        assert five[0].capped_class == PROJECTIVE_PLANE

    @pytest.mark.parametrize("name", ["S2", "RP2", "T2", "K2"])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_surface_keeps_the_candidates_of_its_class(self, name,
                                                       specialized):
        # the requested class is one of the two leaf conditions emit checks
        cls = SurfaceClass.from_name(name)
        every = enumerate_genus_surfaces(
            SearchConfig(8, specialized=specialized))
        kept = [g for g in every if g.capped_class == cls]
        assert kept
        assert enumerate_genus_surfaces(
            SearchConfig(8, specialized=specialized, surface=cls)) == kept


class TestPieceRecords:
    """Each decomposition piece carries what the gluing reads."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_main_discs_carry_their_rim_data(self, m):
        discs = enumerate_main_discs(m, 9)
        assert discs
        for disc in discs:
            assert disc.max_interior_valence == m
            assert disc.valences == valences(disc.triangles)
            assert sorted(disc.chords) == sorted(reference_chords(disc))

    def test_extra_discs_have_no_interior_valence(self):
        cfg = SearchConfig(max_vertices=9)
        _main, extra = _index_discs(cfg)
        assert sorted(len(d.triangles) for ds in extra.values() for d in ds) == [1, 2]
        for discs in extra.values():
            for disc in discs:
                assert disc.max_interior_valence == 0
                assert disc.interior_count == 0
        # the square's diagonal is its one chord
        [square] = extra[4]
        assert square.chords == ((1, 2),)

    def test_disc_rotations_are_one_per_rim_symmetry_class(self):
        # every main disc at V <= 9 and both extra discs
        cfg = SearchConfig(max_vertices=9)
        discs = [d for index in _index_discs(cfg) for ds in index.values()
                 for d in ds]
        assert len(discs) == 157
        for disc in discs:
            L = len(disc.boundary)
            group = _brute_force_rim_group(disc)
            assert len(disc.rotations) * len(group) == 2 * L
            # the rotations meet every coset r o G once: the maps
            # i -> r(g(i)) cover the dihedral group
            maps = {tuple(_rim_map(r, L)[g_i] for g_i in _rim_map(g, L))
                    for r in disc.rotations for g in group}
            assert maps == {tuple(_rim_map(m, L)) for m in _all_rim_maps(L)}
            # every rim map glued onto a base with no symmetry gives the
            # complexes that the rotations give, one each
            base, cycle = _asymmetric_base(L)
            every = {minimal_code(g) for g in reference_gluings(base, cycle, disc)}
            ours = [minimal_code(g) for g in
                    _gluings(base, cycle, disc, edge_triangles(base))]
            assert set(ours) == every
            assert len(ours) == len(every) == len(disc.rotations)

    def test_genus_surfaces_carry_their_automorphisms(self):
        rng = random.Random(1998)
        gs = enumerate_genus_surfaces(SearchConfig(max_vertices=8))
        assert len(gs) == 25
        for g in gs:
            tris = set(g.triangles)
            for p in g.automorphisms:
                assert {tuple(sorted(p[v] for v in t)) for t in tris} == tris
            _code, witnesses = minimal_code(g.triangles, with_witnesses=True)
            assert len(g.automorphisms) == len(set(g.automorphisms)) == len(witnesses)
            moved, _mapping = relabel(Triangulation(g.triangles), rng)
            h = GenusSurface.from_triangles(moved.triangles)
            assert h == g
            assert set(h.automorphisms) == set(g.automorphisms)

    def test_records_survive_pickling(self):
        import pickle

        for disc in enumerate_main_discs(5, 8):
            back = pickle.loads(pickle.dumps(disc))
            assert back == disc
            assert back.valences == disc.valences
            assert back.max_interior_valence == disc.max_interior_valence == 5
            assert back.chords == disc.chords
            assert back.rotations == disc.rotations
        for g in enumerate_genus_surfaces(SearchConfig(max_vertices=7)):
            back = pickle.loads(pickle.dumps(g))
            assert back == g
            assert back.automorphisms == g.automorphisms


def _all_rim_maps(L: int) -> list:
    return [(reflect, offset) for reflect in (False, True) for offset in range(L)]


def _rim_map(rotation, L: int) -> list:
    """The rim position each rim position i goes to under ``rotation``."""
    reflect, offset = rotation
    return [(offset - i if reflect else offset + i) % L for i in range(L)]


def _brute_force_rim_group(disc) -> list:
    """The rim maps of ``disc`` that an automorphism realizes: those under
    which the flag walk from the rim flag (b0, b1, apex) and from its image
    give one walk code."""
    by_edge = build_index(disc.triangles)[0]
    rim = disc.boundary

    def walk_code(x, y):
        [(i, apex)] = by_edge[(x, y) if x < y else (y, x)]
        return _flag_walk(by_edge, len(disc.triangles), (x, y, apex), i, None)[0]

    code = walk_code(rim[0], rim[1])
    return [m for m in _all_rim_maps(len(rim))
            if walk_code(*(rim[j] for j in _rim_map(m, len(rim))[:2])) == code]


def _asymmetric_base(L: int) -> tuple[frozenset, tuple]:
    """A collar on the cycle 1 .. L, with no symmetry: outside cycle edge
    (i, i+1) the triangle (i, i+1, q) and round cycle vertex i a fan of
    i + 1 triangles from the q of edge (i-1, i) to that of (i, i+1), so
    that no two rim maps glue isomorphic complexes unless a disc symmetry
    relates them."""
    fans = []  # the outer path of each cycle vertex's fan, less its end
    fresh = L + 1
    for i in range(1, L + 1):
        fans.append(list(range(fresh, fresh + i + 1)))
        fresh += i + 1
    base = set()
    for i in range(L):
        path = fans[i] + [fans[(i + 1) % L][0]]
        base.update(tuple(sorted((i + 1, p, q))) for p, q in zip(path, path[1:]))
        base.add(tuple(sorted((i + 1, (i + 1) % L + 1, path[-1]))))
    return frozenset(base), tuple(range(1, L + 1))


def icosahedron() -> Code:
    """Poles 1 and 12, upper ring 2 .. 6 and lower ring 7 .. 11."""
    tris = []
    for i in range(5):
        j = (i + 1) % 5
        tris += [(1, 2 + i, 2 + j), (12, 7 + i, 7 + j),
                 (2 + i, 2 + j, 7 + i), (2 + j, 7 + i, 7 + j)]
    return minimal_code(tris)


class TestGluing:
    def test_mobius_plus_star_gives_projective_plane(self, mobius, rp2_six):
        g = GenusSurface.from_triangles(mobius.triangles)
        [star] = enumerate_main_discs(5, 6)
        results = {minimal_code(glued)
                   for glued in _gluings(frozenset(g.triangles), g.boundary[0], star,
                                         edge_triangles(g.triangles))
                   if validate(Triangulation(glued)).kind is SurfaceKind.CLOSED_SURFACE}
        assert results == {minimal_code(rp2_six.triangles)}

    def test_symmetric_disc_is_glued_once(self, mobius):
        # all 10 rotations and reflections of the 5-star's rim glue the same
        # triangles: the cone of the fresh hub 6 over the Mobius strip's rim
        base = frozenset(mobius.triangles)
        cycle = GenusSurface.from_triangles(mobius.triangles).boundary[0]
        cone = {tuple(sorted((6, cycle[i - 1], cycle[i]))) for i in range(5)}
        [star] = enumerate_main_discs(5, 6)
        assert list(_gluings(base, cycle, star,
                             edge_triangles(base))) == [base | cone]

    def test_boundary_length_mismatch(self, mobius):
        g = GenusSurface.from_triangles(mobius.triangles)
        [star4] = enumerate_main_discs(4, 5)
        with pytest.raises(ValueError, match="cycle length 5 vs disc boundary length 4"):
            next(_gluings(frozenset(g.triangles), g.boundary[0], star4,
                          edge_triangles(g.triangles)))

    def test_extra_disc_interior_counts_towards_the_root(self):
        # the annulus between the stars of two antipodal vertices, capped by
        # a 5-star on each side: the root has the 10 annulus vertices and
        # the two hubs, so it is over an 11-vertex budget
        ico = icosahedron()
        assert set(valences(ico).values()) == {5}
        assert classify(Triangulation(ico)) == SPHERE
        g = GenusSurface.from_triangles(
            minimal_code([t for t in ico if 1 not in t and 12 not in t]))
        assert [len(c) for c in g.boundary] == [5, 5]
        [star] = enumerate_main_discs(5, 6)
        discs = ({5: [star]}, {5: [star]})
        # g's automorphisms do not act once an extra disc is glued
        assert _roots_from_genus_surface(
            g, SearchConfig(12), discs) == {(12, SPHERE, ico)}
        assert _roots_from_genus_surface(
            g, SearchConfig(11, specialized=False), discs) == set()

    def test_triangle_extra_disc(self):
        # a 9-vertex sphere root whose 5-valent star at vertex 1 and the
        # face (7, 8, 9) off it leave a genus-surface with two boundary
        # cycles; the search emits no planar candidate but the triangle, so
        # the enumeration never glues an extra disc onto a sphere
        root = parse_triangulation_text(TRIANGLE_EXTRA_DISC_ROOT).triangles
        g = GenusSurface.from_triangles(
            minimal_code([t for t in root if 1 not in t and t != (7, 8, 9)]))
        assert sorted(len(c) for c in g.boundary) == [3, 5]
        cfg = SearchConfig(9)
        assert _roots_from_genus_surface(g, cfg, _index_discs(cfg)) == {
            (9, SPHERE, minimal_code(root))}

    @pytest.mark.parametrize("specialized", [True, False])
    def test_two_cycle_candidates_at_nine_glue_no_root(self, monkeypatch,
                                                       specialized):
        # the search's only V<=9 candidates with two boundary cycles; each
        # has 8 vertices, so within the budget an extra disc has no interior
        # vertex, the main disc on the host cycle is a bare star, and none
        # of these gluings is a root
        from surfenum import listing

        yields = [0]

        def counting(*args):
            for glued in _gluings(*args):
                yields[0] += 1
                yield glued

        monkeypatch.setattr(listing, "_gluings", counting)
        cfg = SearchConfig(9, specialized=specialized)
        discs = _index_discs(cfg)
        for text, lengths, name, glued in TWO_CYCLE_CANDIDATES_V9:
            g = GenusSurface.from_triangles(
                parse_triangulation_text(text).triangles)
            assert sorted(len(c) for c in g.boundary) == sorted(lengths)
            assert g.capped_class.name == name
            assert reference_admissible(g, cfg)
            yields[0] = 0
            assert _roots_from_genus_surface(g, cfg, discs) == set()
            assert yields[0] == glued


TRIANGLE_EXTRA_DISC_ROOT = "123 124 135 146 156 237 247 358 378 469 479 568 689 789"

# (triangles, boundary cycle lengths, capped class, _gluings yields in both
# modes: the extra disc's one gluing, and no main disc's, whose valences fail
# the precheck; 2, 0 and 2 when the main disc's gluing was built and then
# failed the valence test, 426, 514 and 426 in the general mode when it glued
# every extra disc before checking the vertex budget)
TWO_CYCLE_CANDIDATES_V9 = [
    ("123 124 135 146 157 168 236 258 268 345 347 378 467 578", [5, 3], "S-3", 1),
    ("123 124 135 146 157 168 238 257 258 267 346 347 356 458 478 678",
     [4, 4], "S+2", 0),
    ("123 124 135 146 157 168 347 358 378 456 457 678", [5, 3], "K2", 1),
]


class TestSpheres:
    def test_sphere_roots_up_to_seven(self):
        roots = enumerate_roots(SearchConfig(max_vertices=7, surface=SPHERE))
        spheres = [Triangulation(code) for codes in roots.values() for code in codes]
        by_v = Counter(t.vertex_count for t in spheres)
        assert by_v == {4: 1, 6: 1, 7: 1}
        assert all(classify(t) == SPHERE and is_root(t) for t in spheres)


    @pytest.mark.parametrize("v", [7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_one_triangle_is_the_only_planar_candidate(self, v, specialized):
        # sphere roots are found only by gluing onto this candidate
        gs = enumerate_genus_surfaces(SearchConfig(max_vertices=v, specialized=specialized))
        assert [g.triangles for g in gs if g.capped_class == SPHERE] == [((1, 2, 3),)]


class TestGluingChecks:
    @pytest.mark.parametrize("v", [7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_each_gluing_caps_its_cycle(self, monkeypatch, v, specialized):
        cfg = SearchConfig(max_vertices=v, specialized=specialized)
        closed = _check_gluings(monkeypatch, cfg, enumerate_genus_surfaces(cfg))
        # no candidate at V<=8 has two boundary cycles: every yield is closed;
        # 33 and 341 when each rotation was built before its valence test
        # and glued whatever orbit of Aut(g) it was in
        assert closed == {7: 6, 8: 40}[v]

    @pytest.mark.parametrize("specialized", [True, False])
    def test_two_cycle_gluings_cap_their_cycles(self, monkeypatch, specialized):
        cfg = SearchConfig(max_vertices=9, specialized=specialized)
        candidates = [GenusSurface.from_triangles(
            parse_triangulation_text(text).triangles)
            for text, _lengths, _name, _glued in TWO_CYCLE_CANDIDATES_V9]
        # their 2 yields glue the extra disc; 2 more glued the main disc
        # when each rotation was built before its valence test
        assert _check_gluings(monkeypatch, cfg, candidates) == 0
        # the genus-surface of test_triangle_extra_disc glues both
        root = parse_triangulation_text(TRIANGLE_EXTRA_DISC_ROOT).triangles
        g = GenusSurface.from_triangles(
            minimal_code([t for t in root if 1 not in t and t != (7, 8, 9)]))
        assert _check_gluings(monkeypatch, cfg, [g]) == 1

    @pytest.mark.parametrize("v", [7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_no_triangle_is_glued_onto_a_lone_triangle(self, monkeypatch, v,
                                                       specialized):
        # the precondition under which the chord test alone keeps a disc's
        # triangles off the base: the triangle glued onto the one-triangle
        # base would double it, and _gluings does not reject that
        from surfenum import listing

        calls = []

        def recording(base, cycle, disc, *rest):
            calls.append((len(base), len(disc.triangles)))
            return _gluings(base, cycle, disc, *rest)

        monkeypatch.setattr(listing, "_gluings", recording)
        enumerate_roots(SearchConfig(max_vertices=v, specialized=specialized))
        # main discs go onto the one-triangle candidate, the triangle never
        assert any(n_base == 1 for n_base, _n_disc in calls)
        assert (1, 1) not in calls

    @pytest.mark.parametrize("specialized", [True, False])
    def test_gluing_makes_no_validate_call(self, monkeypatch, specialized):
        # _validate is behind validate and classify both; 39 calls when the
        # gluing validated each flag-key class that passed the valence test
        from surfenum import core

        calls = _count_calls_below(monkeypatch, core._validate)
        enumerate_roots(SearchConfig(max_vertices=8, specialized=specialized))
        assert calls[0] == 0

    @pytest.mark.parametrize("specialized", [True, False])
    def test_each_distinct_gluing_is_keyed_once(self, monkeypatch, specialized):
        calls = _count_calls_below(monkeypatch, minimal_code)
        enumerate_roots(SearchConfig(max_vertices=8, specialized=specialized))
        # 40 gluings, one per orbit of Aut(g), pass the valence precheck; 85
        # when each distinct gluing was keyed whatever its orbit, 408 when
        # each rotation of a symmetric disc was glued and keyed again
        assert 0 < calls[0] <= 40

    @pytest.mark.parametrize("specialized", [True, False])
    def test_flag_key_only_in_the_genus_search(self, monkeypatch, specialized):
        import sys

        callers = Counter()

        def recording(real):
            def wrapper(*args):
                caller = sys._getframe(1).f_code.co_qualname
                callers[real.__name__, caller] += 1
                return real(*args)
            return wrapper

        for real in (flag_key, _flag_key):
            for mod in _package_modules_holding(real):
                monkeypatch.setattr(mod, real.__name__, recording(real))
        enumerate_all(SearchConfig(max_vertices=8, specialized=specialized))
        # all 298 certificates from the search's isomorph filter: the 127
        # lone members of a bucket through flag_key, which builds their
        # index and runs the kernel _flag_key, and the 171 arriving states
        # through _flag_key on their carried index and ranks.  324 more from
        # the disc growth, the gluing and the non-roots when they keyed discs
        # and closed surfaces by flag_key; 997 in the search when it keyed
        # every popped state, not only those whose invariant collides
        assert callers == {("flag_key", "Isomorphs.add"): 127,
                           ("_flag_key", "flag_key"): 127,
                           ("_flag_key", "Isomorphs.add"): 171}

    def test_enumerate_all_validate_calls(self, monkeypatch):
        calls = 0
        real = validate

        def counting(t):
            nonlocal calls
            calls += 1
            return real(t)

        for mod in _package_modules_holding(real):
            monkeypatch.setattr(mod, "validate", counting)
        enumerate_all(SearchConfig(max_vertices=8))
        # the stages pass triangle tuples and validate none (7 when the
        # non-roots checked each root with is_root, 46 when the gluing
        # validated each glued class, 133 when each capped genus-surface was
        # built and validated twice)
        assert calls == 0


def _check_gluings(monkeypatch, cfg: SearchConfig, candidates: list) -> int:
    """Run :func:`_roots_from_genus_surface` on each candidate, with every
    ``_gluings`` yield checked: it is its base with the glued cycle capped,
    a closed surface of the candidate's capped class once no other cycle
    is left.  Returns the closed yields."""
    from surfenum import listing

    closed = 0

    def checking(base, cycle, disc, *rest):
        nonlocal closed
        others = ({frozenset(c) for c in boundary_cycles(build_index(base)[0])}
                  - {frozenset(cycle)})
        for glued in _gluings(base, cycle, disc, *rest):
            t = Triangulation(glued)
            if others:
                assert validate(t).kind is SurfaceKind.SURFACE_WITH_BOUNDARY
                assert {frozenset(c) for c in
                        boundary_cycles(build_index(glued)[0])} == others
            else:
                assert validate(t).kind is SurfaceKind.CLOSED_SURFACE
                assert classify(t) == g.capped_class
                closed += 1
            yield glued

    monkeypatch.setattr(listing, "_gluings", checking)
    discs = _index_discs(cfg)
    for g in candidates:
        _roots_from_genus_surface(g, cfg, discs)
    return closed


def _count_calls_below(monkeypatch, fn,
                        below: str = "_roots_from_genus_surface") -> list[int]:
    """Rebind ``fn`` in every package module holding it to a wrapper that
    counts the calls made below the function named ``below``; the count is
    the one item of the returned list."""
    import sys

    calls = [0]

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        while frame and frame.f_code.co_name != below:
            frame = frame.f_back
        calls[0] += frame is not None
        return fn(*args, **kwargs)

    for mod in _package_modules_holding(fn):
        monkeypatch.setattr(mod, fn.__name__, counting)
    return calls


def _package_modules_holding(obj) -> list:
    """Every loaded package module with a global bound to ``obj``."""
    import sys

    return [m for name, m in list(sys.modules.items())
            if name.split(".")[0] == "surfenum"
            and any(v is obj for v in vars(m).values())]


class TestRootsAndNonRoots:
    def test_roots_match_oracle_at_eight(self):
        roots = enumerate_roots(SearchConfig(max_vertices=8))
        oracle = brute_force_enumerate(8)
        from surfenum.oracle import _code_is_root
        want = {key: {c for c in codes if _code_is_root(c)}
                for key, codes in oracle.codes.items()}
        want = {key: codes for key, codes in want.items() if codes}
        assert roots == want

    def test_nonroots_of_tetrahedron(self, tetra):
        grown = [Triangulation(code) for code in
                 enumerate_nonroots(tetra.triangles, SearchConfig(max_vertices=6))]
        by_v = Counter(t.vertex_count for t in grown)
        assert by_v == {5: 1, 6: 1}
        assert all(classify(t) == SPHERE and not is_root(t) for t in grown)

    def test_nonroots_validate_nothing(self, monkeypatch, octa):
        calls = 0
        real = validate

        def counting(t):
            nonlocal calls
            calls += 1
            return real(t)

        for mod in _package_modules_holding(real):
            monkeypatch.setattr(mod, "validate", counting)
        grown = enumerate_nonroots(octa.triangles, SearchConfig(max_vertices=8))
        assert len(grown) > 1
        # the root is checked for removable vertices alone, and the moves
        # from it keep the surface closed (the root was validated once when
        # the check was is_root)
        assert calls == 0

    def test_nonroots_key_once_per_orbit(self, monkeypatch):
        calls = _count_calls_below(monkeypatch, minimal_code,
                                    below="enumerate_nonroots")
        enumerate_all(SearchConfig(max_vertices=8))
        # one code per cone of a triangle least in its orbit, with its
        # witnesses when the next level cones it, and one for the root; 46
        # when each coned triangulation was coded again for its witnesses,
        # 136 when every triangle was coned
        assert 0 < calls[0] <= 39

    def test_nonroots_requires_root(self, tetra):
        from surfenum.moves import t_move
        code = minimal_code(t_move(tetra, (1, 2, 3)).triangles)
        with pytest.raises(ValueError, match="needs a root"):
            enumerate_nonroots(code, SearchConfig(max_vertices=7))


def disc_rows(discs) -> set[tuple]:
    return {(d.triangles, d.boundary, d.rotations) for d in discs}


def assert_discs_match_the_reference(v: int) -> None:
    # every main disc the pipeline grows at budget v, and the discs at both
    # budgets the modes take the extra discs from
    for m in range(4, v):
        assert (disc_rows(enumerate_main_discs(m, v))
                == reference_discs(closed_star(m), m, v)), m
    for budget in (4, v):
        assert (disc_rows(enumerate_discs(SearchConfig(budget)))
                == reference_discs(((1, 2, 3),), math.inf, budget)), budget


class TestOrbitPruning:
    """The disc grower, the gluing and the non-roots prune by
    automorphisms; the references in conftest grow, glue and cone
    everything."""

    @pytest.mark.parametrize("v", [5, 6, 7, 8])
    def test_discs_match_the_reference(self, v):
        assert_discs_match_the_reference(v)

    def test_nonroots_match_the_reference(self):
        rng = random.Random(1998)
        roots = [Triangulation(code) for codes in enumerate_roots(
            SearchConfig(max_vertices=7)).values() for code in codes]
        assert len(roots) == 7
        cfg = SearchConfig(max_vertices=8)
        for root in roots:
            want = reference_nonroots(root, 8)
            # the root as its minimal code and relabeled
            for t in (root, relabel(root, rng)[0]):
                assert enumerate_nonroots(t.triangles, cfg) == want

    @pytest.mark.parametrize("v", [7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_roots_match_the_reference(self, v, specialized):
        cfg = SearchConfig(max_vertices=v, specialized=specialized)
        assert enumerate_roots(cfg) == reference_roots(cfg)

    @pytest.mark.nightly
    def test_nine_vertex_discs_match_the_reference_nightly(self):
        assert_discs_match_the_reference(9)

    @pytest.mark.nightly
    def test_nine_vertices_match_the_references_nightly(self):
        for specialized in (True, False):
            cfg = SearchConfig(max_vertices=9, specialized=specialized)
            roots = enumerate_roots(cfg)
            assert roots == reference_roots(cfg)
        for (v, _cls), codes in roots.items():
            for code in codes:
                if v < 9:
                    assert (enumerate_nonroots(code, cfg)
                            == reference_nonroots(Triangulation(code), 9))


class TestCountsTable:
    def test_rows_sorted_and_totaled(self):
        table = CountsTable()
        table.add_root(6, PROJECTIVE_PLANE)
        table.add_root(6, SPHERE)
        table.add_nonroot(6, SPHERE)
        rows = table.rows()
        assert rows == [
            (6, SPHERE, 2, 1, 1),
            (6, PROJECTIVE_PLANE, 1, 1, 0),
        ]


class TestValidateDecomposition:
    def test_octahedron_sphere_decomposition(self, octa):
        main = tuple(t for t in octa.triangles if t != (1, 2, 3))
        dec = Decomposition(genus_surface=((1, 2, 3),), main_disc=main)
        assert validate_decomposition(octa, dec)

    def test_main_disc_needs_max_valence_interior_vertex(self, octa):
        rest = tuple(t for t in octa.triangles if t != (1, 2, 3))
        dec = Decomposition(genus_surface=rest, main_disc=((1, 2, 3),))
        check = validate_decomposition(octa, dec)
        assert not check
        assert "maximal-valence" in check.reason

    def test_missing_triangles_rejected(self, octa):
        dec = Decomposition(genus_surface=((1, 2, 3),),
                            main_disc=octa.triangles[1:-1])
        check = validate_decomposition(octa, dec)
        assert not check
        assert "cover" in check.reason

    def test_overlapping_pieces_rejected(self, octa):
        dec = Decomposition(genus_surface=octa.triangles[:2],
                            main_disc=octa.triangles[1:])
        check = validate_decomposition(octa, dec)
        assert not check
        assert "share a triangle" in check.reason

    def test_foreign_triangles_rejected(self, octa):
        dec = Decomposition(genus_surface=((1, 2, 6),),
                            main_disc=octa.triangles)
        check = validate_decomposition(octa, dec)
        assert not check
        assert "sub-triangulation" in check.reason


class TestSharedPartOfDecomposition:
    # octahedron: 1-6, 2-5 and 3-4 are the opposite vertex pairs
    @pytest.mark.parametrize("pieces, reason", [
        # the two pieces meet in the path 2-1-3
        ([((1, 2, 3),), ((1, 2, 4), (1, 3, 5), (1, 4, 5)),
          ((2, 3, 6), (2, 4, 6), (3, 5, 6), (4, 5, 6))], "dangling shared edge"),
        # the two pieces meet in the single vertex 1
        ([((1, 2, 3),), ((1, 4, 5),),
          ((1, 2, 4), (1, 3, 5), (2, 3, 6), (2, 4, 6), (3, 5, 6), (4, 5, 6))],
         "shared part is not a circle"),
        # two opposite faces meet the rest in two triangles' boundaries
        ([((1, 2, 3), (4, 5, 6)),
          ((1, 2, 4), (1, 3, 5), (1, 4, 5), (2, 3, 6), (2, 4, 6), (3, 5, 6))],
         "shared part is not one circle"),
    ])
    def test_reasons(self, octa, pieces, reason):
        dec = Decomposition(pieces[0], pieces[1], tuple(pieces[2:]))
        check = validate_decomposition(octa, dec)
        assert not check
        assert check.reason == reason


class TestMainDiscsOnce:
    def test_each_valence_enumerated_once(self, monkeypatch):
        from surfenum import listing

        calls = Counter()
        real = listing.enumerate_main_discs

        def counting(m, max_vertices):
            calls[m] += 1
            return real(m, max_vertices)

        monkeypatch.setattr(listing, "enumerate_main_discs", counting)
        listing.enumerate_all(SearchConfig(max_vertices=7))
        assert calls == {4: 1, 5: 1, 6: 1}


class TestDiscCodingCounts:
    """Each disc is grown once per orbit of its new triangle (see
    ``_grow_discs``), from its Disc, which carries what growth reads."""

    @pytest.mark.parametrize("v, discs, codings", [(8, 40, 60), (9, 155, 309)])
    def test_main_disc_codings(self, monkeypatch, v, discs, codings):
        from surfenum import listing

        calls = _count_calls_below(monkeypatch, minimal_code,
                                   below="enumerate_main_discs")
        assert sum(len(listing.enumerate_main_discs(m, v))
                   for m in range(4, v)) == discs
        # one code per disc popped, duplicates included; 103 and 447 when
        # every child of a disc was pushed
        assert calls[0] == codings

    def test_minimal_code_calls_of_a_pass(self, monkeypatch):
        calls = _count_listing_calls(monkeypatch, "minimal_code")
        enumerate_all(SearchConfig(max_vertices=8))
        # 211 when the disc grower pushed every child
        assert calls[0] == 166

    def test_index_discs_builds_one_index_per_disc(self, monkeypatch):
        calls = _count_listing_calls(monkeypatch, "build_index")
        main, extra = _index_discs(SearchConfig(max_vertices=8))
        discs = sum(map(len, main.values())) + sum(map(len, extra.values()))
        # one in Disc.from_triangles; 84 when each disc's children came
        # from a second index
        assert discs == calls[0] == 42


def _count_listing_calls(monkeypatch, name: str) -> list[int]:
    """Rebind ``listing.<name>`` to a wrapper that counts its calls; the
    count is the one item of the returned list."""
    from surfenum import listing

    calls = [0]
    real = getattr(listing, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(listing, name, counting)
    return calls


def search_states(monkeypatch, v: int) -> list:
    """The (triangles, frozen edges) of every state the search expands at
    vertex budget ``v``, recorded from ``children``."""
    from surfenum import listing

    states = []
    real = listing._GenusSurfaceSearch.children

    def recording(search, tris, frozen, *carried):
        states.append((tris, frozen))
        return real(search, tris, frozen, *carried)

    monkeypatch.setattr(listing._GenusSurfaceSearch, "children", recording)
    _GenusSurfaceSearch(SearchConfig(max_vertices=v)).run()
    return states


def invariant(tris, frozen) -> int:
    # the ranks rebuilt in the base of an eight-vertex budget
    return Isomorphs.bucket(tris, _vertex_ranks(
        edge_triangles(tris), vertex_triangles(tris), frozen, 8))


class TestGenusSearchDedup:
    @pytest.mark.parametrize("v, states, candidates",
                             [(5, 5, 1), (6, 15, 2), (7, 78, 5), (8, 829, 25)])
    def test_visited_and_emitted_counts(self, monkeypatch, v, states, candidates):
        from surfenum import listing

        leaves = []
        real = listing._GenusSurfaceSearch.emit

        def counting(search, tris):
            leaves.append(tris)
            return real(search, tris)

        monkeypatch.setattr(listing._GenusSurfaceSearch, "emit", counting)
        search = _GenusSurfaceSearch(SearchConfig(max_vertices=v)).run()
        assert search.expanded == states
        assert len(search.emitted) == candidates
        # every leaf of the pruned search is emitted
        assert len(leaves) == candidates

    @pytest.mark.parametrize("v", [5, 6, 7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_each_leaf_is_emitted_once(self, monkeypatch, v, specialized):
        # no two leaves are isomorphic, so emit needs no duplicate check
        from surfenum import listing

        leaves = []
        real = listing._GenusSurfaceSearch.emit

        def counting(search, tris):
            leaves.append(tris)
            return real(search, tris)

        monkeypatch.setattr(listing._GenusSurfaceSearch, "emit", counting)
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=v, specialized=specialized)).run()
        assert len(leaves) == len(search.emitted) == {5: 1, 6: 2, 7: 5, 8: 25}[v]
        assert len({minimal_code(tris) for tris in leaves}) == len(leaves)
        assert len(set(search.emitted)) == len(search.emitted)

    def test_flag_key_splits_states_like_state_key(self, monkeypatch):
        states = search_states(monkeypatch, 8)
        assert len(states) == 829
        pairs = {(flag_key(tris, frozen), state_key(tris, frozen))
                 for tris, frozen in states}
        # same classes: each key of one kind pairs with exactly one of the other
        assert len({a for a, _ in pairs}) == len(pairs)
        assert len({b for _, b in pairs}) == len(pairs)
        assert len(pairs) == 829

    def test_invariant_buckets_never_split_a_flag_key_class(self, monkeypatch):
        popped = []
        real = Isomorphs.add

        def recording(seen, tris, by_edge, by_vertex, rank, marked=()):
            popped.append((tris, marked))
            return real(seen, tris, by_edge, by_vertex, rank, marked)

        monkeypatch.setattr(Isomorphs, "add", recording)
        states = search_states(monkeypatch, 8)
        assert len(states) == 829
        rng = random.Random(83)
        for tris, frozen in states:
            reference = invariant(tris, frozen)
            # unchanged by relabelings that carry the frozen edges along
            labels = sorted({v for t in tris for v in t})
            for _ in range(3):
                shuffled = labels[:]
                rng.shuffle(shuffled)
                mapping = dict(zip(labels, shuffled))
                image = frozenset(tuple(sorted((mapping[a], mapping[b])))
                                  for a, b in frozen)
                moved = frozenset(tuple(sorted(mapping[v] for v in t))
                                  for t in tris)
                assert invariant(moved, image) == reference
        # every popped state, duplicates included: no flag_key class spans
        # two invariants, and the classes are the expanded states
        assert len(popped) == 997
        invariant_of = {}
        for tris, frozen in popped:
            reference = invariant(tris, frozen)
            key = flag_key(tris, frozen)
            assert invariant_of.setdefault(key, reference) == reference
        assert len(invariant_of) == 829
        # the invariant separates most, not all, of them
        assert len(set(invariant_of.values())) < 829


class TestGenusSearchShortcuts:
    @pytest.mark.parametrize("specialized", [True, False])
    def test_link_verdicts_match_link_shape(self, monkeypatch, specialized):
        from surfenum import listing
        from surfenum.core import vertex_triangles

        # id -> (link, its vertex's star, the vertex) for the carried links
        # of the state being expanded; holding the link keeps its id from
        # being reused.  A fresh vertex has none: its link is empty.
        links_of = {}
        fresh = [None]
        verdicts = Counter()
        states = 0
        real_after = listing.link_after
        real_children = listing._GenusSurfaceSearch.children

        def checking_after(link, p, q):
            verdict = real_after(link, p, q)
            if id(link) in links_of:
                _link, star, v = links_of[id(link)]
            else:
                assert link == {}
                star, v = [], fresh[0]
            new_tri = tuple(sorted((v, p, q)))
            assert verdict == link_shape(star + [new_tri], v), (star, new_tri)
            verdicts[verdict] += 1
            return verdict

        def checking_children(search, tris, frozen, edge_map, by_vertex,
                              *carried):
            nonlocal states
            links = carried[0]
            links_of.clear()
            links_of.update((id(link),
                             (link, star_triangles(tris, by_vertex[v]), v))
                            for v, link in links.items())
            fresh[0] = len(by_vertex) + 1
            out = real_children(search, tris, frozen, edge_map, by_vertex,
                                *carried)
            if out is None:
                return None
            states += 1
            # the boundary vertex set behind the finished and
            # all-interior-triangle tests of this state, as children reads
            # it off the carried links
            bverts = {v for e, ts in edge_map.items() if len(ts) == 1 for v in e}
            n = search.cfg.max_vertices
            for v, star in vertex_triangles(tris).items():
                assert (v not in bverts) == (link_shape(star, v) == "circle")
                # the valence caps that the vertex cap implies
                assert len(star) <= (n - 3 if v in bverts else n - 2)
            # the frozen-edge cap that the vertex cap implies
            assert all(len(child[1]) <= search.max_v for child in out)
            return out

        monkeypatch.setattr(listing, "link_after", checking_after)
        monkeypatch.setattr(listing._GenusSurfaceSearch, "children",
                            checking_children)
        _GenusSurfaceSearch(SearchConfig(max_vertices=8, specialized=specialized)).run()
        # the visited states less the leaves; the one-triangle candidate is
        # emitted directly, so 24 of the 25 candidates are leaves
        assert states == 829 - 24
        assert set(verdicts) == {"bad", "circle", "interval", "paths"}

    @pytest.mark.parametrize("specialized", [True, False])
    def test_fail_first_edge_matches_the_reference_key(self, monkeypatch,
                                                       specialized):
        from surfenum import listing

        class LookupRecording(dict):
            # children looks up the decided edge first, for its apex
            def __getitem__(self, key):
                looked_up.append(key)
                return super().__getitem__(key)

        looked_up = []
        decided = 0
        real_children = listing._GenusSurfaceSearch.children

        def checking(search, tris, frozen, by_edge, by_vertex, links,
                     frozen_ends, *carried):
            nonlocal decided
            looked_up.clear()
            out = real_children(search, tris, frozen, LookupRecording(by_edge),
                                by_vertex, links, frozen_ends, *carried)
            open_edges = [e for e, ts in by_edge.items()
                          if len(ts) == 1 and e not in frozen]
            if out is None:
                assert not open_edges and not looked_up
                return None
            decided += 1
            # the larger valence of its ends, then the frozen edges at both
            # ends, both descending, then the least edge
            assert looked_up[0] == min(open_edges, key=lambda e: (
                -max(len(by_vertex[e[0]]), len(by_vertex[e[1]])),
                -len(frozen_ends.get(e[0], ())) - len(frozen_ends.get(e[1], ())),
                e))
            return out

        monkeypatch.setattr(listing._GenusSurfaceSearch, "children", checking)
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=8, specialized=specialized)).run()
        # every state expanded but the 24 leaves
        assert search.expanded == 829 and decided == 829 - 24

    @pytest.mark.parametrize("specialized", [True, False])
    def test_cover_child_skips_an_edge_in_two_triangles(self, specialized):
        # the fan (1, 2, 3), (1, 3, 4), (1, 4, 5): 1's link is the path
        # 2-3-4-5, and its inner vertex 4 is a boundary vertex.  The open
        # edge (1, 2) is decided first, and (1, 2, 4) would put (1, 4) in
        # three triangles.  link_after reads path ends alone and passes it
        # at 1, 2 and 4, so the edge test in children is what skips it
        tris = ((1, 2, 3), (1, 3, 4), (1, 4, 5))
        by_edge, by_vertex = build_index(tris)
        assert link_shape(list(tris) + [(1, 2, 4)], 1) == "bad"
        search = _GenusSurfaceSearch(SearchConfig(8, specialized=specialized))
        state = (tris, frozenset(), by_edge, by_vertex, rebuilt_links(tris),
                 {}, [], _vertex_ranks(by_edge, by_vertex, (), 8))
        children = search.children(*state)
        assert all((1, 2, 4) not in child[0] for child in children)
        # the freeze child of (1, 2) and the covers by 5 and the fresh 6
        assert sorted(child[0][3:] for child in children) == [
            (), ((1, 2, 5),), ((1, 2, 6),)]

    @pytest.mark.parametrize("specialized", [True, False])
    def test_search_makes_no_validate_call(self, monkeypatch, specialized):
        from surfenum import listing

        calls = []
        real = validate

        def counting(t):
            calls.append(t)
            return real(t)

        for mod in _package_modules_holding(real):
            monkeypatch.setattr(mod, "validate", counting)
        leaves = []
        real_emit = listing._GenusSurfaceSearch.emit

        def recording(search, tris):
            leaves.append(tris)
            return real_emit(search, tris)

        monkeypatch.setattr(listing._GenusSurfaceSearch, "emit", recording)
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=8, specialized=specialized)).run()
        assert len(search.emitted) == 25
        # 48 when each capped class came from a validated capped copy
        assert calls == []
        # every leaf is a surface with boundary, which the capped class needs
        assert len(leaves) == 25
        for tris in leaves:
            assert real(Triangulation(tris)).kind is SurfaceKind.SURFACE_WITH_BOUNDARY

    @pytest.mark.parametrize("v", [5, 6, 7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_emitted_genus_surfaces_match_from_triangles(self, v, specialized):
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=v, specialized=specialized)).run()
        for g in search.emitted:
            assert g == GenusSurface.from_triangles(g.triangles)
            assert g.capped_class == cone_and_classify(g.triangles)


def emitted_digest(emitted) -> str:
    """sha256 of the sorted (code, boundary, capped class) of a search's
    emitted candidates."""
    rows = sorted((g.triangles, g.boundary, g.capped_class.name)
                  for g in emitted)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# emitted_digest of the search before it pruned partial states, with the
# three TWO_CYCLE_CANDIDATES_V9 at V=9; the same in both modes
EMITTED_SHA256 = {
    5: "0add8c1dc60fd3ae0878083eaeff68ae8d4cc3f13ec27ec28d5cce03f2bfaab6",
    6: "152d78af1c909c4d7ef35221c5236912d21a63666b25a0334815886be37a7bd5",
    7: "ee7a1d0395ca8920d2feac860f5bec76afe81cae7b599529f95c0f6cc5ce5cfe",
    8: "d45e17f9f64e6f0f9ba2b108dd3ba05f43ea80b289c8c12589d95c65106c8aa0",
    9: "a567fd954603f6019020b9081fdd5358060b25779964b4ec302ba9bf6ba7b0c5",
}


class TestGenusSearchPruning:
    @pytest.mark.parametrize("v", [5, 6, 7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_emitted_candidates_are_pinned(self, v, specialized):
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=v, specialized=specialized)).run()
        assert emitted_digest(search.emitted) == EMITTED_SHA256[v]
        # emit checks only the surface class and the planar rule: the
        # partial rules imply the other leaf conditions (class docstring)
        assert all(reference_admissible(g, search.cfg)
                   for g in search.emitted)

    @pytest.mark.nightly
    @pytest.mark.parametrize("specialized", [True, False])
    def test_nine_vertex_candidates_are_pinned_nightly(self, specialized):
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=9, specialized=specialized)).run()
        assert len(search.emitted) == 611
        assert emitted_digest(search.emitted) == EMITTED_SHA256[9]
        assert all(reference_admissible(g, search.cfg)
                   for g in search.emitted)
        # 138,690 states without the pruning, 55,215 without its rule R3,
        # 48,068 when the open edge decided next was the least by label
        assert search.expanded <= 26456

    @pytest.mark.parametrize("specialized", [True, False])
    def test_pruned_children_reach_no_admissible_leaf(self, monkeypatch,
                                                     specialized):
        from surfenum import listing

        search_cls = listing._GenusSurfaceSearch
        real_children, real_dead_end = search_cls.children, search_cls._dead_end
        # the rules' verdict on each child, in the order children lists them,
        # and the (child, rule) of every child a rule rejects
        verdicts = []
        pruned = []

        def recording(search, changes, frozen, by_vertex, cycles, split):
            verdicts.append(real_dead_end(search, changes, frozen, by_vertex,
                                          cycles, split))
            return None  # the rules patched out: every child is listed

        def pruning(search, *state):
            verdicts.clear()
            out = real_children(search, *state)
            if out is None:
                return None
            assert len(out) == len(verdicts)
            pruned.extend((c, rule) for c, rule in zip(out, verdicts) if rule)
            return [c for c, rule in zip(out, verdicts) if rule is None]

        monkeypatch.setattr(search_cls, "_dead_end", recording)
        monkeypatch.setattr(search_cls, "children", pruning)
        cfg = SearchConfig(max_vertices=7, specialized=specialized)
        search = search_cls(cfg).run()
        assert emitted_digest(search.emitted) == EMITTED_SHA256[7]
        assert {rule for _c, rule in pruned} == {"R1", "R2", "R3"}

        # grow every pruned child with the rules patched out
        seen = set()
        stack = [c for c, _rule in pruned]
        admissible = set()
        while stack:
            state = stack.pop()
            tris, frozen = state[:2]
            key = flag_key(tris, frozen)
            if key in seen:
                continue
            seen.add(key)
            out = real_children(search, *state)
            if out is not None:
                stack.extend(out)
            elif (boundary_cycles(build_index(tris)[0])
                  and reference_admissible(
                      GenusSurface.from_triangles(tris), cfg)):
                admissible.add(minimal_code(tris))
        # the one-triangle candidate, which the search emits directly, is
        # the only admissible leaf below a pruned child
        assert admissible == {((1, 2, 3),)}

    @pytest.mark.parametrize("v, lengths, hosted", [
        (10, [3, 3, 3], False), (11, [5, 5], False), (10, [3, 5], True)],
        ids=["3-3-3", "5-5", "3-5"])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_host_rule_on_closed_frozen_cycles(self, v, lengths, hosted,
                                               specialized):
        # R4 cannot fire below 10 vertices, so no search run reaches it:
        # with three cycles, or two of length 5 or more, no cycle can host
        # the main disc with at most one extra triangle or square
        labels = iter(range(1, sum(lengths) + 1))
        cycles = [[next(labels) for _ in range(n)] for n in lengths]
        search = _GenusSurfaceSearch(SearchConfig(v, specialized=specialized))
        pruned = specialized and not hosted
        assert (search._dead_end([], frozenset(), {}, cycles, False)
                == ("R4" if pruned else None))

    @pytest.mark.parametrize("specialized", [True, False])
    def test_closed_cycles_walks_only_emitted_boundaries(self, monkeypatch,
                                                         specialized):
        from surfenum.core import closed_cycles

        calls = [0]

        def counting(edges):
            calls[0] += 1
            return closed_cycles(edges)

        for mod in _package_modules_holding(closed_cycles):
            monkeypatch.setattr(mod, "closed_cycles", counting)
        search = _GenusSurfaceSearch(SearchConfig(max_vertices=8,
                                                  specialized=specialized))
        search.run()
        # one per emitted candidate's boundary: a freeze child whose edge
        # closes a cycle takes it from its walk of the frozen path.  181
        # when each such child walked its frozen edges again (156), 616
        # when every freeze child did, 1,256 and 665 when the specialized
        # host rule and the split rule each walked the frozen cycles, and
        # emit built two candidates
        assert len(search.emitted) == 25
        assert calls[0] == 25

    @pytest.mark.parametrize("specialized", [True, False])
    def test_search_builds_one_index_per_emitted_candidate(self, monkeypatch,
                                                           specialized):
        calls = _count_listing_calls(monkeypatch, "build_index")
        search = _GenusSurfaceSearch(SearchConfig(max_vertices=8,
                                                  specialized=specialized))
        search.run()
        # the start state's, and GenusSurface.from_triangles's for each
        # emitted candidate; 50 when emit re-checked each leaf on an index
        # of its own
        assert len(search.emitted) == 25
        assert calls[0] == 26

    @pytest.mark.parametrize("v", [6, 7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_carried_state_matches_a_rebuild(self, monkeypatch, v, specialized):
        from surfenum import listing
        from surfenum.core import closed_cycles

        def as_sets(index):
            return {k: sorted(ts) for k, ts in index.items()}

        def rebuilt(tris, frozen):
            # the carried fields of a state, built from its triangle tuple
            # and frozen edges alone: its index by position, and the links
            # keyed by the boundary vertices
            by_edge, by_vertex = build_index(tris)
            ends = {}
            for x, y in frozen:
                ends.setdefault(x, []).append(y)
                ends.setdefault(y, []).append(x)
            return (by_edge, by_vertex, rebuilt_links(tris), as_sets(ends),
                    cycle_edges(closed_cycles(frozen)),
                    _vertex_ranks(by_edge, by_vertex, frozen, v))

        def cycle_edges(cycles):
            # the cycles as a set of edge sets: a cycle taken from a freeze
            # child's walk starts and turns where the walk did
            return {frozenset(tuple(sorted((c[i - 1], c[i])))
                              for i in range(len(c))) for c in cycles}

        def carried(by_edge, by_vertex, links, ends, cycles, rank):
            return (by_edge, by_vertex, links, as_sets(ends),
                    cycle_edges(cycles), rank)

        states = 0
        real_children = listing._GenusSurfaceSearch.children

        def checking(search, tris, frozen, *fields):
            nonlocal states
            states += 1
            # a state carries its triangles as a tuple in glue order, its
            # frozen edges and the six fields that carried reads
            assert type(tris) is tuple and len(fields) == 6
            reference = rebuilt(tris, frozen)
            assert carried(*fields) == reference
            out = real_children(search, tris, frozen, *fields)
            # a child's fields are new objects: the parent's are unchanged
            assert carried(*fields) == reference
            return out

        local = Counter()
        real_splits = listing._splits_boundary

        def checking_splits(cycles, bedges, tris, by_edge, starts):
            verdict = real_splits(cycles, bedges, tris, by_edge, starts)
            # a freeze child: R3 round its edge alone, or round the cycle
            # its edge closes, agrees with R3 over every frozen edge
            local[len(starts) > 1, verdict] += 1
            assert verdict == real_splits(closed_cycles(bedges), bedges,
                                          tris, by_edge, bedges)
            return verdict

        monkeypatch.setattr(listing._GenusSurfaceSearch, "children", checking)
        monkeypatch.setattr(listing, "_splits_boundary", checking_splits)
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=v, specialized=specialized)).run()
        assert states == search.expanded == {6: 15, 7: 78, 8: 829}[v]
        assert sum(local.values()) > 0
        if v == 8:
            # both verdicts, on freeze children that close a cycle and on
            # those that do not
            assert set(local) == {(closes, verdict) for closes in (True, False)
                                  for verdict in (True, False)}


class TestWorkerPools:
    @pytest.mark.parametrize("workers, tasks, pool", [(100000, 3, 3), (2, 5, 2)])
    def test_pool_is_capped_at_the_task_count(self, monkeypatch, workers,
                                              tasks, pool):
        import concurrent.futures

        sizes = []

        class Recording:
            # records the pool size and maps in this process: no worker starts
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        assert _map_maybe_parallel(abs, [(-i,) for i in range(tasks)],
                                   workers) == list(range(tasks))
        assert sizes == [pool]

    def test_two_workers_give_the_same_results(self):
        cfg = SearchConfig(max_vertices=7)
        serial, pooled = enumerate_all(cfg), enumerate_all(
            SearchConfig(max_vertices=7, workers=2))
        assert pooled.all_codes() == serial.all_codes()
        assert pooled.counts.rows() == serial.counts.rows()
        serial, pooled = brute_force_enumerate(7), brute_force_enumerate(7, workers=2)
        assert pooled.codes == serial.codes
        assert pooled.counts.rows() == serial.counts.rows()
