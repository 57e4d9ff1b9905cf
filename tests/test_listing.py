import hashlib
import itertools
from collections import Counter

import pytest

from conftest import cone_and_classify, state_key
from surfenum.canon import Code, flag_key, minimal_code
from surfenum.cli import parse_triangulation_text
from surfenum.core import (
    PROJECTIVE_PLANE,
    SPHERE,
    SurfaceKind,
    Triangulation,
    boundary_cycles,
    classify,
    valences,
    validate,
)
from surfenum.listing import (
    CountsTable,
    Decomposition,
    Disc,
    GenusSurface,
    SearchConfig,
    _disc_children,
    _GenusSurfaceSearch,
    _gluings,
    _index_discs,
    _roots_from_genus_surface,
    enumerate_all,
    enumerate_discs,
    enumerate_genus_surfaces,
    enumerate_main_discs,
    enumerate_nonroots,
    enumerate_roots,
    genus_surface_admissible,
    main_disc_boundary_lower_bound,
    validate_decomposition,
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


def closed_star(k: int) -> frozenset:
    """The closed star of the hub 1 with rim 2 .. k+1."""
    rim = range(2, k + 2)
    return frozenset(tuple(sorted((1, rim[i - 1], rim[i]))) for i in range(k))


class TestMainDiscGrowth:
    def test_closed_star(self):
        # no room for a fresh vertex, and no corner of the bare star closes
        [d] = enumerate_main_discs(5, 6)
        assert d.triangles == minimal_code(closed_star(5))
        assert len(d.triangles) == len(d.boundary) == 5
        assert d.interior_count == 1

    def test_one_edge_gluing_adds_boundary_vertex(self):
        children = _disc_children(closed_star(5), (2, 3, 4, 5, 6), 8, 9)
        assert (closed_star(5) | {(2, 3, 7)}, (2, 7, 3, 4, 5, 6)) in children

    def test_two_edge_gluing_closes_a_corner(self):
        # fresh vertices 7 on (2, 3) and 8 on (3, 4), then close the corner at 3
        tris, bnd = closed_star(5), (2, 3, 4, 5, 6)
        for grown in ({(2, 3, 7)}, {(3, 4, 8)}):
            [(tris, bnd)] = [c for c in _disc_children(tris, bnd, 8, 9)
                             if c[0] == tris | grown]
        assert bnd == (2, 7, 3, 8, 4, 5, 6)
        assert (tris | {(3, 7, 8)}, (2, 7, 8, 4, 5, 6)) in _disc_children(tris, bnd, 8, 9)

    def test_corner_close_on_fresh_star_is_rejected(self):
        # the very first step can never close a corner: the corner would
        # become a 3-valent interior vertex
        children = _disc_children(closed_star(5), (2, 3, 4, 5, 6), 8, 9)
        assert len(children) == 5
        assert all(len(bnd) == 6 and 7 in bnd for _tris, bnd in children)

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
            cycles = boundary_cycles(t.triangles)
            verts = {v for tri in t.triangles for v in tri}
            from surfenum.core import edge_triangles
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
        assert genus_surface_admissible(mobius, SearchConfig(max_vertices=6))

    def test_annulus_is_not_admissible(self, annulus):
        # planar, and not the single triangle
        assert not genus_surface_admissible(annulus, SearchConfig(max_vertices=11))

    def test_single_triangle_is_admissible(self):
        t = Triangulation([(1, 2, 3)])
        assert genus_surface_admissible(t, SearchConfig(max_vertices=7))

    def test_two_triangle_square_is_not(self):
        t = Triangulation([(1, 2, 3), (1, 3, 4)])
        assert not genus_surface_admissible(t, SearchConfig(max_vertices=7))

    def test_non_surface_is_refused(self):
        # two tetrahedra joined at vertex 1
        t = Triangulation([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
                           (1, 5, 6), (1, 5, 7), (1, 6, 7), (5, 6, 7)])
        with pytest.raises(ValueError):
            genus_surface_admissible(t, SearchConfig(max_vertices=9))

    def test_mobius_needs_enough_budget(self, mobius):
        # all five vertices are boundary with valence 3 <= N - 3 forces N >= 6
        assert not genus_surface_admissible(mobius, SearchConfig(max_vertices=5))

    def test_lower_bound_rows(self, mobius):
        g = GenusSurface.from_triangles(mobius.triangles)
        md = 4  # every Moebius vertex has degree 4
        assert main_disc_boundary_lower_bound(g, True, True, 6) == md + 1
        assert main_disc_boundary_lower_bound(g, True, False, 6) == md
        assert main_disc_boundary_lower_bound(g, False, True, 7) == md + 3 + 5 - 7
        assert main_disc_boundary_lower_bound(g, False, False, 7) == md + 2 + 5 - 7


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
        star = Disc.from_triangles(closed_star(5))
        results = {minimal_code(glued)
                   for glued in _gluings(frozenset(g.triangles), g.boundary[0], star)
                   if validate(Triangulation(glued)).kind is SurfaceKind.CLOSED_SURFACE}
        assert results == {minimal_code(rp2_six.triangles)}

    def test_boundary_length_mismatch(self, mobius):
        g = GenusSurface.from_triangles(mobius.triangles)
        star4 = Disc.from_triangles(closed_star(4))
        with pytest.raises(ValueError, match="cycle length 5 vs disc boundary length 4"):
            next(_gluings(frozenset(g.triangles), g.boundary[0], star4))

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
        star = Disc.from_triangles(closed_star(5))
        discs = ({5: [(5, star)]}, {5: [star]})
        assert _roots_from_genus_surface(g, SearchConfig(12), discs) == {(12, SPHERE, ico)}
        assert _roots_from_genus_surface(
            g, SearchConfig(11, specialized=False), discs) == set()

    def test_triangle_extra_disc(self):
        # a 9-vertex sphere root whose 5-valent star at vertex 1 and the
        # face (7, 8, 9) off it leave a genus-surface with two boundary
        # cycles; no genus-surface candidate at V<=9 has two, so the
        # enumeration never glues an extra disc
        root = parse_triangulation_text(
            "123 124 135 146 156 237 247 358 378 469 479 568 689 789").triangles
        g = GenusSurface.from_triangles(
            minimal_code([t for t in root if 1 not in t and t != (7, 8, 9)]))
        assert sorted(len(c) for c in g.boundary) == [3, 5]
        cfg = SearchConfig(9)
        assert _roots_from_genus_surface(g, cfg, _index_discs(cfg)) == {
            (9, SPHERE, minimal_code(root))}


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
    @pytest.mark.parametrize("specialized", [True, False])
    def test_each_glued_class_is_validated_once(self, monkeypatch, specialized):
        import sys

        from surfenum import core, listing

        calls = 0
        real = core.validate

        def counting(t):
            # count the calls made below the gluing, in classify too
            nonlocal calls
            frame = sys._getframe(1)
            while frame and frame.f_code.co_name != "_roots_from_genus_surface":
                frame = frame.f_back
            calls += frame is not None
            return real(t)

        monkeypatch.setattr(listing, "validate", counting)
        monkeypatch.setattr(core, "validate", counting)
        enumerate_roots(SearchConfig(max_vertices=8, specialized=specialized))
        # one call per flag-key class that passes the valence test; 78 when
        # classify validated each of them once more
        assert 0 < calls <= 40

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
        # 39 in the gluing and 7 roots checked in the non-roots; 133 when
        # each capped genus-surface was built and validated twice
        assert 0 < calls <= 46


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
        grown = enumerate_nonroots(tetra, SearchConfig(max_vertices=6))
        by_v = Counter(t.vertex_count for t in grown)
        assert by_v == {5: 1, 6: 1}
        assert all(classify(t) == SPHERE and not is_root(t) for t in grown)

    def test_nonroots_validate_only_the_root(self, monkeypatch, octa):
        from surfenum import moves

        calls = Counter()
        real = moves.validate

        def counting(t):
            calls[t.vertex_count] += 1
            return real(t)

        monkeypatch.setattr(moves, "validate", counting)
        grown = enumerate_nonroots(octa, SearchConfig(max_vertices=8))
        assert len(grown) > 1
        # is_root checks the root; the moves from it keep the surface closed
        assert calls == {6: 1}

    def test_nonroots_requires_root(self, tetra):
        from surfenum.moves import t_move
        with pytest.raises(ValueError):
            enumerate_nonroots(t_move(tetra, (1, 2, 3)),
                               SearchConfig(max_vertices=7))


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
        assert table.total_triangulations() == 3

    def test_merge(self):
        a, b = CountsTable(), CountsTable()
        a.add_root(4, SPHERE)
        b.add_nonroot(5, SPHERE)
        a.merge(b)
        assert a.get(5, SPHERE) == (1, 0, 1)


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


class TestGenusSearchDedup:
    @pytest.mark.parametrize("v, states, candidates", [(7, 85, 5), (8, 1105, 25)])
    def test_visited_and_emitted_counts(self, monkeypatch, v, states, candidates):
        from surfenum import listing

        leaves = []
        real = listing._GenusSurfaceSearch.emit

        def counting(search, tris):
            leaves.append(tris)
            return real(search, tris)

        monkeypatch.setattr(listing._GenusSurfaceSearch, "emit", counting)
        search = _GenusSurfaceSearch(SearchConfig(max_vertices=v)).run()
        assert len(search.visited) == states
        assert len(search.emitted) == candidates
        # every leaf of the pruned search is emitted
        assert len(leaves) == candidates

    def test_flag_key_splits_states_like_state_key(self, monkeypatch):
        from surfenum import listing

        states = set()
        real = listing.flag_key

        def recording(tris, marked_edges=()):
            states.add((tris, marked_edges))
            return real(tris, marked_edges)

        monkeypatch.setattr(listing, "flag_key", recording)
        _GenusSurfaceSearch(SearchConfig(max_vertices=8)).run()
        pairs = {(real(tris, frozen), state_key(tris, frozen))
                 for tris, frozen in states}
        # same classes: each key of one kind pairs with exactly one of the other
        assert len({a for a, _ in pairs}) == len(pairs)
        assert len({b for _, b in pairs}) == len(pairs)
        assert len(pairs) == 1105


class TestGenusSearchShortcuts:
    @pytest.mark.parametrize("specialized", [True, False])
    def test_link_verdicts_match_link_shape(self, monkeypatch, specialized):
        from surfenum import listing
        from surfenum.core import link_shape, vertex_triangles

        # id -> (link, its vertex's star, the vertex); holding the link
        # keeps its id from being reused
        links = {}
        verdicts = Counter()
        states = 0
        real_ends, real_after = listing._link_ends, listing._link_after
        real_freeze_ok = listing._GenusSurfaceSearch._freeze_ok

        def recording_ends(star, v):
            link = real_ends(star, v)
            links[id(link)] = (link, list(star), v)
            return link

        def checking_after(link, p, q):
            verdict = real_after(link, p, q)
            _link, star, v = links[id(link)]
            new_tri = tuple(sorted((v, p, q)))
            assert verdict == link_shape(star + [new_tri], v), (star, new_tri)
            verdicts[verdict] += 1
            return verdict

        def checking_freeze_ok(search, frozen, e, vals, frozen_ends,
                               edge_map, bverts):
            # the boundary vertex set behind the finished, opposite-vertex
            # and all-interior-triangle tests of this state
            nonlocal states
            states += 1
            tris = {t for ts in edge_map.values() for t in ts}
            for v, star in vertex_triangles(tris).items():
                assert (v not in bverts) == (link_shape(star, v) == "circle")
            return real_freeze_ok(search, frozen, e, vals, frozen_ends,
                                  edge_map, bverts)

        monkeypatch.setattr(listing, "_link_ends", recording_ends)
        monkeypatch.setattr(listing, "_link_after", checking_after)
        monkeypatch.setattr(listing._GenusSurfaceSearch, "_freeze_ok",
                            checking_freeze_ok)
        _GenusSurfaceSearch(SearchConfig(max_vertices=8, specialized=specialized)).run()
        # the visited states less the leaves; the one-triangle candidate is
        # emitted directly, so 24 of the 25 candidates are leaves
        assert states == 1105 - 24
        assert set(verdicts) == {"bad", "circle", "interval", "paths"}

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
        for code, g in search.emitted.items():
            assert g == GenusSurface.from_triangles(code)
            assert g.capped_class == cone_and_classify(code)


def emitted_digest(emitted) -> str:
    """sha256 of the sorted (code, boundary, capped class) of a search's
    emitted candidates."""
    rows = sorted((g.triangles, g.boundary, g.capped_class.name)
                  for g in emitted.values())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# emitted_digest of the search before it pruned partial states; the same in
# both modes
EMITTED_SHA256 = {
    5: "0add8c1dc60fd3ae0878083eaeff68ae8d4cc3f13ec27ec28d5cce03f2bfaab6",
    6: "152d78af1c909c4d7ef35221c5236912d21a63666b25a0334815886be37a7bd5",
    7: "ee7a1d0395ca8920d2feac860f5bec76afe81cae7b599529f95c0f6cc5ce5cfe",
    8: "d45e17f9f64e6f0f9ba2b108dd3ba05f43ea80b289c8c12589d95c65106c8aa0",
    9: "ccaadc90a31b33abaadf37f8dadc9a77c92a61b2f53181d7d69d7788823f68fe",
}


class TestGenusSearchPruning:
    @pytest.mark.parametrize("v", [5, 6, 7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_emitted_candidates_are_pinned(self, v, specialized):
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=v, specialized=specialized)).run()
        assert emitted_digest(search.emitted) == EMITTED_SHA256[v]

    @pytest.mark.nightly
    @pytest.mark.parametrize("specialized", [True, False])
    def test_nine_vertex_candidates_are_pinned_nightly(self, specialized):
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=9, specialized=specialized)).run()
        assert len(search.emitted) == 608
        assert emitted_digest(search.emitted) == EMITTED_SHA256[9]
        # 138,690 states without the pruning, 55,215 without its rule R3
        assert len(search.visited) <= 48068

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

        def recording(changes, opposite, split):
            verdicts.append(real_dead_end(changes, opposite, split))
            return None  # the rules patched out: every child is listed

        def pruning(search, tris, frozen):
            verdicts.clear()
            out = real_children(search, tris, frozen)
            if out is None:
                return None
            assert len(out) == len(verdicts)
            pruned.extend((c, rule) for c, rule in zip(out, verdicts) if rule)
            return [c for c, rule in zip(out, verdicts) if rule is None]

        monkeypatch.setattr(search_cls, "_dead_end", staticmethod(recording))
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
            tris, frozen = stack.pop()
            key = flag_key(tris, frozen)
            if key in seen:
                continue
            seen.add(key)
            out = real_children(search, tris, frozen)
            if out is not None:
                stack.extend(out)
            elif (boundary_cycles(tris)
                  and genus_surface_admissible(Triangulation(tris), cfg)):
                admissible.add(minimal_code(tris))
        # the one-triangle candidate, which the search emits directly, is
        # the only admissible leaf below a pruned child
        assert admissible == {((1, 2, 3),)}


class TestWorkerPools:
    def test_two_workers_give_the_same_results(self):
        cfg = SearchConfig(max_vertices=7)
        serial, pooled = enumerate_all(cfg), enumerate_all(
            SearchConfig(max_vertices=7, workers=2))
        assert pooled.all_codes() == serial.all_codes()
        assert pooled.counts.rows() == serial.counts.rows()
        serial, pooled = brute_force_enumerate(7), brute_force_enumerate(7, workers=2)
        assert pooled.codes == serial.codes
        assert pooled.counts.rows() == serial.counts.rows()
