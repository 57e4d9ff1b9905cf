import hashlib
import itertools
from collections import Counter

import pytest

from conftest import glue_disc, state_key
from surfenum.canon import flag_key, minimal_code
from surfenum.cli import parse_triangulation_text
from surfenum.core import (
    PROJECTIVE_PLANE,
    SPHERE,
    SurfaceKind,
    Triangulation,
    boundary_cycles,
    classify,
    validate,
)
from surfenum.listing import (
    BoundaryLengthMismatchError,
    CountsTable,
    Decomposition,
    Disc,
    GenusSurface,
    GluingError,
    GluingTally,
    SearchConfig,
    _GenusSurfaceSearch,
    closed_star_disc,
    enumerate_all,
    enumerate_discs,
    enumerate_genus_surfaces,
    enumerate_main_discs,
    enumerate_nonroots,
    enumerate_roots,
    genus_surface_admissible,
    grow_main_disc_step,
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


class TestMainDiscGrowth:
    def test_closed_star(self):
        d = closed_star_disc(5)
        assert len(d.triangles) == 5
        assert d.boundary == (2, 3, 4, 5, 6)
        assert d.tally == GluingTally(0, 0)

    def test_one_edge_gluing_adds_boundary_vertex(self):
        d = closed_star_disc(5)
        grown = grow_main_disc_step(d, (2, 3), None)
        assert grown.boundary == (2, 7, 3, 4, 5, 6)
        assert grown.tally == GluingTally(1, 0)

    def test_two_edge_gluing_closes_a_corner(self):
        d = closed_star_disc(5)
        d = grow_main_disc_step(d, (2, 3), None)  # corner 7 between 2 and 3
        d = grow_main_disc_step(d, (3, 4), None)
        grown = grow_main_disc_step(d, (7, 3), 8)  # close the corner at 3
        assert 3 not in grown.boundary
        assert grown.tally == GluingTally(2, 1)

    def test_corner_close_on_fresh_star_is_rejected(self):
        # the very first step can never be a two-edge gluing: the corner
        # would become a 3-valent interior vertex
        d = closed_star_disc(5)
        with pytest.raises(GluingError):
            grow_main_disc_step(d, (2, 3), 4)

    def test_tally_tracks_boundary_and_interior(self):
        # V(boundary) = m + n_I - n_II and V(interior) = 1 + n_II
        for m in (5, 6):
            for disc in enumerate_main_discs(m, 8):
                tally = disc.tally
                assert len(disc.boundary) == m + tally.type_i - tally.type_ii
                assert disc.interior_count == 1 + tally.type_ii

    def test_main_discs_have_no_small_interior_valence(self):
        for disc in enumerate_main_discs(5, 8):
            assert disc.no_interior_three_valent
            assert disc.max_interior_valence <= 5


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


class TestGluing:
    def test_mobius_plus_star_gives_projective_plane(self, mobius, rp2_six):
        g = GenusSurface.from_triangles(mobius.triangles)
        star = Disc.from_triangles(closed_star_disc(5).triangles)
        results = set()
        for reflect in (False, True):
            for offset in range(5):
                try:
                    t = glue_disc(g, g.boundary[0], star, offset, reflect)
                except GluingError:
                    continue
                results.add(minimal_code(t.triangles))
        assert results == {minimal_code(rp2_six.triangles)}

    def test_boundary_length_mismatch(self, mobius):
        g = GenusSurface.from_triangles(mobius.triangles)
        star4 = Disc.from_triangles(closed_star_disc(4).triangles)
        with pytest.raises(BoundaryLengthMismatchError):
            glue_disc(g, g.boundary[0], star4, 0, False)

    def test_unknown_cycle_rejected(self, mobius):
        g = GenusSurface.from_triangles(mobius.triangles)
        star = Disc.from_triangles(closed_star_disc(5).triangles)
        with pytest.raises(GluingError):
            glue_disc(g, (1, 2, 3, 4, 5), star, 0, False)


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

        from surfenum import listing

        calls = Counter()
        real = listing.validate

        def counting(t):
            calls[sys._getframe(1).f_code.co_name] += 1
            return real(t)

        monkeypatch.setattr(listing, "validate", counting)
        enumerate_roots(SearchConfig(max_vertices=8, specialized=specialized))
        # one call per flag-key class that passes the valence test
        assert 0 < calls["_roots_from_genus_surface"] <= 40


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
    def test_only_shape_admissible_leaves_are_classified(self, monkeypatch,
                                                         specialized):
        from surfenum import listing

        calls = []
        real = listing.classify

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(listing, "classify", counting)
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=8, specialized=specialized)).run()
        assert len(search.emitted) == 25
        # one per non-planar candidate; 145 when every leaf was classified
        # before the shape checks and each emitted code once more
        assert 0 < len(calls) <= 24

    @pytest.mark.parametrize("v", [7, 8])
    @pytest.mark.parametrize("specialized", [True, False])
    def test_emitted_genus_surfaces_match_from_triangles(self, v, specialized):
        search = _GenusSurfaceSearch(
            SearchConfig(max_vertices=v, specialized=specialized)).run()
        for code, g in search.emitted.items():
            assert g == GenusSurface.from_triangles(code)


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
