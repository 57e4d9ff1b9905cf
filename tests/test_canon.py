import hashlib
import itertools
import random

import pytest

from conftest import (ANNULUS, MOBIUS, canonical_witness, code_isomorphs,
                      edge_triangles, is_isomorphic, mixed_lex_compare, oracle_start, relabel,
                      state_key, torus_grid)
from surfenum.canon import (Isomorphs, _flag_key, _minimal_code, _vertex_ranks,
                            automorphisms, canonical_form, flag_key,
                            minimal_code)
from surfenum.cli import parse_triangulation_text
from surfenum.core import TORUS, Triangulation, build_index, classify
from surfenum.oracle import brute_force_enumerate


def brute_minimal_code(t: Triangulation):
    """Reference minimum over all label permutations (small V only)."""
    labels = list(range(1, t.vertex_count + 1))
    best = None
    for perm in itertools.permutations(labels):
        mapping = dict(zip(labels, perm))
        code = tuple(sorted(tuple(sorted(mapping[v] for v in tri))
                            for tri in t.triangles))
        if best is None or mixed_lex_compare(code, best) < 0:
            best = code
    return best


def brute_witnesses(t: Triangulation, code):
    """All relabelings (old -> new) mapping ``t`` onto ``code``, and the
    number of automorphisms of ``code``, by trying every permutation."""
    labels = list(range(1, t.vertex_count + 1))
    target = set(code)

    def onto_target(perm, tris):
        # a bijection maps equally many triangles, so inclusion is equality
        return all(tuple(sorted(perm[v - 1] for v in tri)) in target
                   for tri in tris)

    realizing, automorphisms = set(), 0
    for perm in itertools.permutations(labels):
        if onto_target(perm, t.triangles):
            realizing.add(tuple(zip(labels, perm)))
        if onto_target(perm, code):
            automorphisms += 1
    return realizing, automorphisms


# a disconnected complex (the search runs out of labeled vertices with
# triangles left), two triangles joined at a vertex, an edge in three triangles
UNUSUAL_COMPLEXES = (
    "1,2,3 1,2,4 1,3,4 2,3,4 5,6,7 5,6,8 5,7,8 6,7,8",
    "1,2,3 3,4,5",
    "1,2,3 1,2,4 1,2,5",
)

# max-valence seeds with different link shapes.  Seeds run in vertex order,
# and a seed whose link is one cycle compares its star prefix with the best
# code once.  In the first complex (the 5-vertex sphere with two triangles
# removed) seeds 1 and 3 have a path link, whose prefix is larger than
# that of seed 2's cycle link, so seed 2 must discard seed 1's code.  A
# path link never has the smaller prefix, so the second complex is built:
# seed 1's link is a triangle plus a path, its prefix is smaller, and seed
# 8 (cycle link) must be skipped.  Reversing the labels reverses the seed
# order.
MIXED_SEEDS = (
    "1,2,3 1,2,5 1,3,4 2,3,5",
    "1,2,3 1,2,4 1,3,4 1,5,6 1,6,7 2,3,8 2,7,8 3,5,8 5,6,8 6,7,8",
)

# a cycle-link seed labels only the flags whose triple d, (2, 3, x), has the
# smallest x, the label of an apex of the flag's ring edge: vertex 1's star
# with ring 2..6, bare (no ring edge has an apex), with the triangle 234
# (apex 4 of ring edge 23 takes label 4 from the flag that labels vertices
# 3, 2 as 2, 3 and label 5 from the other), and with 234 and 237 (ring edge
# 23 in three triangles; apex 7 is off the ring)
STAR = "1,2,3 1,3,4 1,4,5 1,5,6 1,2,6"
FLAG_FILTER_COMPLEXES = (STAR, STAR + " 2,3,4", STAR + " 2,3,4 2,3,7")

# the 7-vertex torus (Moebius 1861, Csaszar 1949): vertex-transitive, so every
# seed after the first ties with the best code
SEVEN_VERTEX_TORUS = tuple(
    (i % 7 + 1, (i + j) % 7 + 1, (i + 3) % 7 + 1) for i in range(7) for j in (1, 2))

# sha256 of minimal_code(t, with_witnesses=True) over _pinned_inputs(), as
# computed when every seed still ran the plain recursion from label 1: a
# change to any code or to the order of any witness list changes it
PINNED_DIGEST = "699d0dd92124adb90bb5ee3ece865b4dc496c9d8f5e2a4664a9e9f044d76836d"


# sha256 of minimal_code(tris) and minimal_code(tris, with_witnesses=True)
# over _growth_states(): bounded complexes, where forced steps and branching
# steps interleave (254 branches in each mode), as computed when every step
# still recursed
GROWTH_STATES_DIGEST = "1ae1d85d58f1d90f24730b43599025a845006b81185a2dc2b834330934a38d8d"


# sha256 of minimal_code(tris) and minimal_code(tris, with_witnesses=True)
# over _small_complexes(): one-triangle complexes, bowties, fans, strips and
# disconnected pairs, where a branching step with two fresh labels often
# reaches an optimal labeling through both orders, so the digest changes if
# a branch drops an order or takes them the other way round
BRANCH_ORDER_DIGEST = "59a1811db67f5b68106ea3d9be822043eb46008f8ee1ae6dbf2f16ca93aa1a97"


def _small_complexes() -> list:
    """Every complex of one to three triangles on the labels 1..V, V <= 6."""
    triples = list(itertools.combinations(range(1, 7), 3))
    out = []
    for k in (1, 2, 3):
        for tris in itertools.combinations(triples, k):
            labels = {v for t in tris for v in t}
            if labels == set(range(1, len(labels) + 1)):
                out.append(tris)
    return out


def _reversed_labels(t: Triangulation) -> Triangulation:
    v = t.vertex_count
    return Triangulation([tuple(v + 1 - x for x in tri) for tri in t.triangles])


def _pinned_inputs() -> list[Triangulation]:
    rng = random.Random(606)
    corpus = brute_force_enumerate(8)
    codes = sorted(code for codes in corpus.codes.values() for code in codes)
    inputs = [relabel(Triangulation(code), rng)[0]
              for code in codes for _ in range(3)]
    return inputs + [parse_triangulation_text(s)
                     for s in (MOBIUS, ANNULUS) + UNUSUAL_COMPLEXES]


def _growth_states() -> list:
    """The 108 growth states the oracle pops at V <= 7, in popping order,
    each with the fields it carries: its loop replayed over its own m-fans
    and children."""
    from surfenum import oracle

    states = []
    for m in range(3, 7):
        seen = code_isomorphs()
        stack = [oracle_start(m, 7)]
        while stack:
            state = stack.pop()
            tris, by_edge, by_vertex = state[:3]
            states.append(state)
            # a closed state is a leaf; an open one is expanded once per class
            if (2 * len(by_edge) > 3 * len(tris)
                    and seen.add(tris, by_edge, by_vertex, state[-1])):
                stack.extend(oracle._children(*state, m, 7))
    assert len(states) == 108
    return states


class TestMinimalCode:
    def test_projective_plane_fixture_is_canonical(self, rp2_six):
        # the standard 6-vertex projective plane is its own canonical form
        assert canonical_form(rp2_six).triangles == rp2_six.triangles

    def test_canonical_form_starts_with_vertex_one_star(self, octa, rp2_six):
        for t in (octa, rp2_six):
            code = minimal_code(t.triangles)
            assert code[0] == (1, 2, 3)
            assert code[1] == (1, 2, 4)

    def test_relabeling_invariance(self, tetra, octa, rp2_six, mobius, annulus):
        rng = random.Random(20240817)
        for t in (tetra, octa, rp2_six, mobius, annulus):
            reference = minimal_code(t.triangles)
            for _ in range(40):
                shuffled, _ = relabel(t, rng)
                assert minimal_code(shuffled.triangles) == reference

    def test_agrees_with_all_permutations_up_to_seven_vertices(self):
        corpus = brute_force_enumerate(7)
        checked = 0
        for codes in corpus.codes.values():
            for code in codes:
                t = Triangulation(code)
                assert minimal_code(t.triangles) == brute_minimal_code(t)
                checked += 1
        assert checked == 14

    def test_bounded_complexes_against_all_permutations(self, mobius, annulus):
        for t in (mobius, annulus):
            assert minimal_code(t.triangles) == brute_minimal_code(t)

    @pytest.mark.parametrize("text", UNUSUAL_COMPLEXES)
    def test_unusual_complexes_against_all_permutations(self, text):
        t = parse_triangulation_text(text)
        assert minimal_code(t.triangles) == brute_minimal_code(t)

    def test_depth_of_the_caller_does_not_matter(self):
        # a forced step adds no stack frame, so a surface of 1,058 triangles
        # labels from 100 frames deeper as from the top level
        tris = torus_grid(23)
        code = minimal_code(tris)

        def deeper(k):
            return minimal_code(tris) if k == 0 else deeper(k - 1)

        assert deeper(100) == code

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_tie_stop_on_torus_grids(self, n, monkeypatch):
        # the translations of the n x n grid take any vertex to any other,
        # so every seed after the first ties with the first seed's code and
        # stops there: n^2 - 1 stops (without them the 8 x 8 grid labels
        # about ten times slower, which no end-to-end timing shows)
        from surfenum import canon

        raises = 0

        class CountingTie(canon._Tie):
            def __init__(self, *args):
                nonlocal raises
                raises += 1
                super().__init__(*args)

        monkeypatch.setattr(canon, "_Tie", CountingTie)
        minimal_code(torus_grid(n))
        assert raises == n * n - 1


class TestWitness:
    def test_witnesses_are_every_realizing_relabeling(self, mobius, annulus):
        rng = random.Random(4242)
        corpus = brute_force_enumerate(7)
        inputs = [relabel(Triangulation(code), rng)[0]
                  for codes in corpus.codes.values() for code in codes]
        inputs += [mobius, annulus]
        inputs += [parse_triangulation_text(s) for s in UNUSUAL_COMPLEXES]
        for t in inputs:
            code, wits = minimal_code(t.triangles, with_witnesses=True)
            found = [tuple(sorted(w.items())) for w in wits]
            realizing, automorphisms = brute_witnesses(t, code)
            assert len(found) == len(set(found))
            assert set(found) == realizing
            assert len(found) == automorphisms

    @pytest.mark.parametrize("text", MIXED_SEEDS, ids=["path", "pinch"])
    def test_seeds_with_cycle_and_other_links(self, text):
        t = parse_triangulation_text(text)
        for u in (t, _reversed_labels(t)):
            code, wits = minimal_code(u.triangles, with_witnesses=True)
            assert code == brute_minimal_code(u)
            realizing, automorphisms = brute_witnesses(u, code)
            found = [tuple(sorted(w.items())) for w in wits]
            assert set(found) == realizing
            assert len(found) == automorphisms

    @pytest.mark.parametrize("text", FLAG_FILTER_COMPLEXES,
                             ids=["bare-star", "one-apex", "two-apexes"])
    def test_flag_filter_against_all_permutations(self, text):
        rng = random.Random(1981)
        t = parse_triangulation_text(text)
        for u in [t, _reversed_labels(t)] + [relabel(t, rng)[0] for _ in range(3)]:
            code, wits = minimal_code(u.triangles, with_witnesses=True)
            assert code == brute_minimal_code(u)
            assert minimal_code(u.triangles) == code
            realizing, automorphisms = brute_witnesses(u, code)
            found = [tuple(sorted(w.items())) for w in wits]
            assert set(found) == realizing
            assert len(found) == automorphisms

    def test_codes_and_witness_order_are_pinned(self):
        digest = hashlib.sha256()
        for t in _pinned_inputs():
            code, wits = minimal_code(t.triangles, with_witnesses=True)
            digest.update(repr((code, [sorted(w.items()) for w in wits])).encode())
        assert digest.hexdigest() == PINNED_DIGEST

    def test_growth_state_codes_and_witness_order_are_pinned(self):
        digest = hashlib.sha256()
        for tris, *_fields in _growth_states():
            code = minimal_code(tris)
            wcode, wits = minimal_code(tris, with_witnesses=True)
            digest.update(repr((code, wcode,
                                [sorted(w.items()) for w in wits])).encode())
        assert digest.hexdigest() == GROWTH_STATES_DIGEST

    def test_branch_orders_are_pinned(self):
        digest = hashlib.sha256()
        inputs = _small_complexes()
        assert len(inputs) == 616
        for tris in inputs:
            code = minimal_code(tris)
            wcode, wits = minimal_code(tris, with_witnesses=True)
            digest.update(repr((code, wcode,
                                [sorted(w.items()) for w in wits])).encode())
        assert digest.hexdigest() == BRANCH_ORDER_DIGEST

    def test_code_alone_equals_the_full_search(self, tetra, octa, rp2_six):
        # only the code-alone search stops a seed at its first tie; the
        # witness search runs every seed to the end
        torus = Triangulation(SEVEN_VERTEX_TORUS)
        assert classify(torus) == TORUS
        rng = random.Random(1961)
        inputs = _pinned_inputs()
        for t in (tetra, octa, rp2_six, torus):
            inputs += [t] + [relabel(t, rng)[0] for _ in range(3)]
        for t in inputs:
            code, _wits = minimal_code(t.triangles, with_witnesses=True)
            assert minimal_code(t.triangles) == code

    def test_witness_realizes_canonical_form(self, octa, rp2_six, mobius):
        rng = random.Random(99)
        for t in (octa, rp2_six, mobius):
            for _ in range(10):
                shuffled, _ = relabel(t, rng)
                w = canonical_witness(shuffled)
                image = tuple(sorted(tuple(sorted(w[v] for v in tri))
                                     for tri in shuffled.triangles))
                assert image == minimal_code(shuffled.triangles)


class TestIndexedKernels:
    """The certificates of the isomorph filter read a growth state's
    carried index and ranks; they equal the public keys (the exactness
    arguments of the module docstring)."""

    def test_minimal_code_in_any_glue_order(self):
        rng = random.Random(34)
        codes = sorted(code for codes in brute_force_enumerate(7).codes.values()
                       for code in codes)
        assert len(codes) == 14
        for code in codes:
            for _ in range(20):
                tris = list(relabel(Triangulation(code), rng)[0].triangles)
                rng.shuffle(tris)
                tris = tuple(tris)
                assert _minimal_code(tris, *build_index(tris)) == code

    def test_minimal_code_of_every_oracle_growth_state(self):
        for tris, by_edge, by_vertex, *_rest in _growth_states():
            assert _minimal_code(tris, by_edge, by_vertex) == minimal_code(tris)

    @pytest.mark.parametrize("specialized", [True, False])
    def test_flag_key_from_the_carried_ranks(self, monkeypatch, specialized):
        from surfenum import listing

        checked = []

        def checking(tris, by_edge, by_vertex, rank, marked):
            key = _flag_key(tris, by_edge, by_vertex, rank, marked)
            assert key == flag_key(tris, marked)
            checked.append(tris)
            return key

        monkeypatch.setattr(listing, "_flag_key", checking)
        for v in (5, 6, 7, 8):
            listing._GenusSurfaceSearch(
                listing.SearchConfig(v, specialized=specialized)).run()
        # the states certified from their carried ranks at V = 5..8; the
        # other 127 of the 298 flag keys at V=8 are the lone members of
        # buckets, certified from their stored triangles
        assert len(checked) == 1 + 2 + 11 + 171


class TestAutomorphisms:
    @staticmethod
    def group(t: Triangulation):
        code, wits = minimal_code(t.triangles, with_witnesses=True)
        return code, automorphisms(wits)

    def test_group_orders(self, tetra, octa, rp2_six):
        rng = random.Random(1981)
        torus = Triangulation(SEVEN_VERTEX_TORUS)
        for t, order in ((tetra, 24), (octa, 48), (rp2_six, 60), (torus, 42)):
            for u in (t, relabel(t, rng)[0]):
                code, autos = self.group(u)
                assert len(autos) == len(set(autos)) == order
                for p in autos:
                    assert p[0] == 0
                    assert tuple(sorted(tuple(sorted(p[v] for v in tri))
                                        for tri in code)) == code

    def test_groups_equal_all_permutations(self):
        rng = random.Random(1998)
        corpus = brute_force_enumerate(7)
        codes = [code for bucket in corpus.codes.values() for code in bucket]
        assert len(codes) == 14
        for code in codes:
            # read off the witnesses of a relabeling of the code
            _code, autos = self.group(relabel(Triangulation(code), rng)[0])
            assert _code == code
            realizing, order = brute_witnesses(Triangulation(code), code)
            labels = range(1, len(autos[0]))
            assert {tuple((v, p[v]) for v in labels) for p in autos} == realizing
            assert len(autos) == order


class TestMixedLexOrder:
    def test_higher_first_valence_wins(self, tetra, octa):
        # valence 4 at vertex 1 beats valence 3 despite longer triple list
        assert mixed_lex_compare(minimal_code(octa.triangles),
                                 minimal_code(tetra.triangles)) == -1
        assert mixed_lex_compare(minimal_code(tetra.triangles),
                                 minimal_code(octa.triangles)) == 1

    def test_equal(self, rp2_six):
        code = minimal_code(rp2_six.triangles)
        assert mixed_lex_compare(code, code) == 0

    def test_lex_tiebreak(self):
        a = ((1, 2, 3), (1, 2, 4), (1, 3, 4))
        b = ((1, 2, 3), (1, 2, 4), (1, 3, 5))
        assert mixed_lex_compare(a, b) == -1


class TestIsomorphism:
    def test_relabelings_are_isomorphic(self, rp2_six):
        rng = random.Random(5)
        shuffled, _ = relabel(rp2_six, rng)
        assert is_isomorphic(rp2_six, shuffled)

    def test_different_surfaces_are_not(self, tetra, octa):
        assert not is_isomorphic(tetra, octa)

    def test_same_size_nonisomorphic_spheres(self):
        corpus = brute_force_enumerate(6)
        spheres = [Triangulation(c) for key, codes in corpus.codes.items()
                   if key[0] == 6 and key[1].name == "S2" for c in codes]
        assert len(spheres) == 2
        assert not is_isomorphic(spheres[0], spheres[1])


class TestStateKey:
    def test_invariant_under_relabeling(self, mobius):
        rng = random.Random(31)
        marked = [(1, 4), (2, 5)]
        reference = state_key(mobius.triangles, marked)
        for _ in range(25):
            shuffled, mapping = relabel(mobius, rng)
            image = [tuple(sorted((mapping[a], mapping[b]))) for a, b in marked]
            assert state_key(shuffled.triangles, image) == reference

    def test_distinguishes_different_markings(self, mobius):
        # boundary edge (1, 4) vs interior edge (1, 2)
        assert (state_key(mobius.triangles, [(1, 4)])
                != state_key(mobius.triangles, [(1, 2)]))

    def test_merges_automorphic_markings(self):
        # in the tetrahedron every edge is equivalent to every other
        tris = parse_triangulation_text("123 124 134 234").triangles
        keys = {state_key(tris, [e]) for e in sorted(edge_triangles(tris))}
        assert len(keys) == 1

    def test_empty_marking_is_plain_code(self, rp2_six):
        code, marked = state_key(rp2_six.triangles, [])
        assert code == minimal_code(rp2_six.triangles)
        assert marked == ()


class TestFlagKey:
    def test_invariant_under_relabeling(self, mobius):
        rng = random.Random(31)
        marked = [(1, 4), (2, 5)]
        reference = flag_key(mobius.triangles, marked)
        for _ in range(25):
            shuffled, mapping = relabel(mobius, rng)
            image = [tuple(sorted((mapping[a], mapping[b]))) for a, b in marked]
            assert flag_key(shuffled.triangles, image) == reference

    def test_distinguishes_different_markings(self, mobius):
        # boundary edge (1, 4) vs interior edge (1, 2)
        assert (flag_key(mobius.triangles, [(1, 4)])
                != flag_key(mobius.triangles, [(1, 2)]))

    def test_merges_automorphic_markings(self):
        # in the tetrahedron every edge is equivalent to every other
        tris = parse_triangulation_text("123 124 134 234").triangles
        keys = {flag_key(tris, [e]) for e in sorted(edge_triangles(tris))}
        assert len(keys) == 1

    def test_search_states_invariant_under_relabeling(self, monkeypatch):
        # start flags are chosen by (valence, boundary-edge degree,
        # marked-edge degree), which a relabeling keeps
        from surfenum import listing

        states = []
        real = listing._GenusSurfaceSearch.children

        def recording(search, tris, frozen, *carried):
            states.append((tris, frozen))
            return real(search, tris, frozen, *carried)

        monkeypatch.setattr(listing._GenusSurfaceSearch, "children", recording)
        listing._GenusSurfaceSearch(listing.SearchConfig(max_vertices=8)).run()
        assert len(states) == 829
        rng = random.Random(71)
        for tris, frozen in states:
            reference = flag_key(tris, frozen)
            t = Triangulation(tris)
            for _ in range(3):
                shuffled, mapping = relabel(t, rng)
                image = [(mapping[a], mapping[b]) for a, b in frozen]
                assert flag_key(shuffled.triangles, image) == reference

    def test_distinguishes_which_boundary_edge_is_frozen(self):
        # a fan of three triangles around vertex 1; the reflection
        # 2<->5, 3<->4 is its only non-trivial automorphism
        fan = parse_triangulation_text("123 134 145").triangles
        edges = [(1, 2), (1, 5), (2, 3), (4, 5), (3, 4)]
        keys = {e: flag_key(fan, [e]) for e in edges}
        assert keys[(1, 2)] == keys[(1, 5)]
        assert keys[(2, 3)] == keys[(4, 5)]
        assert len({keys[(1, 2)], keys[(2, 3)], keys[(3, 4)]}) == 3
        for e, f in itertools.combinations(edges, 2):
            assert ((keys[e] == keys[f])
                    == (state_key(fan, [e]) == state_key(fan, [f])))

    def test_rejects_an_edge_in_three_triangles(self):
        with pytest.raises(ValueError, match="more than two triangles"):
            flag_key(parse_triangulation_text("123 124 125").triangles)

    def test_rejects_triangles_joined_at_a_vertex_only(self):
        with pytest.raises(ValueError, match="edge-connected"):
            flag_key(parse_triangulation_text("123 145").triangles)


def _add(seen: Isomorphs, tris, marked=()) -> bool:
    # one base for every state of a filter, above every entry of these
    # inputs of at most 8 vertices
    tris = tuple(tris)
    by_edge, by_vertex = build_index(tris)
    rank = _vertex_ranks(by_edge, by_vertex, marked, 9)
    return seen.add(tris, by_edge, by_vertex, rank, marked)


class TestIsomorphs:
    @staticmethod
    def counting(seen):
        """The filter ``seen`` with both certificates recording ("stored",
        tris) or ("carried", tris) in the returned list."""
        calls = []
        stored, carried = seen.certificate, seen.carried

        def from_stored(tris, marked):
            calls.append(("stored", tris))
            return stored(tris, marked)

        def from_carried(tris, *fields):
            calls.append(("carried", tris))
            return carried(tris, *fields)

        return Isomorphs(from_stored, from_carried), calls

    def test_a_lone_state_gets_no_certificate(self, mobius):
        seen, calls = self.counting(Isomorphs(flag_key, _flag_key))
        assert _add(seen, mobius.triangles, [(1, 4)])
        assert calls == []

    def test_relabeled_state_with_its_marks_is_a_repeat(self, mobius):
        rng = random.Random(37)
        marked = [(1, 4), (2, 5)]
        seen, calls = self.counting(Isomorphs(flag_key, _flag_key))
        assert _add(seen, mobius.triangles, marked)
        for _ in range(5):
            shuffled, mapping = relabel(mobius, rng)
            image = [tuple(sorted((mapping[a], mapping[b]))) for a, b in marked]
            assert not _add(seen, shuffled.triangles, image)
        # the first state is certified from its stored triangles when the
        # second lands in its bucket, the others from their carried index
        assert calls[0] == ("stored", mobius.triangles)
        assert [path for path, _tris in calls] == ["stored"] + 5 * ["carried"]

    def test_same_triangles_with_other_marks_are_new(self, mobius):
        seen = Isomorphs(flag_key, _flag_key)
        assert _add(seen, mobius.triangles, [(1, 4)])
        assert _add(seen, mobius.triangles, [(1, 2)])
        assert _add(seen, mobius.triangles, [])
        assert not _add(seen, mobius.triangles, [(1, 2)])

    def test_a_shared_bucket_is_settled_by_the_certificate(self):
        # the 5-star pair of the oracle tests: one invariant, two codes
        star = ((1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
                (2, 3, 7), (2, 4, 8))
        first, second = star + ((2, 5, 7),), star + ((2, 5, 8),)
        seen, calls = self.counting(code_isomorphs())
        assert _add(seen, first)
        assert _add(seen, second)
        assert calls == [("stored", first), ("carried", second)]
