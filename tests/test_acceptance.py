"""Acceptance gate: one test per criterion, each printing a PASS line.

Published reference counts (Table 1 / Table 2 style) are exact expectations;
the independent brute-force oracle provides the canonical-set comparison.
Long-running checks carry a marker and are excluded from the default gate:
the V=9 pipeline-oracle set equalities, one per mode, are nightly, and the
V=10 checks (the whole table and the set equalities, one per mode, about
7 minutes and a 3 GB peak per pipeline run, 2.5 minutes for the oracle, on a
2-core, 8 GB host) have their own v10 marker so that ``-m nightly`` stays
short.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from conftest import (Decomposition, _relabel_contiguous, canonical_witness,
                      heawood_min_vertices, validate_decomposition)
from surfenum.canon import flag_key, minimal_code
from surfenum.core import SPHERE, SurfaceClass, Triangulation, classify
from surfenum.listing import (
    GenusSurface,
    SearchConfig,
    _GenusSurfaceSearch,
    enumerate_all,
    genus_surface_admissible,
)
from surfenum.moves import _removable_vertices, inverse_t_move, t_move
from surfenum.oracle import brute_force_enumerate, cross_validate


def _cls(name: str) -> SurfaceClass:
    return SurfaceClass.from_name(name)


# (V, surface) -> (T, R, N), from the published enumeration
TABLE1 = {
    (4, "S2"): (1, 1, 0),
    (5, "S2"): (1, 0, 1),
    (6, "S2"): (2, 1, 1), (6, "RP2"): (1, 1, 0),
    (7, "S2"): (5, 1, 4), (7, "T2"): (1, 1, 0), (7, "RP2"): (3, 2, 1),
    (8, "S2"): (14, 2, 12), (8, "T2"): (7, 6, 1),
    (8, "RP2"): (16, 8, 8), (8, "K2"): (6, 6, 0),
    (9, "S2"): (50, 5, 45), (9, "T2"): (112, 75, 37),
    (9, "RP2"): (134, 36, 98), (9, "K2"): (187, 133, 54),
    (9, "S-3"): (133, 133, 0), (9, "S-4"): (37, 37, 0), (9, "S-5"): (2, 2, 0),
}

TABLE1_V10 = {
    "S2": (233, 12, 221), "T2": (2109, 887, 1222),
    "S+2": (865, 865, 0), "S+3": (20, 20, 0),
    "RP2": (1210, 185, 1025), "K2": (4462, 1971, 2491),
    "S-3": (11784, 9385, 2399), "S-4": (13657, 13067, 590),
    "S-5": (7050, 7044, 6), "S-6": (1022, 1022, 0), "S-7": (14, 14, 0),
}

# (V, surface) -> number of genus-surfaces, published values for V <= 7
TABLE2_V7 = {
    (5, "RP2"): 1,
    (6, "T2"): 1, (6, "RP2"): 2,
    (7, "T2"): 5, (7, "RP2"): 6, (7, "K2"): 10,
}


def rows_as_dict(counts, up_to=None):
    return {
        (v, cls.name): (t, r, n)
        for v, cls, t, r, n in counts.rows()
        if up_to is None or v <= up_to
    }


@pytest.fixture(scope="session")
def pipeline9():
    start = time.monotonic()
    result = enumerate_all(SearchConfig(max_vertices=9))
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def corpus8():
    return brute_force_enumerate(8)


@pytest.fixture(scope="session")
def pipeline10():
    return enumerate_all(SearchConfig(max_vertices=10))


@pytest.fixture(scope="session")
def corpus10():
    return brute_force_enumerate(10)


def test_criterion_01_table1_up_to_seven_vertices():
    start = time.monotonic()
    result = enumerate_all(SearchConfig(max_vertices=7))
    elapsed = time.monotonic() - start
    expected = {key: val for key, val in TABLE1.items() if key[0] <= 7}
    assert rows_as_dict(result.counts) == expected
    assert elapsed < 5.0
    print(f"criterion 1: PASS — Table 1 V<=7 exact ({elapsed:.2f}s < 5s)")


def test_criterion_02_table1_eight_vertices():
    start = time.monotonic()
    result = enumerate_all(SearchConfig(max_vertices=8))
    elapsed = time.monotonic() - start
    at_eight = {k: v for k, v in rows_as_dict(result.counts).items() if k[0] == 8}
    expected = {key: val for key, val in TABLE1.items() if key[0] == 8}
    assert at_eight == expected
    assert elapsed < 30.0
    print(f"criterion 2: PASS — Table 1 V=8 exact ({elapsed:.1f}s < 30s)")


def test_criterion_03_table1_nine_vertices(pipeline9):
    result, elapsed = pipeline9
    got = rows_as_dict(result.counts)
    assert got == TABLE1
    total_nine = sum(t for (v, _s), (t, _r, _n) in got.items() if v == 9)
    assert total_nine == 655
    assert elapsed < 600.0
    print(f"criterion 3: PASS — Table 1 V=9 exact, 655 triangulations "
          f"({elapsed:.0f}s < 600s)")


@pytest.mark.v10
def test_criterion_04_table1_ten_vertices_nightly(pipeline10):
    result = pipeline10
    at_ten = {k[1]: v for k, v in rows_as_dict(result.counts).items()
              if k[0] == 10}
    assert at_ten == TABLE1_V10
    assert sum(t for t, _r, _n in at_ten.values()) == 42426
    print("criterion 4: PASS — Table 1 V=10 exact, 42426 triangulations")


@pytest.mark.v10
def test_oracle_equivalence_ten_vertices_v10(pipeline10, corpus10):
    # V=10 is the first budget where R4 fires and where 581 genus-surface
    # candidates have two boundary cycles (3 at V=9), so extra discs are glued
    assert pipeline10.all_codes() == corpus10.codes
    # 712 with V <= 9 and the 42,426 of TABLE1_V10
    assert sum(len(codes) for codes in corpus10.codes.values()) == 43138
    print("v10: PASS — canonical sets equal the oracle's at V<=10")


@pytest.mark.v10
def test_general_mode_oracle_equivalence_ten_vertices_v10(corpus10):
    start = time.monotonic()
    result = enumerate_all(SearchConfig(max_vertices=10, specialized=False))
    elapsed = time.monotonic() - start
    assert result.all_codes() == corpus10.codes
    print(f"general mode: PASS — canonical sets equal the oracle's at V<=10 "
          f"({elapsed:.0f}s)")


@pytest.mark.nightly
def test_oracle_equivalence_nine_vertices_nightly():
    report = cross_validate(9)
    assert report.equal, report.summary()
    # 1+1+3+9+43+655 = 712 triangulations with V <= 9
    assert report.total == 712
    print(f"nightly: PASS — canonical sets equal at V=9, {report.total} "
          f"triangulations")


def test_criterion_05_oracle_equivalence_eight_vertices():
    start = time.monotonic()
    report = cross_validate(8)
    elapsed = time.monotonic() - start
    assert report.equal, report.summary()
    # the published table gives 1+1+3+9+43 = 57 triangulations with V <= 8
    assert report.total == 57
    assert elapsed < 120.0
    print(f"criterion 5: PASS — canonical sets equal, {report.total} "
          f"triangulations ({elapsed:.1f}s < 120s)")


def test_general_mode_oracle_equivalence_eight_vertices(corpus8):
    # the general mode (no at-most-11 specialization) is the only mode
    # for V >= 12; its extra discs come from enumerate_discs, but no
    # genus-surface candidate at V <= 8 has two boundary cycles, so no extra
    # disc is glued here (test_listing's TestGluing glues them)
    start = time.monotonic()
    result = enumerate_all(SearchConfig(max_vertices=8, specialized=False))
    elapsed = time.monotonic() - start
    assert result.all_codes() == corpus8.codes
    print(f"general mode: PASS — canonical sets equal the oracle's at V<=8 "
          f"({elapsed:.1f}s)")


@pytest.mark.nightly
def test_general_mode_oracle_equivalence_nine_vertices_nightly():
    # three V=9 genus-surface candidates have two boundary cycles, so this
    # checks the general mode's extra-disc gluing against the oracle
    start = time.monotonic()
    result = enumerate_all(SearchConfig(max_vertices=9, specialized=False))
    elapsed = time.monotonic() - start
    want = brute_force_enumerate(9).codes
    assert result.all_codes() == want
    assert sum(len(codes) for codes in want.values()) == 712
    print(f"general mode: PASS — canonical sets equal the oracle's at V<=9 "
          f"({elapsed:.1f}s)")


def test_flag_key_classes_match_minimal_code(corpus8):
    # flag_key keys the genus-surface search's states; unmarked, it must
    # still split the corpus and its relabelings into minimal_code's classes
    rng = random.Random(3)
    entries = []
    for codes in corpus8.codes.values():
        for code in codes:
            entries.append(code)
            labels = list(range(1, max(v for tri in code for v in tri) + 1))
            for _ in range(3):
                shuffled = labels[:]
                rng.shuffle(shuffled)
                mapping = dict(zip(labels, shuffled))
                entries.append([tuple(mapping[v] for v in tri) for tri in code])
    pairs = {(flag_key(e), minimal_code(e)) for e in entries}
    assert len({a for a, _ in pairs}) == len(pairs)
    assert len({b for _, b in pairs}) == len(pairs)
    assert len(pairs) == 57
    print(f"flag key: PASS — {len(entries)} complexes, {len(pairs)} classes "
          f"under both keys")


def test_criterion_06_root_uniqueness_under_random_orders():
    rng = random.Random(20260823)
    from surfenum.moves import is_root
    roots7 = [t for codes in brute_force_enumerate(7).codes.values()
              for code in codes
              if is_root(t := Triangulation(code))]
    assert len(roots7) == 7
    failures = 0
    for _ in range(500):
        t = rng.choice(roots7)
        expected = minimal_code(t.triangles)
        target = rng.randint(t.vertex_count, 9)
        while t.vertex_count < target:
            t = t_move(t, rng.choice(t.triangles))
        seen = set()
        for _ in range(10):
            cur = t
            while True:
                removable = _removable_vertices(cur.triangles)
                if not removable:
                    break
                cur = inverse_t_move(cur, rng.choice(removable))
            seen.add(minimal_code(cur.triangles))
        if seen != {expected}:
            failures += 1
    assert failures == 0
    print("criterion 6: PASS — 500 inflations x 10 removal orders, "
          "identical canonical roots")


def test_criterion_07_canonical_invariance(corpus8):
    rng = random.Random(8091)
    triangulations = [Triangulation(code)
                      for codes in corpus8.codes.values() for code in codes]
    checks = 0
    while checks < 1000:
        t = triangulations[checks % len(triangulations)]
        labels = list(range(1, t.vertex_count + 1))
        shuffled = labels[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(labels, shuffled))
        relabeled = Triangulation(
            [tuple(mapping[v] for v in tri) for tri in t.triangles])
        assert minimal_code(relabeled.triangles) == minimal_code(t.triangles)
        witness = canonical_witness(relabeled)
        image = tuple(sorted(tuple(sorted(witness[v] for v in tri))
                             for tri in relabeled.triangles))
        assert image == minimal_code(t.triangles)
        checks += 1
    print(f"criterion 7: PASS — {checks} relabelings, canonical forms "
          "identical and witness-verified")


def test_criterion_08_heawood_first_rows(pipeline9):
    result, _ = pipeline9
    got = rows_as_dict(result.counts)
    first_row = {}
    for (v, name), (t, _r, _n) in sorted(got.items()):
        if t and name not in first_row:
            first_row[name] = v
    for name, expected_v in [("S2", 4), ("RP2", 6), ("T2", 7), ("K2", 8),
                             ("S-3", 9)]:
        assert first_row[name] == expected_v
        assert heawood_min_vertices(_cls(name)) == expected_v
    # S+2 first appears at 10: absent up to 9, and the bound says 10
    assert "S+2" not in first_row
    assert heawood_min_vertices(_cls("S+2")) == 10
    print("criterion 8: PASS — first rows at the Heawood-type minima "
          "(S2@4, RP2@6, T2@7, K2@8, S-3@9; S+2 absent below 10)")


def test_criterion_09_table2_genus_surface_counts(pipeline9):
    # the admissibility filter of an 11-vertex budget on the candidates of
    # at most 7 vertices
    search = _GenusSurfaceSearch(SearchConfig(max_vertices=11))
    search.max_v = 7
    got = Counter((g.vertex_count, g.capped_class.name)
                  for g in search.run().emitted
                  if g.capped_class != SPHERE)
    if dict(got) == TABLE2_V7:
        print("criterion 9: PASS — Table 2 V<=7 exact")
        return
    # a count difference is acceptable only as a logged filter-set
    # difference while the Table 1 criteria stay exact
    result, _ = pipeline9
    assert rows_as_dict(result.counts) == TABLE1, (
        "genus-surface counts differ AND Table 1 fails: a real bug")
    diff = {key: (got.get(key, 0), TABLE2_V7.get(key, 0))
            for key in set(got) | set(TABLE2_V7)
            if got.get(key, 0) != TABLE2_V7.get(key, 0)}
    for key, (ours, published) in sorted(diff.items()):
        assert ours < published, (
            f"{key}: {ours} candidates vs {published} published — extra "
            "candidates would mean a broken filter, not a stricter one")
    print(f"criterion 9: PASS — filter-set difference logged: {diff} "
          "(stricter filters, Table 1 exact)")


# ---------------------------------------------------------------------------
# criterion 10: brute-force decompositions
# ---------------------------------------------------------------------------

def _components(tris):
    """Connected components of a triangle set under shared-edge adjacency."""
    tris = list(tris)
    edge_of = {}
    adj = {t: [] for t in tris}
    for t in tris:
        a, b, c = t
        for e in ((a, b), (a, c), (b, c)):
            if e in edge_of:
                adj[t].append(edge_of[e])
                adj[edge_of[e]].append(t)
            else:
                edge_of[e] = t
    comps = []
    seen = set()
    for start in tris:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    queue.append(nxt)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def minimal_decomposition_genus_surfaces(t: Triangulation):
    """All genus-surfaces of minimal decompositions of t, by exhausting
    every triangle subset in order of size."""
    tris = list(t.triangles)
    for size in range(1, len(tris)):
        found = []
        for genus_part in itertools.combinations(tris, size):
            if len(_components(genus_part)) != 1:
                continue
            rest = [x for x in tris if x not in set(genus_part)]
            pieces = _components(rest)
            for main in pieces:
                extras = tuple(p for p in pieces if p != main)
                dec = Decomposition(genus_surface=genus_part,
                                    main_disc=main, extra_discs=extras)
                if validate_decomposition(t, dec):
                    found.append(genus_part)
                    break
        if found:
            return found
    return []


def test_criterion_10_admissibility_keeps_a_minimal_decomposition():
    start = time.monotonic()
    corpus = [Triangulation(code)
              for codes in brute_force_enumerate(7).codes.values()
              for code in codes]
    assert len(corpus) == 14
    for t in corpus:
        cfg = SearchConfig(max_vertices=t.vertex_count)
        minimal = minimal_decomposition_genus_surfaces(t)
        assert minimal, f"no decomposition found for {t}"
        assert any(
            genus_surface_admissible(
                GenusSurface.from_triangles(_relabel_contiguous(g)), cfg)
            for g in minimal
        ), f"every minimal genus-surface filtered out for {t}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 10: PASS — all 14 triangulations V<=7 keep an "
          f"admissible minimal genus-surface ({elapsed:.0f}s < 300s)")
