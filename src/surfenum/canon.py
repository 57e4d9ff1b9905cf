"""Canonical labeling, isomorphism testing and duplicate-check keys.

Two keys are computed here.

The *mixed-lex minimal code* is the output and the reference.  A triangle
list is compared "mixed-lexicographically": smaller means the first vertex
has greater valence, with ties broken by plain lexicographic comparison of
the sorted triple lists.  The canonical form of a complex is the minimal
relabeled triangle list under this order; two complexes are isomorphic
exactly when their canonical forms coincide.  The minimum is found by a
backtracking search that emits triangles in ascending order: label 1 ranges
over the maximal-valence vertices, and each further label is created the
first time the next smallest triangle needs an unlabeled vertex.  Ties
(several triangles, or several vertex assignments, realizing the same next
triple) are branched on and pruned against the best list found so far.

The *flag key* (:func:`flag_key`) is the internal duplicate-check key of
the listing pipeline, after plantri and surftri (Brinkmann & McKay,
"Fast generation of planar graphs", MATCH 58 (2007); Sulanke & Lutz,
arXiv:math/0610022).  It is valid only for edge-connected complexes with
every edge in at most two triangles: there a start flag (an ordered
triangle) fixes the whole relabeling by a breadth-first walk across
edges, so the key is the smallest walk code over the start flags.  It
decides isomorphism like the minimal code but is not mixed-lex minimal,
so it is never stored or returned as a canonical form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Edge, Triangle, Triangulation, normalize_triangles, valences

Code = tuple[Triangle, ...]


def _search(
    tris: Sequence[Triangle],
    seed: int,
    best: list,  # [code or None]; None while a strictly better code is pending
    witnesses: list | None,  # collects all optimal labelings when not None
) -> None:
    # Invariant: on entry the emitted prefix equals best[0][:pos] whenever
    # best[0] is not None.  A branch that realizes a strictly smaller triple
    # therefore discards best[0]; its first completion re-establishes it.

    def recurse(label, next_label, remaining, emitted):
        if not remaining:
            if best[0] is None:
                best[0] = tuple(emitted)
                if witnesses is not None:
                    witnesses.clear()
                    witnesses.append(dict(label))
            elif witnesses is not None:
                # by the invariant this completion ties with best[0]
                witnesses.append(dict(label))
            return
        pos = len(emitted)
        get = label.get
        # smallest realizable next triple: known labels then fresh ones
        min_key = None
        candidates = []
        for t in remaining:
            a, b, c = t
            ks = []
            la = get(a)
            if la is not None:
                ks.append(la)
            lb = get(b)
            if lb is not None:
                ks.append(lb)
            lc = get(c)
            if lc is not None:
                ks.append(lc)
            ks.sort()
            # fresh labels are consecutive from next_label and exceed all
            # assigned labels, so appending keeps the triple sorted
            fresh = next_label
            while len(ks) < 3:
                ks.append(fresh)
                fresh += 1
            key = (ks[0], ks[1], ks[2])
            if min_key is None or key < min_key:
                min_key = key
                candidates = [t]
            elif key == min_key:
                candidates.append(t)
        if best[0] is not None:
            ref = best[0][pos]
            if min_key > ref:
                return
            if min_key < ref:
                best[0] = None
                if witnesses is not None:
                    witnesses.clear()
        emitted.append(min_key)
        for t in candidates:
            missing = [x for x in t if x not in label]
            rest = [u for u in remaining if u != t]
            if len(missing) <= 1:
                orders = [tuple(missing)]
            elif len(missing) == 2:
                orders = [(missing[0], missing[1]), (missing[1], missing[0])]
            else:
                a, b, c = missing
                orders = [
                    (a, b, c), (a, c, b), (b, a, c),
                    (b, c, a), (c, a, b), (c, b, a),
                ]
            for order in orders:
                for i, x in enumerate(order):
                    label[x] = next_label + i
                recurse(label, next_label + len(missing), rest, emitted)
                for x in order:
                    del label[x]
        emitted.pop()

    recurse({seed: 1}, 2, list(tris), [])


def minimal_code(tris: Iterable[Triangle], with_witnesses: bool = False):
    """Mixed-lex minimal relabeled triangle list of a raw triangle
    collection; optionally also every labeling achieving it."""
    tris = normalize_triangles(tris)
    val = valences(tris)
    max_val = max(val.values())
    best: list = [None]
    witnesses: list | None = [] if with_witnesses else None
    for v in sorted(x for x, k in val.items() if k == max_val):
        _search(tris, v, best, witnesses)
    if with_witnesses:
        return best[0], witnesses
    return best[0]


@dataclass(frozen=True)
class CanonicalForm:
    """The mixed-lex minimal triangle list; equality means isomorphism."""

    triangles: Code

    def triangulation(self) -> Triangulation:
        return Triangulation(self.triangles)

    def __lt__(self, other: "CanonicalForm") -> bool:
        return mixed_lex_compare(self.triangles, other.triangles) < 0


def canonical_form(t: Triangulation) -> CanonicalForm:
    return CanonicalForm(minimal_code(t.triangles))


def canonical_witness(t: Triangulation) -> dict[int, int]:
    """One relabeling (old -> new) realizing the canonical form."""
    _code, wits = minimal_code(t.triangles, with_witnesses=True)
    return wits[0]


def is_isomorphic(a: Triangulation, b: Triangulation) -> bool:
    return minimal_code(a.triangles) == minimal_code(b.triangles)


def mixed_lex_compare(a: Sequence[Triangle], b: Sequence[Triangle]) -> int:
    """-1, 0 or 1; both lists must be normalized (triples and list sorted)."""
    val_a = sum(1 for t in a if 1 in t)
    val_b = sum(1 for t in b if 1 in t)
    if val_a != val_b:
        return -1 if val_a > val_b else 1
    ta, tb = tuple(a), tuple(b)
    if ta == tb:
        return 0
    return -1 if ta < tb else 1


def state_key(tris: Iterable[Triangle], marked_edges: Iterable[tuple[int, int]]):
    """Canonical key for a complex together with a set of marked edges,
    invariant under relabeling (automorphisms are minimized over)."""
    code, wits = minimal_code(tris, with_witnesses=True)
    marked = list(marked_edges)
    best_marked = None
    for w in wits:
        image = tuple(sorted(tuple(sorted((w[a], w[b]))) for a, b in marked))
        if best_marked is None or image < best_marked:
            best_marked = image
    return code, best_marked


def _flag_walk(sides: dict[Edge, list[tuple[int, int]]], n: int,
               start: Triangle, start_index: int, best: Code | None):
    """Breadth-first relabeling of ``n`` triangles from the start flag
    ``start`` (triangle number ``start_index``): the walk code and the
    labels, or None as soon as the code exceeds ``best``."""
    v0, v1, v2 = start
    label = {v0: 1, v1: 2, v2: 3}
    fresh = 4
    reached = [False] * n
    reached[start_index] = True
    queue = [(v0, v1, v2, 1, 2, 3)]  # vertices of a triangle in label order
    code = [(1, 2, 3)]
    smaller = best is None
    for p, q, r, lp, lq, lr in queue:
        # leave through the edges in order of their label pairs
        for x, y, z, lx, ly in ((p, q, r, lp, lq), (p, r, q, lp, lr),
                                (q, r, p, lq, lr)):
            pair = sides[(x, y) if x < y else (y, x)]
            if len(pair) == 1:
                continue
            w, i = pair[1] if pair[0][0] == z else pair[0]
            if reached[i]:
                continue
            reached[i] = True
            lw = label.get(w)
            if lw is None:
                lw = label[w] = fresh
                fresh += 1
            if lw < lx:
                queue.append((w, x, y, lw, lx, ly))
                tri = (lw, lx, ly)
            elif lw < ly:
                queue.append((x, w, y, lx, lw, ly))
                tri = (lx, lw, ly)
            else:
                queue.append((x, y, w, lx, ly, lw))
                tri = (lx, ly, lw)
            if not smaller:
                ref = best[len(code)]
                if tri > ref:
                    return None
                smaller = tri < ref
            code.append(tri)
    return tuple(code), label


def flag_key(tris: Iterable[Triangle], marked_edges: Iterable[tuple[int, int]] = ()):
    """Relabeling-invariant key of a complex with a set of marked edges,
    equal for two inputs exactly when an isomorphism maps one complex and
    its marking onto the other.

    The start flags are the ordered triangles (v0, v1, v2) with the
    lexicographically largest valence signature (val v0, val v1, val v2).
    From each, v0, v1, v2 get labels 1, 2, 3 and the triangles are walked
    breadth-first, leaving each through its edges in order of their label
    pairs into the other triangle on that edge, whose third vertex takes
    the next free label when first reached.  The key is the smallest
    (walk-ordered relabeled triangles, sorted relabeled marked edges).

    Raises ValueError unless every edge lies in at most two triangles and
    the triangles are edge-connected; only then is the walk complete.
    """
    tris = [tuple(sorted(t)) for t in tris]
    # edge -> (third vertex, triangle number) of each triangle on it
    sides: dict[Edge, list[tuple[int, int]]] = {}
    for i, (a, b, c) in enumerate(tris):
        for e, w in (((a, b), c), ((a, c), b), ((b, c), a)):
            pair = sides.setdefault(e, [])
            pair.append((w, i))
            if len(pair) > 2:
                raise ValueError(f"edge {e} lies in more than two triangles")
    val = valences(tris)
    sigs = [sorted((val[a], val[b], val[c]), reverse=True) for a, b, c in tris]
    top = max(sigs)
    starts = [(f, i) for i, t in enumerate(tris) if sigs[i] == top
              for f in itertools.permutations(t)
              if [val[f[0]], val[f[1]], val[f[2]]] == top]
    marked = list(marked_edges)
    best = best_marks = None
    for start, i in starts:
        walk = _flag_walk(sides, len(tris), start, i, best)
        if walk is None:
            continue
        code, label = walk
        if len(code) != len(tris):
            # the first walk is never pruned, so a disconnected input stops here
            raise ValueError("triangles are not edge-connected")
        marks = tuple(sorted((label[a], label[b]) if label[a] < label[b]
                             else (label[b], label[a]) for a, b in marked))
        if code != best or marks < best_marks:
            best, best_marks = code, marks
    return best, best_marks
