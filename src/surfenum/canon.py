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
first time the next smallest triangle needs an unlabeled vertex.  Because
the triples ascend, the next one starts with the smallest label whose
vertex still has an unused triangle, so each step scans only that vertex's
star.  Only when no labeled vertex has a triangle left (a disconnected
input) do all unused triangles tie, each taking three fresh labels.
Ties (several triangles, or several vertex assignments, realizing the same
next triple) are branched on and pruned against the best list found so far.
A step with one candidate triangle and at most one unlabeled vertex has
one way to go, so the search takes it in a loop in the current frame and
recurses only at a branching step (several candidates, or two or three
fresh labels).  The search depth is then the number of branching steps in
a row, not the number of triangles: no closed surface of the V <= 9
corpus branches after its first vertex's star, and a torus grid of 1,250
triangles labels within the default recursion limit.

A seed whose link is one cycle (every vertex of a closed surface, every
interior vertex) or one path (a boundary vertex) skips the first d steps,
d its valence.  Its star is emitted first, and a start flag fixes it: a
star triangle, in index order, with its two other vertices as labels 2, 3,
then as 3, 2.  Each further link vertex takes the next label at the arc
end with the smaller label that has a star triangle left.  On a cycle that
is the smaller end, so the star's d triples are (1,2,3), (1,2,4), (1,3,5),
(1,4,6), ..., (1,d,d+1) for every flag.  On a path each step adds a fresh
label: after (1,2,3) and (1,k,k+2) for k = 2..t the arc ends are t+1 and
t+2, so the next triple is (1,t+1,t+3) if t+1 is no path end and larger
if it is.  The least star prefix, (1,2,3), (1,2,4), ..., (1,d,d+2), is
reached exactly by the flags that never stall, where 4, 6, ... run from
label 2 to one end as 3, 5, ... run to the other: label 2 at the path's
centre, floor(d/2) edges from one end and label 3 towards the other, or
the mirror image.  So a cycle seed beats a path seed of its valence.  The
prefix is compared with the best list once per seed; each kept flag then
labels the link in one walk and the search goes on from triangle d.  The
two path flags are kept in the order the search from label 1 meets them:
by star position, then with the smaller vertex as label 2.  Other seeds
(pinches, non-manifold or disconnected inputs) search from label 1.  The
link is walked along the seed's spokes: ``core.build_index`` indexes each
edge's triangles with their third vertices, and the apexes of the spoke
from the seed to a link vertex are that vertex's link neighbours.

Most of a cycle-link seed's 2d flags cannot win either.  If the edge
between labels 2 and 3 lies in a triangle other than the seed's, label 2
has an unused triangle and only such triangles contain label 3, so triple
d (counting from 0) is (2, 3, x), x the smallest label the flag gives
their apexes: a link label on the ring, the fresh d+2 off it.  The apexes
are read from the edge index, once per link edge for both of its flags.
A flag whose edge has no other triangle emits a larger triple d.  So only
the flags with the smallest x are labeled and searched, and none when the
best list has the same prefix and a smaller triple d.  A dropped flag, of
either kind of seed, emits a larger triple than a kept flag or the best
list, so it can neither tie nor beat the minimum; the kept flags run in
the full search's order, so codes, witnesses and their order stay those
of the full search.

When only the code is wanted, a seed stops at its first tie: suppose a
full labeling lambda_w from seed w equals the best code, which an earlier
seed v set (as lambda_v) and nothing from w has beaten.  Then
lambda_v^-1 o lambda_w is an automorphism mapping w to v, so w's minimum
is v's, which is the best code, and nothing from w can beat it.  This is
the seed-level automorphism pruning of McKay's canonical labeling
("Practical graph isomorphism", 1981); it cuts only what an automorphism
proves redundant.  With witnesses every optimal labeling is collected, so
no seed stops early.

The *flag key* (:func:`flag_key`) keys the growth states of the
genus-surface search, with their frozen edges as marks, after plantri
and surftri (Brinkmann & McKay, "Fast generation of planar graphs",
MATCH 58 (2007); Sulanke & Lutz, arXiv:math/0610022).  It is valid only
for edge-connected complexes with every edge in at most two triangles:
there a start flag (an ordered triangle) fixes the whole relabeling by a
breadth-first walk across edges, so the key is the smallest walk code
over the start flags.  Only the flags whose vertices rank highest by
(valence, boundary edges at the vertex, marked edges at the vertex)
start a walk; an isomorphism of the complex and its marks keeps these
triples, so the key stays complete.  It decides isomorphism like the
minimal code but is not mixed-lex minimal, so it is never stored or
returned as a canonical form.

Both growth searches, the genus-surface search and the brute-force oracle,
drop isomorphs through :class:`Isomorphs`: it buckets states by an
order-free hash of their triangles' rank multisets, the vertex ranks that
:func:`flag_key` starts from, and calls the caller's certificate
(``flag_key``, ``minimal_code``) only where two states share a bucket.  A
state carries its ranks in base V, its vertex budget (a link has at most
V - 1 vertices, so no entry reaches V), each child's updated from its
parent's (:func:`_ranks_with` for a new triangle).

A state also carries its triangles as a tuple in the order they were glued,
with their ``core.build_index``, the one index both keys read.  Each public
key builds that index from its input and runs its kernel
(:func:`_minimal_code`, :func:`_flag_key`); :class:`Isomorphs` runs the
kernel on an arriving state's tuple, carried index and carried ranks, and
so builds nothing.  The kernel returns the public key there for two
reasons.

With no witnesses, the minimal code does not depend on the order or the
positions of the triangles.  Positions only name the triangles (the used
marks, the candidate lists) and set the order in which a star's triangles
and a seed's flags are tried.  The seeds are sorted by label; every seed,
every flag and every branch is still tried; every cut compares label
triples alone (a list already larger than the best, or the flag filter
above); and the tie stop (above) fires only at a full labeling equal to an
earlier seed's best, which proves the seed's minimum equal to it.  So the
search returns the minimum over all labelings from the seeds, whatever the
order.  The order of the witnesses does follow the triangle order, which
is why :func:`minimal_code` sorts its input.

The flag key's start flags depend only on the order of the rank values: a
flag starts a walk when its ranks, sorted descending, form the largest such
list.  Any base above every entry of the vertex triples maps them to
numbers in the same order.  So the carried ranks in base V (the budget)
pick the same start flags as :func:`flag_key`'s own in base 3T, as no
entry reaches V.  The walk codes, and their minimum, do not depend on the
triangle order either.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .core import Edge, Triangle, Triangulation, build_index, normalize_triangles

Code = tuple[Triangle, ...]


class _Tie(Exception):
    """A seed's labeling tied with an earlier seed's best code."""


def _search(
    tris: Sequence[Triangle],
    star: dict[int, list[tuple[int, int, int]]],
    apexes: dict[Edge, list[tuple[int, int]]],
    seeds: Sequence[int],
    witnesses: list | None,  # collects all optimal labelings when not None
) -> Code:
    # Invariant: on entry the emitted prefix equals best[0][:pos] whenever
    # best[0] is not None.  A branch that realizes a strictly smaller triple
    # therefore discards best[0]; its first completion re-establishes it.
    n = len(tris)
    best: list = [None]  # None while a strictly better code is pending
    vertex_of = [0] * (len(star) + 1)  # label -> vertex, below next_label

    def recurse(label, next_label, low, emitted):
        # a step with one candidate triangle and at most one unlabeled vertex
        # is taken in this frame; only a branch recurses.  On exit the steps
        # taken here are undone: their triangles, labels and triples.
        start = len(emitted)
        taken = []  # triangle indices used by this frame's steps
        fresh = []  # vertices labeled by this frame's steps
        get = label.get
        while True:
            pos = len(emitted)
            if pos == n:
                if best[0] is None:
                    best[0] = tuple(emitted)
                    if witnesses is not None:
                        witnesses.clear()
                        witnesses.append(dict(label))
                elif witnesses is not None:
                    # by the invariant this completion ties with best[0]
                    witnesses.append(dict(label))
                elif best[0] is earlier:
                    # the tie stop of the module docstring
                    raise _Tie
                break
            # triples are emitted in ascending order, so the next one starts
            # with the smallest label ``low`` whose vertex still has an unused
            # triangle
            min_key = None
            candidates = []
            while low < next_label:
                for i, x, y in star[vertex_of[low]]:
                    if used[i]:
                        continue
                    lx = get(x)
                    ly = get(y)
                    # fresh labels are consecutive from next_label
                    if lx is None:
                        key = ((low, next_label, next_label + 1) if ly is None
                               else (low, ly, next_label))
                    elif ly is None:
                        key = (low, lx, next_label)
                    else:
                        key = (low, lx, ly) if lx < ly else (low, ly, lx)
                    if min_key is None or key < min_key:
                        min_key = key
                        candidates = [i]
                    elif key == min_key:
                        candidates.append(i)
                if candidates:
                    break
                low += 1
            else:
                # no labeled vertex has a triangle left (a disconnected
                # input): every unused triangle takes three fresh labels
                min_key = (next_label, next_label + 1, next_label + 2)
                candidates = [i for i in range(n) if not used[i]]
            if best[0] is not None:
                ref = best[0][pos]
                if min_key > ref:
                    break
                if min_key < ref:
                    best[0] = None
                    if witnesses is not None:
                        witnesses.clear()
            emitted.append(min_key)
            if len(candidates) == 1:
                i = candidates[0]
                missing = [x for x in tris[i] if x not in label]
                if len(missing) <= 1:
                    used[i] = True
                    taken.append(i)
                    if missing:
                        x = missing[0]
                        label[x] = next_label
                        vertex_of[next_label] = x
                        fresh.append(x)
                        next_label += 1
                    continue
            for i in candidates:
                missing = [x for x in tris[i] if x not in label]
                used[i] = True
                for order in itertools.permutations(missing):
                    for k, x in enumerate(order):
                        label[x] = next_label + k
                        vertex_of[next_label + k] = x
                    recurse(label, next_label + len(missing), low, emitted)
                    for x in order:
                        del label[x]
                used[i] = False
            break
        for i in taken:
            used[i] = False
        for x in fresh:
            del label[x]
        del emitted[start:]

    # every seed has valence d, so a link of m = d (one cycle) or d + 1
    # vertices (one path) fixes the star prefix and the flags' link labels
    d = len(star[seeds[0]])
    path_prefix = ((1, 2, 3),) + tuple((1, k, k + 2) for k in range(2, d + 1))
    # a cycle has d >= 3 vertices, and its last star triangle closes the arc
    prefix = {d: path_prefix[:-1] + ((1, d, d + 1),), d + 1: path_prefix}
    # the label a cycle flag gives the ring vertex at offset j from label 2
    # in its direction step: the arc grows at its smaller end
    rank = [2 * j + 2 if 2 * j < d else 2 * (d - j) + 1 for j in range(d)]
    # so labels 2, 3, 4, 5, ... go to offsets 0, -1, 1, -2, ..., round a
    # cycle or a path read as closed from its last vertex to its first
    offsets = [j // 2 if j % 2 == 0 else -1 - j // 2 for j in range(d + 1)]
    for seed in seeds:
        used = [False] * n
        vertex_of[1] = seed
        # an earlier seed's code; only a strictly smaller one replaces it
        earlier = best[0]
        links = star[seed]
        # walk the link along the spokes, whose apexes are link neighbours:
        # one cycle if each has two and it closes after d; at a path end (one)
        # it starts again, for one path if it ends after d + 1 vertices
        ring, at = [], {}  # link vertex -> ring position, read on a cycle
        path = False  # whether the walk started again from a path end
        prev, cur = links[0][2], links[0][1]
        while True:
            spoke = apexes[(seed, cur) if seed < cur else (cur, seed)]
            if len(spoke) != 2 or spoke[0][1] == spoke[1][1]:
                if len(spoke) == 1 and not path:
                    path, ring, prev, cur = True, [cur], cur, spoke[0][1]
                    continue
                ring.append(cur)  # the path's other end, or neither shape
                break
            at[cur] = len(ring)
            ring.append(cur)
            u = spoke[0][1]
            prev, cur = cur, (spoke[1][1] if u == prev else u)
            if cur == ring[0]:
                break
        m = len(ring)
        try:
            if not (m == d + 1 if path else m == d and cur == ring[0]):
                recurse({seed: 1}, 2, 1, [])
                continue
            # every kept flag emits this star prefix (module docstring)
            ref = prefix[m] if best[0] is None else best[0][:d]
            if prefix[m] < ref:
                best[0] = None
                if witnesses is not None:
                    witnesses.clear()
            elif prefix[m] > ref:
                continue
            if path:
                # label 2 at the centre, label 3 beside it, in the order the
                # search from label 1 meets them (module docstring)
                c = d // 2
                kept = {(ring[c], ring[c + 1]): (c, -1),
                        (ring[d - c], ring[d - c - 1]): (d - c, 1)}
                flags = [(None, *kept[f]) for _i, x, y in links
                         for f in ((x, y), (y, x)) if f in kept]
            else:
                flags = []  # (x of triple d (2, 3, x) or None, p, step)
                for i, x, y in links:
                    # the flags (x, y) and (y, x): label 2 at ring position px
                    # or py, and the direction that puts label 3 next to it
                    px = at[x]
                    step = -1 if ring[(px + 1) % d] == y else 1
                    # an apex of edge xy at ring position q is at offset off
                    # from px in direction step and d-1-off from py in -step;
                    # an apex off the ring takes the fresh label d + 2
                    fx = fy = None  # x of triple d for the flags (x, y), (y, x)
                    for k, w in apexes[x, y]:
                        if k != i:
                            q = at.get(w)
                            if q is None:
                                ax = ay = d + 2
                            else:
                                off = (q - px) * step % d
                                ax, ay = rank[off], rank[d - 1 - off]
                            if fx is None or ax < fx:
                                fx = ax
                            if fy is None or ay < fy:
                                fy = ay
                    flags.append((fx, px, step))
                    flags.append((fy, (px - step) % d, -step))
                low = min((f[0] for f in flags if f[0] is not None), default=None)
                if low is not None:
                    flags = [f for f in flags if f[0] == low]
                    if best[0] is not None and best[0][d] < (2, 3, low):
                        continue
            for i, _x, _y in links:
                used[i] = True
            emitted = list(prefix[m])
            for _w, p, step in flags:
                label = {seed: 1}
                for k, j in zip(range(2, m + 2), offsets):
                    v = ring[(p + step * j) % m]
                    label[v] = k
                    vertex_of[k] = v
                recurse(label, m + 2, 2, emitted)
        except _Tie:
            pass
    # recurse holds itself through its closure; dropping the name frees the
    # star and the flags now instead of at the next cyclic collection
    del recurse
    return best[0]


def _minimal_code(tris: Sequence[Triangle], by_edge: dict, by_vertex: dict,
                  witnesses: list | None = None) -> Code:
    """:func:`minimal_code` of the sorted triples ``tris``, in any order,
    given their ``core.build_index``; ``witnesses``, when given, collects
    every optimal labeling."""
    max_val = max(map(len, by_vertex.values()))
    seeds = sorted(x for x, s in by_vertex.items() if len(s) == max_val)
    try:
        return _search(tris, by_vertex, by_edge, seeds, witnesses)
    except RecursionError:
        raise ValueError(f"{len(tris)} triangles are too many to label: the "
                         "canonical search recurses once per branching step") from None


def minimal_code(tris: Iterable[Triangle], with_witnesses: bool = False):
    """Mixed-lex minimal relabeled triangle list of a raw triangle
    collection; optionally also every labeling achieving it.

    Raises ValueError when the search branches more times in a row than
    the interpreter's recursion limit leaves room for: it recurses once per
    branching step, not once per triangle."""
    tris = normalize_triangles(tris)
    witnesses: list | None = [] if with_witnesses else None
    code = _minimal_code(tris, *build_index(tris), witnesses)
    if with_witnesses:
        return code, witnesses
    return code


def automorphisms(witnesses: Sequence[dict[int, int]]) -> list[tuple[int, ...]]:
    """The automorphism group of a minimal code, read off the witnesses that
    :func:`minimal_code` returns for any labeling of it: w o w0^-1 for each
    witness w, w0 the first.  Every optimal labeling is a witness, so each
    automorphism comes out once.  Each is a tuple p with p[v] the image of
    vertex v (p[0] = 0)."""
    back = {x: v for v, x in witnesses[0].items()}
    return [(0,) + tuple(w[back[x]] for x in range(1, len(back) + 1))
            for w in witnesses]


@dataclass(frozen=True)
class CanonicalForm:
    """The mixed-lex minimal triangle list; equality means isomorphism."""

    triangles: Code


def canonical_form(t: Triangulation) -> CanonicalForm:
    """The canonical form of ``t``.  Its code is computed by
    :func:`minimal_code` on the first call and kept on ``t``; later calls
    return the same code object."""
    code = t._code
    if code is None:
        code = minimal_code(t.triangles)
        object.__setattr__(t, "_code", code)
    return CanonicalForm(code)


def _flag_walk(apexes: dict[Edge, list[tuple[int, int]]], n: int,
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
            pair = apexes[(x, y) if x < y else (y, x)]
            if len(pair) == 1:
                continue
            i, w = pair[1] if pair[0][1] == z else pair[0]
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


def _vertex_ranks(sides: dict[Edge, list], by_vertex: dict[int, list],
                  marked: Iterable[Edge], base: int) -> dict[int, int]:
    """Each vertex's triple (valence, boundary edges at it, marked edges at
    it) as one number in base ``base``, which must exceed every entry, so
    the numbers compare as the triples do.  ``sides`` and ``by_vertex`` map
    each edge and each vertex to a list with one entry per triangle on it."""
    rank = {v: len(ts) * base * base for v, ts in by_vertex.items()}
    for (a, b), pair in sides.items():
        if len(pair) == 1:
            rank[a] += base
            rank[b] += base
    for a, b in marked:
        rank[a] += 1
        rank[b] += 1
    return rank


def _ranks_with(rank: dict[int, int], base: int, sides: dict[Edge, list],
                tri: Triangle) -> dict[int, int]:
    """A copy of the :func:`_vertex_ranks` ``rank`` of a growth state with
    edge index ``sides`` once the sorted triangle ``tri``, no edge of it in
    two triangles there, is added: changed at its vertices only."""
    a, b, c = tri
    rank = {**rank}
    for v in tri:
        rank[v] = rank.get(v, 0) + base * base
    for x, y in ((a, b), (a, c), (b, c)):
        # a boundary edge turns interior, a new edge is a boundary edge
        step = -base if (x, y) in sides else base
        rank[x] += step
        rank[y] += step
    return rank


def _flag_key(tris: Sequence[Triangle], by_edge: dict, _by_vertex: dict,
              rank: dict[int, int], marked: Collection[Edge]):
    """:func:`flag_key` of the sorted triples ``tris``, in any order, given
    their ``core.build_index`` and ranks ``rank`` of the vertex triples in
    any base above every entry (see :func:`_vertex_ranks`); every edge must
    lie in at most two triangles."""
    sigs = [sorted((rank[a], rank[b], rank[c]), reverse=True) for a, b, c in tris]
    top = max(sigs)
    starts = [(f, i) for i, t in enumerate(tris) if sigs[i] == top
              for f in itertools.permutations(t)
              if [rank[f[0]], rank[f[1]], rank[f[2]]] == top]
    best = best_marks = None
    for start, i in starts:
        walk = _flag_walk(by_edge, len(tris), start, i, best)
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


def flag_key(tris: Iterable[Triangle], marked_edges: Iterable[tuple[int, int]] = ()):
    """Relabeling-invariant key of a complex with a set of marked edges,
    equal for two inputs exactly when an isomorphism maps one complex and
    its marking onto the other.

    The start flags are the ordered triangles (v0, v1, v2) whose vertex
    triples (valence, boundary edges at it, marked edges at it) are
    non-increasing and, as a list, lexicographically largest.  From each,
    v0, v1, v2 get labels 1, 2, 3 and the triangles are walked
    breadth-first, leaving each through its edges in order of their label
    pairs into the other triangle on that edge, whose third vertex takes
    the next free label when first reached.  The key is the smallest
    (walk-ordered relabeled triangles, sorted relabeled marked edges).

    Raises ValueError unless every edge lies in at most two triangles and
    the triangles are edge-connected; only then is the walk complete.
    """
    tris = [tuple(sorted(t)) for t in tris]
    by_edge, by_vertex = build_index(tris)
    for e, pair in by_edge.items():
        if len(pair) > 2:
            raise ValueError(f"edge {e} lies in more than two triangles")
    marked = list(marked_edges)
    # no vertex meets 3T edges
    rank = _vertex_ranks(by_edge, by_vertex, marked, 3 * len(tris))
    return _flag_key(tris, by_edge, by_vertex, rank, marked)


class Isomorphs:
    """The isomorph filter of an exhaustive growth search: :meth:`add`
    tells whether a state is new, isomorphic to no state added before by a
    map that carries the marked edges along.  ``certificate(tris, marked)``
    is the caller's complete invariant and the only equality test, and
    ``carried(tris, by_edge, by_vertex, rank, marked)`` the same invariant
    read off a state's carried ``core.build_index`` and ranks
    (:func:`_minimal_code` behind :func:`minimal_code`, :func:`_flag_key`
    behind :func:`flag_key`).

    This is McKay's isomorph rejection ("Isomorph-free exhaustive
    generation", J. Algorithms 26 (1998)).  A state alone in its
    :meth:`bucket` gets no certificate; once a second one lands there,
    every member gets one, and a state is a repeat only when its
    certificate equals a member's.  The caller's ranks may be any rank map
    that an isomorphism carrying the marks along preserves, such as
    :func:`_vertex_ranks` in one base for every state, so isomorphic states
    share a bucket and compare by certificate: no state is lost.
    Non-isomorphic states in one bucket, by equal invariants or a hash
    collision, cost certificates, never a merge.  So the states found new,
    and their order, are those of certifying every state.

    The arriving state is certified from its carried fields, and the lone
    member of a bucket from its stored triangles, so the filter keeps no
    index or ranks: a certificate is the same either way (module
    docstring).
    """

    def __init__(self, certificate, carried):
        self.certificate = certificate
        self.carried = carried
        # bucket -> its one state with no certificate yet
        self._lone: dict[int, tuple] = {}
        # bucket -> the certificates of its states, once it has two
        self._certified: dict[int, set] = {}

    @staticmethod
    def bucket(tris: Collection[Triangle], rank: dict[int, int]) -> int:
        """A hash of the multiset of a state's triangles, each the multiset
        of its vertices' ranks ``rank``: a sum over the triangles, so their
        order does not count, of the hash of the ranks' elementary symmetric
        polynomials, which fix the ranks up to order.  Nothing is sorted."""
        total = 0
        for a, b, c in tris:
            x, y, z = rank[a], rank[b], rank[c]
            total += hash((x + y + z, x * y + x * z + y * z, x * y * z))
        return total

    def add(self, tris: tuple[Triangle, ...], by_edge: dict, by_vertex: dict,
            rank: dict[int, int], marked: Collection[Edge] = ()) -> bool:
        """Whether the state ``tris`` with marked edges ``marked`` is new;
        ``by_edge`` and ``by_vertex`` are its ``core.build_index`` and
        ``rank`` maps its vertices to their ranks (class docstring)."""
        bucket = self.bucket(tris, rank)
        certs = self._certified.get(bucket)
        if certs is None:
            if bucket not in self._lone:
                self._lone[bucket] = (tris, marked)
                return True
            certs = self._certified[bucket] = {
                self.certificate(*self._lone.pop(bucket))}
        cert = self.carried(tris, by_edge, by_vertex, rank, marked)
        if cert in certs:
            return False
        certs.add(cert)
        return True
