"""The three benchmark workloads.

Each workload has ``prepare`` (untimed per-pass input), ``run`` (the timed
pass) and ``check`` (untimed output checks returning operations attempted,
operations failed and a fingerprint of the outputs, so a traced pass can
be compared with an untraced one).

* ``enum-v8``: ``enumerate_all`` at V<=8, the paper's pipeline end to end.
  Canonical labeling (``state_key`` in the genus-surface search,
  ``minimal_code`` in discs, gluing and non-roots) is most of it.  V=9
  (about 160 s a pass) and V=10 (hours) do not fit the repetitions a
  benchmark run needs; V=8 has the same stage shape.
* ``oracle-v8``: ``brute_force_enumerate`` at V<=8.  It bypasses
  ``listing`` and ``moves``: almost all of it is ``minimal_code`` on
  growth states plus ``link_shape``, so a listing-only change should not
  move it and a canonical-labeling change should.
* ``corpus-v9``: what a user does with a finished V<=9 run: persist it
  (``write_results``, ``results_complete``, ``read_results``) and answer
  ``canonical_form`` + ``classify`` + ``compute_root`` queries on seeded
  random relabelings of every corpus entry.  It uses only the reference
  ``minimal_code`` on closed surfaces, never ``state_key``.

All run in one process with ``workers=1``: a worker pool would measure
process start-up and pickling on a 2-core host rather than the code.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import code_is_root, table1

WORK_DIR = Path(__file__).resolve().parent / ".work"


def _table_rows(counts) -> dict[tuple[int, str], tuple[int, int, int]]:
    return {(v, cls.name): (t, r, n) for v, cls, t, r, n in counts.rows()}


def _codes_by_name(codes) -> dict[tuple[int, str], frozenset]:
    return {(v, cls.name): frozenset(c) for (v, cls), c in codes.items() if c}


class _Listing:
    """Shared checks of the two enumeration workloads: one operation is
    one enumeration, which fails unless its counts equal Table 1 and its
    canonical set equals the corpus slice."""

    min_untraced_ops = 1

    def __init__(self, ctx, seed: int, max_vertices: int):
        self.ctx = ctx
        self.max_vertices = max_vertices
        self.want_table = table1(max_vertices)
        want: dict[tuple[int, str], set] = {}
        for e in ctx.corpus:
            if e.v <= max_vertices:
                want.setdefault((e.v, e.surface), set()).add(e.code)
        self.want_codes = {k: frozenset(c) for k, c in want.items()}

    def prepare(self):
        return None

    def latency(self, result) -> list[float]:
        return []

    def check(self, prep, result):
        got = _codes_by_name(self.codes(result))
        ok = _table_rows(result.counts) == self.want_table and got == self.want_codes
        return 1, 0 if ok else 1, got


class EnumWorkload(_Listing):
    name = "enum-v8"

    def run(self, prep):
        listing = self.ctx.pkg.listing
        return listing.enumerate_all(listing.SearchConfig(max_vertices=self.max_vertices))

    @staticmethod
    def codes(result):
        return result.all_codes()


class OracleWorkload(_Listing):
    name = "oracle-v8"

    def run(self, prep):
        return self.ctx.pkg.oracle.brute_force_enumerate(self.max_vertices)

    @staticmethod
    def codes(result):
        return result.codes


class CorpusWorkload:
    """One operation is one query.  A query fails unless ``canonical_form``
    returns the stored code, ``classify`` the stored class and
    ``compute_root`` a root; every query of a pass fails when the pass's
    persisted table or its root counts per (V, surface) differ from
    Table 1."""

    name = "corpus-v9"
    # p99 needs at least ten samples beyond it
    min_untraced_ops = 1000

    def __init__(self, ctx, seed: int, max_vertices: int):
        pkg = ctx.pkg
        self.ctx = ctx
        self.entries = [e for e in ctx.corpus if e.v <= max_vertices]
        self.want_table = table1(max_vertices)
        self.cfg = pkg.listing.SearchConfig(max_vertices=max_vertices)
        codes: dict = {}
        for e in self.entries:
            key = (e.v, pkg.core.SurfaceClass.from_name(e.surface))
            codes.setdefault(key, set()).add(e.code)
        self.codes = codes
        self.rng = random.Random(seed)

    def prepare(self):
        Triangulation = self.ctx.pkg.core.Triangulation
        order = list(range(len(self.entries)))
        self.rng.shuffle(order)
        inputs = []
        for i in order:
            e = self.entries[i]
            perm = list(range(1, e.v + 1))
            self.rng.shuffle(perm)
            inputs.append((i, Triangulation(
                [(perm[a - 1], perm[b - 1], perm[c - 1]) for a, b, c in e.code])))
        WORK_DIR.mkdir(exist_ok=True)
        return inputs, Path(tempfile.mkdtemp(dir=WORK_DIR))

    def run(self, prep):
        pkg = self.ctx.pkg
        cli, canonical_form = pkg.cli, pkg.canon.canonical_form
        classify, compute_root = pkg.core.classify, pkg.moves.compute_root
        inputs, out_dir = prep
        cli.write_results(out_dir, self.cfg, self.codes, 0.0)
        complete = cli.results_complete(out_dir, self.cfg)
        table = cli.read_results(out_dir)
        answers = []
        latency = []
        for i, t in inputs:
            t0 = perf_counter()
            form = canonical_form(t)
            cls = classify(t)
            root = compute_root(t)
            latency.append(perf_counter() - t0)
            answers.append((i, form.triangles, cls.name, root.triangles))
        return complete, table, answers, latency

    def check(self, prep, out):
        shutil.rmtree(prep[1])
        complete, table, answers, _latency = out
        failed = 0
        got_roots: Counter = Counter()
        for i, form, cls, root in answers:
            e = self.entries[i]
            if form != e.code or cls != e.surface or not code_is_root(root):
                failed += 1
            if root == e.code:
                got_roots[e.v, e.surface] += 1
        want_roots = {k: r for k, (_t, r, _n) in self.want_table.items() if r}
        if (not complete or _table_rows(table) != self.want_table
                or got_roots != want_roots):
            failed = len(answers)
        return len(answers), failed, sorted(answers)

    def latency(self, out) -> list[float]:
        """Seconds per query of one pass."""
        return out[3]


WORKLOADS = {w.name: w for w in (EnumWorkload, OracleWorkload, CorpusWorkload)}
