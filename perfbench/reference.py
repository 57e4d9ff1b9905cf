"""Reference data the benchmark checks outputs against.

The published Table 1 is copied here rather than imported from the test
suite, so the benchmark stays a self-contained consumer of the package.
The corpus file is pinned by its sha256 and re-checked against Table 1 on
every load.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

CORPUS_MAX_VERTICES = 9
CORPUS_PATH = Path(__file__).resolve().parent / "data" / "corpus-v9.tsv"
CORPUS_SHA256 = "9b94ce7632ec1d6b90c89d3604ca63db36b10498458d5909ecd82d632c81c6c0"

Code = tuple[tuple[int, int, int], ...]

# (V, surface) -> (T, R, N): triangulations, roots, non-roots
TABLE1: dict[tuple[int, str], tuple[int, int, int]] = {
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


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class Entry:
    """One corpus triangulation: vertex count, surface name, root flag and
    the canonical (mixed-lex minimal) triangle list."""

    v: int
    surface: str
    root: bool
    code: Code


def table1(max_vertices: int) -> dict[tuple[int, str], tuple[int, int, int]]:
    return {k: row for k, row in TABLE1.items() if k[0] <= max_vertices}


def parse_code(text: str) -> Code:
    return tuple(tuple(int(x) for x in tok.split(",")) for tok in text.split())


def code_is_root(code: Code) -> bool:
    """No inverse vertex-adding move applies: every 3-valent vertex has a
    link that already bounds a triangle (only the tetrahedron)."""
    at: dict[int, list] = {}
    for t in code:
        for v in t:
            at.setdefault(v, []).append(t)
    present = set(code)
    for v, tris in at.items():
        if len(tris) == 3:
            link = tuple(sorted({x for t in tris for x in t if x != v}))
            if link not in present:
                return False
    return True


def counts_of(entries) -> dict[tuple[int, str], tuple[int, int, int]]:
    """Table 1 rows of a collection of entries."""
    roots: Counter = Counter()
    total: Counter = Counter()
    for e in entries:
        total[e.v, e.surface] += 1
        roots[e.v, e.surface] += e.root
    return {k: (n, roots[k], n - roots[k]) for k, n in total.items()}


def load_corpus(path: Path = CORPUS_PATH, sha256: str = CORPUS_SHA256) -> list[Entry]:
    """Read and verify the corpus: pinned checksum, one well-formed line per
    triangulation, and per-(V, surface) counts equal to Table 1."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        raise CorpusError(f"{path.name}: sha256 {digest} differs from {sha256}")
    entries = []
    for line in data.decode().splitlines():
        v, surface, flag, tris = line.split("\t")
        if flag not in ("R", "N"):
            raise CorpusError(f"bad root flag {flag!r}")
        entries.append(Entry(int(v), surface, flag == "R", parse_code(tris)))
    got = counts_of(entries)
    if got != table1(CORPUS_MAX_VERTICES):
        raise CorpusError("corpus counts differ from Table 1")
    return entries
