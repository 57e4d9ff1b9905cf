"""Regenerate the reference corpus ``data/corpus-v9.tsv``.

The corpus is every closed triangulation with at most 9 vertices, up to
isomorphism, as found by the brute-force oracle (``brute_force_enumerate(9)``,
about 80 s on one core).  Each line is ``V<TAB>surface<TAB>R|N<TAB>triangles``
with the triangles of the mixed-lex canonical form in the native comma
format; ``R`` marks a root.  The root flag is computed here from the
triangle list, independently of ``surfenum.moves``.

Run from the repository root:

    python3 perfbench/make_corpus.py

then update ``CORPUS_SHA256`` in ``reference.py`` with the printed digest.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from reference import CORPUS_MAX_VERTICES, CORPUS_PATH, code_is_root  # noqa: E402
from surfenum.cli import render_triangulation  # noqa: E402
from surfenum.oracle import brute_force_enumerate  # noqa: E402


def main() -> None:
    start = time.monotonic()
    result = brute_force_enumerate(CORPUS_MAX_VERTICES)
    elapsed = time.monotonic() - start
    lines = []
    for (v, cls), codes in sorted(result.codes.items(),
                                  key=lambda kv: (kv[0][0], kv[0][1].sort_key())):
        for code in sorted(codes):
            flag = "R" if code_is_root(code) else "N"
            lines.append(f"{v}\t{cls.name}\t{flag}\t{render_triangulation(code)}")
    data = ("\n".join(lines) + "\n").encode()
    CORPUS_PATH.write_bytes(data)
    print(f"{len(lines)} triangulations in {elapsed:.1f} s")
    print(f"sha256 {hashlib.sha256(data).hexdigest()}")


if __name__ == "__main__":
    main()
