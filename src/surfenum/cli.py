"""Command-line interface, text formats, counts reporting and persistence.

Triangulations are written one per line in the native format: triangles
separated by whitespace, vertices within a triangle separated by commas
("1,2,3 1,2,4 ...").  The compact format with concatenated single digits
("123 124 ...") is accepted on input whenever every label is at most 9.
Enumeration results are persisted as one file per (vertex count, surface)
shard of sorted canonical lines plus a manifest with config and checksums.
Each file is written under a temporary name and moved into place, the
manifest last, so a run cut short leaves no manifest and no partly written
file under a final name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from pathlib import Path
from typing import Sequence

from .canon import Code, canonical_form
from .core import (
    SurfaceClass,
    Triangle,
    Triangulation,
    classify,
    validate,
)
from .listing import CountsTable, SearchConfig, enumerate_all
from .moves import compute_root, is_root
from .oracle import brute_force_enumerate, cross_validate


def parse_triangulation_text(s: str) -> Triangulation:
    """Parse the native comma format or, when every label is a single
    digit, the compact concatenated format."""
    tokens = s.split()
    if not tokens:
        raise ValueError("empty triangulation text")
    triangles = []
    for tok in tokens:
        if "," in tok:
            parts = tok.split(",")
        else:
            parts = list(tok)
        if len(parts) != 3:
            raise ValueError(f"triangle {tok!r} does not have three vertices")
        try:
            tri = tuple(map(int, parts))
        except ValueError:
            raise ValueError(f"triangle {tok!r} has a non-numeric vertex") from None
        if any(v < 1 for v in tri):
            raise ValueError(f"triangle {tok!r} has a label below 1")
        triangles.append(tri)
    return Triangulation(triangles)


def render_triangulation(tris: Sequence[Triangle]) -> str:
    return " ".join(",".join(str(v) for v in tri) for tri in tris)


def format_counts_table(ct: CountsTable) -> str:
    lines = ["V\tsurface\tT\tR\tN"]
    for v, cls, total, roots, nonroots in ct.rows():
        lines.append(f"{v}\t{cls.name}\t{total}\t{roots}\t{nonroots}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------

def _shard_name(v: int, cls: SurfaceClass) -> str:
    return f"v{v:02d}_{cls.name}.txt"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# the manifest format; results_complete rejects a manifest of another one
# (a manifest with no schema number is of format 1)
_MANIFEST_SCHEMA = 2


def _manifest_config(cfg: SearchConfig) -> dict:
    """The part of ``cfg`` that a manifest records and a rerun must match,
    with the manifest format."""
    return {
        "schema": _MANIFEST_SCHEMA,
        "max_vertices": cfg.max_vertices,
        "specialized": cfg.specialized,
        "surface": cfg.surface.name if cfg.surface else None,
    }


def _write_replacing(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and move it onto
    ``path``, so ``path`` holds the old text or all of the new."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_results(
    out_dir: Path,
    cfg: SearchConfig,
    codes: dict[tuple[int, SurfaceClass], set[Code]],
    elapsed: float,
) -> None:
    """Write each shard, then the manifest; an old manifest is removed
    first, so until the new one is in place the results are incomplete."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    shards = {}
    for (v, cls), bucket in sorted(codes.items(),
                                   key=lambda kv: (kv[0][0], kv[0][1].sort_key())):
        lines = sorted(render_triangulation(code) for code in bucket)
        text = "\n".join(lines) + "\n"
        name = _shard_name(v, cls)
        _write_replacing(out_dir / name, text)
        shards[name] = {"count": len(lines), "sha256": _sha256(text)}
    manifest = {
        "config": _manifest_config(cfg),
        "shards": shards,
        "wall_time_seconds": round(elapsed, 3),
    }
    _write_replacing(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _read_manifest(out_dir: Path) -> dict:
    """The manifest of ``out_dir``; ``ValueError``, before any shard is
    opened, unless it is a JSON object whose ``shards`` maps each shard
    name, a bare ``vNN_CLASS.txt`` as :func:`_shard_name` writes it, to an
    object."""
    path = out_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    shards = manifest.get("shards") if isinstance(manifest, dict) else None
    if not (isinstance(shards, dict)
            and all(isinstance(info, dict) for info in shards.values())):
        raise ValueError(f"{path} is not a results manifest")
    for name in shards:
        if not re.fullmatch(r"v[0-9]{2,}_[A-Z0-9+-]+\.txt", name):
            raise ValueError(f"{path} names {name!r}, which is not a shard file")
    return manifest


def results_complete(out_dir: Path, cfg: SearchConfig) -> bool:
    """True when the directory holds a finished run for the same config
    with intact shard checksums, so re-running can be skipped."""
    if not (out_dir / "manifest.json").is_file():
        return False
    try:
        manifest = _read_manifest(out_dir)
    except ValueError:
        return False
    if manifest.get("config") != _manifest_config(cfg):
        return False
    for name, info in manifest["shards"].items():
        try:
            _shard_text(out_dir, name, info)
        except (ValueError, OSError):
            return False
    return True


def _shard_text(out_dir: Path, name: str, info: dict) -> str:
    """The text of shard ``name``; ``ValueError`` when its sha256 differs
    from the one its manifest entry ``info`` records."""
    path = out_dir / name
    text = path.read_text()
    if _sha256(text) != info.get("sha256"):
        raise ValueError(f"{path} does not match its manifest checksum")
    return text


def read_results(out_dir: Path) -> CountsTable:
    """Rebuild the counts table from persisted shards; the root/non-root
    split is recomputed from the stored triangle lists, each validated once
    (by :func:`core.classify`, whose report ``moves.is_root`` reads).
    ``ValueError`` when a shard's sha256 differs from the manifest's, before
    that shard is parsed, or when a line's V or class differs from its
    shard's name or its line count from the manifest entry's."""
    table = CountsTable()
    for name, info in _read_manifest(out_dir)["shards"].items():
        lines = [line for line in _shard_text(out_dir, name, info).splitlines()
                 if line.strip()]
        for line in lines:
            t = parse_triangulation_text(line)
            v, cls = t.vertex_count, classify(t)
            if _shard_name(v, cls) != name:
                raise ValueError(f"{out_dir / name} holds a triangulation of "
                                 f"{cls.name} with {v} vertices")
            if is_root(t):
                table.add_root(v, cls)
            else:
                table.add_nonroot(v, cls)
        if len(lines) != info.get("count"):
            raise ValueError(f"{out_dir / name} has {len(lines)} lines, its "
                             f"manifest entry counts {info.get('count')}")
    return table


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _read_input(path: str) -> Triangulation:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_triangulation_text(text)


def _cmd_validate(args) -> int:
    t = _read_input(args.file)
    report = validate(t)
    print(report.kind.value)
    if report.offending_vertices:
        print("offending vertices:", " ".join(map(str, report.offending_vertices)))
    return 0 if report.is_surface else 1


def _cmd_classify(args) -> int:
    t = _read_input(args.file)
    try:
        print(classify(t).name)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


def _cmd_canon(args) -> int:
    t = _read_input(args.file)
    print(render_triangulation(canonical_form(t).triangles))
    return 0


def _cmd_root(args) -> int:
    t = _read_input(args.file)
    root = compute_root(t)
    print(render_triangulation(root.triangles))
    return 0


def _default_workers(args) -> int:
    """The worker count from ``--workers``, else ``SURFENUM_WORKERS``, else
    1; checked before any work starts."""
    if args.workers is not None:
        source, text = "--workers", args.workers
    else:
        source, text = "SURFENUM_WORKERS", os.environ.get("SURFENUM_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {text!r}") from None
    if workers < 1:
        raise ValueError(f"{source} must be at least 1, got {workers}")
    return workers


def _max_vertices(args) -> int:
    """``--max-vertices``, checked before any work starts."""
    if args.max_vertices < 3:
        raise ValueError(f"--max-vertices must be at least 3, got {args.max_vertices}")
    return args.max_vertices


def _parse_surface(name: str | None) -> SurfaceClass | None:
    return SurfaceClass.from_name(name) if name else None


def _cmd_enum(args) -> int:
    cfg = SearchConfig(
        max_vertices=_max_vertices(args),
        surface=_parse_surface(args.surface),
        workers=_default_workers(args),
    )
    out_dir = Path(args.out) if args.out else None
    if out_dir and results_complete(out_dir, cfg):
        try:
            table = read_results(out_dir)
        except ValueError as exc:
            print(f"results in {out_dir} are unreadable ({exc}); recomputing",
                  file=sys.stderr)
        else:
            print(f"results in {out_dir} are complete for this config; skipping",
                  file=sys.stderr)
            print(format_counts_table(table))
            return 0
    if out_dir:
        # a bad path fails here, not after the enumeration
        out_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    result = enumerate_all(cfg)
    elapsed = time.monotonic() - start
    if out_dir:
        write_results(out_dir, cfg, result.all_codes(), elapsed)
    print(format_counts_table(result.counts))
    return 0


def _cmd_oracle(args) -> int:
    result = brute_force_enumerate(_max_vertices(args),
                                   workers=_default_workers(args))
    print(format_counts_table(result.counts))
    return 0


def _cmd_crosscheck(args) -> int:
    report = cross_validate(_max_vertices(args), workers=_default_workers(args))
    print(report.summary())
    for side, rows in (("missing", report.missing), ("extra", report.extra)):
        for key, codes in sorted(rows.items()):
            for code in sorted(codes):
                print(f"{side}\t{key[0]}\t{key[1].name}\t"
                      f"{render_triangulation(code)}")
    return 0 if report.equal else 1


def _cmd_counts(args) -> int:
    print(format_counts_table(read_results(Path(args.dir))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfenum",
        description="enumerate triangulations of closed surfaces without duplicates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("validate", _cmd_validate), ("classify", _cmd_classify),
                     ("canon", _cmd_canon), ("root", _cmd_root)):
        p = sub.add_parser(name)
        p.add_argument("file", help="triangulation file, or - for stdin")
        p.set_defaults(fn=fn)

    p = sub.add_parser("enum")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--surface", help="restrict to one surface (S2, T2, RP2, K2, S+g, S-g)")
    p.add_argument("--out", help="directory for per-(V, surface) result shards")
    p.add_argument("--workers", help="worker processes (default: SURFENUM_WORKERS, else 1)")
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("oracle")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--workers", help="worker processes (default: SURFENUM_WORKERS, else 1)")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("crosscheck")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--workers", help="worker processes (default: SURFENUM_WORKERS, else 1)")
    p.set_defaults(fn=_cmd_crosscheck)

    p = sub.add_parser("counts")
    p.add_argument("dir", help="directory written by enum --out")
    p.set_defaults(fn=_cmd_counts)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
