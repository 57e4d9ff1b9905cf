"""Command-line interface, text formats, counts reporting and persistence.

Triangulations are written one per line in the native format: triangles
separated by whitespace, vertices within a triangle separated by commas
("1,2,3 1,2,4 ...").  The compact format with concatenated single digits
("123 124 ...") is accepted on input whenever every label is at most 9.
Enumeration results are persisted as one file per (vertex count, surface)
shard of sorted canonical lines plus a manifest with config and checksums.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from .canon import Code, canonical_form
from .core import (
    SurfaceClass,
    SurfaceKind,
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
            tri = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"triangle {tok!r} has a non-numeric vertex") from None
        if any(v < 1 for v in tri):
            raise ValueError(f"triangle {tok!r} has a label below 1")
        triangles.append(tri)
    return Triangulation(triangles)


def render_triangulation(t: Triangulation | Sequence[Triangle]) -> str:
    tris = t.triangles if isinstance(t, Triangulation) else t
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


def _manifest_config(cfg: SearchConfig) -> dict:
    """The part of ``cfg`` that a manifest records and a rerun must match."""
    return {
        "max_vertices": cfg.max_vertices,
        "specialized": cfg.specialized,
        "surface": cfg.surface.name if cfg.surface else None,
    }


def write_results(
    out_dir: Path,
    cfg: SearchConfig,
    codes: dict[tuple[int, SurfaceClass], set[Code]],
    elapsed: float,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    shards = {}
    for (v, cls), bucket in sorted(codes.items(),
                                   key=lambda kv: (kv[0][0], kv[0][1].sort_key())):
        lines = sorted(render_triangulation(code) for code in bucket)
        text = "\n".join(lines) + "\n"
        name = _shard_name(v, cls)
        (out_dir / name).write_text(text)
        shards[name] = {"count": len(lines), "sha256": _sha256(text)}
    manifest = {
        "config": _manifest_config(cfg),
        "shards": shards,
        "wall_time_seconds": round(elapsed, 3),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def results_complete(out_dir: Path, cfg: SearchConfig) -> bool:
    """True when the directory holds a finished run for the same config
    with intact shard checksums, so re-running can be skipped."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return False
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError:
        return False
    if manifest.get("config") != _manifest_config(cfg):
        return False
    for name, info in manifest.get("shards", {}).items():
        path = out_dir / name
        if not path.is_file() or _sha256(path.read_text()) != info.get("sha256"):
            return False
    return True


def read_results(out_dir: Path) -> CountsTable:
    """Rebuild the counts table from persisted shards; the root/non-root
    split is recomputed from the stored triangle lists."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    table = CountsTable()
    for name in manifest["shards"]:
        for line in (out_dir / name).read_text().splitlines():
            if not line.strip():
                continue
            t = parse_triangulation_text(line)
            v, cls = t.vertex_count, classify(t)
            if is_root(t):
                table.add_root(v, cls)
            else:
                table.add_nonroot(v, cls)
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
    report = validate(t)
    if report.kind is not SurfaceKind.CLOSED_SURFACE:
        print(f"not a closed surface ({report.kind.value})", file=sys.stderr)
        return 1
    print(classify(t).name)
    return 0


def _cmd_canon(args) -> int:
    t = _read_input(args.file)
    print(render_triangulation(canonical_form(t).triangulation()))
    return 0


def _cmd_root(args) -> int:
    t = _read_input(args.file)
    root = compute_root(t)
    print(render_triangulation(root))
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
        print(f"results in {out_dir} are complete for this config; skipping",
              file=sys.stderr)
        print(format_counts_table(read_results(out_dir)))
        return 0
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
    if not report.equal:
        for key, codes in sorted(report.missing.items()):
            for code in sorted(codes):
                print(f"missing\t{key[0]}\t{key[1].name}\t"
                      f"{render_triangulation(code)}")
        for key, codes in sorted(report.extra.items()):
            for code in sorted(codes):
                print(f"extra\t{key[0]}\t{key[1].name}\t"
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
