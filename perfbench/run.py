"""surfenum benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload enum-v8 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  With ``--trace 0`` the end-to-end metrics are measured with
no tracing; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from the traced ones (see ``spans.py``).  Every pass
is checked against the published Table 1 and the reference corpus outside
the timed region.  Times are calibrated seconds (see ``calibrate.py``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when
every output was correct, 1 when some output was wrong, 2 when the
benchmark could not run (for example no ``src/surfenum`` in the checkout).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from types import SimpleNamespace

from calibrate import CalibratedTimer
from reference import CORPUS_MAX_VERTICES, CorpusError, load_corpus
from spans import PACKAGE, TRACED_MODULES, Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

# set-up is a few tens of milliseconds, so report the median of several
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

_LAYER_NAMES = [
    "canon.state_key.calls", "canon.state_key.s",
    "canon.minimal_code.calls", "canon.minimal_code.s",
    *(f"canon.minimal_code.{b}.s" for b in (
        "state_key", "canonical_form", "main_discs", "spheres", "genus_search",
        "gluing", "nonroots", "oracle", "other")),
    "canon.canonical_form.calls", "canon.canonical_form.s",
    "core.validate.calls", "core.validate.s",
    "core.classify.calls", "core.classify.s",
    "core.link_shape.calls", "core.link_shape.s",
    "core.Triangulation.calls",
    "moves.t_move.calls", "moves.t_move.s",
    "moves.compute_root.calls", "moves.compute_root.s",
    "listing.enumerate_all.s", "listing.enumerate_all.self_s",
    "listing.main_discs.calls", "listing.main_discs.s",
    "listing.spheres.self_s",
    "listing.genus_search.s", "listing.genus_search.self_s",
    "listing.genus_search.states", "listing.genus_search.candidates",
    "listing.genus_search.keep_ratio",
    "listing.gluing.self_s", "listing.gluing.root_hits",
    "listing.gluing.roots", "listing.gluing.distinct_ratio",
    "listing.nonroots.calls", "listing.nonroots.s", "listing.nonroots.found",
    "listing.nonroots.distinct_ratio",
    "oracle.s", "oracle.self_s", "oracle.states", "oracle.leaf_ratio",
    "cli.write_results.s", "cli.results_complete.s", "cli.read_results.s",
    "trace.spans", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
]


def _unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


PER_LAYER = {name: _unit(name) for name in _LAYER_NAMES}

# the five listing stages that, with enumerate_all's self time, partition it
_STAGE_PARTS = ("listing.enumerate_all.self_s", "listing.main_discs.s",
                "listing.spheres.self_s", "listing.genus_search.s",
                "listing.gluing.self_s", "listing.nonroots.s")


class SetupError(RuntimeError):
    pass


def setup():
    """Fresh import of the package from this checkout plus the verified
    corpus; returns a context for the workloads."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"{PACKAGE} imported from {pkg.__file__}, not {SRC}")
    mods = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                              for m in TRACED_MODULES})
    return SimpleNamespace(pkg=mods, corpus=load_corpus())


@dataclass
class Pass:
    """One pass; ``wall`` and ``cpu`` are raw seconds, times ``speed``
    they are calibrated seconds."""

    traced: bool
    wall: float
    cpu: float
    speed: float
    attempted: int
    failed: int
    fingerprint: object
    latency: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)


def _run_pass(workload, tracer: Tracer | None) -> Pass:
    prep = workload.prepare()
    if tracer is not None:
        first, made = len(tracer.spans), tracer.triangulations
        tracer.install()
    try:
        with CalibratedTimer() as clock:
            out = workload.run(prep)
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed, fingerprint = workload.check(prep, out)
    speed = clock.speed
    p = Pass(tracer is not None, clock.wall, clock.cpu, speed, attempted, failed,
             fingerprint, [x * speed for x in workload.latency(out)])
    if tracer is not None:
        layer = layer_metrics(tracer.spans, tracer.sizes, first)
        p.layer = {k: v * speed if PER_LAYER[k] == "s" else v for k, v in layer.items()}
        p.layer["core.Triangulation.calls"] = tracer.triangulations - made
        p.layer["trace.spans"] = len(tracer.spans) - first
    return p


def measure(workload, seconds: float, tracer: Tracer | None) -> list[Pass]:
    """Passes until ``seconds`` have elapsed.  Untraced runs also go on
    until the workload's minimum operation count; traced runs alternate
    untraced and traced passes and make at least one of each.  A traced
    pass whose outputs differ from the first untraced pass's fails all its
    operations.  Only that first fingerprint is kept, so peak memory does
    not grow with the number of passes."""
    passes: list[Pass] = []
    reference = None
    start = perf_counter()
    while True:
        plain = [p for p in passes if not p.traced]
        n_traced = len(passes) - len(plain)
        if plain and perf_counter() - start >= seconds:
            if tracer is None and sum(p.attempted for p in plain) >= workload.min_untraced_ops:
                break
            if tracer is not None and n_traced:
                break
        traced = tracer is not None and len(plain) > n_traced
        p = _run_pass(workload, tracer if traced else None)
        if reference is None:
            reference = p.fingerprint
        elif p.traced and p.fingerprint != reference:
            p.failed = p.attempted
        p.fingerprint = None
        passes.append(p)
    return passes


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  max_vertices: int | None = None, spans_dir: Path | None = OUT_DIR):
    """Run one workload; returns (result object, human-readable lines)."""
    cls = WORKLOADS[workload_name]
    if max_vertices is None:
        max_vertices = CORPUS_MAX_VERTICES if workload_name == "corpus-v9" else 8
    setup_times = []
    for _ in range(SETUP_REPEATS):
        # start each repeat from a collected heap: the modules of the previous
        # import are garbage in reference cycles
        gc.collect()
        with CalibratedTimer() as clock:
            ctx = setup()
            workload = cls(ctx, seed, max_vertices)
        setup_times.append(clock.wall * clock.speed)

    tracer = Tracer() if trace else None
    passes = measure(workload, seconds, tracer)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    consistent = True
    lines = [f"workload {workload_name}  seed {seed}  V<={max_vertices}  "
             f"passes {len(plain)} untraced, {len(traced)} traced"]

    if not trace:
        metrics = {
            "setup_s": median(setup_times),
            "wall_s": median([p.wall * p.speed for p in plain]),
            "cpu_s": median([p.cpu * p.speed for p in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        lines.append(f"{'raw_wall_s':32s} {median([p.wall for p in plain]):.6g} s"
                     f"  (uncalibrated; host speed {median([p.speed for p in plain]):.3f})")
        latency = [x for p in plain for x in p.latency]
        if len(latency) >= 2:
            q = quantiles(latency, n=100)
            lines.append(f"{'query_ms_p50':32s} {median(latency) * 1e3:.4f} ms")
            lines.append(f"{'query_ms_p99':32s} {q[98] * 1e3:.4f} ms"
                         f"  ({len(latency)} queries)")
    else:
        metrics = {name: median([p.layer[name] for p in traced])
                   for name in PER_LAYER if not name.startswith("trace.")}
        metrics["trace.spans"] = median([p.layer["trace.spans"] for p in traced])
        metrics["trace.wall_s"] = median([p.wall * p.speed for p in traced])
        metrics["trace.untraced_wall_s"] = median([p.wall * p.speed for p in plain])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units = PER_LAYER
        for p in traced:
            parts = sum(p.layer[k] for k in _STAGE_PARTS)
            if abs(parts - p.layer["listing.enumerate_all.s"]) > 1e-6:
                lines.append("error: stage times do not add up to listing.enumerate_all.s")
                consistent = False
        if spans_dir is not None:
            tracer.dump(spans_dir / f"spans-{workload_name}-seed{seed}.json.gz")

    lines.append(f"{'fail_frac':32s} {failed / attempted:.6g} ratio"
                 f"  ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        lines.append(f"{name:32s} {value:.6g} {units[name]}")
    result = {
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (SetupError, CorpusError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
