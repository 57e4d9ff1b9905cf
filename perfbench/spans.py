"""In-memory span tracing of the package's public functions.

``Tracer.install`` wraps every public function defined in the traced
modules and rebinds each wrapped name in *every* package module that holds
the original: ``from .canon import minimal_code`` copies the binding, so
rewrapping ``canon.minimal_code`` alone would miss ``listing`` and
``oracle``.  ``Triangulation`` constructions are counted (not timed) by
patching ``__init__`` on the class.  ``uninstall`` puts every original
object back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "surfenum"
TRACED_MODULES = ("core", "canon", "moves", "listing", "oracle", "cli")

# listing pipeline stages and the oracle, by the function that runs them
STAGES = {
    "listing.enumerate_all": "enumerate_all",
    "listing.enumerate_main_discs": "main_discs",
    "listing.enumerate_spheres": "spheres",
    "listing.enumerate_genus_surfaces": "genus_search",
    "listing.enumerate_roots": "gluing",
    "listing.enumerate_nonroots": "nonroots",
    "oracle.brute_force_enumerate": "oracle",
}

# functions whose result size is recorded (sets or dicts of sets)
_SIZED = {
    "listing.enumerate_spheres": len,
    "listing.enumerate_genus_surfaces": len,
    "listing.enumerate_nonroots": len,
    "listing.enumerate_roots": lambda r: sum(len(c) for c in r.values()),
    "oracle.brute_force_enumerate": lambda r: sum(len(c) for c in r.codes.values()),
}

# parent buckets for the minimal_code time split
MINIMAL_CODE_PARENTS = ("state_key", "canonical_form", "main_discs", "spheres",
                        "genus_search", "gluing", "nonroots", "oracle", "other")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[int, int] = {}
        self.triangulations = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size = _SIZED.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if size is not None:
                sizes[idx] = size(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def targets(self) -> dict[str, tuple[object, str, object]]:
        """``module.function`` -> (defining module, attribute, function) for
        every public function defined in a traced module."""
        out = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if inspect.isgeneratorfunction(obj):
                    raise TypeError(f"{short}.{attr} is a generator; a span would end early")
                out[f"{short}.{attr}"] = (mod, attr, obj)
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, (_m, _a, fn) in self.targets().items()}
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)
        cls = sys.modules[f"{PACKAGE}.core"].Triangulation
        init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.triangulations += 1
            init(obj, *args, **kwargs)

        self._saved.append((cls, "__init__", init))
        cls.__init__ = counted_init

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write every span as gzipped JSON: a name table plus rows of
        ``[name index, start, end, parent]``."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), s, e, p]
                for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"names": list(names), "spans": rows,
                       "sizes": self.sizes}, fh)


def layer_metrics(spans: list[list], sizes: dict[int, int], first: int = 0) -> dict[str, float]:
    """Per-layer numbers of the spans ``spans[first:]`` (one traced pass).

    ``X.s`` is the total time in X and ``X.self_s`` the span minus its
    child spans.  For the listing stages that nest other stages
    (``enumerate_all``; ``enumerate_roots``, whose own work is the gluing;
    ``enumerate_spheres``) the children subtracted are the nested stage
    spans only, so a stage keeps the kernel calls it makes and
    ``main_discs.s + spheres.self_s + genus_search.s + gluing.self_s +
    nonroots.s + enumerate_all.self_s`` adds up to ``enumerate_all.s``.
    The genus search and the oracle nest no stage; their ``self_s``
    excludes their kernel calls, leaving their own bookkeeping.
    """
    stage: list[str | None] = []
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    stage_time: dict[str, float] = defaultdict(float)
    per_stage_calls: dict[tuple[str, str], int] = defaultdict(int)
    mc_split: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans[first:]:
        d = end - start
        calls[name] += 1
        total[name] += d
        self_time[name] += d
        enclosing = None
        if parent >= first:
            self_time[spans[parent][0]] -= d
            enclosing = stage[parent - first]
        own = STAGES.get(name)
        stage.append(own or enclosing)
        if own is not None:
            stage_time[own] += d
            if enclosing is not None:
                stage_time[enclosing] -= d
        per_stage_calls[name, stage[-1] or "other"] += 1
        if name == "canon.minimal_code":
            direct = spans[parent][0] if parent >= first else None
            if direct in ("canon.state_key", "canon.canonical_form"):
                bucket = direct.split(".")[1]
            else:
                bucket = stage[-1] if stage[-1] in MINIMAL_CODE_PARENTS else "other"
            mc_split[bucket] += d
    size_total: dict[str, int] = defaultdict(int)
    for i, s in sizes.items():
        if i >= first:
            size_total[spans[i][0]] += s

    m: dict[str, float] = {}
    for fn in ("canon.state_key", "canon.minimal_code", "canon.canonical_form",
               "core.validate", "core.classify", "core.link_shape",
               "moves.t_move", "moves.compute_root"):
        m[f"{fn}.calls"] = calls[fn]
        m[f"{fn}.s"] = total[fn]
    for bucket in MINIMAL_CODE_PARENTS:
        m[f"canon.minimal_code.{bucket}.s"] = mc_split[bucket]
    m["listing.enumerate_all.s"] = total["listing.enumerate_all"]
    m["listing.enumerate_all.self_s"] = stage_time["enumerate_all"]
    m["listing.main_discs.calls"] = calls["listing.enumerate_main_discs"]
    m["listing.main_discs.s"] = stage_time["main_discs"]
    m["listing.spheres.self_s"] = stage_time["spheres"]
    states = per_stage_calls["canon.state_key", "genus_search"]
    candidates = size_total["listing.enumerate_genus_surfaces"]
    m["listing.genus_search.s"] = stage_time["genus_search"]
    m["listing.genus_search.self_s"] = self_time["listing.enumerate_genus_surfaces"]
    m["listing.genus_search.states"] = states
    m["listing.genus_search.candidates"] = candidates
    m["listing.genus_search.keep_ratio"] = candidates / states if states else 0.0
    hits = per_stage_calls["canon.minimal_code", "gluing"]
    glued = size_total["listing.enumerate_roots"] - size_total["listing.enumerate_spheres"]
    m["listing.gluing.self_s"] = stage_time["gluing"]
    m["listing.gluing.root_hits"] = hits
    m["listing.gluing.roots"] = glued
    m["listing.gluing.distinct_ratio"] = glued / hits if hits else 0.0
    moves = per_stage_calls["moves.t_move", "nonroots"]
    found = size_total["listing.enumerate_nonroots"]
    m["listing.nonroots.calls"] = calls["listing.enumerate_nonroots"]
    m["listing.nonroots.s"] = stage_time["nonroots"]
    m["listing.nonroots.found"] = found
    m["listing.nonroots.distinct_ratio"] = found / moves if moves else 0.0
    o_states = per_stage_calls["canon.minimal_code", "oracle"]
    leaves = size_total["oracle.brute_force_enumerate"]
    m["oracle.s"] = total["oracle.brute_force_enumerate"]
    m["oracle.self_s"] = self_time["oracle.brute_force_enumerate"]
    m["oracle.states"] = o_states
    m["oracle.leaf_ratio"] = leaves / o_states if o_states else 0.0
    for fn in ("write_results", "results_complete", "read_results"):
        m[f"cli.{fn}.s"] = total[f"cli.{fn}"]
    return m
