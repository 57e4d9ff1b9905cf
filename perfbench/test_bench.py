"""Tests of the benchmark itself, at small budgets.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from reference import CorpusError, load_corpus, table1
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SMALL = {"enum-v8": 6, "oracle-v8": 6, "corpus-v9": 7}


def _bench(workload, trace, tmp_path=None):
    return run.run_benchmark(workload, 3, 0, trace, max_vertices=SMALL[workload],
                             spans_dir=tmp_path)


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_every_metric_printed_with_unit(workload, trace, tmp_path):
    result, lines = _bench(workload, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[2] for line in lines[1:]}
    for name, unit in want.items():
        assert printed[name] == unit
    assert "fail_frac" in printed
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3.json.gz").is_file()


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_state_key_only_in_the_pipeline():
    counts = {w: _bench(w, True)[0]["metrics"]["canon.state_key.calls"]["value"]
              for w in SMALL}
    assert counts["enum-v8"] > 0
    assert counts["oracle-v8"] == 0 and counts["corpus-v9"] == 0


def test_stage_times_add_up_to_enumerate_all():
    m = {k: v["value"] for k, v in _bench("enum-v8", True)[0]["metrics"].items()}
    parts = sum(m[k] for k in run._STAGE_PARTS)
    assert m["listing.enumerate_all.s"] > 0
    assert parts == pytest.approx(m["listing.enumerate_all.s"], abs=1e-6)


def test_traced_run_restores_every_wrapped_attribute():
    ctx = run.setup()
    modules = [m for n, m in sys.modules.items()
               if n == run.PACKAGE or n.startswith(run.PACKAGE + ".")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    init = ctx.pkg.core.Triangulation.__init__
    tracer = Tracer()
    minimal_code = before["surfenum.canon", "minimal_code"]
    with tracer:
        assert ctx.pkg.listing.minimal_code.__wrapped__ is minimal_code
        assert ctx.pkg.oracle.minimal_code.__wrapped__ is minimal_code
        assert ctx.pkg.canon.minimal_code.__wrapped__ is minimal_code
        assert (ctx.pkg.moves.canonical_form.__wrapped__
                is before["surfenum.canon", "canonical_form"])
        ctx.pkg.oracle.brute_force_enumerate(5)
    assert tracer.spans and tracer.triangulations > 0
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert ctx.pkg.core.Triangulation.__init__ is init


def test_corpus_slice_matches_a_fresh_oracle_run():
    ctx = run.setup()
    fresh = ctx.pkg.oracle.brute_force_enumerate(7)
    got = {(v, cls.name): set(codes) for (v, cls), codes in fresh.codes.items() if codes}
    want: dict = {}
    for e in ctx.corpus:
        if e.v <= 7:
            want.setdefault((e.v, e.surface), set()).add(e.code)
    assert got == want
    assert {(v, c.name): (t, r, n) for v, c, t, r, n in fresh.counts.rows()} == table1(7)


def test_corpus_with_a_wrong_checksum_is_refused(tmp_path):
    path = tmp_path / "corpus.tsv"
    data = (run.HERE / "data" / "corpus-v9.tsv").read_bytes()
    path.write_bytes(data.replace(b"\tN\t", b"\tR\t", 1))
    with pytest.raises(CorpusError):
        load_corpus(path)
    # a matching checksum still needs Table 1 counts
    with pytest.raises(CorpusError):
        load_corpus(path, hashlib.sha256(path.read_bytes()).hexdigest())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-v8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no surfenum package" in proc.stderr
