import hashlib
import json
import random
import sys

import pytest

from conftest import (ANNULUS, MOBIUS, RP2_SIX, TETRAHEDRON, THREE_FAN_DISC,
                      torus_grid)
from surfenum.canon import minimal_code
from surfenum.cli import (
    format_counts_table,
    main,
    parse_triangulation_text,
    read_results,
    render_triangulation,
    results_complete,
    write_results,
)
from surfenum.core import PROJECTIVE_PLANE, SPHERE, Triangulation
from surfenum.listing import CountsTable, SearchConfig
from surfenum.oracle import brute_force_enumerate


class TestParsing:
    def test_compact_and_native_agree(self):
        a = parse_triangulation_text("123 124 134 234")
        b = parse_triangulation_text("1,2,3 1,2,4 1,3,4 2,3,4")
        assert a == b

    def test_fixture_strings_parse_in_both_formats(self):
        for compact in (TETRAHEDRON, RP2_SIX, MOBIUS, ANNULUS, THREE_FAN_DISC):
            native = " ".join(",".join(tok) for tok in compact.split())
            assert (parse_triangulation_text(compact)
                    == parse_triangulation_text(native))

    def test_two_digit_label_needs_native_format(self):
        # compact tokens must be exactly three single-digit labels
        with pytest.raises(ValueError):
            parse_triangulation_text("1210 123 124")
        # two-digit labels are fine in the native format
        t = parse_triangulation_text(
            "1,2,3 4,5,6 7,8,9 8,9,10 1,4,7 2,5,8 3,6,10 1,5,9 2,6,7 3,4,8")
        assert t.vertex_count == 10

    def test_syntax_errors(self):
        for bad in ("", "12 123", "1,2 1,2,3", "a,b,c", "0,1,2", "1,1,2"):
            with pytest.raises(ValueError):
                parse_triangulation_text(bad)

    def test_noncontiguous_labels_rejected(self):
        with pytest.raises(ValueError):
            parse_triangulation_text("1,2,3 1,2,5")

    def test_round_trip_on_corpus(self):
        corpus = brute_force_enumerate(7)
        for codes in corpus.codes.values():
            for code in codes:
                assert (parse_triangulation_text(render_triangulation(code))
                        == Triangulation(code))


def count_validate_calls(monkeypatch) -> list:
    """Route every validation in the package through a counter: each runs
    ``core._validate``, from ``validate`` or from a caller with its own
    index; returns the list of triangle tuples it was called with."""
    from surfenum.core import _validate

    calls = []

    def counting(tris, by_edge, by_vertex):
        calls.append(tris)
        return _validate(tris, by_edge, by_vertex)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "surfenum" and vars(mod).get("_validate") is _validate:
            monkeypatch.setattr(mod, "_validate", counting)
    return calls


class TestCountsFormat:
    def test_v4_slice(self):
        table = CountsTable()
        table.add_root(4, SPHERE)
        assert format_counts_table(table).splitlines()[1] == "4\tS2\t1\t1\t0"

    def test_empty_table_is_header_only(self):
        assert format_counts_table(CountsTable()) == "V\tsurface\tT\tR\tN"


class TestPersistence:
    def test_write_read_and_resume(self, tmp_path):
        cfg = SearchConfig(max_vertices=6)
        corpus = brute_force_enumerate(6)
        write_results(tmp_path, cfg, corpus.codes, elapsed=1.0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["max_vertices"] == 6
        assert sum(s["count"] for s in manifest["shards"].values()) == 5
        assert results_complete(tmp_path, cfg)
        assert not results_complete(tmp_path, SearchConfig(max_vertices=7))
        table = read_results(tmp_path)
        assert table == corpus.counts

    def test_read_results_validates_each_line_once(self, tmp_path, monkeypatch):
        write_results(tmp_path, SearchConfig(max_vertices=6),
                      brute_force_enumerate(6).codes, 0.0)
        calls = count_validate_calls(monkeypatch)
        read_results(tmp_path)
        lines = [parse_triangulation_text(line).triangles
                 for p in tmp_path.glob("*.txt") for line in p.read_text().splitlines()]
        # classify validates each line and stores the report, which is_root
        # reads
        assert sorted(calls) == sorted(lines)
        assert len(calls) == 5

    def test_shard_line_not_closed_exits_2(self, tmp_path, capsys):
        write_results(tmp_path, SearchConfig(max_vertices=6),
                      brute_force_enumerate(6).codes, 0.0)
        shard = next(p for p in tmp_path.iterdir() if p.suffix == ".txt")
        tris = parse_triangulation_text(MOBIUS).triangles
        text = render_triangulation(tris) + "\n"
        shard.write_text(text)
        # a manifest that matches the edited shard, so the line reaches classify
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shards"][shard.name]["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        path.write_text(json.dumps(manifest))
        assert main(["counts", str(tmp_path)]) == 2
        assert "classify needs a closed surface" in capsys.readouterr().err

    def test_shard_checksum_mismatch_exits_2(self, tmp_path, capsys):
        write_results(tmp_path, SearchConfig(max_vertices=6),
                      brute_force_enumerate(6).codes, 0.0)
        shard = tmp_path / "v06_S2.txt"
        lines = shard.read_text().splitlines()
        assert len(lines) == 2
        # a cut shard still parses; only its checksum tells it is stale
        shard.write_text(lines[0] + "\n")
        with pytest.raises(ValueError, match="manifest checksum"):
            read_results(tmp_path)
        assert main(["counts", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "v06_S2.txt does not match its manifest checksum" in captured.err

    @staticmethod
    def _rewrite(out_dir, texts, counts=False):
        """Write each shard text of ``texts`` and put its sha256 (and, with
        ``counts``, its line count) in the manifest."""
        path = out_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        for name, text in texts.items():
            (out_dir / name).write_text(text)
            entry = manifest["shards"][name]
            entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            if counts:
                entry["count"] = len(text.splitlines())
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("counts", [False, True])
    def test_misfiled_line_exits_2(self, tmp_path, capsys, counts):
        # one S2 line moved into the RP2 shard of the same vertex count,
        # with both checksums (and, the second time, both counts) made to
        # match: the line differs from its shard's name
        write_results(tmp_path, SearchConfig(max_vertices=6),
                      brute_force_enumerate(6).codes, 0.0)
        s2 = (tmp_path / "v06_S2.txt").read_text().splitlines()
        rp2 = (tmp_path / "v06_RP2.txt").read_text().splitlines()
        self._rewrite(tmp_path, {"v06_S2.txt": s2[1] + "\n",
                                 "v06_RP2.txt": "\n".join(rp2 + s2[:1]) + "\n"},
                      counts)
        capsys.readouterr()
        assert main(["counts", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if counts:
            assert "v06_RP2.txt holds a triangulation of S2 with 6 vertices" in err

    def test_shard_count_mismatch_exits_2(self, tmp_path, capsys):
        write_results(tmp_path, SearchConfig(max_vertices=6),
                      brute_force_enumerate(6).codes, 0.0)
        lines = (tmp_path / "v06_S2.txt").read_text().splitlines()
        self._rewrite(tmp_path, {"v06_S2.txt": lines[0] + "\n"})
        capsys.readouterr()
        assert main(["counts", str(tmp_path)]) == 2
        assert ("v06_S2.txt has 1 lines, its manifest entry counts 2"
                in capsys.readouterr().err)

    def test_shard_name_outside_the_directory_exits_2(self, tmp_path, capsys,
                                                       monkeypatch):
        from surfenum import cli

        # an entry naming a file beside the results directory, with that
        # file's sha256 and line count: refused before any shard is read
        out_dir = tmp_path / "run"
        cfg = SearchConfig(max_vertices=6)
        write_results(out_dir, cfg, brute_force_enumerate(6).codes, 0.0)
        text = (out_dir / "v06_S2.txt").read_text()
        (tmp_path / "outside.txt").write_text(text)
        path = out_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shards"]["../outside.txt"] = {
            "count": 2, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        path.write_text(json.dumps(manifest))
        opened = []
        real_shard_text = cli._shard_text
        monkeypatch.setattr(cli, "_shard_text", lambda out_dir, name, info: (
            opened.append(name) or real_shard_text(out_dir, name, info)))
        assert not results_complete(out_dir, cfg)
        assert main(["counts", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "names '../outside.txt', which is not a shard file" in captured.err
        assert opened == []

    @pytest.mark.parametrize("damage", ["cut", "misfiled"])
    def test_unreadable_results_are_recomputed(self, tmp_path, capsys, damage):
        # checksums made to match: results_complete passes the directory,
        # read_results refuses it, and enum recomputes it
        args = ["enum", "--max-vertices", "7", "--out", str(tmp_path)]
        assert main(args) == 0
        table = capsys.readouterr().out
        s2 = (tmp_path / "v06_S2.txt").read_text().splitlines()
        if damage == "cut":
            self._rewrite(tmp_path, {"v06_S2.txt": s2[0] + "\n"})
        else:
            rp2 = (tmp_path / "v06_RP2.txt").read_text().splitlines()
            self._rewrite(tmp_path, {"v06_S2.txt": s2[1] + "\n",
                                     "v06_RP2.txt": "\n".join(rp2 + s2[:1]) + "\n"},
                          counts=True)
        assert results_complete(tmp_path, SearchConfig(max_vertices=7))
        assert main(["counts", str(tmp_path)]) == 2
        capsys.readouterr()
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == table
        [line] = captured.err.splitlines()
        assert line.startswith(f"results in {tmp_path} are unreadable (")
        assert line.endswith("); recomputing")
        assert main(["counts", str(tmp_path)]) == 0
        assert capsys.readouterr().out == table

    @pytest.mark.parametrize("schema", [None, 1, 3])
    def test_other_manifest_schema_recomputes(self, tmp_path, capsys, schema):
        out_dir = tmp_path / "run"
        assert main(["enum", "--max-vertices", "6", "--out", str(out_dir)]) == 0
        path = out_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        # a manifest with no schema number is one from before it had one
        if schema is None:
            del manifest["config"]["schema"]
        else:
            manifest["config"]["schema"] = schema
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert not results_complete(out_dir, SearchConfig(max_vertices=6))
        assert main(["enum", "--max-vertices", "6", "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "skipping" not in captured.err
        assert "6\tRP2\t1\t1\t0" in captured.out
        assert results_complete(out_dir, SearchConfig(max_vertices=6))

    def test_failed_manifest_move_leaves_no_manifest(self, tmp_path,
                                                     monkeypatch):
        from surfenum import cli

        cfg = SearchConfig(max_vertices=6)
        write_results(tmp_path, SearchConfig(max_vertices=5),
                      brute_force_enumerate(5).codes, 0.0)
        real = cli.os.replace

        def failing(src, dst):
            if dst.name == "manifest.json":
                raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(cli.os, "replace", failing)
        codes = brute_force_enumerate(6).codes
        with pytest.raises(OSError, match="disk full"):
            write_results(tmp_path, cfg, codes, 0.0)
        # the older run's manifest is gone too, so nothing reads as complete
        assert not (tmp_path / "manifest.json").exists()
        assert not results_complete(tmp_path, cfg)
        assert not results_complete(tmp_path, SearchConfig(max_vertices=5))
        # every shard is whole, and no temporary file is left
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "v04_S2.txt", "v05_S2.txt", "v06_RP2.txt", "v06_S2.txt"]
        for (v, cls), bucket in codes.items():
            text = (tmp_path / f"v{v:02d}_{cls.name}.txt").read_text()
            assert text == "\n".join(sorted(
                render_triangulation(code) for code in bucket)) + "\n"

    def test_corrupted_shard_invalidates_resume(self, tmp_path):
        cfg = SearchConfig(max_vertices=6)
        write_results(tmp_path, cfg, brute_force_enumerate(6).codes, 0.0)
        shard = next(p for p in tmp_path.iterdir() if p.suffix == ".txt")
        shard.write_text("1,2,3 1,2,4 1,3,4 2,3,4\n")
        assert not results_complete(tmp_path, cfg)


# valid JSON in the wrong shape, each with the config of a V=6 run
MALFORMED_MANIFESTS = {
    "list": [],
    "no-shards": {"config": {"max_vertices": 6, "specialized": True, "surface": None}},
    "shard-not-object": {
        "config": {"max_vertices": 6, "specialized": True, "surface": None},
        "shards": {"v04_S2.txt": 5},
    },
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_MANIFESTS))
class TestMalformedManifest:
    def write(self, out_dir, shape):
        out_dir.mkdir()
        (out_dir / "v04_S2.txt").write_text("1,2,3 1,2,4 1,3,4 2,3,4\n")
        (out_dir / "manifest.json").write_text(json.dumps(MALFORMED_MANIFESTS[shape]))

    def test_enum_recomputes_and_overwrites(self, tmp_path, capsys, shape):
        out_dir = tmp_path / "run"
        self.write(out_dir, shape)
        assert not results_complete(out_dir, SearchConfig(max_vertices=6))
        assert main(["enum", "--max-vertices", "6", "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "skipping" not in captured.err
        assert "6\tRP2\t1\t1\t0" in captured.out
        assert results_complete(out_dir, SearchConfig(max_vertices=6))

    def test_counts_exits_2(self, tmp_path, capsys, shape):
        out_dir = tmp_path / "run"
        self.write(out_dir, shape)
        with pytest.raises(ValueError, match="not a results manifest"):
            read_results(out_dir)
        assert main(["counts", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCommands:
    def test_validate_classify_canon_root(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("123 124 134 235 245 345")
        assert main(["validate", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "ClosedSurface"
        assert main(["classify", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "S2"
        assert main(["root", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "1,2,3 1,2,4 1,3,4 2,3,4"
        assert main(["canon", str(f)]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_triangulation_text(out).triangles == minimal_code(
            parse_triangulation_text(f.read_text()).triangles)

    @pytest.mark.parametrize("text, expected", [
        # the output at a commit that rendered a Triangulation built around
        # the code, byte for byte
        ("123 124 134 235 245 345", "1,2,3 1,2,4 1,3,5 1,4,5 2,3,4 3,4,5\n"),
        (MOBIUS, "1,2,3 1,2,4 1,3,5 2,4,5 3,4,5\n"),
        ("1,3,5 1,3,6 1,4,5 1,4,6 2,3,5 2,3,6 2,4,5 2,4,6",
         "1,2,3 1,2,4 1,3,5 1,4,5 2,3,6 2,4,6 3,5,6 4,5,6\n"),
    ], ids=["sphere", "mobius", "octahedron"])
    def test_canon_output_bytes(self, text, expected, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text(text)
        assert main(["canon", str(f)]) == 0
        out = capsys.readouterr().out
        assert out == expected
        code = minimal_code(parse_triangulation_text(text).triangles)
        assert out == render_triangulation(code) + "\n"

    def test_validate_nonsurface_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("123 124 125")
        assert main(["validate", str(f)]) == 1
        assert "NotASurface" in capsys.readouterr().out

    def test_classify_validates_once(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "t.txt"
        f.write_text(RP2_SIX)
        calls = count_validate_calls(monkeypatch)
        assert main(["classify", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "RP2"
        assert len(calls) == 1

    def test_classify_builds_one_edge_index(self, tmp_path, capsys, monkeypatch):
        # core.classify builds it for the validation of a fresh input and
        # reads the class off the report; the command calls core.classify
        from surfenum import core

        builds = []
        real = core.build_index

        def counting(tris):
            builds.append(tris)
            return real(tris)

        monkeypatch.setattr(core, "build_index", counting)
        t = parse_triangulation_text(RP2_SIX)
        assert core.classify(t).name == "RP2"
        assert len(builds) == 1
        # on a stored report classify is chi = V - T/2 and the recorded
        # orientability, with no edge index (one when it walked again)
        core.validate(t)
        assert core.classify(t).name == "RP2"
        assert len(builds) == 1
        f = tmp_path / "t.txt"
        f.write_text(RP2_SIX)
        assert main(["classify", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "RP2"
        assert len(builds) == 2

    def test_classify_rejects_bounded_input(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(MOBIUS)
        assert main(["classify", str(f)]) == 1
        assert capsys.readouterr().err.startswith(
            "classify needs a closed surface, got ")

    @pytest.mark.parametrize("command", ["canon", "root"])
    def test_large_torus_grid_labels(self, command, tmp_path, capsys):
        # 1,250 triangles: the canonical search takes a forced step in a
        # loop, so its depth does not grow with the number of triangles
        tris = torus_grid(25)
        f = tmp_path / "grid.txt"
        f.write_text(render_triangulation(tris))
        assert main([command, str(f)]) == 0
        out = capsys.readouterr().out.strip()
        # no vertex is removable, so the root is the grid's canonical form
        assert parse_triangulation_text(out).triangles == minimal_code(tris)

    def test_large_torus_grid_relabeled(self, tmp_path, capsys):
        tris = torus_grid(25)
        labels = list(range(1, 626))
        random.Random(2507).shuffle(labels)
        f, g = tmp_path / "grid.txt", tmp_path / "relabeled.txt"
        f.write_text(render_triangulation(tris))
        g.write_text(render_triangulation(
            [tuple(labels[v - 1] for v in t) for t in tris]))
        assert main(["canon", str(f)]) == 0
        first = capsys.readouterr().out
        assert main(["canon", str(g)]) == 0
        assert capsys.readouterr().out == first

    def test_deep_branching_exits_2(self, tmp_path, capsys):
        # a chain of 300 triangles joined at single vertices: every step
        # labels two fresh vertices, so each branches and the search
        # recurses once per triangle, deeper than the lowered limit allows
        f = tmp_path / "chain.txt"
        f.write_text(render_triangulation(
            [(2 * i + 1, 2 * i + 2, 2 * i + 3) for i in range(300)]))
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            assert main(["canon", str(f)]) == 2
        finally:
            sys.setrecursionlimit(limit)
        assert capsys.readouterr().err == (
            "error: 300 triangles are too many to label: the canonical "
            "search recurses once per branching step\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty triangulation text"),
        ("123 12", "triangle '12' does not have three vertices"),
        ("1,2,x 1,2,3", "triangle '1,2,x' has a non-numeric vertex"),
        ("1,2,3 0,1,2", "triangle '0,1,2' has a label below 1"),
        ("123 112", "degenerate triangle (1, 1, 2)"),
        ("123 124 321", "duplicate triangle (1, 2, 3)"),
        ("123 125", "vertex labels must be contiguous 1..V"),
    ])
    def test_parse_error_messages(self, tmp_path, capsys, text, message):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        assert main(["validate", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("not a triangulation")
        assert main(["classify", str(f)]) == 2

    def test_enum_with_persistence_and_counts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["enum", "--max-vertices", "6", "--out", str(out_dir)]) == 0
        first = capsys.readouterr().out
        assert "6\tRP2\t1\t1\t0" in first
        # second run resumes from the manifest instead of recomputing
        assert main(["enum", "--max-vertices", "6", "--out", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert "skipping" in captured.err
        assert main(["counts", str(out_dir)]) == 0
        assert "6\tRP2\t1\t1\t0" in capsys.readouterr().out

    def test_enum_surface_filter(self, capsys):
        assert main(["enum", "--max-vertices", "6", "--surface", "RP2"]) == 0
        out = capsys.readouterr().out
        assert "RP2" in out and "S2" not in out

    def test_oracle_and_crosscheck(self, capsys):
        assert main(["oracle", "--max-vertices", "5"]) == 0
        assert "5\tS2\t1\t0\t1" in capsys.readouterr().out
        assert main(["crosscheck", "--max-vertices", "6"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_crosscheck_prints_each_mismatch(self, monkeypatch, capsys):
        from surfenum import cli
        from surfenum.oracle import CrossCheckReport

        tetra = parse_triangulation_text(TETRAHEDRON).triangles
        rp2 = parse_triangulation_text(RP2_SIX).triangles
        report = CrossCheckReport(
            equal=False, total=1,
            missing={(4, SPHERE): {tetra}},
            extra={(6, PROJECTIVE_PLANE): {rp2}})
        monkeypatch.setattr(cli, "cross_validate", lambda *args, **kwargs: report)
        assert main(["crosscheck", "--max-vertices", "6"]) == 1
        assert capsys.readouterr().out == (
            "cross-check FAILED: 1 missing from the pipeline, "
            "1 not found by the oracle\n"
            "missing\t4\tS2\t1,2,3 1,2,4 1,3,4 2,3,4\n"
            "extra\t6\tRP2\t1,2,3 1,2,4 1,3,5 1,4,6 1,5,6 2,3,6 2,4,5 "
            "2,5,6 3,4,5 3,4,6\n")


@pytest.fixture
def no_work(monkeypatch):
    # a bad count or budget must be rejected before the oracle or the
    # pipeline runs
    from surfenum import cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the argument check")

    monkeypatch.setattr(cli, "brute_force_enumerate", must_not_run)
    monkeypatch.setattr(cli, "cross_validate", must_not_run)
    monkeypatch.setattr(cli, "enumerate_all", must_not_run)


class TestBudgets:
    @pytest.mark.parametrize("command", ["enum", "oracle", "crosscheck"])
    @pytest.mark.parametrize("value", ["-1", "2"])
    def test_budget_below_three_exits_2(self, command, value, capsys, no_work):
        assert main([command, "--max-vertices", value]) == 2
        assert (f"--max-vertices must be at least 3, got {value}"
                in capsys.readouterr().err)

    def test_cross_validate_checks_the_budget_first(self, monkeypatch):
        from surfenum import oracle

        def must_not_run(*args, **kwargs):
            raise AssertionError("the oracle ran before the budget check")

        monkeypatch.setattr(oracle, "brute_force_enumerate", must_not_run)
        with pytest.raises(ValueError, match="at least 3"):
            oracle.cross_validate(2)


class TestOutDirectory:
    def test_enum_bad_out_path_exits_2_before_the_enumeration(
            self, tmp_path, capsys, no_work):
        path = tmp_path / "file"
        path.write_text("")
        assert main(["enum", "--max-vertices", "8", "--out", str(path)]) == 2
        assert "File exists" in capsys.readouterr().err


class TestWorkerCounts:

    @pytest.mark.parametrize("command", ["enum", "oracle", "crosscheck"])
    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_flag_value_exits_2(self, command, value, capsys, no_work):
        assert main([command, "--max-vertices", "5", "--workers", value]) == 2
        err = capsys.readouterr().err
        assert "--workers" in err and value in err

    @pytest.mark.parametrize("command", ["enum", "oracle", "crosscheck"])
    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_environment_value_exits_2(self, command, value, capsys,
                                           monkeypatch, no_work):
        monkeypatch.setenv("SURFENUM_WORKERS", value)
        assert main([command, "--max-vertices", "5"]) == 2
        err = capsys.readouterr().err
        assert "SURFENUM_WORKERS" in err and value in err

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SURFENUM_WORKERS", "abc")
        assert main(["oracle", "--max-vertices", "5", "--workers", "1"]) == 0
        assert "5\tS2\t1\t0\t1" in capsys.readouterr().out
