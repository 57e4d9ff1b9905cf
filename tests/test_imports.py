"""Import hygiene: no linter runs on the package, so this is the guard
against module-level imports that nothing uses and module-level functions
and classes that nothing in the package uses."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "surfenum"
# __init__.py imports only to re-export
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def test_modules_found():
    assert {p.name for p in MODULES} >= {"canon.py", "cli.py", "core.py",
                                         "listing.py", "moves.py", "oracle.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def test_pipeline_and_oracle_import_no_triangulation():
    # the stages and the oracle pass triangle tuples; a Triangulation is
    # built from outside input and around a public function's result
    for name in ("listing", "oracle"):
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
        imported = {a.asname or a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for a in node.names}
        assert "Triangulation" not in imported, name


def test_link_shape_is_called_only_from_the_oracle():
    # validation walks each vertex star once over the edge index; a link
    # graph per vertex is built only for the oracle's growth test
    callers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "link_shape":
                    callers.add(path.stem)
    assert callers == {"oracle"}


def _index_builds(functions) -> list:
    """(function, builder, whether inside a loop) for each ``edge_triangles``
    or ``vertex_triangles`` call in ``functions``."""
    builds = []
    for function in functions:
        if not isinstance(function, ast.FunctionDef):
            continue
        in_loop = {id(n) for loop in ast.walk(function)
                   if isinstance(loop, (ast.For, ast.While))
                   for n in ast.walk(loop)}
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("edge_triangles",
                                                           "vertex_triangles")):
                builds.append((function.name, node.func.id, id(node) in in_loop))
    return sorted(builds)


def test_search_builds_its_indices_once():
    # a search state's edge and vertex indices are its parent's, updated
    # round the new triangle: children builds neither, and run builds one
    # of each, for the start triangle, outside its loop
    tree = ast.parse((PACKAGE_DIR / "listing.py").read_text())
    search = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                  and n.name == "_GenusSurfaceSearch")
    assert _index_builds(search.body) == [("run", "edge_triangles", False),
                                          ("run", "vertex_triangles", False)]


def test_oracle_builds_its_growth_indices_once_per_task():
    # an oracle growth state carries its parent's indices, updated round the
    # new triangle: _children builds neither, and each valence task builds
    # one of each, for its m-fan, outside its loop
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    growth = [n for n in tree.body if isinstance(n, ast.FunctionDef)
              and n.name in ("_children", "_enumerate_with_max_valence")]
    assert len(growth) == 2
    assert _index_builds(growth) == [
        ("_enumerate_with_max_valence", "edge_triangles", False),
        ("_enumerate_with_max_valence", "vertex_triangles", False)]


# module-level names that only tests use, each with the test that uses it:
# the two checked moves on a Triangulation; the pipeline runs the unchecked
# kernels behind them on triangle lists
TEST_ONLY_NAMES = {
    "inverse_t_move": "test_moves.py::TestTMove::test_round_trip",
    "t_move": "test_moves.py::TestTMove::test_five_vertex_sphere",
}


def test_every_module_level_name_is_used():
    trees = [ast.parse(p.read_text()) for p in PACKAGE_DIR.glob("*.py")]
    used = set()
    exported = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(defined - used - exported) == sorted(TEST_ONLY_NAMES)


@pytest.mark.parametrize("name", sorted(TEST_ONLY_NAMES))
def test_test_only_names_are_used_by_their_tests(name):
    path, _cls, test = TEST_ONLY_NAMES[name].split("::")
    text = (Path(__file__).resolve().parent / path).read_text()
    body = text[text.index(f"def {test}("):].split("\n    def ", 1)[0]
    assert f"{name}(" in body


def _slot_writes(node):
    """(slot, value node) for an attribute store or a ``setattr`` or
    ``object.__setattr__`` call with a constant name; else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr, None
    if (isinstance(node, ast.Call) and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)
            and (getattr(node.func, "attr", None) == "__setattr__"
                 or getattr(node.func, "id", None) == "setattr")):
        return node.args[1].value, node.args[2]
    return None


def test_stored_answers_have_one_writer_each():
    # a Triangulation keeps its validation report and its canonical code:
    # __init__ sets both to None, only core stores a report and only
    # canon.canonical_form a code
    writers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                write = _slot_writes(node)
                if write is None or write[0] not in ("_report", "_code"):
                    continue
                slot, value = write
                if isinstance(value, ast.Constant) and value.value is None:
                    slot += " = None"
                writers.add((path.stem, top.name, slot))
    assert writers == {
        ("core", "Triangulation", "_report = None"),
        ("core", "Triangulation", "_code = None"),
        ("core", "validate", "_report"),
        ("canon", "canonical_form", "_code"),
    }
