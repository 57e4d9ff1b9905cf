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


def _functions(path) -> dict:
    """Name -> node of each module-level function of ``path``, and
    ``Class.name`` -> node of each method of a module-level class."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{f.name}", f) for f in node.body
                       if isinstance(f, ast.FunctionDef))
    return out


def _called(node) -> set:
    """The names called anywhere in ``node``, as ``f(...)`` or ``x.f(...)``."""
    return {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_only_link_ends_builds_a_link_graph():
    # validation walks each vertex star over the edge index; both growth
    # searches test a link with core.link_after on the path ends that
    # core.link_ends gives for their start state and core.link_with updates,
    # so no other code builds a link
    callers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for name, function in _functions(path).items():
            if "link_ends" in _called(function):
                callers.add((path.stem, name))
    assert callers == {("listing", "_GenusSurfaceSearch.run"),
                       ("oracle", "_enumerate_with_max_valence")}
    assert "link_graph" not in _functions(PACKAGE_DIR / "core.py")


def test_oracle_growth_uses_nothing_from_listing():
    # the oracle's growth shares core predicates and canon's isomorph filter
    # with the pipeline, and nothing of listing's
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    from_listing = {a.asname or a.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.module == "listing"
                    for a in node.names}
    assert "enumerate_all" in from_listing
    functions = _functions(PACKAGE_DIR / "oracle.py")
    for name in ("_children", "_enumerate_with_max_valence"):
        used = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert not used & from_listing, name


GROWTH_CHILDREN = (("oracle", "_children"),
                   ("listing", "_GenusSurfaceSearch.children"))


def test_growth_children_copy_indices_through_with_triangle():
    # a child's edge and vertex indices and boundary links are its
    # parent's, copied with the new triangle added by core.with_triangle,
    # in both growth searches
    for module, name in GROWTH_CHILDREN:
        called = _called(_functions(PACKAGE_DIR / f"{module}.py")[name])
        assert "with_triangle" in called, name
        assert not called & {"dict", "copy"}, name


def test_growth_children_build_no_link_and_no_ranks():
    # a state carries its boundary vertices' links and its vertex ranks, and
    # a child updates its parent's round the new triangle or frozen edge
    for module, name in GROWTH_CHILDREN:
        called = _called(_functions(PACKAGE_DIR / f"{module}.py")[name])
        assert not called & {"link_ends", "_vertex_ranks"}, name


def test_only_boundary_cycles_walks_closed_cycles():
    # a genus-search freeze child whose edge closes a cycle takes it from
    # its own walk of the frozen path, so the walk of closed_cycles is left
    # to the boundary of a finished complex
    callers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for name, function in _functions(path).items():
            if "closed_cycles" in _called(function):
                callers.add((path.stem, name))
    assert callers == {("core", "boundary_cycles")}


INDEX_BUILDERS = ("build_index", "vertex_triangles")


def _index_builds(functions) -> list:
    """(function, builder, whether inside a loop) for each call of an index
    builder of ``core`` in ``functions``."""
    builds = []
    for function in functions:
        if not isinstance(function, ast.FunctionDef):
            continue
        in_loop = {id(n) for loop in ast.walk(function)
                   if isinstance(loop, (ast.For, ast.While))
                   for n in ast.walk(loop)}
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in INDEX_BUILDERS):
                builds.append((function.name, node.func.id, id(node) in in_loop))
    return sorted(builds)


def test_search_builds_its_indices_once():
    # a search state's index is its parent's, updated round the new
    # triangle: children builds none, and run builds one, for the start
    # triangle, outside its loop
    tree = ast.parse((PACKAGE_DIR / "listing.py").read_text())
    search = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                  and n.name == "_GenusSurfaceSearch")
    assert _index_builds(search.body) == [("run", "build_index", False)]


def test_oracle_builds_its_growth_indices_once_per_task():
    # an oracle growth state carries its parent's index, updated round the
    # new triangle: _children builds none, and each valence task builds one,
    # for its m-fan, outside its loop; a new closed leaf is validated on its
    # carried index, so the loop builds none
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    growth = [n for n in tree.body if isinstance(n, ast.FunctionDef)
              and n.name in ("_children", "_enumerate_with_max_valence")]
    assert len(growth) == 2
    assert _index_builds(growth) == [
        ("_enumerate_with_max_valence", "build_index", False)]


def test_one_index_builder_for_labeling_and_growth():
    # core.build_index is the package's one edge index, which validation,
    # the surface classes, the decomposition pieces, the canonical labeling
    # and both growth searches read: validate builds it from its input, as
    # do the public keys, the discs (whose growth reads the Disc's own
    # valences, rim and chords), the genus-surfaces (once for their
    # boundary cycles and capped class) and the gluing bases; the searches
    # once per start state and genus_surface_admissible for its valence and
    # boundary tests.  surface_class and boundary_cycles take it.
    # Isomorphs.add hands an arriving state's carried index to the
    # certificate and builds none; the kernels build none either
    callers = set()
    defined = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for name, function in _functions(path).items():
            defined.add(name)
            if "build_index" in _called(function):
                callers.add((path.stem, name))
    assert callers == {("core", "validate"),
                       ("canon", "minimal_code"), ("canon", "flag_key"),
                       ("listing", "Disc.from_triangles"),
                       ("listing", "GenusSurface.from_triangles"),
                       ("listing", "genus_surface_admissible"),
                       ("listing", "_roots_from_genus_surface"),
                       ("listing", "_GenusSurfaceSearch.run"),
                       ("oracle", "_enumerate_with_max_valence")}
    # no second edge index, valence map or link-graph helper
    assert not defined & {"edge_triangles", "valences", "link_graph"}
    canon = _functions(PACKAGE_DIR / "canon.py")
    assert "carried" in _called(canon["Isomorphs.add"])
    for name in ("Isomorphs.add", "_minimal_code", "_flag_key", "_search",
                 "_flag_walk"):
        assert not _called(canon[name]) & {*INDEX_BUILDERS, "_vertex_ranks"}, name


def test_only_the_disc_grower_builds_discs():
    # every Disc, the extra discs too, is a grown disc's minimal code with
    # the automorphisms of its witnesses; GenusSurface.from_triangles is
    # another method of the same name
    callers = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for name, function in _functions(path).items():
            if any(isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "from_triangles"
                   and getattr(n.func.value, "id", None) == "Disc"
                   for n in ast.walk(function)):
                callers.add((path.stem, name))
    assert callers == {("listing", "_grow_discs")}


# module-level names that only tests use, each with the test that uses it:
# the two checked moves on a Triangulation; the pipeline cones with the
# unchecked kernel behind t_move, and compute_root removes vertices itself
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
