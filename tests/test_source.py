"""Rules checked on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quandles"


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_package():
    # python -O strips asserts, so no check may ride on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _name(node: ast.AST) -> str | None:
    """The name a node itself binds or reads, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return None


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        name = _name(node)
        if name is not None:
            yield name


def test_no_tuple_permutation_layer_in_package():
    # Permutations are int32 rows; the tuple helpers live in tests/oracles.py.
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _names(_tree(path))
        if name in {"compose", "inverse", "identity_perm", "Perm"}
    ]
    assert found == []


def _is_tuple_map_tuple(node: ast.AST) -> bool:
    def call_of(n, name):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == name)

    return (call_of(node, "tuple") and node.args and call_of(node.args[0], "map")
            and node.args[0].args and isinstance(node.args[0].args[0], ast.Name)
            and node.args[0].args[0].id == "tuple")


def test_no_tuple_table_views_in_package():
    # Tables and permutation sets are int32 arrays; tuple views of them
    # live in tests/oracles.py.  (Translations.table, D's composition
    # array, is not a view, so only these classes' own names are checked.)
    banned = {"Quandle": {"table", "op", "row"}, "PermGroup": {"elements"}}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if _is_tuple_map_tuple(node):
                found.append(f"{path.name}:{node.lineno}: tuple(map(tuple, ...))")
            if isinstance(node, ast.ClassDef) and node.name in banned:
                found += [
                    f"{path.name}: {node.name}.{name}"
                    for name in _names(node)
                    if name in banned[node.name]
                ]
    assert found == []


def test_row_keys_only_in_core():
    # Sets of int32 rows are numbered and looked up by core.RowSet, the
    # growing element set of perms.closure too.  Anywhere else a reference
    # to _row_keys is a second copy of RowSet.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "core.py"
        for node in ast.walk(_tree(path)) if _name(node) == "_row_keys"
    ]
    assert found == []


def test_group_axioms_checked_only_in_verify_cover():
    # Every group the package builds is a group by construction, so the
    # one call of check_abelian_table is claim 1 of verify_cover, on the
    # cover's distinct factor tables (cover._group_witness).
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        allowed = set()
        if path.name == "cover.py":
            allowed = {
                id(node)
                for top in tree.body
                if getattr(top, "name", None) in {"verify_cover", "_group_witness"}
                for node in ast.walk(top)
            }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) == "check_abelian_table"
            and id(node) not in allowed
        ]
    assert found == []


def test_quandle_rows_numbered_only_by_quandle_rows():
    # Q's left translations have one numbering, the cached Quandle.rows; a
    # RowSet over an .array elsewhere would sort them again.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        allowed = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Quandle"
            for method in cls.body
            if getattr(method, "name", None) == "rows"
            for node in ast.walk(method)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _name(node.func) == "RowSet"
            and id(node) not in allowed
            and any(isinstance(sub, ast.Attribute) and sub.attr == "array"
                    for arg in node.args for sub in ast.walk(arg))
        ]
    assert found == []


def test_translations_have_one_base_point():
    # D is read at base point 0, which every verdict allows (relabeling by
    # the transposition (0 e) carries D at e to D at 0), so no function
    # takes a base point e and every Translations call passes Q alone.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                found += [f"{path.name}:{node.lineno}: parameter e"
                          for p in params if p is not None and p.arg == "e"]
            if (isinstance(node, ast.Call) and _name(node.func) == "Translations"
                    and len(node.args) + len(node.keywords) != 1):
                found.append(f"{path.name}:{node.lineno}: Translations call")
    assert found == []


def _sites(match) -> list[str]:
    """module.function of every node for which match holds, named by the
    top-level definition around it (module-level code by its line)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in _tree(path).body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            found += [where for node in ast.walk(top) if match(node)]
    return found


def test_only_outside_input_is_checked_and_only_the_cover_certified():
    # Tables and meshes from outside are checked where they come in; what
    # the package builds from checked parts (Aff(A, f), mesh sums,
    # quotients, subquandles, the worst-case meshes) is valid by
    # construction, and the cover alone is certified, by verify_cover.
    def call_of(name):
        return lambda node: isinstance(node, ast.Call) and _name(node.func) == name

    def raise_of(name):
        return lambda node: (isinstance(node, ast.Raise) and node.exc is not None
                             and _name(getattr(node.exc, "func", node.exc)) == name)

    assert _sites(call_of("_validated")) == ["core.validate_quandle", "iofmt.parse_quandle"]
    assert sorted(_sites(call_of("_validated_mesh"))) == ["iofmt.parse_mesh", "mesh.validate_mesh"]
    assert _sites(raise_of("InternalAssertionFailure")) == ["cover.build_cover"]
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in ("unchecked_quandle", "FULL_VALIDATE_LIMIT")
        if name in path.read_text()
    ]
    assert found == []


def test_one_mesh_constructor():
    # A mesh is its arrays: AffineMesh.from_arrays takes (groups, P, C), for
    # the nested cells validate_mesh converts, the cells a mesh file names
    # and the worst-case family's zero maps alike.
    def call_of(node):
        return isinstance(node, ast.Call) and _name(node.func) == "from_arrays"

    assert sorted(_sites(call_of)) == [
        "iofmt.parse_mesh", "mesh.generate_max_mesh", "mesh.validate_mesh"]


def test_one_homomorphism_check():
    # core._hom_failure is the one check that a map is a homomorphism
    # between tables: L_a of Q's table, f of A's addition table, a mesh's
    # phi[i][j] between A_i's and A_j's, and an isomorphism candidate.
    def call_of(node):
        return isinstance(node, ast.Call) and _name(node.func) == "_hom_failure"

    assert sorted(_sites(call_of)) == [
        "core._validated", "core.is_isomorphic", "groups.validate_automorphism",
        "mesh._check_homomorphisms"]
    # _validated decides on the row classes (core._class_map) and calls
    # _hom_failure only for the witness of a failing row, inside the raise
    validated = next(top for top in _tree(SRC / "core.py").body
                     if getattr(top, "name", None) == "_validated")
    in_raise = {id(node) for top in ast.walk(validated) if isinstance(top, ast.Raise)
                for node in ast.walk(top)}
    calls = [node for node in ast.walk(validated) if call_of(node)]
    assert calls and all(id(node) in in_raise for node in calls)


def test_one_writer_of_affine_tables():
    # Aff(A, f) text is written from (A, f) by iofmt.write_affine, which
    # builds neither the |A|^2 table nor its row numbering: the affine
    # command and the cover's table file both use it.
    def call_of(name):
        return lambda node: isinstance(node, ast.Call) and _name(node.func) == name

    def read_of(name):
        return lambda node: _name(node) == name and not isinstance(node, ast.FunctionDef)

    assert sorted(_sites(call_of("_write_table"))) == [
        "iofmt.write_affine", "iofmt.write_quandle"]
    assert sorted(_sites(read_of("write_affine"))) == ["cli.cmd_affine", "cli.cmd_cover"]
    assert _sites(call_of("make_affine")) == ["cover.CoverResult"]   # .cover
    assert [f"{path.name}: write_cover_table" for path in sorted(SRC.glob("*.py"))
            if "write_cover_table" in path.read_text()] == []


def test_test_only_helpers_stay_deleted():
    # Names that only tests called; tests read the primitives instead
    # (g.add[a, b], g.neg[a], f.images, Partition.from_blocks, g.array).
    # AffineMesh.from_cells, which assembled a mesh from k^2 per-cell maps,
    # gave way to from_arrays.
    gone = {"add_el", "neg_el", "sub_el", "element_tuple", "inverse_images",
            "singleton_partition", "fiber_partition", "identity_automorphism",
            "image_of_one_minus_f", "from_cells"}
    gone_from = {"Quandle": {"elements", "ldiv_table"},
                 "PermGroup": {"__contains__", "_rows"},
                 "Translations": {"blocks"}, "GroupAutomorphism": {"__call__"}}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        found += [f"{path.name}: {name}" for name in _names(tree) if name in gone]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in gone_from:
                found += [f"{path.name}: {cls.name}.{name}"
                          for name in _names(cls) if name in gone_from[cls.name]]
    assert found == []


def test_each_search_and_builder_exists_once():
    # core._reach is the one frontier search (subgroup of a table,
    # subquandle closure, core._generators) and core._generators the one
    # greedy generator walk (a group table's generating set, the row classes
    # that validation checks, the generators whose images the isomorphism
    # search chooses, with no per-element fits test), ProductGroup.add the
    # one product table builder, and core._partition the one
    # labels-to-Partition step:
    # Partition.from_blocks checks blocks from outside only.  A mesh's
    # maps are checked at generators, their witness taken from
    # core._hom_failure, and (M3) shares its fiber rescan
    # (mesh._first_failing_fiber): no all-pairs scan or witness search of
    # the mesh's own.
    def call_of(name):
        return lambda node: isinstance(node, ast.Call) and _name(node.func) == name

    assert sorted(_sites(call_of("_reach"))) == [
        "affine.subquandle_closure", "core._generators", "groups._close_under"]
    assert sorted(_sites(call_of("_generators"))) == [
        "core._validated", "core.is_isomorphic", "groups.generating_indices"]
    assert _sites(call_of("from_blocks")) == ["iofmt.parse_partition"]
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _names(_tree(path))
        if name in {"_grow", "_cyclic_tables", "_hom_mismatch", "_hom_witness", "fits",
                    "_first_mismatch"}
    ]
    assert found == []


def test_one_first_failure_scan():
    # core._first_failure is the one loop that stops a core._chunks scan at
    # its first failing mask and adds the chunk's row offset to the witness;
    # every other _chunks loop fills an output.  groups._additive_failure is
    # the one scan of f(u+g) = f(u)+f(g) at the generators, for a map from
    # outside and for the cover's f.
    def call_of(name):
        return lambda node: isinstance(node, ast.Call) and _name(node.func) == name

    assert sorted(_sites(call_of("_first_failure"))) == [
        "core._class_map", "core._hom_failure", "core._validated",
        "groups._additive_failure", "groups._first_asymmetry", "mesh._check_m4",
        "mesh._first_failing_fiber", "mesh.coset_criterion", "perms._commute"]
    assert sorted(_sites(call_of("_additive_failure"))) == [
        "cover.verify_cover", "groups.validate_automorphism"]

    def stops_a_chunk_loop(node):
        return (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                and _name(node.iter.func) == "_chunks"
                and any(isinstance(sub, (ast.Return, ast.Break, ast.Raise))
                        for stmt in node.body for sub in ast.walk(stmt)))

    assert _sites(stops_a_chunk_loop) == ["core._first_failure"]


def test_group_sums_are_flat_gathers_and_floor_arithmetic():
    # plus is the kernel of every sum over A: a flat take from a table, or
    # s - (s // m) * m, with no divmod, remainder or 2-D fancy gather
    found = []
    for cls in ast.walk(_tree(SRC / "groups.py")):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if getattr(method, "name", None) != "plus":
                continue
            found += [f"{cls.name}.plus:{node.lineno}: {_name(node)}"
                      for node in ast.walk(method)
                      if _name(node) in {"divmod", "remainder"}]
            found += [f"{cls.name}.plus:{node.lineno}: tuple index"
                      for node in ast.walk(method)
                      if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)]
    assert found == []


def test_files_are_read_through_their_own_lines():
    # cli._read opens a file with a buffer of iofmt.READ_BLOCK_BYTES, and
    # the parsers take its lines from the file's own readline: none reads
    # blocks of it to split by hand.  The read and write sizes are iofmt's.
    sizes = {"READ_BLOCK_BYTES", "WRITE_BLOCK_BYTES", "LINE_CACHE_BYTES"}
    defined = sorted(
        f"{path.stem}.{target.id}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if isinstance(target, ast.Name) and target.id in sizes
    )
    assert defined == [f"iofmt.{name}" for name in sorted(sizes)]
    assert _sites(lambda node: isinstance(node, ast.Call) and _name(node.func) == "read") == []
