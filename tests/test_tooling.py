"""Static checks on the package source."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotref"


def _defined_name(top):
    """The name a module-level function, class or one-name assignment
    defines, or None."""
    if isinstance(top, ast.Assign) and len(top.targets) == 1:
        top = top.targets[0]
    elif isinstance(top, ast.AnnAssign):
        top = top.target
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return top.name
    return top.id if isinstance(top, ast.Name) else None


def test_every_private_helper_is_used():
    # a module-level private function, class, table or cache that nothing
    # outside its own definition names is dead code, left behind by a deletion
    defined = []  # (module, name)
    used = set()  # (name, module, top-level definition it appears in)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = _defined_name(top)
            if owner and owner.startswith("_") and not owner.startswith("__"):
                defined.append((path.stem, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used.add((node.id, path.stem, owner))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, path.stem, owner))
                elif isinstance(node, ast.alias):
                    used.add((node.name, path.stem, owner))
    dead = [
        f"{module}.{name}"
        for module, name in defined
        if not any(n == name and (m, o) != (module, name) for n, m, o in used)
    ]
    assert defined
    assert dead == []


def test_no_module_imports_a_private_linalg_name():
    # linalg's private helpers serve its own public operations; another
    # module that needs one of their jobs calls the public operation
    found = [
        f"{path.stem}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "rotref.linalg"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


# public names that nothing in src/, demos/ or perfbench/ calls and that
# rotref/__init__.py does not export, kept on purpose; an entry whose name
# comes into use must leave this list
_PUBLIC_KEPT = {
    "Subspace.full": "the full space, the counterpart of Subspace.zero_space",
    "subspace_from_json": "the inverse of subspace_to_json, as matrix_from_json",
    "PhaseValue.unit_value": "reads the phase itself once is_unit holds",
}


def _public_definitions(tree):
    """(name, node) of each public module-level function or class, and of
    each public method, named Class.method."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield top.name, top
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield f"{top.name}.{node.name}", node


def _names(tree) -> Counter:
    """How often `tree` names each name: as a name, an attribute or an
    import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def test_every_public_name_is_exported_or_used():
    # a public function, class or method that __init__.py does not export
    # and that no module in src/, demos/ or perfbench/ names outside its own
    # definition serves only the tests: it is dead code, or belongs in them
    paths = [
        path for d in ("src/rotref", "demos", "perfbench") for path in sorted((ROOT / d).glob("*.py"))
    ]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    exported = _names(trees[SRC / "__init__.py"])
    unused = [
        name
        for path in paths
        if path.parent == SRC
        for name, node in _public_definitions(trees[path])
        if name not in exported
        and used[node.name] == _names(node)[node.name]
    ]
    assert [name for name in unused if name not in _PUBLIC_KEPT] == []
    assert sorted(set(_PUBLIC_KEPT) - set(unused)) == []


# perfbench's install probe pins arrangements.subspace_contains
_PINNED_IMPORTS = {("arrangements", "subspace_contains")}


def test_every_module_import_is_used():
    # a module-level import that nothing else in its module names is left
    # behind by a deletion; __init__.py imports to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for top in tree.body
            if isinstance(top, (ast.Import, ast.ImportFrom))
            and getattr(top, "module", None) != "__future__"
            for alias in top.names
        ]
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}.{name}"
            for name in imported
            if name not in named and (path.stem, name) not in _PINNED_IMPORTS
        ]
    assert unused == []


# functools.cache, cached_property and the lazy member builders assume one
# thread: nothing in the package takes a lock, so threads reading one cache
# or arrangement at once could build its value twice
_THREAD_MODULES = {"threading", "concurrent", "multiprocessing", "_thread"}


def test_no_module_starts_threads_or_processes():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.stem}: {name}"
                for name in names
                if name.split(".")[0] in _THREAD_MODULES
            ]
    assert found == []


# "no floating point in any decision path": the package reads no float, and
# its real signs come from integer enclosures (cyclo.real_sign)
_FLOAT_MATH = {"sqrt", "cos", "sin", "exp", "log", "pi", "e"}


def test_no_module_uses_floating_point():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.stem}:{node.lineno}: float literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path.stem}:{node.lineno}: float(...)")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr in _FLOAT_MATH):
                found.append(f"{path.stem}:{node.lineno}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [
                    f"{path.stem}:{node.lineno}: from math import {alias.name}"
                    for alias in node.names
                    if alias.name in _FLOAT_MATH
                ]
    assert found == []


def test_every_all_lists_the_public_definitions():
    # `from rotref.<module> import *` reads __all__: it must list every public
    # module-level function and class of its module, and only names the
    # module binds (__init__.py binds its names by import)
    wrong = []
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        listed = next(
            (ast.literal_eval(top.value) for top in tree.body if _defined_name(top) == "__all__"),
            None,
        )
        if listed is None:
            continue
        checked += 1
        public = {
            top.name
            for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
        }
        bound = {_defined_name(top) for top in tree.body}
        if path.name == "__init__.py":
            bound |= {
                alias.asname or alias.name
                for top in tree.body
                if isinstance(top, ast.ImportFrom)
                for alias in top.names
            }
        wrong += [f"{path.stem}.{name} is not in __all__" for name in sorted(public - set(listed))]
        wrong += [f"{path.stem}.__all__ lists {name}" for name in listed if name not in bound]
        wrong += [f"{path.stem}.__all__ repeats {name}" for name, k in Counter(listed).items() if k > 1]
    assert checked
    assert wrong == []


def test_fresh_caches_resets_every_cache(request):
    # a per-process cache that the fresh_caches fixture (tests/conftest.py)
    # misses lets an earlier test's build leak into a test that counts work
    found = [
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in map(_defined_name, ast.parse(path.read_text(), str(path)).body)
        if name and name.startswith("_") and name.endswith("_CACHE")
    ]
    modules = {stem: importlib.import_module(f"rotref.{stem}") for stem, _ in found}
    before = {(stem, name): getattr(modules[stem], name) for stem, name in found}
    request.getfixturevalue("fresh_caches")
    kept = [
        f"{stem}.{name}"
        for (stem, name), old in before.items()
        if getattr(modules[stem], name) is old or getattr(modules[stem], name) != {}
    ]
    assert len(found) >= 5
    assert kept == []
