"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rotref"


def test_every_private_helper_is_used():
    # a module-level private function or class that nothing outside its own
    # definition names is dead code, left behind by a deletion
    defined = []  # (module, name)
    used = set()  # (name, module, top-level definition it appears in)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and owner.startswith("_"):
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
