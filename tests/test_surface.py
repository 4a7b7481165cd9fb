"""Every top-level def and class in the package has a caller in it, or is exported.

A caller is an AST name or attribute in `src/emschro` outside the definition's
own body; text in docstrings and comments does not count.  Definitions whose
only callers are tests belong in the tests, or in `emschro.__all__`.
"""

import ast
import pathlib

import emschro

SRC = pathlib.Path(emschro.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    refs = []   # (name, node) for every name or attribute read anywhere
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
    out = []
    for mod, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(d)}
            if not any(name == d.name and id(n) not in own for name, n in refs):
                out.append(f"{mod}.{d.name}")
    return out


def test_every_definition_has_a_caller_or_is_exported():
    unused = [q for q in _unreferenced(_trees())
              if q.split(".")[1] not in emschro.__all__]
    assert unused == []


def test_the_audit_sees_a_definition_without_a_caller():
    trees = {"m": ast.parse(
        "def used():\n    return used\n\n"
        "def caller():\n    '''mentions unused'''\n    return used()\n")}
    assert _unreferenced(trees) == ["m.caller"]
