"""Every function, class and method of the package has a reader outside the tests.

A definition in ``src/voxeland`` counts as read when its name appears as a
name, an attribute or an imported name in the code of ``src/``, ``demos/``
or ``perfbench/`` (its tests excluded), outside the definition itself.
Dunder methods are called by Python and are not checked.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voxeland"

# Read only by the tests until `voxeland eval` reports it (ROADMAP item 7).
UNREAD = {"precision_vs_entropy"}


def parsed_sources() -> dict[Path, ast.Module]:
    paths = [path for folder in ("src", "demos", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))]
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in paths
        if ROOT / "perfbench" / "tests" not in path.parents
    }


def references(sources: dict[Path, ast.Module]) -> dict[str, list[tuple[Path, int]]]:
    """The file and line of each name, attribute and imported name, by name."""
    found = defaultdict(list)
    for path, tree in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                found[node.attr].append((path, node.end_lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    found[alias.name.rpartition(".")[2]].append((path, node.lineno))
    return found


def test_every_definition_is_read_outside_the_tests():
    sources = parsed_sources()
    found = references(sources)
    unread = set()
    for path, tree in sources.items():
        if PACKAGE not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            outside = [
                (where, line)
                for where, line in found[node.name]
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unread.add(node.name)
    assert unread == UNREAD, f"read only by the tests: {sorted(unread - UNREAD)}; now read: {sorted(UNREAD - unread)}"
