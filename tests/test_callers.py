"""Every public top-level function and class of the library has a caller, or the README names it as library API."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "quartic").glob("*.py"))
CALLERS = LIBRARY + sorted(p for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py"))
TREES = {path: ast.parse(path.read_text()) for path in CALLERS}


def _library_api() -> set:
    """The names in the `module.name` entries of the README's "Library API" section."""
    section = re.search(r"^## Library API\n(.*?)^## ", (ROOT / "README.md").read_text(), re.S | re.M).group(1)
    return set(re.findall(r"`\w+\.(\w+)`", section))


def _public_definitions():
    for path in LIBRARY:
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


def _references(tree) -> Counter:
    """How often each name is read as `name` or `obj.name` in `tree`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_has_a_caller():
    everywhere = sum((_references(tree) for tree in TREES.values()), Counter())
    api = _library_api()
    # a reference inside the definition itself (a recursive call, a classmethod's own class) is not a caller
    unused = [f"{path.name}:{node.lineno} {node.name}" for path, node in _public_definitions()
              if node.name not in api and everywhere[node.name] == _references(node)[node.name]]
    assert unused == []


def test_the_library_api_names_existing_definitions():
    defined = {node.name for _, node in _public_definitions()}
    assert _library_api() and _library_api() <= defined
