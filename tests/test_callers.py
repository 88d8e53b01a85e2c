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



# optional parameters that only tests set, each kept on purpose
OPTION_ALLOWLIST = {
    "estimate_dim.C",  # tests vary the band constant
    "local_witness.cap",  # tests drive the lift cap
    "major_arc_model.cfg",  # the function is kept without a caller (README Library API)
}


def _optional_parameters(node: ast.FunctionDef):
    """(name, position) of each parameter with a default; a keyword-only one has position None."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    yield from ((arg.arg, i) for i, arg in enumerate(positional) if i >= first)
    yield from ((arg.arg, None) for arg, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None)


def _sets(call: ast.Call, param: str, pos) -> bool:
    """Does `call` set `param` by keyword or by position?  A `*args` or `**kwargs` may set anything."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return pos is not None and (len(call.args) > pos or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_optional_parameter_is_set_by_some_caller():
    calls = [node for tree in TREES.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for _, node in _public_definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        mine = [c for c in calls if getattr(c.func, "id", getattr(c.func, "attr", None)) == node.name]
        unset += [f"{node.name}.{param}" for param, pos in _optional_parameters(node)
                  if param != "budget" and f"{node.name}.{param}" not in OPTION_ALLOWLIST
                  and not any(_sets(call, param, pos) for call in mine)]
    assert unset == []
