"""Every public top-level function and class of the library has a caller, or the README names it as library API;
every public method has a caller, every default is set by some caller and every field of a public dataclass is read,
or each is listed with its reason.  Callers are the library, the demos and perfbench: a test is not one."""

import ast
import json
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



# defaulted `budget` parameters that count something other than enumeration cells
BUDGET_ALLOWLIST = {}


def test_every_budget_defaults_to_the_one_default():
    """A defaulted `budget` anywhere in the library is `DEFAULT_BUDGET`, which only `counting` assigns."""
    assigned = [path.name for path in LIBRARY for node in TREES[path].body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "DEFAULT_BUDGET" for t in node.targets)]
    assert assigned == ["counting.py"]
    other = set()
    for path in LIBRARY:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args
                defaults = dict(zip(args[len(args) - len(node.args.defaults):], node.args.defaults))
                defaults |= {a: d for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None}
                other |= {node.name for a, d in defaults.items()
                          if a.arg == "budget" and getattr(d, "id", None) != "DEFAULT_BUDGET"}
    assert other == set(BUDGET_ALLOWLIST)


def test_the_library_and_the_cli_share_a_budget(capsys):
    """The CLI passes `--budget`'s default to every call; the library's own default gives the same report."""
    from quartic.cli import main
    from quartic.expsums import complete_sum
    from quartic.forms import parse_form
    from quartic.geometry import hessian_rank_profile

    # 289^3 rank cells fit 40M but not 20M
    assert main(["geometry", "--op", "rank-profile", "--p", "17", "--r", "1", "--form-text", "x1^3+x2^3+x3^3"]) == 0
    cli = json.loads(capsys.readouterr().out)
    lib = json.loads(json.dumps(hessian_rank_profile(parse_form("x1^3+x2^3+x3^3"), 17, 1)))
    assert lib["counts"] == {"1": 49, "2": 865}
    assert {key: cli[key] for key in lib} == lib
    # 4900^2 residue cells: the direct sum at 40M, the CRT product at 20M
    assert main(["expsum", "--q", "4900", "--form-text", "x1^4 + 3*x1*x2^3 - 2*x2^4"]) == 0
    cli = json.loads(capsys.readouterr().out)
    s = complete_sum(parse_form("x1^4 + 3*x1*x2^3 - 2*x2^4"), 1, 4900)
    assert (cli["re"], cli["im"], cli["err"]) == (s.value.real, s.value.imag, s.err)


# defaulted parameters and fields that no call in the library, the demos or perfbench sets, each with its reason
DEFAULT_ALLOWLIST = {}


def _public_callables():
    """(name, node, shift, callee) for each public top-level function, each public method of a public class and
    each public class's `__init__` or `__new__`: `name` as listed, `callee` the name a call of it ends in, and
    `shift` the arguments a call passes implicitly (self or cls)."""
    for _, node in _public_definitions():
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0, node.name
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) or (item.name.startswith("_")
                                                         and item.name not in ("__init__", "__new__")):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
            callee = node.name if item.name.startswith("_") else item.name
            yield f"{node.name}.{item.name}", item, 0 if static else 1, callee


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


def _callee(call: ast.Call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _unset_defaults():
    """Defaulted parameters of public callables and defaulted fields of public dataclasses that no call sets."""
    calls = [node for tree in TREES.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    api = _library_api()
    for name, node, shift, callee in _public_callables():
        mine = [c for c in calls if _callee(c) == callee]
        yield from (f"{name}.{param}" for param, pos in _optional_parameters(node)
                    if param != "budget" and name not in api
                    and not any(_sets(call, param, None if pos is None else pos - shift) for call in mine))
    stored = {node.attr for tree in TREES.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    replaced = [c for c in calls if _callee(c) == "replace"]
    for _, node in _public_definitions():
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            mine = [c for c in calls if _callee(c) == node.name]
            yield from (f"{node.name}.{item.target.id}" for pos, item in enumerate(fields)
                        if item.value is not None and item.target.id not in stored
                        and not any(_sets(call, item.target.id, pos) for call in mine)
                        and not any(_sets(call, item.target.id, None) for call in replaced))


def test_every_default_is_set_by_some_caller():
    """A default that no caller changes is a constant: make it one, or list it with its reason."""
    assert sorted(_unset_defaults()) == sorted(DEFAULT_ALLOWLIST)


# public methods that no code calls, each kept on purpose
METHOD_ALLOWLIST = {
    "SymTensor.trilinear": "the exact reference `contract` is checked against",
}


def test_every_public_method_has_a_caller():
    """A public method is called as `obj.method` (or read, for a property) outside its own body, or listed."""
    everywhere = Counter(node.attr for tree in TREES.values() for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute))
    uncalled = [name for name, node, _, callee in _public_callables() if "." in name and callee == node.name
                and everywhere[callee] == sum(isinstance(n, ast.Attribute) and n.attr == callee for n in ast.walk(node))]
    assert sorted(uncalled) == sorted(METHOD_ALLOWLIST)


# fields of public dataclasses that no code reads as `.field`, each kept because it says how a result was made
FIELD_ALLOWLIST = {
    "BoundReport.lemma_id": "the lemma a report checks",
    "BoundReport.params": "the parameters a report was made at",
    "CountResult.meta": "the sizes of the path that ran: cells enumerated, or the two sides of the mitm join",
    "LocalFactor.K": "the depth p^K the identity was checked to",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Is `node` decorated by `@dataclass` or `@dataclass(...)`?"""
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)


def test_every_dataclass_field_is_read_or_listed():
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{node.name}.{item.target.id}" for _, node in _public_definitions()
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert sorted(unread) == sorted(FIELD_ALLOWLIST)
