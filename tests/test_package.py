"""The package's export list, and the front end's use of it."""

import ast
import inspect
import types
from pathlib import Path

import syncstab
import syncstab.cli


def test_all_names_resolve_to_non_module_objects():
    assert len(set(syncstab.__all__)) == len(syncstab.__all__)
    for name in syncstab.__all__:
        assert not isinstance(getattr(syncstab, name), types.ModuleType), name


def test_cli_uses_no_private_name_of_the_package():
    # the front end reads stages, equilibria and runs through public names only:
    # no leading-underscore name imported from a syncstab module, or read off one
    tree = ast.parse(Path(syncstab.cli.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.split(".")[0] == "syncstab")]
    modules = {alias.asname or alias.name  # from . import equilibrium as eqm
               for node in imports if node.module is None for alias in node.names}
    private = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if alias.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert private == []


def _public_callables():
    """(label, name, parameters) of every public function and method the package exports."""
    for export in syncstab.__all__:
        obj = getattr(syncstab, export)
        if inspect.isfunction(obj):
            yield export, export, list(inspect.signature(obj).parameters.values())
        elif inspect.isclass(obj):
            for name, member in vars(obj).items():
                if inspect.isfunction(member) and not name.startswith("_"):
                    # a method's first parameter is bound, so calls pass from the second
                    params = list(inspect.signature(member).parameters.values())[1:]
                    yield f"{export}.{name}", name, params


def test_every_defaulted_parameter_is_set_by_some_call():
    # an option that no call in src/ sets is dead weight, and one that only
    # tests set is a constant too: make it one.  Calls match on their last
    # name, and pass a parameter by keyword, positionally at its index, or
    # through * or ** unpacking
    root = Path(__file__).resolve().parent.parent
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)

    def sets(call: ast.Call, index: int, name: str) -> bool:
        return (any(k.arg in (name, None) for k in call.keywords)
                or len(call.args) > index
                or any(isinstance(a, ast.Starred) for a in call.args))

    unset = [f"{label}({param.name})"
             for label, name, params in _public_callables()
             for index, param in enumerate(params)
             if param.default is not param.empty
             and not any(sets(call, index, param.name) for call in calls.get(name, []))]
    assert unset == []


def test_sign_rules_are_stated_once():
    # every parameter type states its signs through machine._check_signs: no
    # __post_init__ in src/ raises a "must be positive" or "must be
    # non-negative" message of its own
    root = Path(__file__).resolve().parent.parent
    sites = []
    for path in sorted((root / "src").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not (isinstance(method, ast.FunctionDef) and method.name == "__post_init__"):
                    continue
                for node in ast.walk(method):
                    if isinstance(node, ast.Raise):
                        text = " ".join(part.value for part in ast.walk(node)
                                        if isinstance(part, ast.Constant)
                                        and isinstance(part.value, str))
                        if "must be positive" in text or "must be non-negative" in text:
                            sites.append(f"{path.name}:{node.lineno} {cls.name}")
    assert sites == []
