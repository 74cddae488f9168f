"""The package's export list, and the front end's use of it."""

import ast
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
