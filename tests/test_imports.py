"""Imports inside ``whitadd`` go one way and never reach a private name.

The modules form a stack: errors, scalar, special_core, summation,
identities, green, golden, cli.  Each may import only modules below it, at
module level or inside a function, and no module imports an underscore name
from another.  ``__init__`` is the package's front and imports them all.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "whitadd"
ORDER = ("errors", "scalar", "special_core", "summation", "identities", "green",
         "golden", "cli")


def _imports(module: str):
    """(imported module, imported names) for every whitadd import in
    ``module``, at any depth of its syntax tree."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or (node.level == 0 and node.module
                                   and node.module.split(".")[0] == "whitadd"):
                parts = (node.module or "").split(".")
                target = parts[0] if node.level == 1 else ".".join(parts[1:])
                names = [alias.name for alias in node.names]
                if target:
                    yield target, names
                else:  # from . import scalar
                    for name in names:
                        yield name, []
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "whitadd" and len(parts) > 1:
                    yield parts[1], []


def test_every_module_has_a_place_in_the_stack():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ORDER)


def test_no_module_imports_a_private_name():
    private = [(module, target, name)
               for module in ORDER for target, names in _imports(module)
               for name in names if name.startswith("_")]
    assert private == []


def test_imports_point_down_the_stack():
    upward = [(module, target)
              for i, module in enumerate(ORDER) for target, _ in _imports(module)
              if target not in ORDER[:i]]
    assert upward == []
