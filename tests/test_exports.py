"""The package namespace and the modules' ``__all__`` lists agree."""

import ast
import importlib
from pathlib import Path

import defosc


def _reexports() -> dict[str, list[str]]:
    # module name -> names that defosc/__init__.py imports from it
    tree = ast.parse(Path(defosc.__file__).read_text(encoding="utf-8"))
    out: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


def test_package_and_module_exports_agree():
    reexports = _reexports()
    assert reexports
    for module_name, taken in reexports.items():
        module = importlib.import_module(f"defosc.{module_name}")
        exported = module.__all__
        assert len(set(exported)) == len(exported), f"duplicate names in {module_name}.__all__"
        assert sorted(set(taken) - set(exported)) == [], f"not in {module_name}.__all__"
        assert sorted(n for n in exported if not hasattr(defosc, n)) == [], \
            f"{module_name}.__all__ names missing from defosc"
        for name in exported:
            assert getattr(defosc, name) is getattr(module, name)
