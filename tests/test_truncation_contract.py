"""Truncation is decided in one place, ``coherent.grow_cutoff``.

Every construction route builds at the cutoff it is given and reports its
tail mass; holding that tail against a tolerance, doubling the cutoff and
raising ``TruncationError`` belong to ``grow_cutoff`` alone.  This keeps
the routes from growing truncation knobs again.
"""

import ast
import inspect
from pathlib import Path

from defosc import cli, coherent


class _TruncationRaises(ast.NodeVisitor):
    """Qualified names of the functions that contain ``raise TruncationError``."""

    def __init__(self, module: str):
        self.scope = [module]
        self.sites: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if getattr(exc, "id", getattr(exc, "attr", None)) == "TruncationError":
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_grow_cutoff_truncates_and_routes_take_three_arguments():
    sites = []
    for path in sorted(Path(coherent.__file__).parent.glob("*.py")):
        visitor = _TruncationRaises(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += visitor.sites
    assert sites == ["coherent.grow_cutoff"]

    assert sorted(cli._ROUTES) == sorted(cli.METHODS)
    for method, name in cli._ROUTES.items():
        params = list(inspect.signature(getattr(coherent, name)).parameters)
        assert params in (["f", "alpha", "cutoff"], ["f", "zeta", "cutoff"]), (method, params)
