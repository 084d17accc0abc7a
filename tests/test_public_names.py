"""Every name the package exports has a caller outside the tests.

A name counts as used when library code in src/goldencalc (other than
__init__ and the name's own definition) or the perfbench scripts refer to it,
as an identifier, an attribute, or a string that names it for getattr.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "goldencalc"

# Exported names whose only callers are outside src/ and perfbench/.
ALLOWED_UNUSED = {
    "phi_value": "the paper-acceptance checklist (tests/test_acceptance.py) reads phi from it",
    "energy_ratios": "the paper-acceptance checklist checks the golden level ratios with it",
    "golden_taylor": "the CI step for documented upper bounds round-trips the top Taylor degree",
    "taylor_reconstruct": "the CI step for documented upper bounds rebuilds the top factorial index",
}


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


class _References(ast.NodeVisitor):
    """Collect referenced names, skipping each definition's references to itself."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.inside: list[str] = []

    def _definition(self, node) -> None:
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _add(self, name: str) -> None:
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value)


def _referenced() -> set[str]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    refs = _References()
    for path in sources:
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    return refs.names


def test_every_export_has_a_caller():
    exported = _exported()
    unused = exported - _referenced()
    assert unused == set(ALLOWED_UNUSED), (
        f"exported but never used by the library or perfbench: {sorted(unused - set(ALLOWED_UNUSED))}; "
        f"allowed but now used or gone: {sorted(set(ALLOWED_UNUSED) - unused)}")
