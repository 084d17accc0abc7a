"""Every name the package exports has a caller outside the tests.

A name counts as used when library code in src/goldencalc (other than
__init__ and the name's own definition) or the perfbench scripts refer to it,
as an identifier, an attribute, or a string that names it for getattr.  A
perfbench reference to a name perfbench defines itself (its own reference
implementations) does not count.
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
    "golden_base": "the CI step for documented upper bounds and the acceptance checklist build their Jackson base with it",
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


def _references(paths) -> tuple[set[str], set[str]]:
    """(names the files reference, names of the functions and classes they define)."""
    refs, defined = _References(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs.visit(tree)
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return refs.names, defined


def _referenced() -> set[str]:
    library = _references(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")[0]
    bench, bench_defined = _references((ROOT / "perfbench").glob("*.py"))
    return library | (bench - bench_defined)


def test_every_export_has_a_caller():
    exported = _exported()
    unused = exported - _referenced()
    assert unused == set(ALLOWED_UNUSED), (
        f"exported but never used by the library or perfbench: {sorted(unused - set(ALLOWED_UNUSED))}; "
        f"allowed but now used or gone: {sorted(set(ALLOWED_UNUSED) - unused)}")
