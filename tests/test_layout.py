"""The raw-value format has one owner: the fields in projmonad.scalar.

Every other module reaches residues and Fraction numerators through
Field.p, Field.coerce, Field.inv, Field.integral and Field.reduce, so no
module outside scalar may name a concrete field class (only the package
__init__ re-exports them) or import a private helper of linalg or scalar.
"""

import ast
from pathlib import Path

import pytest

import projmonad

PACKAGE = Path(projmonad.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
FIELD_CLASSES = {"PrimeField", "RationalField"}
MAY_NAME_FIELD_CLASSES = {"scalar.py", "__init__.py"}
GUARDED = {"linalg", "scalar"}


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The projmonad module an import reads from, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("projmonad."):
        return node.module.removeprefix("projmonad.")
    return None


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imported_module(node) in GUARDED:
            out += [f"line {node.lineno}: imports {a.name} from .{_imported_module(node)}"
                    for a in node.names if a.name.startswith("_")]
        if path.name in MAY_NAME_FIELD_CLASSES:
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in FIELD_CLASSES:
            out.append(f"line {getattr(node, 'lineno', '?')}: names {name}")
    return out


def test_every_module_is_scanned():
    names = {p.name for p in MODULES}
    assert {"scalar.py", "linalg.py", "polymat.py", "autgroup.py", "modp3.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_scalar_knows_the_field_classes(path):
    assert _violations(path) == []
