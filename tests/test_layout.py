"""The raw-value format has one owner: the fields in projmonad.scalar.

Every other module reaches residues and Fraction numerators through
Field.p, Field.coerce, Field.inv, Field.integral and Field.reduce, so no
module outside scalar may name a concrete field class (only the package
__init__ re-exports them) or import a private helper of linalg or scalar.
linalg works on raw values only: it names FieldElement nowhere but in its
import and Matrix.data, the one boxed reader, so both can go together.
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


def _name(node: ast.AST) -> str | None:
    """The name a node spells: a variable, attribute, import or string."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
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
        if (name := _name(node)) in FIELD_CLASSES:
            out.append(f"line {getattr(node, 'lineno', '?')}: names {name}")
    return out


def _boxed_outside_matrix_data(path: Path) -> list[str]:
    """Where a module names FieldElement other than in its scalar import
    and in the body of Matrix.data."""
    tree = ast.parse(path.read_text(), str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Matrix":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "data":
                    allowed.update(map(id, ast.walk(item)))
        if isinstance(node, ast.ImportFrom) and _imported_module(node) == "scalar":
            allowed.update(map(id, node.names))
    return [f"line {getattr(node, 'lineno', '?')}: names FieldElement"
            for node in ast.walk(tree)
            if _name(node) == "FieldElement" and id(node) not in allowed]


def test_every_module_is_scanned():
    names = {p.name for p in MODULES}
    assert {"scalar.py", "linalg.py", "polymat.py", "autgroup.py", "modp3.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_scalar_knows_the_field_classes(path):
    assert _violations(path) == []


def test_linalg_boxes_only_in_matrix_data():
    path = PACKAGE / "linalg.py"
    assert "def data" in path.read_text()
    assert _boxed_outside_matrix_data(path) == []
