"""The raw-value format has one owner: the fields in projmonad.scalar.

Every other module reaches residues and Fraction numerators through
Field.p, Field.coerce, Field.inv, Field.integral and Field.reduce, so no
module outside scalar may name a concrete field class (only the package
__init__ re-exports them) or import a private helper of linalg or scalar.
Raw values are the one scalar representation: FieldElement, defined in
scalar, is only the record Matrix.data yields.  No module names it but
linalg, in its import and in Matrix.data, so both can go together, and
the package does not export it.

Monomials have one owner too: polymat packs each into one int, and no
other module builds an exponent tuple (a tuple of length n + 1), reads
the packed monomial lists, or imports a private name from polymat.

A Matrix is data for elimination, not an operator: it defines no
arithmetic.  Section matrices are ranked and solved, never multiplied;
a product of them is the section matrix of the composite, which
polymat.compose builds on graded matrices.  Forms (HomogPoly) and
graded matrices define no operator either: a product of forms is
compose, and the complex condition is monad.validate.  They keep only
the zero test, which validate and minimality_check read off a
composite.

Fields are interned: QQ is the one RationalField and GF(p) the one
PrimeField of each modulus, so identity is equality, and no class in
scalar defines __eq__ or __hash__ beside it.

Residues invert one way: pow(x, -1, p), the extended Euclidean
algorithm, never the Fermat power pow(x, p - 2, p).

Rationals have one format, and the field keeps it canonical: an int when
the denominator is 1, a Fraction otherwise.  Every quotient of raw
values has one owner, Field.reduce, which divides by any nonzero raw
value: elimination divides a new pivot row by its pivot there, the
parser a literal's numerator by its denominator, and hilbert's IntPoly
keeps canonical raw values of QQ as its coefficients.  So only scalar
names Fraction, calls pow(x, -1, p) or reads a numerator or a
denominator.
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
    """Where a module names FieldElement other than in the body of
    Matrix.data and, in the module that defines it, the scalar import."""
    tree = ast.parse(path.read_text(), str(path))
    allowed, imports = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Matrix":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "data":
                    allowed.update(map(id, ast.walk(item)))
        if isinstance(node, ast.ImportFrom) and _imported_module(node) == "scalar":
            imports.update(map(id, node.names))
    if allowed:
        allowed |= imports
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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scalar.py"],
                         ids=lambda p: p.name)
def test_only_matrix_data_names_field_element(path):
    assert _boxed_outside_matrix_data(path) == []


def test_package_does_not_export_field_element():
    assert not hasattr(projmonad, "FieldElement")


# Methods that would make Matrix an arithmetic type: the operators, and
# the zero test that only a product needs.
ARITHMETIC = {"__add__", "__radd__", "__iadd__", "__sub__", "__rsub__", "__isub__",
              "__mul__", "__rmul__", "__imul__", "__matmul__", "__rmatmul__",
              "__imatmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__",
              "is_zero"}


# Forms and graded matrices keep the zero test of a composite.
OPERATORS = ARITHMETIC - {"is_zero"}


def _defined_names(item: ast.stmt) -> list[str]:
    """The names a class-body statement defines: a method, or the
    targets of an assignment such as __rmul__ = __mul__."""
    if isinstance(item, ast.FunctionDef):
        return [item.name]
    if isinstance(item, ast.Assign):
        return [t.id for t in item.targets if isinstance(t, ast.Name)]
    return []


def _arithmetic_methods(source: str, cls: str, names=ARITHMETIC) -> list[str]:
    """The methods among names that class cls defines in source."""
    return [f"line {item.lineno}: {cls}.{name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name == cls
            for item in node.body
            for name in _defined_names(item) if name in names]


@pytest.mark.parametrize("source, found", [
    ("class Matrix:\n    def __mul__(self, other):\n        pass\n", True),
    ("class Matrix:\n    def is_zero(self):\n        pass\n", True),
    ("class Matrix:\n    def __eq__(self, other):\n        pass\n", False),
    ("class Poly:\n    def __mul__(self, other):\n        pass\n", False),
])
def test_arithmetic_rule_sees_matrix_operators(source, found):
    assert bool(_arithmetic_methods(source, "Matrix")) == found


def test_matrix_defines_no_arithmetic():
    source = (PACKAGE / "linalg.py").read_text()
    assert "class Matrix" in source
    assert _arithmetic_methods(source, "Matrix") == []


@pytest.mark.parametrize("source, cls, found", [
    ("class HomogPoly:\n    def __mul__(self, other):\n        pass\n", "HomogPoly", True),
    ("class HomogPoly:\n    def __neg__(self):\n        pass\n", "HomogPoly", True),
    ("class HomogPoly:\n    __rsub__ = __sub__\n", "HomogPoly", True),
    ("class GradedMatrix:\n    def __matmul__(self, other):\n        pass\n",
     "GradedMatrix", True),
    ("class GradedMatrix:\n    def is_zero(self):\n        pass\n", "GradedMatrix", False),
    ("class HomogPoly:\n    def __eq__(self, other):\n        pass\n", "HomogPoly", False),
    ("class HomogPoly:\n    __repr__ = __str__\n", "HomogPoly", False),
    ("class Matrix:\n    def __add__(self, other):\n        pass\n", "HomogPoly", False),
])
def test_operator_rule_sees_form_operators(source, cls, found):
    assert bool(_arithmetic_methods(source, cls, OPERATORS)) == found


@pytest.mark.parametrize("cls", ["HomogPoly", "GradedMatrix"])
def test_forms_and_graded_matrices_define_no_operators(cls):
    source = (PACKAGE / "polymat.py").read_text()
    assert f"class {cls}" in source
    assert _arithmetic_methods(source, cls, OPERATORS) == []


# Interned fields compare and hash by identity.
VALUE_EQUALITY = {"__eq__", "__hash__"}


def _value_equality(source: str) -> list[str]:
    """The __eq__ and __hash__ that any class in source defines."""
    return [f"line {item.lineno}: {node.name}.{name}"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            for item in node.body
            for name in _defined_names(item) if name in VALUE_EQUALITY]


@pytest.mark.parametrize("source, found", [
    ("class PrimeField(Field):\n    def __eq__(self, other):\n        pass\n", True),
    ("class RationalField(Field):\n    def __hash__(self):\n        pass\n", True),
    ("class Field:\n    __hash__ = object.__hash__\n", True),
    ("class PrimeField(Field):\n    def __repr__(self):\n        pass\n", False),
    ("def __eq__(a, b):\n    pass\n", False),
])
def test_equality_rule_sees_field_equality(source, found):
    assert bool(_value_equality(source)) == found


def test_no_scalar_class_defines_equality():
    source = (PACKAGE / "scalar.py").read_text()
    assert "class PrimeField" in source and "class RationalField" in source
    assert _value_equality(source) == []


# Names that hand out packed monomials in canonical order.
PACKED_LISTS = {"monomials_of_degree", "monomial_index"}


def _plus_one(node: ast.AST) -> bool:
    """Whether node spells <something> + 1, the length of an exponent tuple."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def _builds_exponent_tuple(node: ast.AST) -> bool:
    """A tuple repeated n + 1 times, or tuple() over a range(n + 1) loop."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return any(isinstance(x, ast.Tuple) and _plus_one(y)
                   for x, y in ((node.left, node.right), (node.right, node.left)))
    if (isinstance(node, ast.Call) and _name(node.func) == "tuple" and node.args
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))):
        return any(isinstance(g.iter, ast.Call) and _name(g.iter.func) == "range"
                   and g.iter.args and _plus_one(g.iter.args[-1])
                   for g in node.args[0].generators)
    return False


def _packing_violations(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.ImportFrom) and _imported_module(node) == "polymat":
            out += [f"line {line}: imports {a.name} from .polymat"
                    for a in node.names if a.name.startswith("_")]
        if (name := _name(node)) in PACKED_LISTS:
            out.append(f"line {line}: names {name}")
        if _builds_exponent_tuple(node):
            out.append(f"line {line}: builds an exponent tuple")
    return out


@pytest.mark.parametrize("source, found", [
    ("from .polymat import _mul_into", "imports _mul_into"),
    ("const = (0,) * (n + 1)", "exponent tuple"),
    ("u = {v: tuple(int(i == v) for i in range(n + 1)) for v in vs}", "exponent tuple"),
    ("monos = monomials_of_degree(N, 1)", "names monomials_of_degree"),
    ("from projmonad.polymat import monomial_index", "names monomial_index"),
])
def test_packing_rule_sees_exponent_tuples(source, found):
    assert any(found in v for v in _packing_violations(source))


def test_packing_rule_passes_twist_tuples():
    assert _packing_violations("s = FreeSheaf(n, (t - k,) * len(sets))\n"
                               "v = tuple(range(n + 1))\n"
                               "from .polymat import mul_into, CONSTANT_MONOMIAL\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "polymat.py"],
                         ids=lambda p: p.name)
def test_only_polymat_knows_the_packing(path):
    assert _packing_violations(path.read_text()) == []


def _fermat_inverses(source: str) -> list[str]:
    """Calls pow(x, <m> - 2, <m>): a Fermat-power inverse modulo m."""
    return [f"line {node.lineno}: inverts by a Fermat power"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _name(node.func) == "pow"
            and len(node.args) == 3 and isinstance(e := node.args[1], ast.BinOp)
            and isinstance(e.op, ast.Sub) and isinstance(e.right, ast.Constant)
            and e.right.value == 2 and ast.dump(e.left) == ast.dump(node.args[2])]


@pytest.mark.parametrize("source, found", [
    ("inv = pow(x, p - 2, p)", True),
    ("return pow(a, self.p - 2, self.p)", True),
    ("inv = pow(x, -1, p)", False),
    ("x = pow(a, d, p)", False),
    ("y = pow(x, p - 2)", False),
])
def test_fermat_rule_sees_fermat_inverses(source, found):
    assert bool(_fermat_inverses(source)) == found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_inverts_by_a_fermat_power(path):
    assert _fermat_inverses(path.read_text()) == []


MAY_NAME_FRACTION = {"scalar.py"}


def _fraction_names(source: str) -> list[str]:
    """Where source names Fraction, or imports the fractions module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            if module == "fractions" or any(a.name == "fractions" for a in node.names):
                out.append(f"line {line}: imports fractions")
        elif _name(node) == "Fraction":
            out.append(f"line {line}: names Fraction")
    return out


# The lines that built Fractions in polymat before its quotients came
# from the field.
@pytest.mark.parametrize("source", [
    "from fractions import Fraction",
    "import fractions",
    "def _value(self, num, den):\n    return num % p if p else Fraction(num)",
    "v = num * pow(den, -1, p) % p if p else Fraction(num, den)",
    "if c := rng.randrange(prime) if prime else Fraction(rng.randint(-9, 9)):\n    pass",
    "q = fractions.Fraction(1, 2)",
])
def test_fraction_rule_sees_fractions(source):
    assert _fraction_names(source)


def test_fraction_rule_passes_field_quotients():
    assert _fraction_names("v = field.coerce(num * field.inv(den))\n"
                           "c = rng.randint(-9, 9)\n"
                           "bits = c.denominator.bit_length()  # a Fraction or an int\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in MAY_NAME_FRACTION],
                         ids=lambda p: p.name)
def test_no_other_module_names_fraction(path):
    assert _fraction_names(path.read_text()) == []


def _residue_inverses(source: str) -> list[str]:
    """Calls pow(x, -1, m): a modular inverse taken inline."""
    return [f"line {node.lineno}: inverts a residue"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _name(node.func) == "pow"
            and len(node.args) == 3 and isinstance(e := node.args[1], ast.UnaryOp)
            and isinstance(e.op, ast.USub) and isinstance(e.operand, ast.Constant)
            and e.operand.value == 1]


# The lines that inverted residues outside scalar before every quotient
# came from Field.reduce.
@pytest.mark.parametrize("source, found", [
    ("inv = pow(x, -1, p)", True),
    ("return num * pow(den, -1, p) % p", True),
    ("return pow(a, -1, self.p)", True),
    ("x = pow(a, e, p)", False),
    ("y = pow(x, -1)", False),
    ("v = field.reduce({0: num}, den)", False),
])
def test_inverse_rule_sees_residue_inverses(source, found):
    assert bool(_residue_inverses(source)) == found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scalar.py"],
                         ids=lambda p: p.name)
def test_only_scalar_inverts_residues(path):
    assert _residue_inverses(path.read_text()) == []


RATIONAL_PARTS = {"numerator", "denominator"}


def _rational_parts(source: str) -> list[str]:
    """Where source reads .numerator or .denominator, directly or by the
    string that attrgetter or getattr takes."""
    return [f"line {node.lineno}: reads {node_name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Attribute, ast.Constant))
            and (node_name := _name(node)) in RATIONAL_PARTS]


# The lines that took rationals apart outside scalar before the parser's
# power bound read them from Field.integral.
@pytest.mark.parametrize("source, found", [
    ("bits = abs(c.numerator).bit_length()", True),
    ("bits = c.denominator.bit_length()  # a Fraction or an int", True),
    ("out[k] = q.numerator if q.denominator == 1 else q", True),
    ("_denominator = attrgetter('denominator')", True),
    ("den, num = field.integral(base)", False),
    ("numerators = {0: 1}", False),
])
def test_rational_rule_sees_numerators(source, found):
    assert bool(_rational_parts(source)) == found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scalar.py"],
                         ids=lambda p: p.name)
def test_only_scalar_reads_numerators(path):
    assert _rational_parts(path.read_text()) == []
