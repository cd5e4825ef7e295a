"""Each identity ``verification`` checks has one implementation.

The Krein check takes its right side from ``phi_operator``'s resolvent, the
one ``shifted_solve`` applies, so ``verification`` solves no linear system of
its own; and the boundary-condition and quadratic-form checks share one
refinement routine, the only function that builds a ``ratio_shortfall``
(or a shortfall of any other name, such as an ``order_shortfall``).
The sources are read with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "becbox"


def linalg_solves(source: str) -> int:
    """Calls of numpy's ``linalg.solve``, whether reached through the module
    (``np.linalg.solve``) or imported by name (``from numpy.linalg import solve``)."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
             for alias in node.names if alias.name == "solve"}
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "solve"
        and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"
        or isinstance(node.func, ast.Name) and node.func.id in names))


def shortfall_builders(source: str) -> set:
    """The innermost functions whose own code holds a string ending in
    "_shortfall" ("<module>" for code outside every function)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Constant) and str(child.value).endswith("_shortfall"):
                found.add(owner)
            else:
                visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_verification_solves_no_system_of_its_own():
    assert linalg_solves((SRC / "verification.py").read_text(encoding="utf-8")) == 0


def test_one_function_builds_a_shortfall():
    builders = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
                for name in shortfall_builders(path.read_text(encoding="utf-8"))}
    assert len(builders) == 1, builders


def test_the_audit_sees_solves_and_a_second_refinement_rule():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import solve as sv\n"
        "def krein(K, x):\n"
        "    return np.linalg.solve(K, x) + sv(K, x) + np.linalg.lstsq(K, x)[0]\n"
        "def bc(levels):\n"
        "    return {'ratio_shortfall': 0.0}\n"
        "def qform(levels):\n"
        "    def inner():\n"
        "        return {'order_shortfall': 1.0}\n"
        "    return inner(), 'shortfall'\n"
        "TOLERANCES = {'ratio_shortfall': 0.0}\n"
    )
    assert linalg_solves(source) == 2
    assert shortfall_builders(source) == {"bc", "inner", "<module>"}
