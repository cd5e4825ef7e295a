"""Each identity ``verification`` checks has one implementation.

The Krein check takes its right side from ``phi_operator``'s resolvent, the
one ``shifted_solve`` applies, so ``verification`` solves no linear system of
its own; one function reads that resolvent, and both the Krein check and the
domain decomposition (the Krein formula at z = 0) call it.  The
boundary-condition and quadratic-form checks share one refinement routine,
the only function that builds an ``order_shortfall`` (or a shortfall of any
other name, such as a ``ratio_shortfall``).  One function, ``judge_ladder``,
computes an observed order or a convergence verdict, and every ladder the
package judges (converge's error in L, srs's window error, both trace
checks) reaches it.  The sources are read with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "becbox"
VERDICTS = {"converging", "settled", "inconclusive", "failing"}


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


def owners(source: str, match) -> set:
    """The innermost functions whose own code holds a node for which
    ``match`` is true ("<module>" for code outside every function)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if match(child):
                    found.add(owner)
                visit(child, owner)

    visit(ast.parse(source) if isinstance(source, str) else source, "<module>")
    return found


def shortfall_builders(source: str) -> set:
    """The functions that hold a string ending in "_shortfall"."""
    return owners(source, lambda node: isinstance(node, ast.Constant)
                  and str(node.value).endswith("_shortfall"))


def readers(source: str, name: str) -> set:
    """The functions that read (or call) ``name``."""
    return owners(source, lambda node: isinstance(node, ast.Name) and node.id == name)


def _divides(node) -> bool:
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div) for n in ast.walk(node))


def judges(source: str) -> set:
    """The functions that compute an observed order (a logarithm of a ratio,
    or a ratio of successive levels, ``a / b for a, b in zip(v, v[1:])``) or
    build a verdict (a verdict's name anywhere but in a comparison)."""
    tree = ast.parse(source)
    compared = {id(n) for c in ast.walk(tree) if isinstance(c, ast.Compare) for n in ast.walk(c)}

    def match(node):
        if isinstance(node, ast.Call):
            called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None)
            return called in {"log", "log2", "log10"} and any(map(_divides, node.args))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return _divides(node.elt) and any(
                isinstance(g.iter, ast.Call) and getattr(g.iter.func, "id", None) == "zip"
                and any(isinstance(a, ast.Subscript) for a in g.iter.args) for g in node.generators)
        return isinstance(node, ast.Constant) and node.value in VERDICTS and id(node) not in compared

    return owners(tree, match)


def reaching(sources, name: str) -> set:
    """The functions of ``sources`` that read ``name`` (by name, or as an
    attribute such as a method), directly or through such functions."""
    names, found = {name}, set()
    while True:
        new = {owner for source in sources for owner in owners(source, lambda node: (
            isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names))} - {"<module>"}
        if new <= found:
            return found
        found |= new
        names |= new


def sources() -> list:
    return [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]


def test_verification_solves_no_system_of_its_own():
    assert linalg_solves((SRC / "verification.py").read_text(encoding="utf-8")) == 0


def test_one_function_builds_a_shortfall():
    builders = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
                for name in shortfall_builders(path.read_text(encoding="utf-8"))}
    assert len(builders) == 1, builders


def test_one_function_judges_every_ladder():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in judges(path.read_text(encoding="utf-8"))}
    assert found == {("verification", "judge_ladder")}, found


def test_every_verdict_reaches_the_judge():
    reached = reaching(sources(), "judge_ladder")
    assert {"emit_converge", "_converge", "run_srs_sweep", "boundary_condition_residual",
            "quadratic_form_identity"} <= reached, reached


def test_no_decreasing_slack_remains():
    generator = SRC.parents[1] / "tests" / "golden" / "generate.py"
    for text in sources() + [generator.read_text(encoding="utf-8")]:
        assert "DECREASING_SLACK" not in text and "strictly_decreasing" not in text


def test_one_function_reads_the_resolvent_for_both_exact_checks():
    source = (SRC / "verification.py").read_text(encoding="utf-8")
    (identity,) = readers(source, "_resolvent")
    assert {"krein_identity_residual", "domain_decomposition_check"} <= readers(source, identity)


def test_the_audit_sees_every_reader_of_a_name():
    source = (
        "from .phi_operator import _resolvent\n"
        "def krein(op, x):\n"
        "    return _resolvent(op, x, 1.0)\n"
        "def decomposition(op, x):\n"
        "    def inner():\n"
        "        return solve(_resolvent)\n"
        "    return inner() + krein(op, x)\n"
        "RESOLVENT = _resolvent\n"
    )
    assert readers(source, "_resolvent") == {"krein", "inner", "<module>"}
    assert readers(source, "krein") == {"decomposition"}


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


def test_the_audit_sees_orders_verdicts_and_reach():
    source = (
        "import numpy as np\n"
        "def judge(v):\n"
        "    return 'converging' if np.log(v[0] / v[1]) > 0 else 'failing'\n"
        "def order(a, b):\n"
        "    return np.log2(a / b), np.log(a * b)\n"
        "def passed(j):\n"
        "    return j.verdict in ('converging', 'settled') or j.verdict == 'failing'\n"
        "def strictly(errs):\n"
        "    return 'settled'\n"
        "class Report:\n"
        "    def judgement(self):\n"
        "        return judge(self.rows)\n"
        "def emit(report):\n"
        "    return report.judgement()\n"
        "def ratios(levels):\n"
        "    return [a / b for a, b in zip(levels, levels[1:])]\n"
        "def unrelated(x, Ls):\n"
        "    return np.log(x), all(b > a for a, b in zip(Ls, Ls[1:])), [a / 2 for a in Ls]\n"
    )
    assert judges(source) == {"judge", "order", "strictly", "ratios"}
    assert reaching([source], "judge") == {"judgement", "emit"}
