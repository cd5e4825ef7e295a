"""``backend`` chooses the two-point readout rule and nothing else.

Every operator has its eigenpairs, whatever its backend, so no layer may gate
on the backend: in ``phi_operator`` and ``verification`` only
``_bilinear_forms`` reads a ``.backend`` attribute, and in ``experiments`` and
``verification`` only ``_sweep_rows`` (the configured rule of a sweep) and
``run_verify_suite`` (the dense rule of its split check) pass a backend to a
build, by keyword or as the third positional argument of
``build_phi_operator``.  The sources are read with ``ast``; nothing is
imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "becbox"


def _enclosing(tree):
    """(node, name of the innermost function around it, or None) for every node."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            yield child, inner
            yield from walk(child, inner)
    return walk(tree, None)


def _passes_backend(call: ast.Call) -> bool:
    name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
    return (any(k.arg == "backend" for k in call.keywords)
            or (name == "build_phi_operator" and len(call.args) >= 3))


def backend_reads(source: str) -> set:
    """Functions that read an attribute named ``backend``."""
    return {owner for node, owner in _enclosing(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "backend"
            and isinstance(node.ctx, ast.Load)}


def backend_passes(source: str) -> set:
    """Functions that pass a backend to a call."""
    return {owner for node, owner in _enclosing(ast.parse(source))
            if isinstance(node, ast.Call) and _passes_backend(node)}


def _read(module: str) -> str:
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def test_only_the_readout_reads_the_backend():
    for module in ("phi_operator", "verification"):
        assert backend_reads(_read(module)) <= {"_bilinear_forms"}, module
    assert backend_reads(_read("phi_operator")) == {"_bilinear_forms"}


def test_only_the_readout_builds_pass_a_backend():
    for module in ("experiments", "verification"):
        assert backend_passes(_read(module)) <= {"_sweep_rows", "run_verify_suite"}, module
    assert backend_passes(_read("experiments")) == {"_sweep_rows", "run_verify_suite"}


def test_the_audit_sees_a_gate_and_a_pass():
    source = (
        "def gate(op):\n"
        "    if op.backend != 'dense':\n"
        "        raise ValueError\n"
        "class A:\n"
        "    def m(self):\n"
        "        return build_phi_operator(g, f, 'lanczos')\n"
        "def k(grid):\n"
        "    return build(grid, backend='dense')\n"
    )
    assert backend_reads(source) == {"gate"}
    assert backend_passes(source) == {"m", "k"}
