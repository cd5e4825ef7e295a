"""The sampled columns are the only form of the rank-K update.

``CondensateBasis`` holds the columns' sine coefficients ``col_hat`` and
their ``rank``; no layer outside ``phi_operator`` may read anything else off
an operator's ``basis`` (``deflated`` is ``rank`` against the column count),
so a second form of the update, such as an orthonormal basis of the span with
its own R matrix, cannot come back through a check.  The sources are read
with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "becbox"
ALLOWED = {"col_hat", "rank", "deflated"}


def basis_reads(source: str) -> set:
    """What the source reads off a ``.basis`` attribute: the names of the
    attributes it takes of it, and "<basis>" for a ``.basis`` used whole."""
    tree = ast.parse(source)
    taken = {id(node.value): node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)}
    return {taken.get(id(node), "<basis>") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "basis"
            and isinstance(node.ctx, ast.Load)}


def test_only_the_columns_and_their_rank_are_read_outside_the_operator():
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "phi_operator":
            assert basis_reads(path.read_text(encoding="utf-8")) <= ALLOWED, path.name


def test_the_audit_sees_a_second_form_and_a_whole_basis():
    source = (
        "def krein(op):\n"
        "    B = op.basis.basis_hat\n"
        "    return B @ op.basis.r_matrix @ op.basis.col_hat.T, op.basis.rank\n"
        "def copy(op):\n"
        "    b = op.basis\n"
        "    return b.weights, replace(op.basis, rank=0)\n"
    )
    assert basis_reads(source) == {"basis_hat", "r_matrix", "col_hat", "rank", "<basis>"}
