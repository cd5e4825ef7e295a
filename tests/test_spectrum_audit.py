"""The operator's spectrum is read one way.

``PhiOperator.eigenvalues`` is the ascending spectrum of -Delta_Phi; the
eigenvalues mu of the inverse stay inside ``phi_operator``, where the chains
solve for them, so no other module inverts, reverses or re-indexes them.  The
Wick matrix is the dense readout's block form, so ``experiments`` projects
nothing itself.  The sources are read with ``ast``; nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "becbox"


def attribute_reads(source: str, name: str) -> int:
    """Attributes named ``name`` the source reads (``x.name`` in a load)."""
    return sum(1 for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Attribute) and node.attr == name
               and isinstance(node.ctx, ast.Load))


def test_only_the_operator_reads_mu():
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "phi_operator":
            assert attribute_reads(path.read_text(encoding="utf-8"), "mu") == 0, path.name


def test_experiments_projects_nothing_itself():
    assert attribute_reads((SRC / "experiments.py").read_text(encoding="utf-8"), "project") == 0


def test_the_audit_sees_mu_reads_and_projections():
    source = (
        "def krein(op, x):\n"
        "    nu = 1.0 / op.mu[::-1]\n"
        "    op.mu = nu\n"
        "    return op.unproject(op.project(x) * nu), op.chain.mu\n"
        "project = op.project\n"
    )
    assert attribute_reads(source, "mu") == 2  # the store is not a read
    assert attribute_reads(source, "project") == 2  # a call, and a method taken whole
