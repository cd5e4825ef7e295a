"""Both spec catalogs are read by one grammar.

``harmonics._parse_tagged`` and ``harmonics._format_tagged`` turn the items of
``tag:key=value,...`` into a spec's fields and back; each catalog keeps only a
table, tag -> (class, row).  So only ``_parse_tagged`` splits a spec string,
the public parse and format functions of both catalogs are loop-free lookups
into that pair, and ``continuum`` reads no dataclass's fields, which a loop of
its own over a spec's fields would need.  The sources are read with ``ast``;
nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "becbox"
TEXT_FUNCTIONS = {"harmonics": ("parse_harmonic", "format_harmonic"),
                  "continuum": ("parse_test_function", "format_test_function")}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _called(node) -> str | None:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def callers(source: str, name: str) -> set:
    """Top-level functions of ``source`` that call ``name``; None stands for module code."""
    out = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        out |= {owner for node in ast.walk(top)
                if isinstance(node, ast.Call) and _called(node) == name}
    return out


def functions(source: str) -> dict:
    return {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def _read(module: str) -> str:
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def test_only_the_shared_parser_splits_a_spec():
    found = {(path.stem, owner) for path in SRC.glob("*.py")
             for owner in callers(path.read_text(encoding="utf-8"), "_split_tagged")}
    assert found == {("harmonics", "_parse_tagged")}


def test_parse_and_format_are_table_lookups():
    for module, (parse, fmt) in TEXT_FUNCTIONS.items():
        defs = functions(_read(module))
        for name, shared in ((parse, "_parse_tagged"), (fmt, "_format_tagged")):
            body = defs[name]
            assert not any(isinstance(node, LOOPS) for node in ast.walk(body)), name
            assert any(isinstance(node, ast.Call) and _called(node) == shared
                       for node in ast.walk(body)), name


def test_continuum_reads_no_dataclass_fields():
    assert callers(_read("continuum"), "fields") == set()


def test_the_audit_sees_a_split_and_a_loop():
    source = (
        "def parse_test_function(text):\n"
        "    tag, items = _split_tagged(text)\n"
        "    return [f for f in fields(Bump)]\n"
        "KEYS = dataclasses.fields(Dipole)\n"
    )
    assert callers(source, "_split_tagged") == {"parse_test_function"}
    assert callers(source, "fields") == {"parse_test_function", None}
    body = functions(source)["parse_test_function"]
    assert any(isinstance(node, LOOPS) for node in ast.walk(body))
