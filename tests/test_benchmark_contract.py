"""The names the traced benchmark relies on still exist.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and its
``INFO`` entries read arguments of those functions by parameter name.  A
rename in ``src/`` would only surface as a crash of the traced benchmark run;
this test makes it fail here instead.  The tracer is read, never imported
from its directory, so nothing is written there.
"""

import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# span -> parameters its INFO entry reads from the bound arguments
INFO_READS = {
    "continuum.condensate_term": ("family", "f", "quad_points"),
    "continuum.resolvent_reference": ("points",),
    "phi_operator.eigh": ("matrix",),
}


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def _functions(tracer, span):
    module, names = tracer.TARGETS[span]
    owner = importlib.import_module(module)
    return [(f"{module}.{name}", getattr(owner, name, None)) for name in names]


def test_every_target_exists(tracer):
    for span in tracer.TARGETS:
        for qualname, fn in _functions(tracer, span):
            assert callable(fn), f"span {span!r} wraps {qualname}, which is gone"


def test_info_reads_existing_parameters(tracer):
    # every argument read in the tracer is listed above, so a new read shows up here
    reads = set(re.findall(r'\ba\["(\w+)"\]', TRACER.read_text(encoding="utf-8")))
    assert reads == {p for params in INFO_READS.values() for p in params}
    for span, params in INFO_READS.items():
        assert span in tracer.INFO
        for qualname, fn in _functions(tracer, span):
            missing = set(params) - set(inspect.signature(fn).parameters)
            assert not missing, f"span {span!r} reads {sorted(missing)}, not parameters of {qualname}"
