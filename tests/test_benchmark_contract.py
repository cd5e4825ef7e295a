"""The names, config keys and flags the benchmark relies on still exist.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and its
``INFO`` entries read arguments of those functions by parameter name.
``perfbench/workloads.py`` generates the config file and argv of every
benchmark command.  A rename or deletion in ``src/`` would only surface as a
crash of a benchmark run; these tests make it fail here instead.  Both files
are read, never imported from their directory, so nothing is written there.
"""

import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

from becbox import cli

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

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


@pytest.fixture
def workloads(monkeypatch):
    module = types.ModuleType("perfbench_workloads")
    # dataclass() looks its defining module up in sys.modules
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    return module


def test_every_benchmark_command_is_accepted(workloads, tmp_path):
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 1, ROOT / "tests" / "golden"):
            path = tmp_path / f"{cmd.label}.cfg"
            path.write_text(cmd.config, encoding="utf-8")
            args = cli.build_parser().parse_args(cmd.argv(path))  # exits 2 on a deleted flag
            cli._load_config(args)  # the config parses and its kind names this command
