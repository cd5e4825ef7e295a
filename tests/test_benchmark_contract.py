"""The names, config keys and flags the benchmark relies on still exist.

``perfbench/tracer.py`` wraps the functions listed in its ``TARGETS`` and its
``INFO`` entries read arguments of those functions by parameter name and
attributes of what they return.
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

import numpy as np
import pytest

import becbox as bb
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

# span -> attributes its INFO entry reads from the wrapped function's result
RESULT_READS = {
    "phi_operator.build": ("backend",),
    "phi_operator.two_point": ("split_agreement",),
    "phi_operator.lanczos": ("steps", "converged"),
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


def test_info_reads_existing_result_attributes(tracer):
    # every result attribute INFO reads is listed above, so a new read shows up here
    source = TRACER.read_text(encoding="utf-8")
    info = source[source.index("\nINFO = {"):]
    reads = set(re.findall(r"\bout\.(\w+)", info[: info.index("\n}\n")]))
    assert reads == {r for attrs in RESULT_READS.values() for r in attrs}
    grid = bb.make_grid(1, [1.0], 0.25)
    op = bb.build_phi_operator(grid, bb.parse_family("affine:a=0,b=1"))
    f = bb.GridField(grid, np.array([1.0, -0.5, 0.25]))
    # span -> the function it wraps and that function's result on a 3-node grid
    results = {
        "phi_operator.build": ("build_phi_operator", op),
        "phi_operator.two_point": ("two_point_lhs", bb.two_point_lhs(op, 1.0, f)),
        "phi_operator.lanczos": ("lanczos_quadratic_form",
                                 bb.lanczos_quadratic_form(op, (bb.Bose(1.0),), f)),
    }
    for span, attrs in RESULT_READS.items():
        assert span in tracer.INFO
        name, out = results[span]
        assert tracer.TARGETS[span] == ("becbox.phi_operator", [name])
        missing = [attr for attr in attrs if not hasattr(out, attr)]
        assert not missing, f"span {span!r} reads {missing}, not attributes of {name}'s result"


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


def test_every_traced_span_fires(tracer, workloads, tmp_path, monkeypatch, capsys):
    """Every benchmark command, run in process with the tracer's wrappers
    installed, reaches every span of ``TARGETS`` but ``phi_operator.eigh``,
    which no build calls: a span that never fires reads 0 in every per-layer
    metric it feeds, whatever its layer costs.  The wrappers are removed
    afterwards, and the commands write only under ``tmp_path``."""
    modules = [importlib.import_module(name) for name in ["becbox.cli", *sorted(
        n for n in sys.modules if n == "becbox" or n.startswith("becbox."))]]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            monkeypatch.setattr(mod, attr, value)  # undone at teardown, wrapped or not
    trace = tracer.Tracer("ci")
    assert trace.install() > 0
    monkeypatch.chdir(tmp_path)
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 1, ROOT / "tests" / "golden"):
            path = tmp_path / f"{cmd.label}.cfg"
            path.write_text(cmd.config, encoding="utf-8")
            assert cli.main(cmd.argv(path)) in (0, 1), cmd.label  # 1: a check the program failed
    capsys.readouterr()
    fired = {span["name"] for span in trace.spans}
    assert set(tracer.TARGETS) - fired == {"phi_operator.eigh"}
