"""Spans around calls into becbox's layers, for the traced benchmark run.

Run as a program, it executes one becbox CLI command with every function in
TARGETS wrapped at each of its import sites (a module global of any becbox
module that is bound to the same function object), then writes the spans it
kept in memory as JSON:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json TRACE_ID -- converge --config run.cfg

Imported, it turns span files into per-layer metrics (``layer_metrics``) and
needs neither becbox nor numpy.  Nothing under ``src/`` is edited: the spans
sit at the boundaries the benchmark can see from outside the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# span name -> (module, functions).  The layer is the part before the first dot.
TARGETS = {
    "experiments.run": ("becbox.experiments", [
        "run_converge_sweep", "run_srs_sweep", "run_verify_suite", "run_wick_demo"]),
    "reports.emit": ("becbox.experiments", [
        "emit_converge", "emit_srs", "emit_checks", "emit_wick", "emit_fourier"]),
    "phi_operator.build": ("becbox.phi_operator", ["build_phi_operator"]),
    "phi_operator.basis": ("becbox.phi_operator", ["build_condensate_basis"]),
    "phi_operator.eigh": ("becbox.phi_operator", ["eigendecompose_symmetric"]),
    "phi_operator.two_point": ("becbox.phi_operator", ["two_point_lhs"]),
    "phi_operator.lanczos": ("becbox.phi_operator", ["lanczos_quadratic_form"]),
    "phi_operator.shifted_solve": ("becbox.phi_operator", ["shifted_solve"]),
    "continuum.fourier_oracle": ("becbox.continuum", ["fourier_oracle"]),
    "continuum.momentum_integrals": ("becbox.continuum", [
        "free_gas_integral", "regular_part_integral", "green_integral"]),
    "continuum.condensate_term": ("becbox.continuum", ["condensate_term"]),
    "continuum.resolvent_reference": ("becbox.continuum", ["resolvent_reference"]),
    "continuum.permanent": ("becbox.continuum", ["permanent_ryser", "permanent_enumerate"]),
    "lattice.sine_transform": ("becbox.lattice", ["sine_transform"]),
    "lattice.sample": ("becbox.lattice", ["sample_function"]),
    "harmonics.sample_family": ("becbox.harmonics", ["sample_family"]),
    "verification.checks": ("becbox.verification", [
        "dirichlet_reduction_check", "krein_identity_residual",
        "domain_decomposition_check", "ordering_check", "split_identity_check",
        "boundary_condition_residual", "quadratic_form_identity", "wick_cross_check"]),
}


def _experiment_rows(args, out):
    rows = getattr(out, "rows", None)
    if rows is None:
        return {}
    return {"rows": len(rows) + len(getattr(out, "rows_fine", None) or [])}


# span name -> (bound arguments, result) -> counts recorded with the span.
# Computed after the span has ended, so they cost the span nothing.
INFO = {
    "experiments.run": _experiment_rows,
    "reports.emit": lambda a, out: {"bytes": sum(os.path.getsize(p) for p in out)},
    "phi_operator.build": lambda a, out: {"backend": out.backend},
    "phi_operator.eigh": lambda a, out: {"n": len(a["matrix"])},
    "phi_operator.two_point": lambda a, out: {"split": out.split_agreement},
    "phi_operator.lanczos": lambda a, out: {"steps": out.steps,
                                            "unconverged": int(not out.converged)},
    "continuum.condensate_term": lambda a, out: {
        "mesh_points": 2 * len(a["family"].specs) * a["quad_points"] ** a["f"].dim},
    "continuum.resolvent_reference": lambda a, out: {"points": len(a["points"])},
}


class Tracer:
    """Keeps spans of one command in memory: name, start, end, parent, trace id."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"trace": self.trace_id, "id": len(self.spans),
                    "parent": self._stack[-1] if self._stack else None, "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["info"] = info(bound.arguments, out)
            return out

        return traced

    def install(self) -> int:
        """Wrap every target at every becbox module global bound to it."""
        importlib.import_module("becbox.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "becbox" or n.startswith("becbox.")]
        sites = 0
        for name, (module, functions) in TARGETS.items():
            owner = importlib.import_module(module)
            for fname in functions:
                original = getattr(owner, fname)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            sites += 1
        return sites


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json TRACE_ID -- BECBOX_ARGS...", file=sys.stderr)
        return 2
    spans_path, trace_id, cli_args = argv[0], argv[1], argv[3:]
    from probe import blas_threads

    tracer = Tracer(trace_id)
    sites = tracer.install()
    import becbox.cli

    main_fn = tracer.wrap("cli.main", becbox.cli.main)
    code = 1
    try:
        code = main_fn(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"trace": trace_id, "sites": sites, "exit_code": code,
                       "blas_threads": blas_threads(), "spans": tracer.spans}, fh)
    return code


# --- aggregation (parent side) ------------------------------------------------


def span_table(span_files: list[dict]) -> list[dict]:
    """Flatten span files; add duration, self time and whether the span is the
    outermost of its name along its parent chain."""
    out = []
    for sf in span_files:
        spans = sf["spans"]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            dur = s["end"] - s["start"]
            outer = True
            p = s["parent"]
            while p is not None:
                if spans[p]["name"] == s["name"]:
                    outer = False
                    break
                p = spans[p]["parent"]
            out.append(dict(s, dur=dur, self=dur - child_time[s["id"]], outer=outer))
    return out


def layer_metrics(span_files: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all its commands together)."""
    table = span_table(span_files)

    def total(name):
        return sum(s["dur"] for s in table if s["name"] == name and s["outer"])

    def count(name):
        return sum(1 for s in table if s["name"] == name)

    def info_sum(name, key, fn=lambda v: v):
        return sum(fn(s["info"][key]) for s in table
                   if s["name"] == name and key in s.get("info", {}))

    backends = [s["info"]["backend"] for s in table if s["name"] == "phi_operator.build"]
    splits = [s["info"]["split"] for s in table if s["name"] == "phi_operator.two_point"]
    return {
        "phi_operator.eigh.s": total("phi_operator.eigh"),
        "phi_operator.eigh.calls": count("phi_operator.eigh"),
        "phi_operator.eigh.n3_sum": info_sum("phi_operator.eigh", "n", lambda n: n ** 3),
        "phi_operator.build.s": total("phi_operator.build"),
        "phi_operator.basis.s": total("phi_operator.basis"),
        "phi_operator.backend.dense_rows": backends.count("dense"),
        "phi_operator.backend.lanczos_rows": backends.count("lanczos"),
        "phi_operator.two_point.s": total("phi_operator.two_point"),
        "phi_operator.two_point.calls": count("phi_operator.two_point"),
        "phi_operator.two_point.split_disagreement": max(splits, default=0.0),
        "phi_operator.lanczos.s": total("phi_operator.lanczos"),
        "phi_operator.lanczos.calls": count("phi_operator.lanczos"),
        "phi_operator.lanczos.steps": info_sum("phi_operator.lanczos", "steps"),
        "phi_operator.lanczos.unconverged": info_sum("phi_operator.lanczos", "unconverged"),
        "phi_operator.shifted_solve.s": total("phi_operator.shifted_solve"),
        "continuum.condensate_term.s": total("continuum.condensate_term"),
        "continuum.condensate_term.mesh_points":
            info_sum("continuum.condensate_term", "mesh_points"),
        "continuum.resolvent_reference.s": total("continuum.resolvent_reference"),
        "continuum.resolvent_reference.points":
            info_sum("continuum.resolvent_reference", "points"),
        "continuum.fourier_oracle.s": total("continuum.fourier_oracle"),
        "continuum.momentum_integrals.s": total("continuum.momentum_integrals"),
        "continuum.permanent.s": total("continuum.permanent"),
        "lattice.sine_transform.s": total("lattice.sine_transform"),
        "lattice.sine_transform.calls": count("lattice.sine_transform"),
        "lattice.sample.s": total("lattice.sample"),
        "harmonics.sample_family.s": total("harmonics.sample_family"),
        "verification.checks.s": total("verification.checks"),
        "verification.checks.count": count("verification.checks"),
        "experiments.rows": info_sum("experiments.run", "rows"),
        "experiments.self_s": sum(s["self"] for s in table if s["name"] == "experiments.run"),
        "reports.emit.s": total("reports.emit"),
        "reports.bytes": info_sum("reports.emit", "bytes"),
    }


def self_times(span_files: list[dict]) -> dict[str, float]:
    """Self time per span name, largest first."""
    acc: dict[str, float] = {}
    for s in span_table(span_files):
        acc[s["name"]] = acc.get(s["name"], 0.0) + s["self"]
    return dict(sorted(acc.items(), key=lambda kv: -kv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
