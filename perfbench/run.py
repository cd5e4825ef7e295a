"""becbox benchmark: whole CLI commands, checked against references, timed,
and in a separate traced run split per layer.

    python3 perfbench/run.py --workload converge-d2 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (the directory holding ``src/`` and
``tests/golden/``); nothing is installed, the commands import ``src/``.  The
commands of a workload run one at a time, each in a fresh process (a closed
loop with one client), with BLAS left at its default thread count.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Everything else, including the environment and
every child's timings, goes to ``.perfbench_runs/<workload>-seed<n>-trace<t>/``.
NOTES.md explains the workloads, the metrics and the known baseline readings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0     # every run ends well inside 180 s
SETUP_REPEATS = 3


@dataclass
class Child:
    label: str
    code: int | None
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float, label: str) -> Child:
    """Run one process to completion; its peak RSS comes from wait4."""
    out_path, err_path = cwd / f"{label}.stdout", cwd / f"{label}.stderr"
    reaped: dict = {}
    with open(out_path, "wb") as so, open(err_path, "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=so, stderr=se)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        try:
            waiter.join(max(timeout, 0.1))
        finally:
            timed_out = waiter.is_alive()
            if timed_out:
                proc.kill()
                waiter.join()
            proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Child(
        label=label, code=None if timed_out else proc.returncode,
        wall_s=reaped["end"] - start, maxrss_mb=reaped["usage"].ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"), timed_out=timed_out,
    )


@dataclass
class Pass:
    """One execution of all of a workload's commands, in order."""

    name: str
    wall_s: float
    children: list[Child]
    outcomes: list[workloads.Outcome]
    spans: list[dict] = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int, trace: int):
        self.work = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}-trace{trace}"
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.commands = workloads.commands(workload, seed, ROOT / "tests" / "golden")
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "configs").mkdir(parents=True)
        self.configs = []
        for cmd in self.commands:
            path = self.work / "configs" / f"{cmd.label}.cfg"
            path.write_text(cmd.config, encoding="utf-8")
            self.configs.append(path)
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> tuple[list[float], dict]:
        """Fresh processes that import becbox.cli and parse and validate every
        config; the first (untimed) one warms caches and reports the
        environment."""
        probe = [sys.executable, str(HERE / "probe.py")]
        configs = [str(p) for p in self.configs]
        warm = run_child(probe + ["--env"] + configs, self.work, self.env,
                         self.remaining(), "setup-warm")
        if warm.code != 0:
            raise RuntimeError(f"set-up probe failed: {warm.stderr.strip()}")
        env = json.loads(warm.stdout.strip().splitlines()[-1])
        times = []
        for i in range(SETUP_REPEATS):
            child = run_child(probe + configs, self.work, self.env, self.remaining(),
                              f"setup-{i}")
            if child.code != 0:
                raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
            times.append(child.wall_s)
        return times, env

    # -- one pass over the workload's commands ----------------------------------

    def run_pass(self, name: str, traced: bool = False, env: dict | None = None) -> Pass:
        pdir = self.work / name
        (pdir / "out").mkdir(parents=True)
        children = []
        start = time.perf_counter()
        for cmd, cfg in zip(self.commands, self.configs):
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"),
                        str(pdir / f"{cmd.label}.spans.json"), cmd.label, "--"]
            else:
                argv = [sys.executable, "-m", "becbox.cli"]
            child = run_child(argv + cmd.argv(cfg), pdir, env or self.env,
                              self.remaining(), cmd.label)
            children.append(child)
            if child.timed_out:
                break
        wall = time.perf_counter() - start
        # checks run after the clock stops
        outcomes = []
        for cmd, child in zip(self.commands, children):
            outcome = workloads.Outcome()
            outcome.require(not child.timed_out, f"{cmd.label}: timed out")
            outcome.require(child.code in (0, 1) and "Traceback" not in child.stderr,
                            f"{cmd.label}: exit {child.code}: {child.stderr.strip()[-300:]}")
            try:
                cmd.check(outcome, pdir / "out", cmd.label, child.stdout)
            except (KeyError, IndexError, TypeError, ValueError) as e:
                outcome.problems.append(f"{cmd.label}: malformed output ({e!r})")
            outcomes.append(outcome)
        self.attempted += len(self.commands)
        for cmd, outcome in zip(self.commands, outcomes + [None] * len(self.commands)):
            if outcome is None:
                self.failures.append(f"{name}/{cmd.label}: not run (time limit)")
            elif outcome.problems:
                self.failures.append(f"{name}/{cmd.label}: " + "; ".join(outcome.problems))
        result = Pass(name, wall, children, outcomes)
        if traced:
            for cmd in self.commands[:len(children)]:
                path = pdir / f"{cmd.label}.spans.json"
                if path.is_file():
                    result.spans.append(json.loads(path.read_text()))
        return result

    def repeat(self, name: str, seconds: float) -> list[Pass]:
        """Untraced passes one after another while another one still fits in
        ``seconds`` (at least one)."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(f"{name}-{len(passes)}"))
            typical = statistics.median(p.wall_s for p in passes)
            elapsed = time.perf_counter() - start
            if (elapsed + typical > seconds or typical > self.remaining()
                    or len(passes[-1].children) < len(self.commands)):
                return passes

    def compare_outputs(self, plain: Pass, traced: Pass) -> None:
        """Traced outputs must be byte-identical to the untraced ones."""
        a, b = self.work / plain.name / "out", self.work / traced.name / "out"
        names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
        differ = [n for n in names if not ((a / n).is_file() and (b / n).is_file()
                                           and (a / n).read_bytes() == (b / n).read_bytes())]
        if differ:
            self.failures.append(f"{traced.name}: outputs differ from untraced: {differ}")


def reported_failures(passes: list[Pass]) -> list[str]:
    return sorted({f for p in passes for o in p.outcomes for f in o.reported_failures})


def end_to_end(bench: Bench, passes: list[Pass], setup_times: list[float]) -> dict:
    final = [o.final_err for p in passes for o, c in zip(p.outcomes, bench.commands)
             if c.gives_final_err and o.final_err is not None]
    if not final:
        raise RuntimeError("no command produced a final error")
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(c.maxrss_mb for p in passes for c in p.children),
        "final_err": final[-1],
    }


# printed beside the bounded end-to-end metrics; NOTES.md says why they are gates
GATE_UNITS = {"fail_ratio": "1", "checks_failed": "count", "split_disagreement": "1"}


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units declared in BENCHMARK.json for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_revision() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metrics, and return the result object."""
    bench = Bench(workload, seed, trace)
    setup_times, environment = bench.setup()
    environment["git_revision"] = git_revision()
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                    "environment": environment, "setup_s": setup_times}

    if trace == 0:
        passes = bench.repeat("plain", seconds)
        metrics = end_to_end(bench, passes, setup_times)
    else:
        # per-layer metrics have no bound: one pass of each kind is enough
        plain = bench.run_pass("plain")
        traced = bench.run_pass("traced", traced=True)
        bench.compare_outputs(plain, traced)
        env_1t = dict(bench.env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
        single = bench.run_pass("traced-1t", traced=True, env=env_1t)
        passes = [plain, traced, single]
        metrics = tracer.layer_metrics(traced.spans)
        metrics["phi_operator.eigh.s_1t"] = tracer.layer_metrics(single.spans)["phi_operator.eigh.s"]
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        record["blas_threads"] = {p.name: [s.get("blas_threads") for s in p.spans]
                                  for p in (traced, single)}
        record["self_times_s"] = tracer.self_times(traced.spans)
        record["layer_self_s"] = {}
        for name, t in record["self_times_s"].items():
            layer = name.split(".")[0]
            record["layer_self_s"][layer] = record["layer_self_s"].get(layer, 0.0) + t
        record["end_to_end_untraced"] = end_to_end(bench, [plain], setup_times)

    units = declared_units(trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    reported = reported_failures(passes)
    known = workloads.KNOWN_FAILURES[workload]
    unexpected = sorted(set(reported) - known)
    splits = [o.split for p in passes for o in p.outcomes if o.split is not None]
    failed = len(bench.failures)
    record.update(
        passes=[{"name": p.name, "wall_s": p.wall_s,
                 "children": [{"label": c.label, "code": c.code, "wall_s": c.wall_s,
                               "maxrss_mb": c.maxrss_mb} for c in p.children]}
                for p in passes],
        failures=bench.failures, reported_failures=reported, unexpected_failures=unexpected,
        metrics=metrics,
    )
    (bench.work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"passes {len(passes)}  commands {bench.attempted}")
    print(f"environment {json.dumps(environment, sort_keys=True)}")
    shown = dict(metrics)
    if trace == 0:
        shown.update(fail_ratio=failed / bench.attempted, checks_failed=len(reported),
                     split_disagreement=max(splits) if splits else "n/a (no two-point rows)")
    for name, value in shown.items():
        if isinstance(value, (int, float)):
            value = f"{value:.6g} {units.get(name) or GATE_UNITS[name]}"
        print(f"  {name:44s} {value}")
    if trace == 1:
        top = list(record["self_times_s"].items())[:4]
        print("  largest self times: " + ", ".join(f"{n} {s:.3f} s" for n, s in top))
        print("  self time per layer: " + ", ".join(
            f"{n} {s:.3f} s" for n, s in record["layer_self_s"].items()))
    for line in reported:
        print(f"  program reports failed check {line} ({'known' if line in known else 'NEW'})")
    for line in bench.failures:
        print(f"  FAILED {line}", file=sys.stderr)
    return {
        "correct": failed == 0 and not unexpected, "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/becbox/cli.py", "tests/golden/converge_d2.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a becbox source checkout: missing {missing} under {ROOT}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
