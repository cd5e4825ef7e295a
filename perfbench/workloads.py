"""The benchmark's workloads: generated configs, commands and reference checks.

A workload is a list of becbox CLI commands, run one at a time.  Each command
gets a config file generated here, carrying the workload seed and
``zero_wall_time = true``, and its outputs are checked against a reference:
the committed goldens under ``tests/golden`` (read only), or bounds and
identities stated in this file.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CONVERGE_HEADER = ["L", "N", "h", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_err",
                   "rel_err", "green_term", "regular_term", "condensate_term", "wall_time_s"]
SRS_HEADER = ["L", "N", "h", "err", "decreasing", "wall_time_s"]

GOLDEN_RTOL = 1e-6           # the tests' tolerance for golden values
SRS_D2_FINAL_ERR_BOUND = 1e-4  # observed 8.150e-5; p_spacing = 0.05 gives the same
WICK_RTOL = 1e-10            # Ryser (program) against Glynn (benchmark)
SPLIT_BOUND = 1e-10          # direct vs split two-point value; 3.1e-11 on krylov-d2
SYMMETRY_RTOL = 1e-12

SRS_D2 = """
kind = srs
dim = 2
family = hpoly2:n=1,part=re;hpoly2:n=2,part=re
u = bump2:cx=1,cy=0,ax=1,ay=1
L_list = 8,16,32
h = 0.125
window_margin = 1.0
cutoff = 40
p_spacing = 0.1
"""

VERIFY_D1 = "kind = verify\n"  # the built-in defaults

VERIFY_D2 = """
kind = verify
dim = 2
family = hpoly2:n=1,part=re;hpoly2:n=2,part=re
L_list = 8
h = 0.25
"""

WICK = """
kind = wick
L_list = 32
h = 0.03125
wick_n = 12
"""

VERIFY_D1_CHECKS = ["dirichlet_reduction", "krein_identity", "krein_identity",
                    "domain_decomposition", "eigenvalue_ordering", "split_identity",
                    "boundary_condition", "quadratic_form_identity", "wick_permanent"]
VERIFY_D2_CHECKS = ["dirichlet_reduction", "krein_identity", "krein_identity",
                    "domain_decomposition", "eigenvalue_ordering", "split_identity",
                    "wick_permanent"]

WORKLOADS = ["converge-d2", "krylov-d2", "srs-d2", "cli-session"]

# Checks the program reports as failed at the time the benchmark was added
# (NOTES.md explains each).  Any other reported failure makes a run incorrect;
# fixing one of these does not.
KNOWN_FAILURES = {
    "converge-d2": set(),
    "krylov-d2": {"krylov_d2:pass"},
    "srs-d2": set(),
    "cli-session": {"verify_d2:eigenvalue_ordering"},
}


@dataclass
class Outcome:
    """What the benchmark learned from one command's outputs."""

    problems: list[str] = field(default_factory=list)   # reference-check failures
    reported_failures: list[str] = field(default_factory=list)  # program's own
    final_err: float | None = None
    split: float | None = None

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass(frozen=True)
class Command:
    label: str        # output basename and trace id
    subcommand: str
    config: str
    check: Callable[[Outcome, Path, str, str], None]  # (outcome, out dir, label, stdout)
    gives_final_err: bool = False

    def argv(self, config_path: Path) -> list[str]:
        return [self.subcommand, "--config", str(config_path), "--out", "out",
                "--label", self.label]


def set_keys(text: str, **values) -> str:
    """Config text with the given keys replaced (or appended)."""
    keep = [line for line in text.strip().splitlines()
            if line.split("=", 1)[0].strip() not in values]
    return "\n".join(keep + [f"{k} = {v}" for k, v in values.items()]) + "\n"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _load_json(outcome: Outcome, path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        outcome.problems.append(f"{path.name}: missing or malformed ({e})")
        return None


def _load_csv(outcome: Outcome, path: Path, header: list[str]) -> list[dict] | None:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader)
            rows = [dict(zip(got, [float(x) for x in r])) for r in reader]
    except (OSError, ValueError, StopIteration) as e:
        outcome.problems.append(f"{path.name}: missing or malformed ({e})")
        return None
    outcome.require(got == header, f"{path.name}: header {got}")
    return rows


def _check_grid_sizes(outcome: Outcome, name: str, rows: list[dict], dim: int) -> None:
    for r in rows:
        n_axis = round(r["L"] / r["h"]) - 1
        outcome.require(r["N"] == n_axis ** dim, f"{name}: N = {r['N']} at L = {r['L']}")


def converge_check(golden: dict, dim: int, match_golden_rows: bool) -> Callable:
    """Golden right-hand side and split bound; then either the golden error
    column (which implies the golden's strict decrease) or the golden
    threshold on every row.  The program's own pass flag is only reported."""

    def check(outcome: Outcome, out: Path, label: str, stdout: str) -> None:
        summary = _load_json(outcome, out / f"{label}.json")
        csv_names = [f"{label}.csv"]
        if "h_richardson" in golden["config"]:
            csv_names += [f"{label}_fine.csv", f"{label}_richardson.csv"]
        tables = [_load_csv(outcome, out / n, CONVERGE_HEADER) for n in csv_names]
        outcome.require((out / f"{label}.svg").is_file(), f"{label}.svg missing")
        if summary is None or None in tables:
            return
        for name, rows in zip(csv_names, tables):
            _check_grid_sizes(outcome, name, rows, dim)
        errs = summary["rel_err"]
        final_rows = tables[-1]
        outcome.require(summary["rows"] == len(tables[0]) == len(errs), f"{label}: row count")
        outcome.require(errs == [r["rel_err"] for r in final_rows],
                        f"{label}: JSON rel_err differs from the CSV")
        rhs_dev = _rel(summary["rhs"]["total_re"], golden["rhs_total_re"])
        outcome.require(rhs_dev <= GOLDEN_RTOL, f"{label}: rhs off golden by {rhs_dev:.2e}")
        threshold = golden["threshold_final_rel_err"]
        if match_golden_rows:
            ref = golden["observed_rel_err_final_rows"]
            outcome.require(len(errs) == len(ref) and
                            all(_rel(e, g) <= GOLDEN_RTOL for e, g in zip(errs, ref)),
                            f"{label}: rel_err {errs} off golden {ref}")
            outcome.require(errs[-1] <= threshold, f"{label}: final {errs[-1]:.3e} > {threshold}")
        else:
            outcome.require(all(e <= threshold for e in errs),
                            f"{label}: a row's rel_err exceeds {threshold}")
        split = summary["max_split_disagreement"]
        outcome.require(split <= SPLIT_BOUND, f"{label}: split disagreement {split:.2e}")
        if not summary["pass"]:
            outcome.reported_failures.append(f"{label}:pass")
        outcome.final_err = summary["final_rel_err"]
        outcome.split = split

    return check


def srs_check(golden: dict | None, dim: int) -> Callable:
    """Golden error column when a golden exists, else the stated final bound."""

    def check(outcome: Outcome, out: Path, label: str, stdout: str) -> None:
        summary = _load_json(outcome, out / f"{label}_srs.json")
        rows = _load_csv(outcome, out / f"{label}_srs.csv", SRS_HEADER)
        outcome.require((out / f"{label}_srs.svg").is_file(), f"{label}_srs.svg missing")
        if summary is None or rows is None:
            return
        _check_grid_sizes(outcome, f"{label}_srs.csv", rows, dim)
        errs = [r["err"] for r in rows]
        outcome.require(summary["rows"] == len(rows) and summary["final_err"] == errs[-1],
                        f"{label}: JSON disagrees with the CSV")
        outcome.require(summary["all_decreasing"] and all(r["decreasing"] for r in rows),
                        f"{label}: errors not decreasing")
        if golden is not None:
            ref = golden["observed_err"]
            outcome.require(len(errs) == len(ref) and
                            all(_rel(e, g) <= GOLDEN_RTOL for e, g in zip(errs, ref)),
                            f"{label}: err {errs} off golden {ref}")
            bound = golden["threshold_final_err"]
        else:
            bound = SRS_D2_FINAL_ERR_BOUND
        outcome.require(errs[-1] <= bound, f"{label}: final err {errs[-1]:.3e} > {bound}")
        if not summary["pass"]:
            outcome.reported_failures.append(f"{label}:pass")
        outcome.final_err = summary["final_err"]

    return check


def verify_check(expected: list[str], all_pass: bool) -> Callable:
    """Every decided pass flag agrees with its residuals and tolerances, and
    the failures agree with the [FAIL] lines printed; optionally every check
    passes."""

    def check(outcome: Outcome, out: Path, label: str, stdout: str) -> None:
        payload = _load_json(outcome, out / f"{label}_checks.json")
        if payload is None:
            return
        checks = payload["checks"]
        outcome.require([c["name"] for c in checks] == expected, f"{label}: check list")
        for c in checks:
            if not c["context"].get("inconclusive"):
                derived = all(c["residuals"][k] <= tol for k, tol in c["tolerances"].items())
                outcome.require(c["pass"] == derived, f"{label}: {c['name']} pass flag")
        failed = [c["name"] for c in checks if not c["pass"]]
        outcome.require(payload["pass"] == (not failed), f"{label}: top-level pass flag")
        fail_lines = [ln for ln in stdout.splitlines() if ln.startswith("[FAIL]")]
        outcome.require(len(fail_lines) == len(failed), f"{label}: [FAIL] lines vs JSON")
        if all_pass:
            outcome.require(not failed, f"{label}: failed checks {failed}")
        outcome.reported_failures.extend(f"{label}:{name}" for name in failed)

    return check


def permanent_glynn(T: list[list[complex]]) -> complex:
    """Permanent by Glynn's formula, delta vectors visited in Gray-code order."""
    n = len(T)
    if n == 0:
        return 1.0 + 0.0j
    delta = [1] * n
    sums = [sum(T[i][j] for i in range(n)) for j in range(n)]
    sign = 1
    total = math.prod(sums)
    for k in range(1, 2 ** (n - 1)):
        i = (k & -k).bit_length()  # flip delta_i; delta_0 stays +1
        delta[i] = -delta[i]
        sign = -sign
        row = T[i]
        sums = [s + 2 * delta[i] * row[j] for j, s in enumerate(sums)]
        total += sign * math.prod(sums)
    return complex(total) / 2 ** (n - 1)


def wick_check(n: int) -> Callable:
    """The two-point matrix is symmetric, and the program's Ryser permanent
    agrees with Glynn's formula evaluated here."""

    def check(outcome: Outcome, out: Path, label: str, stdout: str) -> None:
        payload = _load_json(outcome, out / f"{label}_wick.json")
        if payload is None:
            return
        re, im = payload["two_point_matrix_re"], payload["two_point_matrix_im"]
        outcome.require(payload["n"] == n and len(re) == n and all(len(r) == n for r in re),
                        f"{label}: matrix shape")
        if outcome.problems:
            return
        T = [[complex(re[i][j], im[i][j]) for j in range(n)] for i in range(n)]
        scale = max(abs(x) for row in T for x in row)
        asym = max(abs(T[i][j] - T[j][i]) for i in range(n) for j in range(n))
        outcome.require(asym <= SYMMETRY_RTOL * scale, f"{label}: asymmetry {asym:.2e}")
        ryser = complex(payload["npoint_value_re"], payload["npoint_value_im"])
        glynn = permanent_glynn(T)
        dev = abs(ryser - glynn) / max(abs(glynn), 1e-300)
        outcome.require(dev <= WICK_RTOL, f"{label}: Ryser vs Glynn {dev:.2e}")

    return check


def load_goldens(golden_dir: Path) -> dict:
    out = {}
    for name in ("converge_d1", "converge_d2", "srs_d1"):
        with open(golden_dir / f"{name}.json", encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def commands(workload: str, seed: int, golden_dir: Path) -> list[Command]:
    """The workload's commands, with configs generated from the seed."""
    g = load_goldens(golden_dir)

    def cfg(text: str, **extra) -> str:
        return set_keys(text, **extra, zero_wall_time="true", seed=seed)

    d2 = g["converge_d2"]
    if workload == "converge-d2":
        return [Command("converge_d2", "converge", cfg(d2["config"]),
                        converge_check(d2, 2, match_golden_rows=True), True)]
    if workload == "krylov-d2":
        return [Command("krylov_d2", "converge",
                        cfg(d2["config"], L_list="16,32", backend="lanczos"),
                        converge_check(d2, 2, match_golden_rows=False), True)]
    if workload == "srs-d2":
        return [Command("srs_d2", "srs", cfg(SRS_D2), srs_check(None, 2), True)]
    if workload == "cli-session":
        return [
            Command("converge_d1", "converge", cfg(g["converge_d1"]["config"]),
                    converge_check(g["converge_d1"], 1, match_golden_rows=True), True),
            Command("srs_d1", "srs", cfg(g["srs_d1"]["config"]), srs_check(g["srs_d1"], 1)),
            Command("verify_d1", "verify", cfg(VERIFY_D1),
                    verify_check(VERIFY_D1_CHECKS, all_pass=True)),
            Command("verify_d2", "verify", cfg(VERIFY_D2),
                    verify_check(VERIFY_D2_CHECKS, all_pass=False)),
            Command("wick", "wick", cfg(WICK), wick_check(12)),
        ]
    raise KeyError(workload)
