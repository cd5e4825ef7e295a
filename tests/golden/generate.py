"""Regenerate the golden files for the acceptance suite.

Run from the repository root:

    python tests/golden/generate.py

Each golden file freezes the acceptance configuration, the oracle values it
was calibrated against (including a double-resolution recomputation of the
right-hand side), and the observed error columns.  Thresholds come from the
acceptance contract and are stored alongside for the tests to read.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from becbox import continuum as ct
from becbox import experiments as ex
from becbox.config import parse_config_text
from becbox.harmonics import parse_family

HERE = os.path.dirname(os.path.abspath(__file__))

CONVERGE_D1 = """
kind = converge
dim = 1
beta = 1.0
family = affine:a=0,b=1
f = dipole:c=0,s=1,a=0.75
L_start = 8
L_factor = 2
L_steps = 4
h = 0.0625
h_richardson = 0.03125
cutoff = 80
p_spacing = 0.02
quad_points = 2048
zero_wall_time = true
seed = 1234
"""

CONVERGE_D2 = """
kind = converge
dim = 2
beta = 1.0
family = hpoly2:n=1,part=re;hpoly2:n=2,part=re
f = dipole2:cx=0,cy=0,s=1,ax=0.75,ay=0.75,axis=x
L_list = 4,6,8
h = 0.125
cutoff = 40
p_spacing = 0.05
quad_points = 2048
zero_wall_time = true
seed = 1234
"""

SRS_D1 = """
kind = srs
dim = 1
family = affine:a=0,b=1
u = bump:c=1,a=1
L_start = 8
L_factor = 2
L_steps = 4
h = 0.0625
window_margin = 2.0
zero_wall_time = true
seed = 1234
"""


def _double_resolution_rhs(cfg):
    family = parse_family(cfg.family)
    f = ct.parse_test_function(cfg.f)
    table = ct.fourier_oracle(f, 2 * cfg.cutoff, cfg.p_spacing / 2, 2 * cfg.quad_points)
    rhs = ct.two_point_rhs(family, f, f, cfg.beta, table, None, 2 * cfg.quad_points)
    return rhs.total


def converge_golden(config_text, threshold_final):
    cfg = parse_config_text(config_text)
    report = ex.run_converge_sweep(cfg)
    double = _double_resolution_rhs(cfg)
    stability = abs(report.rhs.total - double) / abs(double)
    assert stability <= 1e-6, f"oracle not converged: {stability:.3e}"
    final = report.final_rows()
    return {
        "config": config_text.strip(),
        "rhs_total_re": report.rhs.total.real,
        "rhs_condensate_re": report.rhs.condensate.real,
        "rhs_free_gas_re": report.rhs.free_gas.real,
        "rhs_double_resolution_re": double.real,
        "oracle_stability_rel": stability,
        "observed_rel_err": [r.rel_err for r in report.rows],
        "observed_rel_err_final_rows": [r.rel_err for r in final],
        "observed_final_rel_err": final[-1].rel_err,
        "threshold_final_rel_err": threshold_final,
    }


def srs_golden(config_text, threshold_final):
    cfg = parse_config_text(config_text)
    report = ex.run_srs_sweep(cfg)
    return {
        "config": config_text.strip(),
        "observed_err": [r.err for r in report.rows],
        "observed_final_err": report.rows[-1].err,
        "all_decreasing": report.all_decreasing(),
        "threshold_final_err": threshold_final,
    }


def main():
    files = {
        "converge_d1.json": converge_golden(CONVERGE_D1, 2e-2),
        "converge_d2.json": converge_golden(CONVERGE_D2, 1e-1),
        "srs_d1.json": srs_golden(SRS_D1, 2e-2),
    }
    for name, payload in files.items():
        path = os.path.join(HERE, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
