import dataclasses
import gc
import json
import os
import runpy
import subprocess
import sys
import xml.etree.ElementTree as ET
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import becbox as bb
import becbox.cli as cli
from becbox import continuum as ct
from becbox import experiments as ex
from becbox import phi_operator as po
from becbox import verification as vf
from becbox.config import ConfigError, ExperimentConfig, parse_config_text
from becbox.continuum import HypothesisError
from conftest import barred, traced_peak

MINI_CONVERGE = """
kind = converge
dim = 1
beta = 1.0
family = affine:a=0,b=1
f = dipole:c=0,s=1,a=0.75
L_start = 8
L_factor = 2
L_steps = 2
h = 0.125
cutoff = 40
p_spacing = 0.05
quad_points = 1024
zero_wall_time = true
seed = 7
"""

# one small config per command, and the experiments functions (by name) each
# command runs and emits through
TINY = {
    "converge": MINI_CONVERGE,
    "srs": "kind = srs\nL_start = 8\nL_steps = 2\nh = 0.25\n",
    "verify": "kind = verify\nL_list = 8\nh = 0.25\n",
    "wick": "kind = wick\nwick_n = 3\nL_start = 4\nh = 0.0625\n",
    "fourier-dump": "kind = fourier\ncutoff = 10\np_spacing = 0.1\nquad_points = 512\n",
}
RUN_EMIT = {
    "converge": ["run_converge_sweep", "emit_converge"],
    "srs": ["run_srs_sweep", "emit_srs"],
    "verify": ["run_verify_suite", "emit_checks"],
    "wick": ["run_wick_demo", "emit_wick"],
    "fourier-dump": ["emit_fourier"],
}


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("h = 0.5\nh = 0.25")

    def test_h_must_divide_L(self):
        with pytest.raises(ConfigError, match="does not divide"):
            parse_config_text("L_start = 8\nh = 0.3")

    def test_L_schedule_increasing(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config_text("L_list = 8,4\nh = 0.5")

    def test_L_list_overrides_schedule(self):
        cfg = parse_config_text("L_list = 4,6,8\nh = 0.125")
        assert cfg.lengths() == [4.0, 6.0, 8.0]

    def test_bool_and_comments(self):
        cfg = parse_config_text("# comment\nzero_wall_time = yes\n")
        assert cfg.zero_wall_time is True
        assert parse_config_text("zero_wall_time = off\n").zero_wall_time is False

    def test_beta_positive(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config_text("beta = -2")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("L_steps = few")


@pytest.fixture(scope="module")
def mini_report():
    return ex.run_converge_sweep(parse_config_text(MINI_CONVERGE))


class TestConvergeSweep:
    def test_rhs_constant_across_rows(self, mini_report):
        assert len({r.rhs for r in mini_report.rows}) == 1

    def test_condensate_column_constant(self, mini_report):
        # the overlap sums only see supp f, and the node lattice is shared
        vals = [r.condensate_term for r in mini_report.rows]
        assert abs(vals[1] - vals[0]) <= 1e-13 * abs(vals[0])

    def test_split_identity_on_every_row(self, mini_report):
        assert max(r.split_agreement for r in mini_report.rows) <= 1e-12

    def test_rel_err_decreases(self, mini_report):
        errs = [r.rel_err for r in mini_report.rows]
        assert errs[1] < errs[0]

    def test_richardson_rows(self):
        cfg = parse_config_text(MINI_CONVERGE + "h_richardson = 0.0625\n")
        report = ex.run_converge_sweep(cfg)
        assert report.rows_richardson is not None
        # extrapolation removes the h^2 bias: (4 v2 - v1) / 3
        for a, b, r in zip(report.rows, report.rows_fine, report.rows_richardson):
            expected = (4 * b.lhs - a.lhs) / 3
            assert r.lhs == pytest.approx(expected, rel=1e-12)

    def test_support_must_fit_smallest_box(self):
        cfg = parse_config_text(MINI_CONVERGE.replace("L_start = 8", "L_start = 2"))
        with pytest.raises(HypothesisError, match="support"):
            ex.run_converge_sweep(cfg)

    def test_nonzero_mean_rejected_d1(self):
        cfg = parse_config_text(MINI_CONVERGE.replace(
            "f = dipole:c=0,s=1,a=0.75", "f = bump:c=0,a=0.75"))
        with pytest.raises(HypothesisError):
            ex.run_converge_sweep(cfg)


class TestEmission:
    def test_csv_header_and_determinism(self, tmp_path, mini_report):
        paths = ex.emit_converge(mini_report, str(tmp_path), "a")
        csv_path = tmp_path / "a.csv"
        first = csv_path.read_bytes()
        header = first.decode().splitlines()[0]
        assert header == ("L,N,h,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,"
                          "green_term,regular_term,condensate_term,wall_time_s")
        # a fresh computation of the same config emits byte-identical files
        report2 = ex.run_converge_sweep(parse_config_text(MINI_CONVERGE))
        ex.emit_converge(report2, str(tmp_path), "b")
        assert (tmp_path / "b.csv").read_bytes() == first
        # re-emission of the unchanged report is also byte-identical
        ex.emit_converge(mini_report, str(tmp_path), "c")
        assert (tmp_path / "c.csv").read_bytes() == first
        assert str(csv_path) in paths

    def test_json_summary(self, tmp_path, mini_report):
        ex.emit_converge(mini_report, str(tmp_path), "s")
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["rows"] == 2
        assert doc["verdict"] == "converging" and doc["pass"] is True
        assert "strictly_decreasing" not in doc
        assert len(doc["input_hash"]) == 40
        assert doc["config"]["family"] == "affine:a=0,b=1"

    def test_oracle_wall_time_is_zeroed_like_the_csv_column(self, tmp_path, mini_report):
        """The JSON's rhs block carries the oracle's wall time; zero_wall_time
        zeroes it, so a fresh run of the same config emits the same bytes."""
        assert mini_report.oracle_wall_time_s > 0
        ex.emit_converge(mini_report, str(tmp_path), "a")
        ex.emit_converge(ex.run_converge_sweep(parse_config_text(MINI_CONVERGE)),
                         str(tmp_path), "b")
        first = (tmp_path / "a.json").read_bytes()
        assert json.loads(first)["rhs"]["oracle_wall_time_s"] == 0.0
        assert (tmp_path / "b.json").read_bytes() == first
        timed = dataclasses.replace(mini_report,
                                    config=dict(mini_report.config, zero_wall_time=False))
        ex.emit_converge(timed, str(tmp_path), "t")
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["rhs"]["oracle_wall_time_s"] == mini_report.oracle_wall_time_s

    def test_split_disagreement_covers_the_fine_rows(self, tmp_path, mini_report):
        """A Richardson run's JSON reports the largest disagreement of every
        row it reads, the fine sweep's included: its Richardson rows carry
        max(coarse, fine), and the coarse rows alone miss the fine one."""
        fine = [dataclasses.replace(r, split_agreement=r.split_agreement + 1e-9)
                for r in mini_report.rows]
        rich = [dataclasses.replace(b, split_agreement=max(a.split_agreement, b.split_agreement))
                for a, b in zip(mini_report.rows, fine)]
        report = dataclasses.replace(mini_report, rows_fine=fine, rows_richardson=rich)
        ex.emit_converge(report, str(tmp_path), "r")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["max_split_disagreement"] == max(r.split_agreement for r in fine)
        assert doc["max_split_disagreement"] > max(r.split_agreement for r in mini_report.rows)

    def test_svg_well_formed(self, tmp_path, mini_report):
        ex.emit_converge(mini_report, str(tmp_path), "p")
        tree = ET.parse(tmp_path / "p.svg")
        polylines = tree.getroot().findall(
            ".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 1  # one series, one polyline

    def test_git_blob_sha_is_gits_hash(self):
        from becbox.reports import git_blob_sha
        assert git_blob_sha(b"hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"

    def test_float_formatting(self):
        from becbox.reports import format_float
        assert format_float(0.125) == "1.2500000000000000e-01"
        assert len(format_float(np.pi).split("e")[0].replace("-", "").replace(".", "")) == 17


class TestSrsSweep:
    def test_mini_run(self):
        cfg = parse_config_text(
            "kind = srs\nu = bump:c=1,a=1\nfamily = affine:a=0,b=1\n"
            "L_start = 8\nL_factor = 2\nL_steps = 2\nh = 0.125\nwindow_margin = 1\n"
            "zero_wall_time = true\n")
        report = ex.run_srs_sweep(cfg)
        assert len(report.rows) == 2
        assert report.rows[1].err < report.rows[0].err
        assert report.all_decreasing()

    def test_zero_input(self):
        cfg = parse_config_text(
            "kind = srs\nu = bump:c=0,a=1,amp=0\nfamily =\n"
            "L_start = 8\nL_steps = 2\nh = 0.25\n")
        report = ex.run_srs_sweep(cfg)
        assert all(r.err == 0.0 for r in report.rows)

    def test_empty_family_behaves_the_same(self):
        # the convergence statement does not depend on the chosen extensions
        base = ("kind = srs\nu = bump:c=1,a=1\nL_start = 8\nL_factor = 2\n"
                "L_steps = 2\nh = 0.125\nwindow_margin = 1\n")
        with_family = ex.run_srs_sweep(parse_config_text(base + "family = affine:a=0,b=1\n"))
        without = ex.run_srs_sweep(parse_config_text(base + "family =\n"))
        for rep in (with_family, without):
            assert rep.all_decreasing()
            assert rep.rows[1].err < rep.rows[0].err

    def test_emit(self, tmp_path):
        cfg = parse_config_text(
            "kind = srs\nL_start = 8\nL_steps = 2\nh = 0.25\nzero_wall_time = true\n")
        report = ex.run_srs_sweep(cfg)
        ex.emit_srs(report, str(tmp_path), "s")
        lines = (tmp_path / "s_srs.csv").read_text().splitlines()
        assert lines[0] == "L,N,h,err,decreasing,wall_time_s"
        assert len(lines) == 3

    @pytest.mark.parametrize("dim", [1, 2])
    def test_oracle_wall_time_is_zeroed_like_the_csv_column(self, tmp_path, dim):
        """The JSON carries the reference's wall time; zero_wall_time zeroes
        it, so a fresh run of the same config emits the same bytes."""
        text = ("kind = srs\nL_start = 8\nL_steps = 2\nh = 0.25\nzero_wall_time = true\n"
                + ("" if dim == 1 else "dim = 2\nu = bump2:cx=1,cy=0,ax=1,ay=1\nfamily =\n"
                                       "cutoff = 10\np_spacing = 0.1\nquad_points = 256\n"))
        report = ex.run_srs_sweep(parse_config_text(text))
        assert report.oracle_wall_time_s > 0
        ex.emit_srs(report, str(tmp_path), "a")
        ex.emit_srs(ex.run_srs_sweep(parse_config_text(text)), str(tmp_path), "b")
        first = (tmp_path / "a_srs.json").read_bytes()
        assert json.loads(first)["oracle_wall_time_s"] == 0.0
        assert (tmp_path / "b_srs.json").read_bytes() == first
        timed = dataclasses.replace(report, config=dict(report.config, zero_wall_time=False))
        ex.emit_srs(timed, str(tmp_path), "t")
        doc = json.loads((tmp_path / "t_srs.json").read_text())
        assert doc["oracle_wall_time_s"] == report.oracle_wall_time_s


class TestWickDemo:
    def test_cross_check(self):
        cfg = parse_config_text("kind = wick\nwick_n = 3\nL_start = 4\nh = 0.0625\n")
        payload = ex.run_wick_demo(cfg)
        assert payload["cross_check_rel"] <= 1e-13
        assert payload["n"] == 3

    @pytest.mark.parametrize("text, unreached", [
        ("kind = wick\nwick_n = 5\nL_start = 4\nh = 0.0625\n", False),
        # the benchmark's wick command: twelve bumps, N = 1023
        ("kind = wick\nL_list = 32\nh = 0.03125\nwick_n = 12\n", False),
        # one centred even bump and a family of one even and one odd column:
        # the odd column's component is not reached, and not read
        ("kind = wick\nfamily = const:c=1;affine:a=0,b=1\nL_list = 8\nh = 0.0625\n"
         "wick_n = 1\n", True),
    ], ids=["n5", "cli-session", "centred"])
    def test_matrix_equals_the_pairwise_two_point_values(self, monkeypatch, text, unreached):
        """T is the block readout of every pair at once: each entry equals
        quadratic_form(op, Bose(beta), f_i, f_j), and T is Hermitian.  The
        contour rule reads the rows the bumps reach and solves no component."""
        ops = []
        monkeypatch.setattr(ex, "build_phi_operator",
                            lambda *args: ops.append(po.build_phi_operator(*args)) or ops[-1])
        cfg = parse_config_text(text)
        payload = ex.run_wick_demo(cfg)
        T = np.array(payload["two_point_matrix_re"]) + 1j * np.array(payload["two_point_matrix_im"])
        (op,) = ops
        fresh = po.build_phi_operator(op.grid, op.family)
        fields = [bb.sample_function(op.grid, partial(ct.evaluate, ct.Bump(
            center=(c,), halfwidth=(payload["halfwidth"],)))) for c in payload["centers"]]
        pairs = np.array([[bb.quadratic_form(fresh, bb.Bose(cfg.beta), f, g) for g in fields]
                          for f in fields])
        scale = np.abs(pairs).max()
        assert np.abs(T - pairs).max() <= 1e-13 * scale
        assert np.abs(T - T.conj().T).max() <= 1e-15 * scale
        assert not op._chains
        X = np.stack([op._hat(f) for f in fields], axis=1)
        read = set(op.components[po._reached(X, op.components)].tolist()) - {-1}
        labels = set(op.column_components.tolist()) - {-1}
        assert len(labels) == (2 if unreached else 1)
        assert read == ({int(op.column_components[0])} if unreached else labels)

    def test_reads_no_eigenpair(self, monkeypatch):
        """The benchmark's wick matrix, twelve bumps at N = 1023, comes from
        the contour rule alone: with the eigensolve and its secular stages
        barred, the run returns a finite, exactly Hermitian T."""
        monkeypatch.setattr(po, "_deflated_eigh", barred)
        monkeypatch.setattr(po, "_secular_eigh", barred)
        payload = ex.run_wick_demo(parse_config_text(
            "kind = wick\nL_list = 32\nh = 0.03125\nwick_n = 12\n"))
        T = np.array(payload["two_point_matrix_re"]) + 1j * np.array(payload["two_point_matrix_im"])
        assert np.array_equal(T, T.conj().T) and np.isfinite(payload["npoint_value_re"])

    def test_n_limit(self):
        with pytest.raises(ConfigError, match="wick_n"):
            parse_config_text("kind = wick\nwick_n = 13\nL_start = 4\nh = 0.0625\n")


class TestVerifySuite:
    def test_empty_family_all_pass_with_equality_residuals(self):
        cfg = parse_config_text("kind = verify\nfamily =\nL_start = 8\nh = 0.0625\n")
        checks = ex.run_verify_suite(cfg)
        assert all(c.passed for c in checks)
        for c in checks:
            if c.name in ("krein_identity", "domain_decomposition", "eigenvalue_ordering"):
                assert max(c.residuals.values()) <= 1e-13


    def test_default_d1_verify_builds_each_operator_once(self, monkeypatch):
        """Both trace checks read one ladder of four refinements, built once:
        the operator every other check reads is its coarsest level, and both
        read every level.  The one other build is the reduction check's empty
        family on its canonical grid."""
        builds = []
        def counted(grid, family, backend="auto"):
            builds.append((grid.total, len(family.specs)))
            return po.build_phi_operator(grid, family, backend)

        for module in (ex, vf):
            monkeypatch.setattr(module, "build_phi_operator", counted)
        checks = ex.run_verify_suite(ExperimentConfig(kind="verify"))
        assert [c.name for c in checks][-3:-1] == ["boundary_condition", "quadratic_form_identity"]
        assert sorted(n for n, k in builds if k) == [127, 255, 511, 1023]
        assert [n for n, k in builds if not k] == [255]

    def test_default_d1_verify_contexts(self):
        """The split check names the f it read, in the canonical grammar.  The
        trace checks read u = A^-1 w of the fixed source on the ladder; their
        contexts name the family and the verdict, and neither an eigenvector
        nor a seed.  The default family's affine column is stencil-harmonic as
        sampled, so the quadratic form reads the levels of stencil-harmonic
        columns, to roundoff in the columns' sine coefficients: they fall at
        order 3."""
        checks = {c.name: c for c in ex.run_verify_suite(ExperimentConfig(kind="verify"))}
        assert checks["split_identity"].context["f"] == "dipole:c=0.0,s=1.0,a=0.75,amp=1.0"
        for name in ("boundary_condition", "quadratic_form_identity"):
            assert set(checks[name].context) == {
                "levels", "ratios", "empirical_orders", "verdict", "family"}
            assert checks[name].context["verdict"] == "converging"
        assert checks["quadratic_form_identity"].context["levels"] == pytest.approx(
            [7.178634388554454e-06, 8.966487365279601e-07, 1.1205949025235847e-07,
             1.4006759228967293e-08], rel=1e-9, abs=0)

    def test_skipped_checks_decide_the_d1_checks(self, monkeypatch):
        """A check that ``skipped_checks`` names does not run, in d = 1 too."""
        names = ["boundary_condition", "quadratic_form_identity"]
        monkeypatch.setattr(ex, "skipped_checks", lambda cfg: [
            {"name": name, "reason": "skipped"} for name in names])
        checks = ex.run_verify_suite(ExperimentConfig(kind="verify"))
        assert not {c.name for c in checks} & set(names)

    def test_d2_hpoly_family_all_pass(self):
        # the d = 2 verify configuration the benchmark runs
        cfg = parse_config_text(
            "kind = verify\ndim = 2\nfamily = hpoly2:n=1,part=re;hpoly2:n=2,part=re\n"
            "L_list = 8\nh = 0.25\n")
        checks = ex.run_verify_suite(cfg)
        assert [c.name for c in checks] == [
            "dirichlet_reduction", "krein_identity", "krein_identity", "domain_decomposition",
            "eigenvalue_ordering", "split_identity", "wick_permanent"]
        assert all(c.passed for c in checks), [c.to_dict() for c in checks if not c.passed]
        # a d = 2 verify reads its built-in f, whatever the config says
        assert checks[5].context["f"] == (
            "dipole2:cx=0.0,cy=0.0,s=1.0,ax=0.75,ay=0.75,axis=x,amp=1.0")


class TestCli:
    def test_verify_default_passes(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS] krein_identity" in out
        doc = json.loads((tmp_path / "run_checks.json").read_text())
        assert doc["pass"] is True

    @pytest.mark.parametrize("text", [
        "family = affine:a=2,b=0.5\n", "family = affine:a=1,b=-2j\n",
        "family = affine:a=0,b=0.3\n", "family = affine:a=0,b=0.506\nL_list = 4\n",
        "seed = 67\n", "seed = 71\n"])
    def test_verify_passes_on_rank_one_families(self, tmp_path, text):
        """One column without reflection symmetry fixes the outward derivative
        on the range of its traces only, and an odd column leaves the even
        part of u = A^-1 w a Dirichlet field, whose trace lies off that range
        and must vanish: the boundary condition is judged on both parts, and
        every check passes.  Both trace checks read one fixed field per
        level, so their verdict depends on the operator alone: following the
        lowest eigenvector by index failed where two eigenvalues cross under
        refinement (b = 0.506 on L = 4: levels 8.3e-5, 6.8e-3, 3.4e-3), and
        a source drawn from ``seed`` failed the quadratic form at 67 and 71."""
        cfg = tmp_path / "v.cfg"
        cfg.write_text(text)
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_d2_verify_names_the_checks_it_skips(self, tmp_path, capsys):
        """A d=2 verify prints one [SKIP] line per d=1-only check and lists them
        under ``skipped``; the checks it ran and its pass flag are as before.
        A d=1 verify skips nothing."""
        cfg = tmp_path / "v2.cfg"
        cfg.write_text("dim = 2\nfamily = hpoly2:n=1,part=re;hpoly2:n=2,part=re\n"
                       "L_list = 8\nh = 0.25\n")
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        skips = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[SKIP]")]
        names = ["boundary_condition", "quadratic_form_identity"]
        assert [line.split(":")[0] for line in skips] == [f"[SKIP] {n}" for n in names]
        doc = json.loads((tmp_path / "run_checks.json").read_text())
        assert [s["name"] for s in doc["skipped"]] == names
        assert all(s["reason"] and s["reason"] in line for s, line in zip(doc["skipped"], skips))
        assert [c["name"] for c in doc["checks"]] == [
            "dirichlet_reduction", "krein_identity", "krein_identity", "domain_decomposition",
            "eigenvalue_ordering", "split_identity", "wick_permanent"]
        assert doc["pass"] is True
        assert cli.main(["verify", "--out", str(tmp_path)]) == 0
        assert "[SKIP]" not in capsys.readouterr().out
        assert json.loads((tmp_path / "run_checks.json").read_text())["skipped"] == []

    def test_log_level_info_shows_rank_deflation(self, tmp_path, capsys):
        cfg = tmp_path / "deficient.cfg"
        cfg.write_text("family = affine:a=0,b=1;affine:a=0,b=2\n")
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path)]
        cli.main(args)
        assert capsys.readouterr().err == ""
        cli.main(args + ["--log-level", "INFO"])
        err = capsys.readouterr().err
        assert "INFO becbox.phi_operator: family of 2 columns deflated to numerical rank 1" in err

    def test_spread_column_norms_are_not_deflated(self, tmp_path, capsys):
        """expcos:k=12 is 2.1e7 times longer than x on this grid, a Gram ratio
        of 2e-15: the scaled columns have rank 2, and Krein, read through an
        orthonormal basis deflated to rank 1, is no longer 0.74 off."""
        cfg = tmp_path / "spread.cfg"
        cfg.write_text("dim = 2\nfamily = expcos:k=12;hpoly2:n=1,part=re\nL_list = 4\nh = 0.5\n")
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path), "--log-level", "INFO"]
        assert cli.main(args) == 0
        assert "deflated" not in capsys.readouterr().err

    def test_log_level_debug_shows_each_dense_build(self, tmp_path, capsys, monkeypatch):
        """One DEBUG line per dense eigensolve.  A default verify solves one:
        the main operator's odd component (63 of its 127 rows), the one its
        column x reaches; the trace checks' refinements read A^-1 alone."""
        builds = []
        solve = po._deflated_eigh
        monkeypatch.setattr(po, "_deflated_eigh",
                            lambda d, C: builds.append(len(d)) or solve(d, C))
        cli.main(["verify", "--out", str(tmp_path), "--log-level", "DEBUG"])
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("DEBUG becbox.phi_operator: dense build: ")]
        assert builds == [63]
        assert [int(line.split("N = ")[1].split(",")[0]) for line in lines] == builds
        assert all("coupled rows per stage [" in line for line in lines)

    def test_log_level_debug_shows_each_lanczos_recursion(self, tmp_path, capsys):
        """A centred dipole and the odd column x reach the odd sector only."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINI_CONVERGE + "backend = lanczos\n")
        cli.main(["converge", "--config", str(cfg), "--out", str(tmp_path), "--log-level", "DEBUG"])
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("DEBUG becbox.phi_operator: lanczos: ")]
        assert [line.split("lanczos: ")[1].split(", steps")[0] for line in lines] == [
            "N = 63, reached 31", "N = 127, reached 63"]

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 3\n")
        assert cli.main(["converge", "--config", str(bad)]) == 2

    def test_spectrum_mode_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("spectrum_mode = fd\n")
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown key 'spectrum_mode'" in capsys.readouterr().err

    def test_mode_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--mode", "fd"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode fd" in capsys.readouterr().err

    # one out-of-range value per numeric key, with the words the error names;
    # each must be a config error (exit 2, one line on stderr) before any work
    OUT_OF_RANGE = [
        ("converge", "dim", "3", "dim"),
        ("converge", "beta", "nan", "beta"),
        ("converge", "L_start", "-8", "L schedule"),
        ("converge", "L_factor", "inf", "L schedule"),
        ("converge", "L_steps", "0", "L schedule"),
        ("converge", "L_steps", "100000000", "L schedule"),
        ("converge", "L_list", "8,inf", "L schedule"),
        ("converge", "h", "1e-320", "h = 1e-320"),
        ("converge", "h_richardson", "0.125", "h_richardson"),
        ("converge", "cutoff", "-1", "cutoff"),
        ("converge", "p_spacing", "100", "p_spacing"),
        ("converge", "quad_points", "1", "quad_points"),
        ("srs", "window_margin", "-50", "window_margin"),
        ("verify", "seed", "-1", "seed"),
        ("wick", "wick_n", "0", "wick_n"),
    ]

    @pytest.mark.parametrize("command,key,value,named", OUT_OF_RANGE)
    def test_out_of_range_value_exit_2(self, tmp_path, capsys, command, key, value, named):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"{key} = {value}\n")
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
        assert named in err
        assert list(tmp_path.iterdir()) == [cfg]

    # a spec string that does not parse or does not fit dim, or a grid too
    # coarse for the command, is a config error of the command that reads it,
    # reported before any work
    BAD_SPECS = [
        ("wick", "dim = 2\nfamily = hpoly2:n=1,part=re\n", "wick"),
        ("converge", "family = hpoly2:n=1,part=re\n", "family"),
        ("verify", "dim = 2\nfamily = affine:a=0,b=1\nL_list = 8\nh = 0.25\n", "family"),
        ("converge", "f = bogus:c=0\n", "bogus"),
        ("converge", "family = affine:a=zz\n", "zz"),
        ("converge", "family = hpoly2:n=1,n=2\n", "duplicate parameter 'n'"),
        ("converge", "f = bump:c=0,c=3,a=1\n", "duplicate parameter 'c'"),
        ("converge", "family = hpoly2:part=re\n", "needs parameter 'n'"),
        # its binomial coefficients overflow a double; past degree 40 the expansion cancels
        ("converge", "dim = 2\nfamily = hpoly2:n=2000,part=re\n", "degree must lie in [1, 40]"),
        ("converge", "family = affine:a=nan,b=1\n", "not finite"),
        ("converge", "f = bump:c=0,a=inf\n", "not finite"),
        ("fourier-dump", "dim = 2\n", "f does not match"),
        ("verify", "L_list = 4\nh = 2\n", "L/h >= 4"),
    ]

    @pytest.mark.parametrize("command,text,named", BAD_SPECS)
    def test_bad_spec_exit_2(self, tmp_path, capsys, command, text, named):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(text)
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
        assert named in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_hypothesis_violation_exit_3(self, tmp_path):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("kind = converge\nf = bump:c=0,a=0.75\n"
                       "L_start = 8\nL_steps = 2\nh = 0.125\n"
                       "cutoff = 20\np_spacing = 0.1\nquad_points = 512\n")
        assert cli.main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    def test_verify_checks_f_before_any_build(self, tmp_path, monkeypatch):
        """A support that reaches the boundary exits 3 before any operator is
        built, as in converge and srs."""
        def barred(*args, **kwargs):
            raise AssertionError("built an operator")

        for module in (ex, vf):
            monkeypatch.setattr(module, "build_phi_operator", barred)
        cfg = tmp_path / "v.cfg"
        cfg.write_text("kind = verify\nf = dipole:c=0,s=1,a=3\nL_list = 8\nh = 0.25\n")
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("command, text", [
        # e^(400 x) fits a double on the L = 4 box, its square does not
        ("converge", "dim = 2\nfamily = expcos:k=400\nf = dipole2:cx=0,cy=0,s=0.5,ax=0.4,ay=0.4\n"
                     "L_list = 4,6\nh = 0.25\n"),
        # on the L = 16 box e^(400 x) itself overflows, and inf * 0 is nan
        ("srs", "dim = 2\nfamily = expcos:k=400\nu = bump2:cx=1,cy=0,ax=1,ay=1\n"
                "L_list = 8,16\nh = 0.125\nwindow_margin = 1.0\ncutoff = 40\np_spacing = 0.1\n"),
    ], ids=["converge", "srs"])
    def test_overflowing_family_exit_3(self, tmp_path, capsys, command, text):
        """The Gram matrix's finiteness check reports the overflow, on one line
        and with no numpy warning before it."""
        cfg = tmp_path / "o.cfg"
        cfg.write_text(text)
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["hypothesis violation: harmonic column 0 is not finite on "
                                    "the grid: its Gram entries overflow"]
        assert list(tmp_path.iterdir()) == [cfg]

    def test_check_failure_exit_1(self, tmp_path, monkeypatch):
        from becbox.verification import CheckReport

        def fake_suite(cfg):
            return [CheckReport("forced", {"r": 1.0}, {"r": 1e-10})]

        monkeypatch.setattr(ex, "run_verify_suite", fake_suite)
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1

    def test_inconclusive_check_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(vf, "bc_r_matrix", lambda op: None)
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        doc = json.loads((tmp_path / "run_checks.json").read_text())
        # both trace checks read r through one refinement routine
        for name in ("boundary_condition", "quadratic_form_identity"):
            assert f"[INCONCLUSIVE] {name}" in out
            (check,) = [c for c in doc["checks"] if c["name"] == name]
            assert check["context"]["inconclusive"] is True and check["pass"] is False
        assert doc["pass"] is False

    def test_converge_not_decreasing_exit_1(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINI_CONVERGE)
        failing = vf.Judgement("failing", [-1.0], 0.0, 0.0)
        monkeypatch.setattr(ex.ConvergenceReport, "judgement", lambda self: failing)
        assert cli.main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert json.loads((tmp_path / "run.json").read_text())["pass"] is False

    def test_srs_not_decreasing_exit_1(self, tmp_path, monkeypatch):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("kind = srs\nL_start = 8\nL_steps = 2\nh = 0.25\n")
        monkeypatch.setattr(ex.SrsReport, "all_decreasing", lambda self: False)
        assert cli.main(["srs", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert json.loads((tmp_path / "run_srs.json").read_text())["pass"] is False

    def test_unconverged_lanczos_exit_4(self, tmp_path, monkeypatch, capsys):
        from becbox import phi_operator as po

        def unconverged(op, F, f, steps=200, tolerance=1e-10):
            return po.LanczosResult(value=1.0, steps=steps, converged=False)

        monkeypatch.setattr(po, "lanczos_quadratic_form", unconverged)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINI_CONVERGE + "backend = lanczos\n")
        rc = cli.main(["converge", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "converge" in err
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_output_exit_4(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "f.cfg"
        cfg.write_text("kind = fourier\nf = dipole:c=0,s=1,a=0.75\n"
                       "cutoff = 10\np_spacing = 0.1\nquad_points = 512\n")
        rc = cli.main(["fourier-dump", "--config", str(cfg), "--out", str(blocker / "sub")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_contour_rule_that_moves_exits_4(self, tmp_path, capsys, monkeypatch):
        """Too few contour nodes for the L = 8 value: the readout raises, and
        the command reports it and exits 4 instead of writing a wrong row."""
        monkeypatch.setattr(po, "_CONTOUR_NODES", (0.0, 4.0))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINI_CONVERGE)
        assert cli.main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        assert "contour rule of" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_golden_d2_converge_is_the_same_on_one_blas_thread(self, tmp_path):
        """The golden d = 2 converge run at OPENBLAS_NUM_THREADS=1 and at the
        default thread count: every numeric CSV field agrees to 1e-13
        relative (README, "Threads")."""
        golden = json.loads((Path(__file__).parent / "golden" / "converge_d2.json").read_text())
        cfg = tmp_path / "c.cfg"
        cfg.write_text(golden["config"])
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("OPENBLAS_NUM_THREADS", None)
        tables = []
        for label, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
            argv = [sys.executable, "-m", "becbox.cli", "converge", "--config", str(cfg),
                    "--out", str(tmp_path), "--label", label]
            assert subprocess.run(argv, env={**env, **threads}, capture_output=True).returncode == 0
            rows = (tmp_path / f"{label}.csv").read_text().splitlines()[1:]
            tables.append(np.array([[float(v) for v in row.split(",")] for row in rows]))
        one, default = tables
        assert one.shape == default.shape == (3, 13)
        assert np.all(np.abs(one - default) <= 1e-13 * np.abs(default))

    def test_converge_cli_end_to_end(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINI_CONVERGE)
        rc = cli.main(["converge", "--config", str(cfg), "--out", str(tmp_path),
                       "--label", "cc"])
        assert rc == 0
        assert (tmp_path / "cc.csv").exists()
        assert (tmp_path / "cc.json").exists()

    @pytest.mark.parametrize("dim,spec,cutoff,dp,quad_points", [
        (1, "dipole:c=0,s=1,a=0.75", 10.0, 0.1, 512),
        (2, "dipole2:cx=0.25,cy=0,s=0.5,ax=0.5,ay=0.75,axis=y,amp=1-0.5j", 2.0, 0.5, 64),
    ], ids=["d1", "d2"])
    def test_fourier_dump(self, tmp_path, dim, spec, cutoff, dp, quad_points):
        cfg = tmp_path / "f.cfg"
        cfg.write_text(f"kind = fourier\ndim = {dim}\nf = {spec}\ncutoff = {cutoff}\n"
                       f"p_spacing = {dp}\nquad_points = {quad_points}\n")
        assert cli.main(["fourier-dump", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        table = ct.fourier_oracle(ct.parse_test_function(spec), cutoff, dp, quad_points)
        lines = (tmp_path / "run_fourier.csv").read_text().splitlines()
        assert lines[0] == ("p,re,im" if dim == 1 else "p,re_x,im_x,re_y,im_y")
        assert len(lines) - 1 == len(table.p)  # one row per p, not per cell
        rows = np.array([list(map(float, line.split(","))) for line in lines[1:]])
        assert np.array_equal(rows[:, 0], table.p)
        factors = rows[:, 1::2] + 1j * rows[:, 2::2]
        assert np.array_equal(factors, np.stack(table.factors, axis=1))
        doc = json.loads((tmp_path / "run_fourier.json").read_text())
        assert doc["parseval_sum"] == table.parseval_sum()
        assert complex(doc["value_at_zero_re"], doc["value_at_zero_im"]) == table.value_at_zero()
        assert abs(table.value_at_zero()) <= 1e-14  # a dipole has zero mean

    def test_fourier_dump_d2_writes_no_grid(self, tmp_path):
        """At the default oracle (cutoff 80, p_spacing 0.02: 8001 p) the d = 2
        table as a grid would be 64,016,001 cells, 1.02 GB of complex values;
        the dump writes one row per p and stays near the oracle's own peak."""
        cfg = parse_config_text("kind = fourier\ndim = 2\n"
                                "f = dipole2:cx=0,cy=0,s=1,ax=0.75,ay=0.75\n")
        assert traced_peak(ex.emit_fourier, cfg, str(tmp_path), "run") <= 16e6
        with open(tmp_path / "run_fourier.csv") as fh:
            assert sum(1 for _ in fh) == 1 + 8001

    def test_main_block_freezes_the_import_heap(self, tmp_path, monkeypatch, capsys):
        """``python -m becbox.cli`` freezes what the imports made before
        ``main`` runs; ``main`` itself, which tests call in-process, does not."""
        missing = ["verify", "--config", str(tmp_path / "missing.cfg")]
        gc.unfreeze()
        try:
            assert cli.main(missing) == 2 and gc.get_freeze_count() == 0
            monkeypatch.setattr(sys, "argv", ["becbox", *missing])
            # runpy warns when it runs a module that is already imported
            monkeypatch.delitem(sys.modules, "becbox.cli")
            with pytest.raises(SystemExit) as stop:
                runpy.run_module("becbox.cli", run_name="__main__")
            assert stop.value.code == 2 and gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert capsys.readouterr().err.count("config error: ") == 2

    @pytest.mark.parametrize("command, config, code", [
        ("fourier-dump", TINY["fourier-dump"], 0),
        # at h = 0.5 the h floor makes the L = 16 row worse than the L = 8 one
        ("converge", MINI_CONVERGE.replace("h = 0.125", "h = 0.5"), 1),
        ("converge", "mystery = 3\n", 2),
    ], ids=["pass", "check-failure", "config-error"])
    def test_module_entry_point_exit_codes(self, tmp_path, command, config, code):
        """The frozen heap changes no exit code of ``python -m becbox.cli``."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = [sys.executable, "-m", "becbox.cli", command, "--config", str(cfg),
                "--out", str(tmp_path)]
        assert subprocess.run(argv, env=env, capture_output=True).returncode == code

    def test_import_loads_no_scipy(self):
        """numpy is the only runtime dependency: the CLI module loads no scipy."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = "import sys, becbox.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_loads_no_openssl(self):
        """Importing the CLI leaves OpenSSL's _hashlib (3-4 MB of RSS) unloaded."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = "import sys, becbox.cli; sys.exit('_hashlib' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.mark.parametrize("command, config, summary", [
        ("converge", TINY["converge"], "run.json"),
        ("srs", TINY["srs"], "run_srs.json"),
        ("verify", TINY["verify"], "run_checks.json"),
        ("verify", "kind = verify\ndim = 2\nfamily = hpoly2:n=1,part=re\nL_list = 4\nh = 0.5\n",
         "run_checks.json"),
        ("wick", TINY["wick"], "run_wick.json"),
        ("fourier-dump", TINY["fourier-dump"], "run_fourier.json"),
    ], ids=["converge", "srs", "verify-d1", "verify-d2", "wick", "fourier-dump"])
    def test_command_loads_only_what_it_needs(self, tmp_path, command, config, summary):
        """A run writes its outputs, input_hash included, and leaves unloaded:
        numpy.random (6 MB of RSS: verify draws from the stdlib generator),
        OpenSSL's _hashlib (3-4 MB: the hash is CPython's builtin SHA-1),
        numpy.ma (about 13 ms and 1 MB) and scipy (numpy is the only
        runtime dependency)."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = ("import sys, becbox.cli as cli; "
                f"rc = cli.main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]); "
                "print(*sorted({'numpy.random', '_hashlib', 'numpy.ma', 'scipy'} & set(sys.modules))); "
                "sys.exit(rc)")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == ""
        assert len(json.loads((tmp_path / summary).read_text())["input_hash"]) == 40

    def test_kind_of_another_command_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("kind = srs\n")
        rc = cli.main(["wick", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
        assert "kind" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key,value", [
        ("sampling_mode", "sampled"), ("krein_z", "-1,-2.5"), ("n_random", "20"),
        ("svg", "true"), ("out", "out"), ("label", "run"),
    ])
    def test_deleted_key_is_unknown(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--backend", "dense"), ("--seed", "99")])
    def test_deleted_flag_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_input_hash_ignores_out_and_label(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("kind = wick\nwick_n = 3\nL_start = 4\nh = 0.0625\n")
        docs = []
        for out, label in (("a", "run"), ("b", "other")):
            rc = cli.main(["wick", "--config", str(cfg), "--out", str(tmp_path / out),
                           "--label", label])
            assert rc == 0
            docs.append(json.loads((tmp_path / out / f"{label}_wick.json").read_text()))
        assert docs[0]["input_hash"] == docs[1]["input_hash"]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("command", TINY)
    def test_summary_records_config_and_its_hash(self, tmp_path, command):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TINY[command])
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        (summary,) = (tmp_path / "o").glob("*.json")
        doc = json.loads(summary.read_text())
        assert doc["config"] == parse_config_text(TINY[command]).to_dict()
        assert doc["input_hash"] == ex._config_hash(doc["config"])

    @pytest.mark.parametrize("command", TINY)
    def test_experiments_functions_are_looked_up_when_the_command_runs(
            self, tmp_path, monkeypatch, command):
        """The benchmark's tracer wraps these module globals; a CLI holding
        the functions it imported would bypass the wrappers."""
        calls = []

        def recording(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for name in sum(RUN_EMIT.values(), []):
            monkeypatch.setattr(ex, name, recording(name, getattr(ex, name)))
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TINY[command])
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert calls == RUN_EMIT[command]

    @pytest.mark.parametrize("command", ["converge", "srs"])
    def test_one_box_sweep_exit_2(self, tmp_path, capsys, command):
        """A trend in L needs two boxes; one box used to pass by default."""
        cfg = tmp_path / "o.cfg"
        cfg.write_text(TINY[command] + "L_list = 8\n")
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
        assert "two boxes" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_zero_test_function_converge_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "z.cfg"
        cfg.write_text(MINI_CONVERGE.replace("a=0.75", "a=0.75,amp=0"))
        rc = cli.main(["converge", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("hypothesis violation: ") and len(err.strip().splitlines()) == 1
        assert "two-point value is 0" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_zero_input_srs_writes_an_empty_plot(self, tmp_path, capsys):
        cfg = tmp_path / "z.cfg"
        cfg.write_text(TINY["srs"] + "u = bump:c=1,a=1,amp=0\n")
        rc = cli.main(["srs", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "run_srs.csv", "run_srs.json", "run_srs.svg"]
        assert json.loads((tmp_path / "o" / "run_srs.json").read_text())["final_err"] == 0.0
        root = ET.parse(tmp_path / "o" / "run_srs.svg").getroot()
        assert root.findall(".//{http://www.w3.org/2000/svg}polyline") == []
