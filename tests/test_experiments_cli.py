import dataclasses
import json
import os
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
        assert doc["strictly_decreasing"] is True
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

    def test_matrix_equals_the_pairwise_two_point_values(self):
        cfg = parse_config_text("kind = wick\nwick_n = 5\nL_start = 4\nh = 0.0625\n")
        payload = ex.run_wick_demo(cfg)
        T = np.array(payload["two_point_matrix_re"]) + 1j * np.array(payload["two_point_matrix_im"])
        grid = bb.make_grid(1, [4], 0.0625)
        op = bb.build_phi_operator(grid, bb.parse_family(cfg.family), backend="dense")
        fields = [bb.sample_function(grid, partial(ct.evaluate, ct.Bump(center=(c,),
                                                   halfwidth=(payload["halfwidth"],))))
                  for c in payload["centers"]]
        pairwise = np.array([[bb.two_point_lhs(op, cfg.beta, f, g).direct for g in fields]
                             for f in fields])
        assert np.abs(T - pairwise).max() <= 1e-13 * np.abs(pairwise).max()

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
        """The boundary-condition and quadratic-form checks take the operator
        they are handed as their coarsest level instead of building it again."""
        builds = []
        def counted(grid, family, mode="sampled", backend="auto"):
            builds.append((grid.total, mode))
            return po.build_phi_operator(grid, family, mode, backend)

        for module in (ex, vf):
            monkeypatch.setattr(module, "build_phi_operator", counted)
        checks = ex.run_verify_suite(ExperimentConfig(kind="verify"))
        assert [c.name for c in checks][-3:-1] == ["boundary_condition", "quadratic_form_identity"]
        assert sorted(builds) == [(127, "discrete-harmonic"), (127, "sampled"),
                                  (255, "discrete-harmonic"), (255, "sampled"),
                                  (255, "sampled"), (511, "sampled")]

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


class TestCli:
    def test_verify_default_passes(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS] krein_identity" in out
        doc = json.loads((tmp_path / "run_checks.json").read_text())
        assert doc["pass"] is True

    def test_log_level_info_shows_rank_deflation(self, tmp_path, capsys):
        cfg = tmp_path / "deficient.cfg"
        cfg.write_text("family = affine:a=0,b=1;affine:a=0,b=2\n")
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path)]
        cli.main(args)
        assert capsys.readouterr().err == ""
        cli.main(args + ["--log-level", "INFO"])
        err = capsys.readouterr().err
        assert "INFO becbox.phi_operator: family of 2 columns deflated to numerical rank 1" in err

    def test_log_level_debug_shows_each_dense_build(self, tmp_path, capsys, monkeypatch):
        builds = []
        solve = po._deflated_eigh
        monkeypatch.setattr(po, "_deflated_eigh", lambda d, C: builds.append(len(d)) or solve(d, C))
        cli.main(["verify", "--out", str(tmp_path), "--log-level", "DEBUG"])
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("DEBUG becbox.phi_operator: dense build: ")]
        assert len(builds) > 1
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

    def test_check_failure_exit_1(self, tmp_path, monkeypatch):
        from becbox.verification import CheckReport

        def fake_suite(cfg):
            return [CheckReport("forced", {"r": 1.0}, {"r": 1e-10})]

        monkeypatch.setattr(ex, "run_verify_suite", fake_suite)
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1

    def test_inconclusive_check_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(vf, "bc_r_matrix", lambda op: None)
        assert cli.main(["verify", "--out", str(tmp_path)]) == 1
        assert "[INCONCLUSIVE] boundary_condition" in capsys.readouterr().out
        doc = json.loads((tmp_path / "run_checks.json").read_text())
        (bc,) = [c for c in doc["checks"] if c["name"] == "boundary_condition"]
        assert bc["context"]["inconclusive"] is True and bc["pass"] is False
        assert doc["pass"] is False

    def test_converge_not_decreasing_exit_1(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINI_CONVERGE)
        monkeypatch.setattr(ex.ConvergenceReport, "strictly_decreasing", lambda self: False)
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
        assert lines[0] == ("p,re,im" if dim == 1 else "p1,p2,re,im")
        assert len(lines) - 1 == len(table.p) ** dim
        index = {p: i for i, p in enumerate(table.p)}
        for line in lines[1:]:
            *ps, re, im = map(float, line.split(","))
            assert complex(re, im) == table.values[tuple(index[p] for p in ps)]
        doc = json.loads((tmp_path / "run_fourier.json").read_text())
        assert doc["parseval_sum"] == table.parseval_sum()
        assert complex(doc["value_at_zero_re"], doc["value_at_zero_im"]) == table.value_at_zero()
        assert abs(table.value_at_zero()) <= 1e-14  # a dipole has zero mean

    def test_import_loads_no_scipy(self):
        """numpy is the only runtime dependency: the CLI module loads no scipy."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = "import sys, becbox.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_loads_no_openssl(self):
        """hashlib (OpenSSL's _hashlib, 3-4 MB of RSS) loads only when output is hashed."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = "import sys, becbox.cli; sys.exit('_hashlib' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_dense_converge_loads_no_numpy_ma(self, tmp_path):
        """A dense build leaves numpy.ma unloaded (about 13 ms and 1 MB a process)."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(MINI_CONVERGE)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = ("import sys, becbox.cli as cli; "
                f"rc = cli.main(['converge', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]); "
                "sys.exit(3 if 'numpy.ma' in sys.modules else rc)")
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=subprocess.DEVNULL).returncode == 0

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
