"""Command-line contract: exit codes, artifacts, and reproducibility."""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
import monopole
from monopole import analysis, cli, model
from monopole.cli import main
from monopole.errors import BracketingError, FitDomainError
from monopole.integrator import ClassifyMode, IntegratorControls, classify
from monopole.origin_series import ShootPoint
from monopole.shooter import shoot

GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve_a")
    rc = main(["solve", "--lambda-hat", "0", "--out", str(out)])
    assert rc == 0
    return out


def test_solve_report_contents(solve_dir, capsys):
    report = json.loads((solve_dir / "report.json").read_text())
    for key in ("lambda_hat", "alpha_star_hat", "beta_star_hat", "alpha_star",
                "beta_star", "alpha_bracket_lo", "beta_bracket_hi", "converged",
                "residual_norm", "energy", "t_graft", "t_report", "f_rate",
                "higgs_rate", "audit_passes", "profile_residual", "t0"):
        assert key in report, key
    assert report["converged"] is True
    assert report["audit_passes"] is True
    assert abs(report["alpha_star_hat"] - 1.0 / 6.0) < 1e-3
    assert abs(report["beta_star_hat"] - 1.0 / 3.0) < 1e-3
    # dimensionless run: both frames coincide
    assert report["alpha_star"] == report["alpha_star_hat"]
    header = (solve_dir / "profile.csv").read_text().splitlines()[0]
    assert header == "t,f,fp,rho,rhop"


def test_solve_artifacts_reproducible(solve_dir, tmp_path):
    rc = main(["solve", "--lambda-hat", "0", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("report.json", "profile.csv"):
        assert (tmp_path / name).read_bytes() == \
            (solve_dir / name).read_bytes(), name


def test_profile_csv_round_trip(solve_dir):
    report = json.loads((solve_dir / "report.json").read_text())
    lines = (solve_dir / "profile.csv").read_text().splitlines()
    cols = list(zip(*(tuple(float(v) for v in ln.split(",")) for ln in lines[1:])))
    ts, fs, rhos = cols[0], cols[1], cols[3]
    r = analysis.residual_norm((ts, fs, rhos), lambda_hat=report["lambda_hat"])
    assert r == report["profile_residual"]


def test_profile_csv_is_written_in_blocks(tmp_path, monkeypatch, capsys, lam0):
    # the CSV and its residual are those of one whole table, written a
    # block at a time: neither the table nor its text is ever held whole
    monkeypatch.setattr(cli, "bisect_beta", lambda lambda_hat, controls=None: lam0)
    g = lam0.profile
    t_lo = g.base.ts[0]
    n = int(round((g.t_report - t_lo) / 1e-3))
    assert n > 2 * analysis.BLOCK
    ts = t_lo + np.arange(n + 1) * ((g.t_report - t_lo) / n)
    rows = g.table(ts)
    want = "t,f,fp,rho,rhop\n" + "".join(
        ",".join(cli._fmt(v) for v in (t, *row)) + "\n"
        for t, row in zip(ts.tolist(), rows.tolist()))
    tracemalloc.start()
    try:
        rc = main(["solve", "--lambda-hat", "0", "--grid-step", "1e-3",
                   "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert (tmp_path / "profile.csv").read_text() == want
    assert peak < 4e6, peak
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["profile_residual"] == oracles.whole_grid_residual(
        ts, rows[:, 0], rows[:, 2], ts[1] - ts[0], 0.0)


def test_solve_physical_frame(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main(["solve", "--lam", "0", "--g0", "2", "--rho0", "3",
               "--report-out", str(path)])
    assert rc == 0
    report = json.loads(path.read_text())
    assert report["lambda_hat"] == 0.0
    # alpha scales with (g0 rho0)^2, beta with g0 rho0^2
    assert_allclose(report["alpha_star"], 6.0, atol=5e-3)
    assert_allclose(report["beta_star"], 6.0, atol=5e-3)


def test_scaled_frame_mapping(tmp_path, monkeypatch, capsys, lam0):
    # the solve runs at the frame's lambda_hat, and the report maps its
    # answer to the physical frame exactly: alpha by (g0 rho0)^2 = 36,
    # beta by g0 rho0^2 = 18; posed dimensionless, the frames coincide
    solved = []

    def solve(lambda_hat, controls=None):
        solved.append(lambda_hat)
        return lam0
    monkeypatch.setattr(cli, "bisect_beta", solve)
    for argv, scale in ((["--lam", "0", "--g0", "2", "--rho0", "3"], (36.0, 18.0)),
                        (["--lambda-hat", "0"], (1.0, 1.0))):
        path = tmp_path / "report.json"
        assert main(["solve", *argv, "--report-out", str(path)]) == 0
        report = json.loads(path.read_text())
        assert_allclose(report["alpha_star"], scale[0] * lam0.alpha_star_hat, rtol=1e-15)
        assert_allclose(report["beta_star"], scale[1] * lam0.beta_star_hat, rtol=1e-15)
        # with the report in a file, the summary line is stdout's
        assert capsys.readouterr().out.startswith("alpha_star_hat = ")
    assert solved == [0.0, 0.0]


def test_frame_errors_exit_usage(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--lambda-hat", "0", "--lam", "0", "--g0", "1",
              "--rho0", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--lam", "0", "--g0", "2"])  # rho0 missing
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # no frame at all
    assert exc.value.code == 1
    # a grid step that cannot sample the profile is refused before the
    # solve, from a flag or from a config file
    monkeypatch.setattr(cli, "bisect_beta", None)
    profile = ["--profile-out", str(tmp_path / "p.csv")]
    for step in ("0", "-0.01", "nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--lambda-hat", "0", *profile,
                  "--grid-step", step])
        assert exc.value.code == 1
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"grid_step = {step}\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--lambda-hat", "0", *profile,
                  "--config", str(cfg)])
        assert exc.value.code == 1
    assert not (tmp_path / "p.csv").exists()


def test_oversized_profile_table_exits_usage(tmp_path, monkeypatch, capsys):
    # the table spans up to t_max + REPORT_TAIL: a grid step that could
    # give more than 10^6 rows is refused before the solve, from a flag or
    # from a config file, and no file is written
    monkeypatch.setattr(cli, "bisect_beta", None)
    out = ["--out", str(tmp_path / "run")]
    for step in ("1e-9", "1.9e-5"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--lambda-hat", "0", *out, "--grid-step", step])
        assert exc.value.code == 1
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"grid_step = {step}\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--lambda-hat", "0", *out, "--config", str(cfg)])
        assert exc.value.code == 1
        assert "profile rows" in capsys.readouterr().err
    # a longer horizon lowers the finest step allowed
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--lambda-hat", "0", *out, "--t-max", "92",
              "--grid-step", "9e-5"])
    assert exc.value.code == 1
    assert not (tmp_path / "run").exists()


def test_solve_failure_exit_code(capsys):
    # handoff beyond the series' validity: the library refuses it, a
    # usage error (1) with the library's message
    rc = main(["series", "--alpha", "0.1", "--beta", "0.2", "--t0", "0.02"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "monopole series: t0 must lie in [1e-06, 0.01], got 0.02\n"


@pytest.mark.parametrize("argv, message", [
    (["series", "--alpha", "0.1", "--beta", "0.1", "--t0", "0.5"],
     "t0 must lie in [1e-06, 0.01]"),
    (["solve", "--lambda-hat", "0", "--rel-tol", "-1"],
     "unrecognized arguments: --rel-tol -1"),
    (["solve", "--lambda-hat", "0", "--tol-alpha", "0"],
     "unrecognized arguments: --tol-alpha 0"),
    (["solve", "--lambda-hat", "0", "--t-max", "1e-4"], "need 0 < t0 < t_max"),
    (["solve", "--lam", "-1", "--g0", "1", "--rho0", "1"],
     "lam must be finite and >= 0"),
    (["series", "--alpha", "-1", "--beta", "0.3"], "alpha must be finite and >= 0"),
    (["series", "--alpha", "0.1", "--beta", "0.1", "--lambda-hat", "1", "--t0", "0"],
     "t0 must lie in [1e-06, 0.01]"),
    (["probe", "--flat", "--u-end", "0"], "need u_end > u0"),
    (["series", "--alpha", "0.1", "--beta", "0.1", "--t0", "nan"],
     "t0 must lie in [1e-06, 0.01]"),
    (["validate", "--tol-alpha", "0"], "unrecognized arguments: --tol-alpha 0"),
    (["probe", "--flat", "--u-end", "inf"], "u_end = inf needs more than 10^6 steps"),
    (["probe", "--flat", "--u-end", "2e3"],
     "u_end = 2000.0 needs more than 10^6 steps"),
    (["series", "--alpha", "0.1", "--beta", "0.1", "--picard", "--picard-iters",
      "100000000"], "n_iters must be at most 1000, got 100000000"),
    # below T0_MIN the first sample's 1 - f rounds away, which once failed
    # the audit of a converged solve
    (["series", "--alpha", "0.1", "--beta", "0.1", "--t0", "1e-8"],
     "t0 must lie in [1e-06, 0.01], got 1e-08"),
])
def test_refused_value_exits_usage(argv, message, capsys):
    # a value the library refuses is a usage error, not a solver failure;
    # so is a flag no command has, which the parser refuses
    try:
        rc, prefix = main(argv), f"monopole {argv[0]}: "
    except SystemExit as exc:
        rc, prefix = exc.code, "monopole: error: "
    assert rc == 1
    assert capsys.readouterr().err.startswith(prefix + message)


def test_bad_coupling_exits_usage(tmp_path, monkeypatch, capsys):
    # a non-finite or negative --lambda-hat is a usage error (1), not a
    # solver failure, refused before any shot; solve takes it from a
    # config file too
    monkeypatch.setattr(cli, "bisect_beta", None)
    monkeypatch.setattr(cli, "sweep", None)
    cfg = tmp_path / "opts.cfg"
    for value in ("nan", "inf", "-1", "x"):
        for command in (["solve"], ["sweep", "--alphas", "0.3", "--betas", "0.1"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--lambda-hat", value])
            assert exc.value.code == 1
            assert "--lambda-hat: must be a finite float >= 0" in \
                capsys.readouterr().err
        cfg.write_text(f"lambda_hat = {value}\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "for lambda_hat" in capsys.readouterr().err


def test_unconverged_solve_reports_no_numbers(tmp_path, capsys):
    # lambda_hat = 20 is beyond the reach of origin-only shooting: the
    # solve must say so without an energy, residual, audit or profile
    rc = main(["solve", "--lambda-hat", "20", "--out", str(tmp_path)])
    assert rc == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False
    assert "energy" not in report
    assert "residual_norm" not in report
    assert not [k for k in report if k.startswith("audit_")]
    assert not (tmp_path / "profile.csv").exists()


def _raise_fit_error(*args, **kwargs):
    raise FitDomainError("no clean fit window")


def test_solve_audit_failure_exits_validate(tmp_path, monkeypatch, capsys):
    # a converged solve whose profile fails the monotonicity audit exits 3
    # and says so; its report records the failed audit
    audit = analysis.monotonicity_audit
    monkeypatch.setattr(analysis, "monotonicity_audit",
                        lambda profile: replace(audit(profile), fp_negative=False))
    rc = main(["solve", "--lambda-hat", "0", "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == \
        "monopole solve: converged but the monotonicity audit failed\n"
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["converged"], report["audit_passes"]) == (True, False)


def test_validate_fails_when_the_solve_fails(monkeypatch, capsys):
    # a solve that raises, or that converges but whose diagnostics raise
    # and so reports no numbers, is one FAIL line and exit 3
    monkeypatch.setattr(analysis, "mass_integral", _raise_fit_error)
    assert main(["validate"]) == 3
    assert capsys.readouterr().out == "FAIL solve did not converge\n"

    def raising(*args, **kwargs):
        raise BracketingError("no upper side found up to beta = 1e12", {})

    monkeypatch.setattr(cli, "bisect_beta", raising)
    assert main(["validate"]) == 3
    assert capsys.readouterr().out == \
        "FAIL solve raised: no upper side found up to beta = 1e12\n"


def test_probe_without_a_profile_exits_solve(monkeypatch, capsys):
    # a solve whose diagnostics raise has no profile to probe: exit 2,
    # with no first zero
    monkeypatch.setattr(analysis, "mass_integral", _raise_fit_error)
    assert main(["probe", "--lambda-hat", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "monopole probe: solve produced no profile\n"


def test_solve_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    rc = main(["solve", "--lambda-hat", "0", "--out", str(blocker / "sub")])
    assert rc == 4


def test_report_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "f.json"
    blocker.write_text("{}\n")
    rc = main(["solve", "--lambda-hat", "0",
               "--report-out", str(blocker / "sub.json")])
    assert rc == 4


def test_solve_out_refuses_explicit_paths(tmp_path, monkeypatch, capsys):
    # --out names both output files, so an explicit path, from a flag or a
    # config key, is refused before the solve and nothing is written
    monkeypatch.setattr(cli, "bisect_beta", None)
    run, cfg = tmp_path / "run", tmp_path / "opts.cfg"
    paths = {"report_out": str(tmp_path / "r.json"),
             "profile_out": str(tmp_path / "p.csv")}
    for key, path in paths.items():
        flag = "--" + key.replace("_", "-")
        cfg.write_text(f"{key} = {path}\n")
        for argv in ([flag, path, "--out", str(run)],
                     ["--out", str(run), "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--lambda-hat", "0", *argv])
            assert exc.value.code == 1
            assert capsys.readouterr().err.startswith(
                "monopole: error: --out names both output files, so it takes no "
                "--report-out or --profile-out")
    cfg.write_text(f"out = {run}\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--lambda-hat", "0", "--report-out", paths["report_out"],
              "--config", str(cfg)])
    assert exc.value.code == 1
    assert list(tmp_path.iterdir()) == [cfg]


def test_solve_report_to_stdout(capsys):
    # with no output option the JSON report is the whole of stdout, and
    # the summary line goes to stderr
    assert main(["solve", "--lambda-hat", "0"]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["converged"] is True and "profile_residual" not in report
    assert err.startswith("alpha_star_hat = ")


def test_solve_profile_to_stdout_refuses_a_report_there(tmp_path, monkeypatch, capsys):
    # the profile and the report cannot both be the whole of stdout: from a
    # flag or a config key, --profile-out - with the report on stdout is
    # refused before the solve
    monkeypatch.setattr(cli, "bisect_beta", None)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("profile_out = -\n")
    for argv in (["--profile-out", "-"], ["--profile-out", "-", "--report-out", "-"],
                 ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--lambda-hat", "0", *argv])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--profile-out - writes the profile to stdout" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_solve_profile_to_stdout(tmp_path, monkeypatch, capsys, lam0):
    # with the report in a file, the profile CSV is the whole of stdout,
    # the very bytes --profile-out FILE writes, and the summary line goes
    # to stderr
    monkeypatch.setattr(cli, "bisect_beta", lambda lambda_hat, controls=None: lam0)
    report = ["--report-out", str(tmp_path / "r.json")]
    assert main(["solve", "--lambda-hat", "0", *report, "--profile-out", "-"]) == 0
    out, err = capsys.readouterr()
    assert err.startswith("alpha_star_hat = ")
    piped = (tmp_path / "r.json").read_text()
    assert main(["solve", "--lambda-hat", "0", *report,
                 "--profile-out", str(tmp_path / "p.csv")]) == 0
    assert capsys.readouterr().out.startswith("alpha_star_hat = ")
    assert out == (tmp_path / "p.csv").read_text()
    assert piped == (tmp_path / "r.json").read_text()


def test_sweep_single_cell(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["sweep", "--lambda-hat", "0", "--alphas", "0.3",
               "--betas", "0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,outcome,t_event"
    assert len(lines) == 2
    a, b, tag, t_event = lines[1].split(",")
    traj = shoot(ShootPoint(0.3, 0.1), 0.0, IntegratorControls())
    expect = classify(traj, ClassifyMode.F_FATE)
    assert (float(a), float(b)) == (0.3, 0.1)
    assert tag == expect.tag.value == "FZero"
    assert_allclose(float(t_event), expect.t_event, rtol=1e-12)


def test_sweep_grid_flags(tmp_path, capsys):
    # off the lambda_hat = 0 separatrix alpha = beta / 2 but at (0.05, 0.1),
    # as in test_sweep_grid_and_order
    out = tmp_path / "grid.csv"
    rc = main(["sweep", "--lambda-hat", "0", "--alpha-min", "0.05",
               "--alpha-max", "0.3", "--alpha-count", "2",
               "--betas", "0.1,0.5", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    tags = [r.split(",")[2] for r in rows]
    assert tags == ["Horizon", "FPrimeZero", "FZero", "FZero"]
    # a range takes 5 points unless --alpha-count says otherwise
    assert main(["sweep", "--lambda-hat", "0", "--alpha-min", "0.05",
                 "--alpha-max", "0.3", "--betas", "0.1", "--out", str(out)]) == 0
    alphas = [float(r.split(",")[0]) for r in out.read_text().splitlines()[1:]]
    assert alphas == [0.05 + 0.25 * i / 4 for i in range(5)]


def test_sweep_csv_to_stdout(capsys):
    # with the default --out -, the CSV is the whole of stdout, header and
    # one row per cell, and the summary line goes to stderr
    rc = main(["sweep", "--lambda-hat", "0", "--alphas", "0.05,0.3",
               "--betas", "0.1,0.5"])
    assert rc == 0
    out, err = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "beta", "outcome", "t_event"]
    assert [(float(a), float(b)) for a, b, _, _ in rows[1:]] == [
        (0.05, 0.1), (0.05, 0.5), (0.3, 0.1), (0.3, 0.5)]
    assert err == "swept 2x2 points at lambda_hat = 0\n"


def test_sweep_reproduces_the_golden_grid(tmp_path, capsys):
    # the CI's 15 x 12 sweep at lambda_hat = 0.7, default t0 and t_max,
    # byte for byte as tests/data holds it: every tag and event time of
    # the grid, Higgs fates included, to the last bit
    out = tmp_path / "grid.csv"
    rc = main(["sweep", "--lambda-hat", "0.7", "--alpha-min", "0.02", "--alpha-max", "1.5",
               "--alpha-count", "15", "--beta-min", "0.05", "--beta-max", "2",
               "--beta-count", "12", "--workers", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "sweep_lambda0.7_15x12.csv").read_bytes()


def test_sweep_reports_a_beta_too_large_to_start(tmp_path, capsys):
    # beta^2 overflows at 1e160: that point is a Blowup at t0 and the rest
    # of the grid is reported
    out = tmp_path / "grid.csv"
    rc = main(["sweep", "--lambda-hat", "0.5", "--alphas", "0.1",
               "--betas", "0.2,1e160", "--out", str(out)])
    assert rc == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert rows[0][2] == "FZero"
    assert rows[1] == ["0.10000000000000001", "1e+160", "Blowup", "0.001"]


def test_sweep_empty_grid_exit_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--lambda-hat", "0", "--alphas", "",
              "--betas", "0.1"])
    assert exc.value.code == 1


def test_sweep_grid_spec_errors_exit_usage(tmp_path, monkeypatch, capsys):
    # a value list that is not all floats, a count below 2 or max <= min
    # is refused before the sweep; so is a value list next to a range
    # option it would ignore, whether a flag or a config key gave it
    monkeypatch.setattr(cli, "sweep", None)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("alpha_max = 0.9\n")
    betas = ["--betas", "0.1"]
    for spec, message in ((["--alphas", "0.1,x"], "--alphas must be a comma-separated"),
                          (["--alpha-min", "0.1", "--alpha-max", "0.3",
                            "--alpha-count", "1"], "--alpha-count must be >= 2"),
                          (["--alpha-min", "0.3", "--alpha-max", "0.3"],
                           "--alpha-count must be >= 2 with max > min"),
                          (["--alphas", "0.1", "--alpha-min", "0.5", "--alpha-max", "0.9",
                            "--alpha-count", "7"], "--alphas takes no --alpha-min"),
                          (["--alphas", "0.1", "--alpha-count", "7"],
                           "--alphas takes no --alpha-count"),
                          (["--alphas", "0.1", "--config", str(cfg)],
                           "--alphas takes no --alpha-max"),
                          (["--alphas", "0.1", "--beta-min", "0.5"],
                           "--betas takes no --beta-min")):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--lambda-hat", "0", *spec, *betas])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err


def test_sweep_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    rc = main(["sweep", "--lambda-hat", "0", "--alphas", "0.3", "--betas", "0.1",
               "--out", str(blocker / "grid.csv")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("monopole sweep: cannot write output")


def test_sweep_workers_exit_usage(tmp_path, monkeypatch, capsys):
    # refused before the sweep, from a flag or from a config file
    with monkeypatch.context() as m:
        m.setattr(cli, "sweep", None)
        for workers in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--lambda-hat", "0", "--alphas", "0.3",
                      "--betas", "0.1", "--workers", workers])
            assert exc.value.code == 1
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("workers = 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--lambda-hat", "0", "--alphas", "0.3",
                  "--betas", "0.1", "--config", str(cfg)])
        assert exc.value.code == 1
    # the worker count comes from --workers alone
    monkeypatch.setenv("MONOPOLE_THREADS", "abc")
    assert main(["sweep", "--lambda-hat", "0", "--alphas", "0.3",
                 "--betas", "0.1", "--out", str(tmp_path / "grid.csv")]) == 0


def test_config_file_overlay(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# comment line\nt0 = 0.005\n")
    rc = main(["series", "--alpha", "0.1", "--beta", "0.2",
               "--config", str(cfg)])
    assert rc == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert float(row.split(",")[0]) == 0.005
    # an explicit flag beats the config value, --flag=value form included
    rc = main(["series", "--alpha", "0.1", "--beta", "0.2",
               "--t0=0.002", "--config", str(cfg)])
    assert rc == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert float(row.split(",")[0]) == 0.002


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    # func is a parser default, not an option
    for line in ("warp_factor = 9\n", "func = 1\n"):
        cfg.write_text(line)
        rc = main(["series", "--alpha", "0.1", "--beta", "0.2",
                   "--config", str(cfg)])
        assert rc == 1


def test_config_line_without_value_exits_usage(tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("t0 = 0.005\nt_max\n")
    rc = main(["series", "--alpha", "0.1", "--beta", "0.2", "--config", str(cfg)])
    assert rc == 1
    assert "opts.cfg:2: expected key = value" in capsys.readouterr().err


def test_config_switch_true_sets_the_flag(tmp_path, capsys):
    # flat = true reads as --flat: the flat probe, with no solve
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("flat = true\n")
    assert main(["probe", "--config", str(cfg)]) == 0
    value = float(capsys.readouterr().out.split("first_zero = ")[1].split()[0])
    assert abs(value - 4.4934) < 1e-3


def test_config_values_take_the_flag_type(tmp_path, monkeypatch, capsys):
    # a config value is read as its flag's value would be; neither case
    # reaches a shot
    solve = ["solve", "--lambda-hat", "0"]
    cfg = tmp_path / "opts.cfg"
    # unreadable: a usage error before the solve, as from the flag
    with monkeypatch.context() as m:
        m.setattr(cli, "bisect_beta", None)
        with pytest.raises(SystemExit) as exc:
            main([*solve, "--grid-step", "1e-2x"])
        assert exc.value.code == 1
        cfg.write_text("grid_step = 1e-2x\n")
        assert main([*solve, "--config", str(cfg)]) == 1
        assert "grid_step" in capsys.readouterr().err
        # a switch takes true or false
        cfg.write_text("flat = maybe\n")
        assert main(["probe", "--lambda-hat", "0", "--config", str(cfg)]) == 1
        assert "flat" in capsys.readouterr().err
    # a float the solver refuses: the solver's own message, a usage error
    assert main([*solve, "--t-max", "nan"]) == 1
    flag_err = capsys.readouterr().err
    assert "integrator controls must be finite" in flag_err
    cfg.write_text("t_max = nan\n")
    assert main([*solve, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == flag_err


def test_abbreviated_flag_exits_usage(tmp_path, monkeypatch, capsys):
    # the config overlay finds explicit flags by their full name, so an
    # abbreviation would silently lose to the file; it is refused instead
    monkeypatch.setattr(cli, "bisect_beta", None)
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("t-max = 20\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--lambda-hat", "0", "--config", str(cfg), "--t-m", "30"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --t-m" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    rc = main(["series", "--alpha", "0.1", "--beta", "0.2",
               "--config", str(tmp_path / "absent.cfg")])
    assert rc == 4


def test_validate_passes(capsys):
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "PASS" in out


@pytest.mark.parametrize("frame", [
    ["--lambda-hat", "5"],
    ["--lam", "1", "--g0", "1", "--rho0", "1"],
])
def test_validate_rejects_frame_flags(frame, capsys):
    # validate always solves the lambda_hat = 0 closed-form case
    with pytest.raises(SystemExit) as exc:
        main(["validate", *frame])
    assert exc.value.code == 1


def test_validate_detects_sign_mutation(monkeypatch, capsys):
    # corrupt the field equations' right-hand side, which a run evaluates
    # at its start and in the interpolant's stages, and check that
    # validate notices
    orig = model._rhs

    def flipped(t, f, fp, rho, rhop, lam):
        d = orig(t, f, fp, rho, rhop, lam)
        return (d[0], -d[1], d[2], d[3])

    monkeypatch.setattr(model, "_rhs", flipped)
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL" in out


def test_removed_flags_exit_usage(monkeypatch, capsys):
    # every solve polishes, validate has one set of thresholds, and every
    # run starts at the library's t0 (only series takes --t0, the radius
    # of its two-term handoff)
    monkeypatch.setattr(cli, "bisect_beta", None)
    monkeypatch.setattr(cli, "sweep", None)
    for argv in (["solve", "--lambda-hat", "0", "--no-polish"],
                 ["probe", "--lambda-hat", "0", "--no-polish"],
                 ["validate", "--no-polish"], ["validate", "--quick"],
                 ["validate", "--param-tol", "1"], ["validate", "--field-tol", "1"],
                 ["validate", "--energy-tol", "1"],
                 ["solve", "--lambda-hat", "0", "--t0", "1e-3"], ["validate", "--t0", "1e-3"],
                 ["probe", "--lambda-hat", "0", "--t0", "1e-3"],
                 ["sweep", "--lambda-hat", "0", "--alphas", "0.3", "--betas", "0.1",
                  "--t0", "1e-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_tolerances_are_not_options(solve_dir, tmp_path, monkeypatch, capsys):
    # every solve runs at the library's tolerances: no command takes one,
    # as a flag or as a config key, and the report records those its runs
    # used, the profile-grade ones; nor does a command that runs take a
    # t0 key, the start radius being the library's too
    report = json.loads((solve_dir / "report.json").read_text())
    assert (report["rel_tol"], report["abs_tol"]) == (1e-12, 1e-14)
    monkeypatch.setattr(cli, "bisect_beta", None)
    monkeypatch.setattr(cli, "sweep", None)
    cfg = tmp_path / "opts.cfg"
    for command in (["solve", "--lambda-hat", "0"], ["validate"],
                    ["probe", "--lambda-hat", "0"],
                    ["sweep", "--lambda-hat", "0", "--alphas", "0.3", "--betas", "0.1"],
                    ["series", "--alpha", "0.1", "--beta", "0.2"]):
        for flag in ("tol-alpha", "tol-beta", "rel-tol", "abs-tol"):
            with pytest.raises(SystemExit) as exc:
                main([*command, f"--{flag}", "1e-9"])
            assert exc.value.code == 1
            assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
            key = flag.replace("-", "_")
            cfg.write_text(f"{key} = 1e-9\n")
            assert main([*command, "--config", str(cfg)]) == 1
            assert f"unknown option {key!r}" in capsys.readouterr().err
        if command[0] != "series":
            cfg.write_text("t0 = 1e-3\n")
            assert main([*command, "--config", str(cfg)]) == 1
            assert "unknown option 't0'" in capsys.readouterr().err


def test_probe_solved_profile(lam1, capsys):
    # the probe of a solved profile runs the solve that `solve` runs
    rc = main(["probe", "--lambda-hat", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    zero = analysis.linearized_probe(lam1.profile).first_zero
    assert out.split("first_zero = ")[1].split()[0] == \
        ("none" if zero is None else cli._fmt(zero))


def test_probe_flat(capsys):
    rc = main(["probe", "--flat"])
    assert rc == 0
    out = capsys.readouterr().out
    value = float(out.split("first_zero = ")[1].split()[0])
    assert abs(value - 4.4934) < 1e-3


def test_probe_flat_refuses_the_options_it_would_ignore(tmp_path, capsys):
    # a flat probe solves nothing: a frame or run option, from a flag or
    # a config key, is a usage error naming the option, the first one in
    # the probe's option order
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("t_max = 20\n")
    for extra, flag in ((["--t-max", "20", "--lambda-hat", "7"], "--lambda-hat"),
                        (["--t-max", "20"], "--t-max"),
                        (["--lam", "1", "--g0", "1", "--rho0", "1"], "--lam"),
                        (["--config", str(cfg)], "--t-max")):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--flat", *extra])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith(
            f"monopole: error: --flat solves nothing, so it takes no {flag}")
    cfg.write_text("u_end = 9\n")
    assert main(["probe", "--flat", "--config", str(cfg)]) == 0


def test_series_degenerate_point(capsys):
    rc = main(["series", "--alpha", "0", "--beta", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,f,fp,rho,rhop"
    t, f, fp, rho, rhop = (float(v) for v in lines[1].split(","))
    assert (f, fp, rho, rhop) == (1.0, 0.0, 0.0, 0.0)
    assert t == 0.001


def test_series_refused_picard_prints_nothing(capsys):
    # the Picard check runs before anything is printed, so a value it
    # refuses leaves stdout empty
    rc = main(["series", "--alpha", "0.2", "--beta", "0.3", "--picard",
               "--picard-iters", "1"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("monopole series: n_iters must be at least 2")


def test_series_picard_report(capsys):
    rc = main(["series", "--alpha", "0.16", "--beta", "0.33", "--picard"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "picard s_max" in err
    ratios = [float(v) for v in
              err.split("ratios = [")[1].split("]")[0].split(",")]
    assert all(r <= 1.0 / 3.0 + 0.05 for r in ratios[1:])


def test_series_picard_lines_go_to_stderr(capsys):
    # the CSV is the whole of stdout, so `monopole series ... --picard >
    # state.csv` writes pure CSV, as sweep and solve keep theirs
    rc = main(["series", "--alpha", "0.25", "--beta", "0.5", "--lambda-hat", "1",
               "--picard"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert main(["series", "--alpha", "0.25", "--beta", "0.5", "--lambda-hat", "1"]) == 0
    assert out == capsys.readouterr().out
    header, row = out.splitlines()
    assert header == "t,f,fp,rho,rhop" and len(row.split(",")) == 5
    s_max, f_end = err.splitlines()
    assert s_max.startswith("picard s_max = ") and "ratios = [" in s_max
    assert f_end.startswith("picard f(") and "rho = " in f_end


def test_no_process_pool_is_loaded_without_a_pool(tmp_path):
    # concurrent.futures and multiprocessing cost a run ~1.4 MB of peak
    # RSS, so a fresh interpreter loads them only for sweep(workers > 1):
    # not on importing the CLI or the shooter, nor for a one-process sweep;
    # two CPUs and tasks of two points are posed so that the 2 x 2 sweep
    # is two tasks and still pools, also on a one-CPU machine
    code = textwrap.dedent("""
        import os, sys
        from monopole import cli, shooter
        os.cpu_count = lambda: 2
        shooter._SWEEP_BATCH = 2

        def pool():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] in ("concurrent", "multiprocessing"))
        print(pool())
        cli.main(["sweep", "--lambda-hat", "0", "--alphas", "0.05,0.3",
                  "--betas", "0.1,0.5", "--out", sys.argv[1]])
        print(pool())
        shooter.sweep([0.05, 0.3], [0.1, 0.5], 0.0, workers=2)
        print("multiprocessing" in pool(), "concurrent.futures" in pool())
        """)
    src = str(Path(monopole.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "grid.csv")],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path)
    assert proc.stdout.splitlines() == [
        "[]", "swept 2x2 points at lambda_hat = 0", "[]", "True True"]
