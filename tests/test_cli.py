"""Command-line contract: exit codes, artifacts, and reproducibility."""
from __future__ import annotations

import json
import math

import pytest
from numpy.testing import assert_allclose

from monopole import analysis, cli, model
from monopole.cli import main
from monopole.integrator import ClassifyMode, IntegratorControls, classify
from monopole.origin_series import ShootPoint
from monopole.shooter import shoot

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
    assert_allclose(r, report["profile_residual"], rtol=1e-14)


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
    # handoff beyond the series' validity: the solver refuses to start,
    # a usage error (1) with the library's message
    rc = main(["solve", "--lambda-hat", "0", "--t0", "0.02"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "monopole solve: t0 must lie in (0, 0.01], got 0.02\n"


@pytest.mark.parametrize("argv, message", [
    (["solve", "--lambda-hat", "0", "--t0", "0.5"], "t0 must lie in (0, 0.01]"),
    (["solve", "--lambda-hat", "0", "--rel-tol", "-1"],
     "unrecognized arguments: --rel-tol -1"),
    (["solve", "--lambda-hat", "0", "--tol-alpha", "0"],
     "unrecognized arguments: --tol-alpha 0"),
    (["solve", "--lambda-hat", "0", "--t-max", "1e-4"], "need 0 < t0 < t_max"),
    (["solve", "--lam", "-1", "--g0", "1", "--rho0", "1"],
     "lam must be finite and >= 0"),
    (["series", "--alpha", "-1", "--beta", "0.3"], "alpha must be finite and >= 0"),
    (["sweep", "--lambda-hat", "0", "--alphas", "0.1", "--betas", "0.1",
      "--t0", "0.5"], "t0 must lie in (0, 0.01]"),
    (["probe", "--flat", "--u-end", "0"], "need u_end > u0"),
    (["validate", "--t0", "0.5"], "t0 must lie in (0, 0.01]"),
    (["validate", "--tol-alpha", "0"], "unrecognized arguments: --tol-alpha 0"),
    (["probe", "--flat", "--u-end", "inf"], "u_end = inf needs more than 10^6 steps"),
    (["probe", "--flat", "--u-end", "2e3"],
     "u_end = 2000.0 needs more than 10^6 steps"),
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
    # every solve polishes and validate has one set of thresholds
    monkeypatch.setattr(cli, "bisect_beta", None)
    for argv in (["solve", "--lambda-hat", "0", "--no-polish"],
                 ["probe", "--lambda-hat", "0", "--no-polish"],
                 ["validate", "--no-polish"], ["validate", "--quick"],
                 ["validate", "--param-tol", "1"], ["validate", "--field-tol", "1"],
                 ["validate", "--energy-tol", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_tolerances_are_not_options(solve_dir, tmp_path, monkeypatch, capsys):
    # every solve runs at the library's tolerances: no command takes one,
    # as a flag or as a config key, and the report records the defaults
    report = json.loads((solve_dir / "report.json").read_text())
    assert (report["rel_tol"], report["abs_tol"]) == (1e-10, 1e-12)
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
    # a config key, is a usage error naming the option, as --t0 0.5 is
    # for every command that uses it
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("t_max = 20\n")
    for extra, flag in ((["--t0", "0.5", "--lambda-hat", "7"], "--lambda-hat"),
                        (["--t0", "0.5"], "--t0"),
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
    out = capsys.readouterr().out
    assert "picard s_max" in out
    ratios = [float(v) for v in
              out.split("ratios = [")[1].split("]")[0].split(",")]
    assert all(r <= 1.0 / 3.0 + 0.05 for r in ratios[1:])
