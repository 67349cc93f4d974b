"""The three workloads: seeded inputs, one operation each, and output checks.

Each workload is a closed loop from one process: the next operation
starts when the previous one returns.  The number of operations is fixed
by --seconds and the workload's nominal operation time, so two commits
always do the same work and a faster one simply finishes sooner.

  bps_solve      bisect_beta(0) with polish at a seeded handoff radius t0.
                 The only workload with an exact oracle (f = t/sinh t,
                 E = 1), and the heaviest user of horizon escalation.
  coupled_solve  `monopole solve --lambda-hat L --out DIR` through cli.main,
                 lambda_hat = 1 and then seeded draws; report.json and
                 profile.csv are read back.  Polish is ~2/3 of the shot
                 time, and the path is the one users run for artifacts.
  outcome_sweep  sweep(alphas, betas, lambda_hat, workers=1) on seeded
                 random grids: many short shots and no bracketing,
                 escalation, polish or diagnostics, so a shooter-only
                 change should leave it unchanged.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil

import checks

BPS_T0_RANGE = (5e-4, 1e-3)
BPS_DEFAULT_T0 = 1e-3
# Log-uniform grid on [0.05, 1]: every value converges at the seed commit.
# lambda_hat = 1.2, 1.5, 3, 4 and 5 return converged = False there, and
# the benchmark keeps to workloads on which no operation fails.
COUPLED_LAMBDAS = tuple(0.05 * 20.0 ** (k / 7) for k in range(8))
SWEEP_SIDE = 10
SWEEP_ALPHA = (0.02, 1.5)
SWEEP_BETA = (0.05, 2.0)
SWEEP_LAMBDA = (0.0, 2.0)
SWEEP_T0 = 1e-3
# Points whose first gauge event comes this early get the RK4 check.
SWEEP_CHECK_T_MAX = 1.5
SWEEP_CHECKS_PER_RUN = 8


class OpFailed(Exception):
    """An operation ran but its output failed a check."""


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


# -- bps_solve ----------------------------------------------------------------

def bps_inputs(seed: int, n_ops: int) -> list[float]:
    """One handoff radius per seed (the default at seed 0), solved n_ops times."""
    t0 = BPS_DEFAULT_T0 if seed == 0 else _rng(seed, "bps").uniform(*BPS_T0_RANGE)
    return [t0] * n_ops


def bps_run(t0: float, workdir: str):
    from monopole.integrator import IntegratorControls
    from monopole.shooter import bisect_beta
    base = IntegratorControls(t0=t0)
    return base, bisect_beta, (0.0,), {"controls": base}


def bps_check(t0: float, rep) -> dict:
    if not rep.converged or rep.profile is None or rep.energy is None:
        raise OpFailed(f"bps solve at t0={t0} did not converge")
    out = {
        "bps_param_err": max(abs(rep.alpha_star_hat - 1.0 / 6.0),
                             abs(rep.beta_star_hat - 1.0 / 3.0)),
        "bps_profile_err": checks.bps_profile_error(rep.profile.state_at),
        "bps_energy_err": abs(rep.energy - 1.0),
    }
    limits = {"bps_param_err": checks.BPS_PARAM_TOL,
              "bps_profile_err": checks.BPS_PROFILE_TOL,
              "bps_energy_err": checks.BPS_ENERGY_TOL}
    bad = [f"{k}={out[k]:.3e}" for k, lim in limits.items() if not out[k] < lim]
    if bad:
        raise OpFailed("bps solve off the closed form: " + ", ".join(bad))
    out["key"] = (rep.alpha_star_hat, rep.beta_star_hat, rep.energy)
    return out


# -- coupled_solve ------------------------------------------------------------

def coupled_inputs(seed: int, n_ops: int) -> list[float]:
    rng = _rng(seed, "coupled")
    return [1.0] + [rng.choice(COUPLED_LAMBDAS) for _ in range(n_ops - 1)]


def coupled_run(lam: float, workdir: str):
    from monopole import cli
    from monopole.integrator import IntegratorControls

    def solve():
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "--lambda-hat", repr(lam), "--out", workdir])
        return code, workdir
    return IntegratorControls(), solve, (), {}


def read_profile(path: str):
    cols = ([], [], [], [], [])
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["t", "f", "fp", "rho", "rhop"]:
            raise OpFailed(f"{path}: unexpected header")
        for row in reader:
            for col, value in zip(cols, row):
                col.append(float(value))
    return cols


def coupled_check(lam: float, result) -> dict:
    code, workdir = result
    try:
        with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        profile = (read_profile(os.path.join(workdir, "profile.csv"))
                   if rep.get("converged") else None)
    except (OSError, ValueError) as exc:
        raise OpFailed(f"lambda_hat={lam}: unreadable artifacts ({exc})") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    energy, residual = rep.get("energy"), rep.get("residual_norm")
    if not (code == 0 and rep.get("converged") and rep.get("audit_passes")):
        raise OpFailed(f"lambda_hat={lam}: exit {code}, converged="
                       f"{rep.get('converged')}, audit_passes={rep.get('audit_passes')}")
    if not (residual is not None and residual < checks.RESIDUAL_TOL):
        raise OpFailed(f"lambda_hat={lam}: residual {residual}")
    if not (energy is not None and 1.0 < energy < checks.ENERGY_CEIL):
        raise OpFailed(f"lambda_hat={lam}: energy {energy} outside (1, {checks.ENERGY_CEIL})")
    _, virial = checks.virial(*profile, lam)
    return {"virial": virial,
            "key": (rep["alpha_star_hat"], rep["beta_star_hat"], energy)}


# -- outcome_sweep ------------------------------------------------------------

def sweep_inputs(seed: int, n_ops: int) -> list[tuple]:
    rng = _rng(seed, "sweep")
    grids = []
    for _ in range(n_ops):
        alphas = sorted(rng.uniform(*SWEEP_ALPHA) for _ in range(SWEEP_SIDE))
        betas = sorted(rng.uniform(*SWEEP_BETA) for _ in range(SWEEP_SIDE))
        grids.append((alphas, betas, rng.uniform(*SWEEP_LAMBDA)))
    return grids


def sweep_run(grid: tuple, workdir: str):
    from monopole.integrator import IntegratorControls
    from monopole.shooter import sweep
    alphas, betas, lam = grid
    base = IntegratorControls(t0=SWEEP_T0)
    return base, sweep, (alphas, betas, lam), {"controls": base, "workers": 1}


SWEEP_TAGS = frozenset({"FPrimeZero", "FZero", "RhoPrimeZero", "RhoCrossVev",
                        "RhoZero", "Converged", "Horizon", "Blowup"})


def sweep_check(grid: tuple, out) -> dict:
    alphas, betas, lam = grid
    if (out.alphas != alphas or out.betas != betas or len(out.tags) != len(alphas)
            or any(len(row) != len(betas) for row in out.tags)):
        raise OpFailed("sweep grid shape or order changed")
    cells = list(out.rows())
    for a, b, tag, t_event in cells:
        if tag not in SWEEP_TAGS or not (t_event is None or math.isfinite(t_event)):
            raise OpFailed(f"sweep point ({a}, {b}): bad outcome {tag} at {t_event}")
    early = [(a, b, lam, tag, t) for a, b, tag, t in cells
             if tag in ("FPrimeZero", "FZero") and t is not None
             and SWEEP_T0 < t <= SWEEP_CHECK_T_MAX]
    return {"early": early,
            "key": tuple((tag, t) for _, _, tag, t in cells)}


def sweep_oracle(seed: int, early: list[tuple]) -> tuple[int, list[tuple]]:
    """RK4 check of a seeded subsample of early-deciding points.

    Returns (points checked, points that disagree).
    """
    rng = _rng(seed, "sweep-check")
    picked = rng.sample(early, min(SWEEP_CHECKS_PER_RUN, len(early)))
    bad = [p for p in picked
           if not checks.gauge_event_agrees(*p, t0=SWEEP_T0)]
    return len(picked), bad


WORKLOADS = {
    "bps_solve": {"inputs": bps_inputs, "run": bps_run, "check": bps_check,
                  "nominal_op_s": 14.0},
    "coupled_solve": {"inputs": coupled_inputs, "run": coupled_run,
                      "check": coupled_check, "nominal_op_s": 14.0},
    "outcome_sweep": {"inputs": sweep_inputs, "run": sweep_run,
                      "check": sweep_check, "nominal_op_s": 0.35},
}


def n_ops(workload: str, seconds: float) -> int:
    return max(1, int(seconds / WORKLOADS[workload]["nominal_op_s"] + 0.5))
