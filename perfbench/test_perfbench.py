"""Self-tests of the benchmark's own logic (no solves).

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from monopole.integrator import IntegratorControls  # noqa: E402

BASE = IntegratorControls()
POLISH = dataclasses.replace(BASE, rel_tol=1e-12, abs_tol=1e-14)


@pytest.mark.parametrize("controls, want", [
    (BASE, ("stage1", False)),
    (dataclasses.replace(BASE, t_max=24.0), ("stage1", True)),
    (POLISH, ("polish", False)),
    (dataclasses.replace(POLISH, t_max=48.0), ("polish", True)),
    (dataclasses.replace(POLISH, max_step=5e-3), ("profile", False)),
    (dataclasses.replace(BASE, max_step=5e-3), ("profile", False)),
    (dataclasses.replace(BASE, t0=5e-4), ("other", False)),
    (dataclasses.replace(BASE, abs_tol=1e-14), ("other", False)),
])
def test_stage_attribution(controls, want):
    assert layers.stage_of(controls, BASE) == want


def test_unconverged_report_with_numbers_is_a_failure(tmp_path):
    rep = {"converged": False, "alpha_star_hat": 0.2, "beta_star_hat": 0.4,
           "energy": 1.326, "residual_norm": 7.7e-7, "audit_passes": True}
    (tmp_path / "report.json").write_text(json.dumps(rep))
    with pytest.raises(workloads.OpFailed):
        workloads.coupled_check(1.5, (2, str(tmp_path)))
    assert layers.carries_numbers(False, 1.326, 7.7e-7, object())
    assert not layers.carries_numbers(False, None, None, None)
    assert not layers.carries_numbers(True, 1.0, 1e-8, object())

    plain = {"checked": [None, {"key": (0.1, 0.2, 1.1), "virial": 1e-8}],
             "op_times": [1.0, 1.0]}
    attempted, failed, correct = run.score("coupled_solve", 0, [1.5, 1.0], plain, None)
    assert (attempted, failed, correct) == (2, 1, False)

    spans = [{"id": 0, "op": 0, "name": "coupled_solve", "parent": None,
              "start": 0.0, "end": 2.0},
             {"id": 1, "op": 0, "name": "cli.bisect_beta", "parent": 0,
              "start": 0.5, "end": 1.5, "beta_evals": 45,
              "unconverged_with_numbers": True}]
    m = layers.summarize(spans, 1)
    assert m["shooter.unconverged_with_numbers"] == 1
    assert m["cli.overhead_s"] == pytest.approx(1.0)


def test_virial_quadrature_on_closed_form():
    h = 1e-2
    ts = [1e-3 + i * h for i in range(2000)]
    fs = [checks.bps_f(t) for t in ts]
    rhos = [checks.bps_rho(t) for t in ts]
    fps = [(1.0 - t / math.tanh(t)) / math.sinh(t) for t in ts]
    rhops = [1.0 / (t * t) - 1.0 / math.sinh(t) ** 2 for t in ts]
    energy, residual = checks.virial(ts, fs, fps, rhos, rhops, 0.0)
    assert energy == pytest.approx(1.0, abs=1e-6)
    assert abs(residual) < 1e-6


def test_rk4_classifier_sees_both_gauge_fates():
    assert checks.rk4_gauge_event(1e-3, 0.5, 1.0, t_end=0.5)[0] == "FPrimeZero"
    assert checks.rk4_gauge_event(50.0, 0.5, 1.0, t_end=0.5)[0] == "FZero"


def test_inputs_are_seeded():
    for name, spec in workloads.WORKLOADS.items():
        assert spec["inputs"](7, 3) == spec["inputs"](7, 3), name
        assert spec["inputs"](7, 3) != spec["inputs"](8, 3), name
    assert workloads.bps_inputs(0, 2) == [workloads.BPS_DEFAULT_T0] * 2
    assert 5e-4 <= workloads.bps_inputs(5, 1)[0] <= 1e-3
    assert workloads.coupled_inputs(4, 3)[0] == 1.0


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_are_valid_and_match_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS)
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    all_names = names + [m["name"] for m in e2e + per_layer]
    assert len(all_names) == len(set(all_names))
    for m in e2e + per_layer:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert {m["name"]: m["unit"] for m in e2e} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in per_layer] \
        == list(layers.PER_LAYER)
