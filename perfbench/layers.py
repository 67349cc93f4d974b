"""Per-layer tracing from outside the program.

The program has no counters of its own yet, so the traced run wraps the
public functions each layer exposes and records one span per call:

  shooter       shoot and classify as the shooter calls them, and bisect_beta
  analysis      every diagnostic the solver and the CLI call
  cli           the bisect_beta call made inside cli.main

Wrappers return the wrapped function's result untouched, so a traced run
takes exactly the same step decisions as an untraced one; run.py checks
that on every operation.  Spans stay in memory and are written once, at
the end of the run.

Each shot is keyed to its solver stage only by the IntegratorControls it
receives, compared with the controls the caller passed in.

The speed reference of clock.py samples outside the shoot spans, so its
kernel time shows in the bisect_beta and operation spans only.
"""
from __future__ import annotations

import dataclasses
import json
import time

ANALYSIS_FUNCTIONS = ("fit_decay", "stable_fit_horizon", "monotonicity_audit",
                      "residual_norm", "mass_integral")
STAGES = ("stage1", "polish", "profile", "other")

# Per-layer metric names, units and the direction that counts as better.
PER_LAYER = (
    ("shooter.shots", "count/op", "lower"),
    ("shooter.shots.stage1", "count/op", "lower"),
    ("shooter.shots.polish", "count/op", "lower"),
    ("shooter.shots.profile", "count/op", "lower"),
    ("shooter.shots.other", "count/op", "lower"),
    ("shooter.escalated_shots", "count/op", "lower"),
    ("shooter.escalated_share", "ratio", "lower"),
    ("shooter.beta_evals", "count/op", "lower"),
    ("shooter.stage1_s", "s/op", "lower"),
    ("shooter.polish_s", "s/op", "lower"),
    ("shooter.profile_s", "s/op", "lower"),
    ("shooter.unconverged_with_numbers", "count", "lower"),
    ("integrator.steps", "count/op", "lower"),
    ("integrator.steps_per_shot", "count", "lower"),
    ("integrator.us_per_step", "us", "lower"),
    ("integrator.events", "count/op", "lower"),
    ("integrator.classify_s", "s/op", "lower"),
    ("origin_series.immediate_shots", "count/op", "higher"),
    ("analysis.stable_fit_horizon_s", "s/op", "lower"),
    ("analysis.residual_norm_s", "s/op", "lower"),
    ("analysis.monotonicity_audit_s", "s/op", "lower"),
    ("analysis.mass_integral_s", "s/op", "lower"),
    ("analysis.diagnostics_s", "s/op", "lower"),
    ("cli.overhead_s", "s/op", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)


def stage_of(controls, base) -> tuple[str, bool]:
    """(stage, escalated) of a shot, read from its controls alone.

    A capped max_step marks the profile run, a tightened rel_tol the
    polish stage, and a t_max above the caller's an escalated re-shoot.
    Controls equal to the caller's apart from t_max are stage one;
    anything else is 'other'.
    """
    escalated = controls.t_max > base.t_max
    if controls.max_step < base.max_step:
        return "profile", escalated
    if controls.rel_tol < base.rel_tol:
        return "polish", escalated
    if dataclasses.replace(controls, t_max=base.t_max) == base:
        return "stage1", escalated
    return "other", escalated


def carries_numbers(converged: bool, energy, residual, audit) -> bool:
    """An unconverged solve that still reports energy, residual or audit."""
    return not converged and any(v is not None for v in (energy, residual, audit))


class Tracer:
    """Span recorder; install() wraps the layers, uninstall() restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = None
        self.base = None

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "op": self.op, "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def operation(self, op: int, name: str, base, fn, *args, **kwargs):
        """Run one benchmark operation as a root span with caller controls base."""
        self.op, self.base = op, base
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    # -- wrappers --------------------------------------------------------
    def _patch(self, module, attr: str, wrapper_factory) -> None:
        orig = getattr(module, attr)
        self._patched.append((module, attr, orig))
        setattr(module, attr, wrapper_factory(orig))

    def install(self) -> None:
        from monopole import analysis, cli, shooter

        def wrap_shoot(orig):
            def shoot(point, lambda_hat, controls):
                span = self._open("shooter.shoot")
                try:
                    traj = orig(point, lambda_hat, controls)
                finally:
                    self._close(span)
                stage, escalated = stage_of(controls, self.base)
                span.update(stage=stage, escalated=escalated,
                            steps=traj.n_steps, immediate=traj.ended == "immediate",
                            events=len(traj.f_events) + len(traj.rho_events))
                return traj
            return shoot

        def wrap_plain(name):
            def factory(orig):
                def wrapped(*args, **kwargs):
                    span = self._open(name)
                    try:
                        return orig(*args, **kwargs)
                    finally:
                        self._close(span)
                return wrapped
            return factory

        def wrap_solve(name):
            def factory(orig):
                def bisect_beta(lambda_hat, controls=None, **kwargs):
                    self.base = controls
                    span = self._open(name)
                    try:
                        rep = orig(lambda_hat, controls=controls, **kwargs)
                    finally:
                        self._close(span)
                    span.update(beta_evals=rep.n_beta_evaluations,
                                unconverged_with_numbers=carries_numbers(
                                    rep.converged, rep.energy, rep.residual_norm,
                                    rep.audit))
                    return rep
                return bisect_beta
            return factory

        self._patch(shooter, "shoot", wrap_shoot)
        self._patch(shooter, "classify", wrap_plain("integrator.classify"))
        for name in ANALYSIS_FUNCTIONS:
            self._patch(analysis, name, wrap_plain("analysis." + name))
        self._patch(shooter, "bisect_beta", wrap_solve("shooter.bisect_beta"))
        self._patch(cli, "bisect_beta", wrap_solve("cli.bisect_beta"))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list[dict], n_ops: int) -> dict:
    """Per-layer metrics from the spans of n_ops operations.

    Counts and times are per operation; ratios are over the whole run.
    trace_overhead_ratio is filled in by the caller.
    """
    def dur(s):
        return s["end"] - s["start"]

    by_id = {s["id"]: s for s in spans}

    def has_ancestor(s, prefix):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"].startswith(prefix):
                return True
            p = by_id[p]["parent"]
        return False

    shots = [s for s in spans if s["name"] == "shooter.shoot"]
    n_shots = len(shots)
    steps = sum(s["steps"] for s in shots)
    shoot_s = sum(dur(s) for s in shots)
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m["shooter.shots"] = n_shots
    for stage in STAGES:
        m[f"shooter.shots.{stage}"] = sum(1 for s in shots if s["stage"] == stage)
    for stage in ("stage1", "polish", "profile"):
        m[f"shooter.{stage}_s"] = sum(dur(s) for s in shots if s["stage"] == stage)
    escalated = sum(1 for s in shots if s["escalated"])
    m["shooter.escalated_shots"] = escalated
    m["integrator.steps"] = steps
    m["integrator.events"] = sum(s["events"] for s in shots)
    m["origin_series.immediate_shots"] = sum(1 for s in shots if s["immediate"])
    m["integrator.classify_s"] = sum(dur(s) for s in spans
                                     if s["name"] == "integrator.classify")
    solves = [s for s in spans if "beta_evals" in s]
    m["shooter.beta_evals"] = sum(s["beta_evals"] for s in solves)
    m["shooter.unconverged_with_numbers"] = sum(
        1 for s in solves if s["unconverged_with_numbers"])
    analysis_spans = [s for s in spans if s["name"].startswith("analysis.")]
    for name in ("stable_fit_horizon", "residual_norm", "monotonicity_audit",
                 "mass_integral"):
        m[f"analysis.{name}_s"] = sum(dur(s) for s in analysis_spans
                                      if s["name"] == "analysis." + name)
    m["analysis.diagnostics_s"] = sum(dur(s) for s in analysis_spans
                                      if not has_ancestor(s, "analysis."))
    cli_solves = {s["parent"]: dur(s) for s in spans if s["name"] == "cli.bisect_beta"}
    m["cli.overhead_s"] = sum(dur(by_id[p]) - d for p, d in cli_solves.items())

    per_op = [name for name, unit, _ in PER_LAYER if unit.endswith("/op")]
    for name in per_op:
        m[name] /= n_ops
    m["shooter.escalated_share"] = escalated / n_shots if n_shots else 0.0
    m["integrator.steps_per_shot"] = steps / n_shots if n_shots else 0.0
    m["integrator.us_per_step"] = 1e6 * shoot_s / steps if steps else 0.0
    return m
