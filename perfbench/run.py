"""Solver benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload bps_solve --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/
directory, never from an installed copy.  Human-readable lines go to
stdout first; the last line is one JSON object with keys correct,
attempted, failed and metrics.

--trace 0   end-to-end metrics: setup_s (median over fresh interpreters),
            wall_ref (all operations) and op_ref (the median operation:
            one solve, or one sweep of a grid) in units of the speed
            reference of clock.py, peak_rss_mb.  The same times in raw
            seconds (wall_s, op_s = solve_s) and the issue's other figures
            (fail_ratio, bps_*_err, virial_max, sweep_points_per_s) are
            printed as `metric` lines above the JSON.
--trace 1   per-layer metrics from a traced pass over the same inputs,
            preceded by an untraced pass; the two passes must give
            bit-identical alpha*, beta*, energies and sweep outcomes.

Scratch files (CLI artifacts, the span log) go to .perfbench_out/ in the
checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import clock
import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 9
# End-to-end metric units, in the order BENCHMARK.json lists them.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "op_ref": "ref", "peak_rss_mb": "MB"}


def _load_program():
    """Import monopole from the checkout's src/, or exit non-zero without a result."""
    if not os.path.isfile(os.path.join(SRC, "monopole", "__init__.py")):
        sys.exit(f"perfbench: no package at {SRC}/monopole; run from a checkout")
    sys.path.insert(0, SRC)
    import monopole
    import monopole.cli  # noqa: F401  (the coupled workload's entry point)
    if os.path.dirname(os.path.abspath(monopole.__file__)) != os.path.join(SRC, "monopole"):
        sys.exit(f"perfbench: imported monopole from {monopole.__file__}, not {SRC}")


def setup(workload: str, seed: int, seconds: float) -> list:
    """Everything before the first operation: import and input generation."""
    _load_program()
    return workloads.WORKLOADS[workload]["inputs"](
        seed, workloads.n_ops(workload, seconds))


def setup_seconds(args) -> float:
    """Median set-up time over fresh interpreters (imports are cached in-process)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(workload: str, inputs: list, label: str, tracer=None) -> dict:
    """Run every input once, closed loop; check outputs afterwards."""
    spec = workloads.WORKLOADS[workload]
    results, spans = [], []
    ref = clock.Reference()
    ref.install()
    try:
        for i, inp in enumerate(inputs):
            workdir = os.path.join(OUT, f"{workload}-{label}-{i}")
            base, fn, fargs, fkwargs = spec["run"](inp, workdir)
            ref.sample()
            t = time.perf_counter()
            try:
                if tracer is None:
                    res = fn(*fargs, **fkwargs)
                else:
                    res = tracer.operation(i, workload, base, fn, *fargs, **fkwargs)
            except Exception:  # an operation that raises is a failed operation
                traceback.print_exc()
                res = None
            spans.append((t, time.perf_counter()))
            results.append(res)
        ref.sample()
    finally:
        ref.uninstall()
    op_times = [b - a - ref.sampling_seconds(a, b) for a, b in spans]
    op_units = [ref.units(a, b) for a, b in spans]

    checked = []
    for i, (inp, res) in enumerate(zip(inputs, results)):
        if res is None:
            checked.append(None)
            continue
        try:
            checked.append(spec["check"](inp, res))
        except workloads.OpFailed as exc:
            print(f"FAIL {label} op {i}: {exc}")
            checked.append(None)
    return {"wall": sum(op_times), "op_times": op_times, "checked": checked,
            "wall_units": sum(op_units), "op_units": op_units}


def score(workload: str, seed: int, inputs: list, plain: dict,
          traced: dict | None) -> tuple[int, int, bool]:
    """(attempted, failed, correct) of the untraced pass, printing the issue's figures.

    The traced pass counts only through its agreement with the untraced one.
    """
    checked = plain["checked"]
    good = [c for c in checked if c]
    if workload == "outcome_sweep":
        per_op = workloads.SWEEP_SIDE ** 2
        attempted = per_op * len(inputs)
        failed = per_op * (len(checked) - len(good))
        n_checked, bad = workloads.sweep_oracle(
            seed, [pt for c in good for pt in c["early"]])
        for pt in bad:
            print(f"FAIL RK4 disagrees at alpha={pt[0]!r} beta={pt[1]!r} "
                  f"lambda_hat={pt[2]!r}: {pt[3]} at t={pt[4]!r}")
        failed += len(bad)
        print(f"checked {n_checked} early-deciding points against RK4, "
              f"{len(bad)} disagree")
        print(f"metric sweep_points_per_s = {attempted / sum(plain['op_times'])!r} 1/s")
    else:
        attempted, failed = len(inputs), len(checked) - len(good)
    correct = failed == 0
    keys = [c["key"] if c else None for c in checked]
    if traced is not None and keys != [c["key"] if c else None for c in traced["checked"]]:
        print("FAIL traced and untraced passes differ")
        correct = False
    if workload == "bps_solve" and len(set(keys)) > 1:
        print("FAIL repeated solves of one input differ")
        correct = False

    print(f"metric fail_ratio = {failed / attempted!r} 1 (failed {failed} of {attempted})")
    if workload == "bps_solve" and good:
        for name in ("bps_param_err", "bps_profile_err", "bps_energy_err"):
            print(f"metric {name} = {max(c[name] for c in good)!r} 1")
    if workload == "coupled_solve" and good:
        print(f"metric virial_max = {max(abs(c['virial']) for c in good)!r} 1")
    return attempted, failed, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # The solver's numpy work is small and single-threaded; OpenBLAS would
    # still start a thread pool at import, whose start-up on shared cores
    # varied by ~0.07 s from run to run.  Set before numpy is imported, and
    # inherited by the set-up probes.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    if args.setup_probe:
        t = time.perf_counter()
        setup(args.workload, args.seed, args.seconds)
        print(repr(time.perf_counter() - t))
        return 0

    inputs = setup(args.workload, args.seed, args.seconds)
    os.makedirs(OUT, exist_ok=True)
    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} operations")
    plain = run_pass(args.workload, inputs, f"s{args.seed}-plain")
    traced = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = run_pass(args.workload, inputs, f"s{args.seed}-traced", tracer)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl"))
    for i, (t, u) in enumerate(zip(plain["op_times"], plain["op_units"])):
        print(f"op {i}: {t:.4f} s = {u:.1f} ref")
    attempted, failed, correct = score(args.workload, args.seed, inputs, plain, traced)

    if args.trace:
        metrics = layers.summarize(tracer.spans, len(inputs))
        metrics["trace_overhead_ratio"] = traced["wall_units"] / plain["wall_units"]
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        if args.workload == "outcome_sweep":
            print("note: outcome_sweep runs no bisection, polish, profile run, "
                  "diagnostics or CLI, so those per-layer figures are 0")
        if args.workload == "bps_solve":
            print("note: bps_solve calls bisect_beta directly, so cli.overhead_s is 0")
    else:
        op_s = statistics.median(plain["op_times"])
        print(f"metric wall_s = {plain['wall']!r} s")
        print(f"metric op_s = {op_s!r} s (median of n={len(inputs)})")
        if args.workload != "outcome_sweep":
            print(f"metric solve_s = {op_s!r} s (median of n={len(inputs)})")
        metrics = {
            "setup_s": setup_seconds(args),
            "wall_ref": plain["wall_units"],
            "op_ref": statistics.median(plain["op_units"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
