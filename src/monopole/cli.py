"""Command line front end.

Subcommands: solve, sweep, validate, probe, series.  Exit codes are
0 success, 1 usage (a value the library refuses included), 2 solver
failure, 3 validation or audit failure, 4 I/O failure.  A flat
key=value config file can preload any option, each value read as its
flag would read it; explicit flags win over the file.  The tolerances
and a run's start radius are the library's: no command takes one.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import analysis
from .errors import DomainError, MonopoleError
from .integrator import IntegratorControls
from .model import ModelParams, ScaledParams, check_lambda_hat, nondimensionalize, ps_exact
from .origin_series import DEFAULT_T0, ShootPoint, initial_state, picard_verify
from .shooter import SolveReport, bisect_beta, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVE = 2
EXIT_VALIDATE = 3
EXIT_IO = 4

# Most rows a profile table may have, give or take one: its grid spans
# less than t_max + REPORT_TAIL.
_MAX_PROFILE_ROWS = 10**6


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # solver-failure code; route all usage problems to 1.  Flags must be
    # spelled out: _apply_config finds explicit flags by their full name.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _coupling(text: str) -> float:
    """The --lambda-hat value: a float that model.check_lambda_hat accepts."""
    try:
        return check_lambda_hat(float(text))
    except ValueError:  # DomainError is one too
        raise argparse.ArgumentTypeError(
            f"must be a finite float >= 0, got {text!r}") from None


def _options(parser: argparse.ArgumentParser, command: str) -> dict:
    # dest -> action of every option of the subcommand; argparse has no
    # public index of them
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _config_value(action: argparse.Action, text: str):
    """text read as the option's flag would read it; a switch takes true or false."""
    if action.nargs == 0:
        if text.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return text.lower() == "true"
    return (action.type or str)(text)


def _apply_config(ns: argparse.Namespace, argv: list[str],
                  parser: argparse.ArgumentParser) -> None:
    """Overlay config-file values onto options not set on the command line."""
    if not getattr(ns, "config", None):
        return
    options = _options(parser, ns.command)
    with open(ns.config, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MonopoleError(
                    f"{ns.config}:{line_no}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in options:
                raise MonopoleError(f"{ns.config}:{line_no}: unknown option {key!r}")
            flag = "--" + key.replace("_", "-")
            if any(arg == flag or arg.startswith(flag + "=") for arg in argv):
                continue  # explicit flag wins
            try:
                setattr(ns, key, _config_value(options[key], value))
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise MonopoleError(f"{ns.config}:{line_no}: invalid value {value!r} "
                                    f"for {key}: {exc}") from None


def _controls_from(ns: argparse.Namespace) -> IntegratorControls:
    return IntegratorControls(t_max=ns.t_max)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    # horizon and config file of every command that shoots; runs start at DEFAULT_T0
    p.add_argument("--t-max", type=float, default=12.0)
    p.add_argument("--config", default=None, help="key = value option file")


def _add_frame_options(p: argparse.ArgumentParser) -> None:
    # the coupling, dimensionless or physical; validate fixes lambda_hat = 0
    p.add_argument("--lambda-hat", type=_coupling, default=None,
                   help="dimensionless quartic coupling lambda / g0^2")
    p.add_argument("--lam", type=float, default=None,
                   help="physical quartic coupling (with --g0 and --rho0)")
    p.add_argument("--g0", type=float, default=None, help="gauge coupling")
    p.add_argument("--rho0", type=float, default=None, help="Higgs vacuum value")


def _resolve_frame(ns: argparse.Namespace, parser: argparse.ArgumentParser):
    physical = [ns.lam, ns.g0, ns.rho0]
    given = [v for v in physical if v is not None]
    if ns.lambda_hat is not None and given:
        parser.error("--lambda-hat conflicts with --lam/--g0/--rho0")
    if given and len(given) != 3:
        parser.error("--lam, --g0 and --rho0 must be given together")
    if ns.lambda_hat is not None:
        return ns.lambda_hat, None
    if given:
        scaled = nondimensionalize(ModelParams(lam=ns.lam, g0=ns.g0, rho0=ns.rho0))
        return scaled.lambda_hat, scaled
    parser.error("either --lambda-hat or the physical triple is required")


def _run_solve(ns: argparse.Namespace, parser) -> tuple[SolveReport, ScaledParams | None]:
    """The solve of the frame's lambda_hat, and the physical frame when one was posed."""
    lambda_hat, scaled = _resolve_frame(ns, parser)
    return bisect_beta(lambda_hat, controls=_controls_from(ns)), scaled


def _report_dict(rep: SolveReport, scaled: ScaledParams | None) -> dict:
    # alpha_star and beta_star are in the physical frame when one was
    # posed, else the dimensionless values
    d = {
        "lambda_hat": rep.lambda_hat,
        "alpha_star_hat": rep.alpha_star_hat,
        "beta_star_hat": rep.beta_star_hat,
        "alpha_star": (rep.alpha_star_hat if scaled is None
                       else scaled.alpha_to_physical(rep.alpha_star_hat)),
        "beta_star": (rep.beta_star_hat if scaled is None
                      else scaled.beta_to_physical(rep.beta_star_hat)),
        "alpha_bracket_lo": rep.alpha_bracket.lo.x,
        "alpha_bracket_hi": rep.alpha_bracket.hi.x,
        "beta_bracket_lo": rep.beta_bracket.lo.x,
        "beta_bracket_hi": rep.beta_bracket.hi.x,
        "alpha_resolved": rep.alpha_resolved,
        "converged": rep.converged,
        "n_beta_evaluations": rep.n_beta_evaluations,
        "rel_tol": rep.controls.rel_tol,
        "abs_tol": rep.controls.abs_tol,
        "t_max": rep.controls.t_max,
        "t0": rep.controls.t0,
    }
    if rep.residual_norm is not None:
        d["residual_norm"] = rep.residual_norm
    if rep.energy is not None:
        d["energy"] = rep.energy
    if rep.profile is not None:
        g = rep.profile
        d.update(t_graft=g.t_graft, t_report=g.t_report,
                 f_rate=g.f_fit.rate, f_amplitude=g.f_fit.amplitude,
                 higgs_rate=g.higgs_fit.rate, higgs_amplitude=g.higgs_fit.amplitude,
                 mismatch_f=g.mismatch_f, mismatch_rho=g.mismatch_rho)
    if rep.audit is not None:
        d["audit_passes"] = rep.audit.passes
        for key, value in rep.audit.worst_margins.items():
            d["audit_" + key] = value
    return d


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_profile(path: str, grafted, step: float, lambda_hat: float) -> float:
    """Write the profile CSV ('-' stdout) a block of rows at a time.

    Returns residual_norm of the rows as written, taken over the same
    blocks, so neither the table nor its text is ever held whole.
    """
    # Snap the step so the grid lands exactly on t_report; a uniform grid
    # lets the CSV be fed straight back into residual_norm, which reads
    # its spacing off the first two radii.
    t_lo = grafted.base.ts[0]
    span = grafted.t_report - t_lo
    n = max(int(round(span / step)), 4)
    h = span / n
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", encoding="utf-8")) as fh:
        fh.write("t,f,fp,rho,rhop\n")

        def blocks():
            for ts in analysis._grid_blocks(t_lo, h, n + 1):
                rows = grafted.table(ts)
                fh.write("".join(",".join(_fmt(v) for v in (t, *row)) + "\n"
                                 for t, row in zip(ts.tolist(), rows.tolist())))
                yield ts, rows[:, 0], rows[:, 2]
        return analysis._residual_sup(blocks(), (t_lo + h) - t_lo, lambda_hat)


def _cmd_solve(ns: argparse.Namespace, parser) -> int:
    # checked before the solve, whether the flag or a config file gave it
    if ns.out and (ns.report_out != "-" or ns.profile_out is not None):
        parser.error("--out names both output files, so it takes no "
                     "--report-out or --profile-out")
    if ns.profile_out == "-" and ns.report_out == "-":
        parser.error("--profile-out - writes the profile to stdout, so it "
                     "needs a --report-out file")
    if not (math.isfinite(ns.grid_step) and ns.grid_step > 0.0):
        parser.error(f"--grid-step must be positive and finite, got {ns.grid_step}")
    if (ns.t_max + analysis.REPORT_TAIL) / ns.grid_step > _MAX_PROFILE_ROWS:
        parser.error(f"--grid-step {ns.grid_step} could give more than "
                     f"{_MAX_PROFILE_ROWS} profile rows at --t-max {ns.t_max}")
    if ns.out:
        try:
            os.makedirs(ns.out, exist_ok=True)
        except OSError as exc:
            print(f"monopole solve: cannot create {ns.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        ns.report_out = os.path.join(ns.out, "report.json")
        ns.profile_out = os.path.join(ns.out, "profile.csv")
    report, scaled = _run_solve(ns, parser)
    d = _report_dict(report, scaled)
    try:
        if ns.profile_out and report.profile is not None:
            # Residual of the samples as written, so the CSV can be re-read
            # and checked against the report without touching the solver
            # state.  It is known only once the last row is written, so
            # the CSV goes out before the report.  On a fine grid its
            # maximum measures the graft seam, not the profile: the
            # far-field model meets the run mismatch_f (mismatch_rho)
            # away at t_graft, a jump the second differences read as
            # ~mismatch / h^2.  At lambda_hat = 1 it is 9.34 and 233 at
            # steps 1e-4 and 2e-5, both at t_graft, and 4.1e-6 off the
            # seam at 1e-4; at step 1e-2 the left-edge truncation,
            # 4.06e-3, still dominates.
            d["profile_residual"] = _write_profile(
                ns.profile_out, report.profile, ns.grid_step, float(report.lambda_hat))
        _write_text(ns.report_out, json.dumps(d, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        print(f"monopole solve: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    # a report or profile on stdout is the whole of stdout, so that it
    # parses as JSON or CSV
    print(f"alpha_star_hat = {_fmt(report.alpha_star_hat)}  "
          f"beta_star_hat = {_fmt(report.beta_star_hat)}  "
          f"converged = {report.converged}",
          file=sys.stderr if "-" in (ns.report_out, ns.profile_out) else sys.stdout)
    if not report.converged:
        return EXIT_SOLVE
    if report.audit is not None and not report.audit.passes:
        print("monopole solve: converged but the monotonicity audit failed",
              file=sys.stderr)
        return EXIT_VALIDATE
    return EXIT_OK


def _cmd_sweep(ns: argparse.Namespace, parser) -> int:
    if ns.workers < 1:
        parser.error(f"--workers must be >= 1, got {ns.workers}")

    def grid(spec, lo, hi, count, name):
        if spec is not None:
            # set by a flag or a config key, a range option the list would
            # ignore is refused
            for flag, value in (("min", lo), ("max", hi), ("count", count)):
                if value is not None:
                    parser.error(f"--{name}s takes no --{name}-{flag}")
            try:
                return [float(v) for v in spec.split(",")]
            except ValueError:
                parser.error(f"--{name}s must be a comma-separated float list")
        if lo is None or hi is None:
            parser.error(f"either --{name}s or --{name}-min/--{name}-max is required")
        count = 5 if count is None else count
        if count < 2 or hi <= lo:
            parser.error(f"--{name}-count must be >= 2 with max > min")
        return [lo + (hi - lo) * i / (count - 1) for i in range(count)]

    alphas = grid(ns.alphas, ns.alpha_min, ns.alpha_max, ns.alpha_count, "alpha")
    betas = grid(ns.betas, ns.beta_min, ns.beta_max, ns.beta_count, "beta")
    grid_out = sweep(alphas, betas, ns.lambda_hat,
                     controls=_controls_from(ns), workers=ns.workers)
    lines = ["alpha,beta,outcome,t_event"]
    for a, b, tag, t_event in grid_out.rows():
        t_txt = "" if t_event is None else _fmt(t_event)
        lines.append(f"{_fmt(a)},{_fmt(b)},{tag},{t_txt}")
    try:
        _write_text(ns.out, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"monopole sweep: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    # a CSV on stdout is the whole of stdout
    print(f"swept {len(alphas)}x{len(betas)} points at lambda_hat = "
          f"{_fmt(ns.lambda_hat)}", file=sys.stderr if ns.out == "-" else sys.stdout)
    return EXIT_OK


def _cmd_validate(ns: argparse.Namespace, parser) -> int:
    try:
        report = bisect_beta(0.0, controls=_controls_from(ns))
    except DomainError:
        raise  # a value the library refuses: main reports it as usage
    except MonopoleError as exc:
        print(f"FAIL solve raised: {exc}")
        return EXIT_VALIDATE
    if not report.converged:
        print("FAIL solve did not converge")
        return EXIT_VALIDATE

    def within(name: str, value: float, threshold: float) -> tuple[str, bool]:
        return f"{name}: {_fmt(value)} (threshold {_fmt(threshold)})", value < threshold

    profile = report.profile
    got = [profile.state_at(t) for t in (0.5, 1.0, 2.0, 5.0)]
    exact = [ps_exact(s.t) for s in got]
    # The massless Higgs channel has no restoring term, so the probe on
    # a lambda_hat = 0 profile must report no zero; the flat-background
    # probe pins the machinery against the tan u = u root.
    flat_zero = analysis.linearized_probe(None).first_zero or math.inf
    checks = [
        ("monotonicity audit", report.audit.passes),
        ("massless-channel probe reports no zero",
         analysis.linearized_probe(profile).first_zero is None),
        within("alpha_star_hat vs 1/6", abs(report.alpha_star_hat - 1.0 / 6.0), 1e-6),
        within("beta_star_hat vs 1/3", abs(report.beta_star_hat - 1.0 / 3.0), 1e-6),
        within("max |f - exact| at probe radii",
               max(abs(s.f - e.f) for s, e in zip(got, exact)), 1e-5),
        within("max |rho - exact| at probe radii",
               max(abs(s.rho - e.rho) for s, e in zip(got, exact)), 1e-5),
        within("f decay rate vs 1", abs(profile.f_fit.rate - 1.0), 0.02),
        within("Higgs gap rate vs 0 (1/t tail)", abs(profile.higgs_fit.rate), 0.02),
        within("flat probe zero vs 4.4934", abs(flat_zero - 4.4934094579090642), 1e-3),
        within("energy vs 1", abs(report.energy - 1.0), 1e-3),
        within("residual sup-norm", report.residual_norm, 1e-6),
    ]
    for text, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {text}")
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_VALIDATE


# The probe options a flat probe reads; it solves nothing, so every other
# one (the frame and run options) would be ignored.
_FLAT_READS = ("help", "flat", "u_end", "config")


def _cmd_probe(ns: argparse.Namespace, parser) -> int:
    if ns.flat:
        # set by a flag or a config key, an option --flat would ignore is refused
        for dest, action in _options(parser, "probe").items():
            if dest not in _FLAT_READS and getattr(ns, dest) != action.default:
                parser.error(f"--flat solves nothing, so it takes no "
                             f"{action.option_strings[0]}")
        result = analysis.linearized_probe(None, u_end=ns.u_end)
    else:
        report, _ = _run_solve(ns, parser)
        if report.profile is None:
            print("monopole probe: solve produced no profile", file=sys.stderr)
            return EXIT_SOLVE
        result = analysis.linearized_probe(report.profile, u_end=ns.u_end)
    zero = "none" if result.first_zero is None else _fmt(result.first_zero)
    print(f"first_zero = {zero}  mass_term = {result.mass_term}")
    return EXIT_OK


def _cmd_series(ns: argparse.Namespace, parser) -> int:
    point = ShootPoint(alpha=ns.alpha, beta=ns.beta)
    state = initial_state(point, ns.lambda_hat, ns.t0)
    # run before anything is printed, so a refused value prints no result
    hist = (picard_verify(point, ns.lambda_hat, n_iters=ns.picard_iters)
            if ns.picard else None)
    print("t,f,fp,rho,rhop")
    print(",".join(_fmt(v) for v in (state.t, state.f, state.fp,
                                     state.rho, state.rhop)))
    if hist is not None:
        # the CSV is the whole of stdout, so the Picard lines go to stderr
        ratios = ", ".join(_fmt(r) for r in hist.ratios)
        print(f"picard s_max = {_fmt(hist.s_max)}  ratios = [{ratios}]", file=sys.stderr)
        print(f"picard f({_fmt(hist.t_end)}) = {_fmt(hist.f_end)}  "
              f"rho = {_fmt(hist.rho_end)}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="monopole",
                     description="Shooting solver for the static monopole profile")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the boundary value problem")
    _add_frame_options(p)
    _add_run_options(p)
    p.add_argument("--report-out", default="-", help="JSON report path ('-' stdout)")
    p.add_argument("--profile-out", default=None,
                   help="profile CSV path ('-' stdout, with a --report-out file)")
    p.add_argument("--out", default=None,
                   help="directory shorthand: writes report.json and profile.csv")
    p.add_argument("--grid-step", type=float, default=1e-2)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="classify outcomes on a parameter grid")
    p.add_argument("--lambda-hat", type=_coupling, required=True)
    p.add_argument("--alphas", default=None, help="comma-separated alpha values")
    p.add_argument("--alpha-min", type=float, default=None)
    p.add_argument("--alpha-max", type=float, default=None)
    p.add_argument("--alpha-count", type=int, default=None,
                   help="grid points from --alpha-min to --alpha-max (default 5)")
    p.add_argument("--betas", default=None, help="comma-separated beta values")
    p.add_argument("--beta-min", type=float, default=None)
    p.add_argument("--beta-max", type=float, default=None)
    p.add_argument("--beta-count", type=int, default=None,
                   help="grid points from --beta-min to --beta-max (default 5)")
    _add_run_options(p)
    p.add_argument("--workers", type=int, default=1,
                   help="process count, capped at the 128-point tasks and CPUs (default 1)")
    p.add_argument("--out", default="-", help="CSV output path ('-' stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate",
                       help="solve at lambda_hat = 0 and compare to closed form")
    _add_run_options(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("probe", help="l = 1 angular fluctuation probe")
    _add_frame_options(p)
    _add_run_options(p)
    p.add_argument("--flat", action="store_true",
                   help="probe the flat background p = 1 instead of solving")
    p.add_argument("--u-end", type=float, default=8.0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("series", help="print the series handoff state")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--lambda-hat", type=_coupling, default=0.0)
    p.add_argument("--t0", type=float, default=DEFAULT_T0)
    p.add_argument("--picard", action="store_true",
                   help="also report the origin-layer contraction ratios")
    p.add_argument("--picard-iters", type=int, default=6)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _apply_config(ns, argv, parser)
    except OSError as exc:
        print(f"monopole: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except MonopoleError as exc:
        print(f"monopole: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return ns.func(ns, parser)
    except MonopoleError as exc:
        print(f"monopole {ns.command}: {exc}", file=sys.stderr)
        # a value the library refuses is a usage error, not a failed solve
        return EXIT_USAGE if isinstance(exc, DomainError) else EXIT_SOLVE


if __name__ == "__main__":
    sys.exit(main())
