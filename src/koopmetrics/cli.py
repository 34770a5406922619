"""Command-line interface.

Subcommands:
  identify         fit a Koopman model from a trajectory CSV
  compare          deviation-from-conjugacy report for two saved models
  benchmark-sweep  deviation table of the analytic benchmark pair over (alpha, beta)
  hopping          simulate the hopping example and export its observables

``identify`` saves the model with its training series; ``compare`` re-lifts
the first min(T_a, T_b) snapshots of each model's series to Phi = W Psi, as
the library does, and compares them. ``--emit-matrices FILE`` writes C_r1,
C_r2, T_C_r1, T_C_r2 and T_LSQ, from the comparison's Omega^-1 and pinv(Psi_a),
to one npz archive, which the report records by path and sha256; a failed
report removes it. No output may name an input or another output.

Exit codes: 0 success, 1 computational failure, 2 usage or I/O error
(unknown, missing or unparsable flags, out-of-range, non-finite or
conflicting flag values and missing, unreadable or malformed files
included). ``main`` alone maps a failure to its exit code, with a one-line
message on stderr.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import benchmark, conjugacy, hopper, io
from .koopman import (
    AuxiliaryConfig,
    FitError,
    IdentificationError,
    build_observables,
    decompose,
    default_ridge,
    default_theta,
    fit_theta,
    identify_operator,
)
from .linalg import DiagonalizabilityError, FactorizationError

USAGE_EXIT = 2
COMPUTE_EXIT = 1


class UsageFailure(Exception):
    """Bad flags or unreadable/unwritable files."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors raise UsageFailure, for ``main`` to report in one line."""

    def error(self, message):
        raise UsageFailure(message)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageFailure(f"{flag} expects comma-separated numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageFailure(f"{flag} expects finite numbers, got {text!r}")
    return values


def _positive_floats(text: str, flag: str) -> tuple[float, ...]:
    values = _parse_floats(text, flag)
    if not all(v > 0 for v in values):
        raise UsageFailure(f"{flag} expects positive numbers, got {text!r}")
    return values


def _check_outputs(args, inputs: tuple, outputs: tuple) -> None:
    """UsageFailure when an output flag's path names an input's or another output's file."""
    files = {}
    for flag in inputs + outputs:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path is None:
            continue
        real = os.path.realpath(path)
        if flag in outputs and real in files:
            raise UsageFailure(f"{flag} {path} names the same file as {files[real]}")
        files[real] = flag


def cmd_identify(args) -> int:
    _check_outputs(args, ("--input",), ("--output",))
    if args.dt is not None and not args.dt > 0:
        raise UsageFailure(f"--dt must be positive, got {args.dt:g}")
    if args.ridge is not None and not args.ridge >= 0:
        raise UsageFailure(f"--ridge must be nonnegative, got {args.ridge:g}")
    theta_flags = {"--no-aux": not args.aux, "--theta": args.theta is not None,
                   "--fit-theta": args.fit_theta}
    given = [flag for flag, on in theta_flags.items() if on]
    if len(given) > 1:
        raise UsageFailure(f"cannot combine {', '.join(given)}")
    series = io.read_trajectory_csv(args.input, dt=args.dt)
    train_steps = series.n_steps if args.train_steps is None else args.train_steps
    if not 2 <= train_steps <= series.n_steps:
        raise UsageFailure(
            f"--train-steps {train_steps} outside 2..{series.n_steps}"
        )
    train = series.window(0, train_steps)

    if not args.aux:
        aux = None
    elif args.fit_theta:
        if train_steps >= series.n_steps:
            raise UsageFailure("--fit-theta needs holdout steps beyond --train-steps")
        holdout = series.window(train_steps, series.n_steps)
        grid = _positive_floats(args.theta_grid, "--theta-grid")
        aux = fit_theta(train, holdout, grid, ridge=args.ridge)
        print(f"fitted theta: {', '.join(f'{t:g}' for t in aux.theta)}")
    elif args.theta is not None:
        theta = _positive_floats(args.theta, "--theta")
        if len(theta) != train.n_primary:
            raise UsageFailure(
                f"--theta needs {train.n_primary} values, got {len(theta)}"
            )
        aux = AuxiliaryConfig(theta)
    else:
        aux = default_theta(train)

    obs = build_observables(train, aux)
    ridge = default_ridge(obs) if args.ridge is None else args.ridge
    k = identify_operator(obs, ridge)
    residual = float(
        np.linalg.norm(obs.psi[:, 1:] - k @ obs.psi[:, :-1])
        / max(np.linalg.norm(obs.psi[:, 1:]), 1e-300)
    )
    model = decompose(k, obs.dt, ridge)
    record = io.ModelRecord(model=model, series=train, aux=aux, one_step_residual=residual)
    io.save_model(record, args.output)
    mods = np.abs(model.lambdas)
    print(f"n_psi: {model.n_psi}")
    print(
        "eigenvalues: |lambda| in "
        f"[{mods.min():.6g}, {mods.max():.6g}], {np.sum(mods > 0.99)} modes above 0.99"
    )
    print(f"one-step residual: {residual:.6g}")
    print(f"model written to {args.output}")
    return 0


def _file_entry(path: str, **fields) -> dict:
    """A report's record of a file: its path, ``fields`` and its sha256."""
    return {"path": path, **fields, "sha256": io.file_sha256(path)}


def cmd_compare(args) -> int:
    _check_outputs(args, ("--model-a", "--model-b"), ("--output", "--emit-matrices"))
    started = time.perf_counter()
    rec_a = io.load_model(args.model_a)
    rec_b = io.load_model(args.model_b)
    if rec_a.model.n_psi != rec_b.model.n_psi:
        raise UsageFailure(
            f"model dimensions differ: {rec_a.model.n_psi} vs {rec_b.model.n_psi}"
        )
    # --no-aux models of one n_psi may differ in T: compare the common snapshots,
    # re-lifted so that Phi is normalized over them. Aux models cannot be cut.
    horizon = min(rec_a.series.n_steps, rec_b.series.n_steps)
    if any(rec.aux is not None and rec.series.n_steps > horizon for rec in (rec_a, rec_b)):
        raise UsageFailure(f"a model with auxiliary rows cannot be cut to {horizon} snapshots")
    phi_a, phi_b = (
        replace(rec, series=rec.series.window(0, horizon)).implied_trajectory()
        for rec in (rec_a, rec_b)
    )
    normalization = {"a": "f", "b": "g", "none": "none"}[args.reference]
    a, b = conjugacy.prepare(rec_a.model, phi_a), conjugacy.prepare(rec_b.model, phi_b)
    report = conjugacy.compare_prepared(a, b, normalization)
    corners, devs, diag = report.corners, report.deviations, report.diagnostics

    doc = {
        "systems": {
            "a": _file_entry(args.model_a, names=list(rec_a.series.names)),
            "b": _file_entry(args.model_b, names=list(rec_b.series.names)),
        },
        "normalization": args.reference,
        "refNorms": list(report.ref_norms),
        "residuals": {
            "r1_cr1": corners.r1_at_cr1,
            "r2_cr1": corners.r2_at_cr1,
            "r1_cr2": corners.r1_at_cr2,
            "r2_cr2": corners.r2_at_cr2,
        },
        "deviations": {"dMin": devs.d_min, "dAvg": devs.d_avg, "dMax": devs.d_max},
        "permutation": [int(i) for i in corners.permutation],
        "gammaPhases": [float(np.angle(g)) for g in corners.gamma],
        "psiResiduals": {
            name: {"operator": op, "trajectory": traj}
            for name, (op, traj) in report.psi_residuals.items()
        },
        "diagnostics": {
            "unitarityDefects": diag.unitarity_defects,
            "assignmentCost": diag.assignment_cost,
            "lsqRank": diag.lsq_rank,
            "omegaReplaced": diag.omega_replaced,
            "procrustesRank": diag.procrustes_rank,
            "procrustesSigmaMin": diag.procrustes_sigma_min,
        },
    }
    if args.emit_matrices:
        t_lsq = phi_b.psi @ a.pinv_psi[0]
        del a, b  # peak memory: their Phi and pinv(Psi_a) are not used again
        # C_r2 as (permutation, gamma): recover_t gathers rows of W_a for it.
        ts = {f"T_{k}": conjugacy.recover_t(c, rec_a.model, rec_b.model, report.omega_inv[f"T_{k}"])
              for k, c in (("C_r1", corners.c_r1), ("C_r2", (corners.permutation, corners.gamma)))}
        cs = {"C_r1": corners.c_r1, "C_r2": corners.c_r2}
        io.save_matrices({**cs, **ts, "T_LSQ": t_lsq}, args.emit_matrices)
        doc["matrices"] = _file_entry(args.emit_matrices)
    doc["timings"] = {"totalSeconds": time.perf_counter() - started}
    try:
        io.save_report(doc, args.output)
    except BaseException:
        if args.emit_matrices:  # no archive of this run outlives its report
            os.unlink(args.emit_matrices)
        raise
    print(f"d_min {devs.d_min:.9g}  d_avg {devs.d_avg:.9g}  d_max {devs.d_max:.9g}")
    print(
        f"r1(C_r1) {corners.r1_at_cr1:.9g}  r2(C_r1) {corners.r2_at_cr1:.9g}  "
        f"r1(C_r2) {corners.r1_at_cr2:.9g}  r2(C_r2) {corners.r2_at_cr2:.9g}"
    )
    print(f"report written to {args.output}")
    return 0


def cmd_benchmark_sweep(args) -> int:
    x0 = _parse_floats(args.x0, "--x0")
    if len(x0) != 2:
        raise UsageFailure(f"--x0 expects two numbers, got {len(x0)}")
    try:
        params = benchmark.BenchmarkParams(dt=args.dt, steps=args.steps, x0=x0)
        alphas = benchmark.grid_values(args.alpha_min, args.alpha_max, args.step)
        betas = benchmark.grid_values(args.beta_min, args.beta_max, args.step)
    except ValueError as exc:
        raise UsageFailure(str(exc))
    rows = benchmark.sweep(alphas, betas, params)
    io.write_sweep_csv(args.output, rows)
    clean = [r for r in rows if not r[-1]]
    failed = len(rows) - len(clean)
    if clean:
        davg = np.array([r[3] for r in clean])
        lo, hi = int(np.argmin(davg)), int(np.argmax(davg))
        print(
            f"d_avg min {davg[lo]:.9g} at (alpha={clean[lo][0]:g}, beta={clean[lo][1]:g}); "
            f"max {davg[hi]:.9g} at (alpha={clean[hi][0]:g}, beta={clean[hi][1]:g})"
        )
    print(f"{len(rows)} grid points written to {args.output}" + (
        f" ({failed} failed)" if failed else ""
    ))
    return 0


def cmd_hopping(args) -> int:
    actuator = hopper.Actuator(args.actuator)
    if args.bins < 2:
        raise UsageFailure(f"--bins must be at least 2, got {args.bins}")
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageFailure(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise UsageFailure(f"--set {key}: non-numeric value {value!r}")

    try:
        cfg = hopper.HopperConfig(
            dt=args.dt, steps=args.steps, actuator=actuator, params=overrides
        )
    except ValueError as exc:
        raise UsageFailure(str(exc))

    if actuator is hopper.Actuator.DC_MOTOR:
        if args.reference_trace:
            ref_series = io.read_trajectory_csv(args.reference_trace)
            names = list(ref_series.names)
            if "y" not in names or "ydot" not in names:
                raise UsageFailure(
                    f"reference trace needs 'y' and 'ydot' columns, has {names}"
                )
            reference = (
                ref_series.values[names.index("y")],
                ref_series.values[names.index("ydot")],
            )
        elif args.auto_reference:
            ref_cfg = hopper.HopperConfig(
                dt=args.dt, steps=args.steps, actuator=hopper.Actuator.NONLINEAR_MUSCLE
            )
            reference = hopper.reference_from_trace(hopper.simulate_hopping(ref_cfg))
        else:
            raise UsageFailure(
                "--actuator dc needs --reference-trace FILE or --auto-reference"
            )
        cfg = replace(cfg, reference=reference)

    trace = hopper.simulate_hopping(cfg)
    mc = hopper.morphological_computation(trace, bins=args.bins)
    primary = hopper.export_primary(trace, mc)

    prefix = args.output_prefix
    columns = {"y": trace.y, "ydot": trace.ydot, "yddot": trace.yddot, "u": trace.u,
               "F_L": trace.force, "sensor": trace.sensor, "contact": trace.contact.astype(float)}
    io.write_trajectory_csv(f"{prefix}_trace.csv", list(columns),
                            np.vstack(list(columns.values())), t=trace.t)
    n_mc = mc.mc.shape[0]
    io.write_trajectory_csv(
        f"{prefix}_mc.csv",
        ["w", "i_world", "i_control", "mc"],
        np.vstack([mc.w[:n_mc].astype(float), mc.i_world, mc.i_control, mc.mc]),
        t=trace.t[:n_mc],
    )
    io.write_trajectory_csv(
        f"{prefix}_primary.csv",
        list(primary.names),
        primary.values,
        t=np.arange(primary.n_steps) * primary.dt,
    )
    print(
        f"{trace.steps}-step {actuator.value} trace; mean MC "
        f"{float(np.mean(mc.mc)):.4f} bits"
    )
    print(f"wrote {prefix}_trace.csv, {prefix}_mc.csv, {prefix}_primary.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="koopmetrics",
        description="Deviation-from-conjugacy pseudometrics for dynamical systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="fit a Koopman model from a trajectory CSV")
    p_id.add_argument("--input", required=True)
    p_id.add_argument("--output", required=True)
    p_id.add_argument("--ridge", type=float, default=None)
    p_id.add_argument("--aux", action=argparse.BooleanOptionalAction, default=True)
    p_id.add_argument("--theta", default=None, help="comma-separated widths")
    p_id.add_argument("--fit-theta", action="store_true")
    p_id.add_argument("--theta-grid", default="0.1,0.3,1,3,10")
    p_id.add_argument("--train-steps", type=int, default=None)
    p_id.add_argument("--dt", type=float, default=None)
    p_id.set_defaults(func=cmd_identify)

    p_cmp = sub.add_parser("compare", help="compare two saved models")
    p_cmp.add_argument("--model-a", required=True)
    p_cmp.add_argument("--model-b", required=True)
    p_cmp.add_argument("--reference", choices=["a", "b", "none"], default="none")
    p_cmp.add_argument("--output", required=True)
    p_cmp.add_argument("--emit-matrices", metavar="FILE", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_sw = sub.add_parser("benchmark-sweep", help="alpha/beta deviation table")
    p_sw.add_argument("--alpha-min", type=float, default=0.1)
    p_sw.add_argument("--alpha-max", type=float, default=2.0)
    p_sw.add_argument("--beta-min", type=float, default=0.1)
    p_sw.add_argument("--beta-max", type=float, default=2.0)
    p_sw.add_argument("--step", type=float, default=0.05)
    p_sw.add_argument("--dt", type=float, default=0.01)
    p_sw.add_argument("--steps", type=int, default=1000)
    p_sw.add_argument("--x0", default="1,0.5")
    p_sw.add_argument("--output", required=True)
    p_sw.set_defaults(func=cmd_benchmark_sweep)

    p_hop = sub.add_parser("hopping", help="simulate the hopping example")
    p_hop.add_argument("--actuator", choices=["nlm", "lm", "dc"], required=True)
    p_hop.add_argument("--steps", type=int, default=3501)
    p_hop.add_argument("--dt", type=float, default=0.002)
    p_hop.add_argument("--bins", type=int, default=30)
    p_hop.add_argument("--output-prefix", required=True)
    p_hop.add_argument("--reference-trace", default=None)
    p_hop.add_argument("--auto-reference", action="store_true")
    p_hop.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_hop.set_defaults(func=cmd_hopping)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageFailure(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (UsageFailure, io.FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (
        IdentificationError,
        FitError,
        DiagonalizabilityError,
        FactorizationError,
        hopper.IntegrationError,
        ValueError,  # includes ContractViolationError and contract checks
    ) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return COMPUTE_EXIT


if __name__ == "__main__":
    sys.exit(main())
