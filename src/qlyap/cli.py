"""Command line front end.

Exit codes: 0 success, 1 runtime/validation/file I/O failure, 2 a
statistical or structural gate failed, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .analysis import check_assumptions, escape_matrix, invariant_set_sweep
from .dynamics import simulate_trajectory
from .ensemble import run_ensemble, supermartingale_test
from .errors import IntegrationError, PreconditionError, ValidationError
from .io import (
    bundled_fixture,
    load_definition,
    write_report_json,
    write_trajectory_csv,
)

GATE_FAILED = 2
USAGE = 64


def _load(args):
    """Load args.definition; each run flag given replaces its RunParams field and meets its rule.

    The flags --seed, --dt, --t-final and --trials share their names with the fields.
    """
    source = args.definition
    if os.path.exists(source):
        model, law, params = load_definition(source)
    else:
        try:
            model, law, params = bundled_fixture(source)
        except ValidationError:
            raise ValidationError(f"{source}: no such file or bundled fixture") from None
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(params)}
    return model, law, dataclasses.replace(params, **{k: v for k, v in flags.items() if v is not None})


def _require_writable(path):
    """Raise unless path can be written, leaving an existing file as it is."""
    if not path:
        raise ValidationError("output path must not be empty")
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _maybe_json(args, payload):
    if getattr(args, "json", None):
        write_report_json(args.json, payload)
        print(f"wrote {args.json}")


def _cmd_check(args):
    model, _, _ = _load(args)
    report = check_assumptions(model)
    for name in (
        "target_free_eigenstate",
        "controls_move_target",
        "target_observable_eigenstate",
        "independent_generators",
    ):
        finding = getattr(report, name)
        print(f"{name}: {'PASS' if finding.holds else 'FAIL'}")
    _maybe_json(args, report)
    return 0 if report.all_hold else GATE_FAILED


def _initial_state(args, model, params):
    if getattr(args, "psi0", None):
        try:
            values = [float(x) for x in args.psi0.split(",")]
        except ValueError:
            raise ValidationError("--psi0 must be comma-separated numbers") from None
        if len(values) != 2 * model.n:
            raise ValidationError(
                f"--psi0 needs {2 * model.n} comma-separated numbers (re,im per component)"
            )
        return np.array(values[0::2]) + 1j * np.array(values[1::2])
    if params.initial_state is not None:
        return params.initial_state
    raise ValidationError(
        "definition has no run.initial_state; pass --psi0 re,im,re,im,..."
    )


def _cmd_simulate(args):
    model, law, params = _load(args)
    psi0 = _initial_state(args, model, params)
    record = simulate_trajectory(model, law, psi0, params.dt, params.t_final, params.seed)
    write_trajectory_csv(args.out, record, model, law)
    print(
        f"seed {params.seed}: V {record.lyapunov[0]:.6f} -> {record.lyapunov[-1]:.6f}, "
        f"fidelity {record.fidelity[-1]:.6f}, wrote {args.out}"
    )
    return 0


def _cmd_ensemble(args):
    model, law, params = _load(args)
    psi0 = _initial_state(args, model, params)
    summary = run_ensemble(
        model,
        law,
        psi0,
        params.dt,
        params.t_final,
        params.trials,
        params.seed,
        r_list=params.r_list,
        record_stride=args.stride,
    )
    gate = supermartingale_test(summary)
    print(
        f"{summary.included}/{summary.trials} trajectories, "
        f"mean V {summary.mean_V[0]:.6f} -> {summary.mean_V[-1]:.6f}"
    )
    for radius, prob in summary.sup_distance_exceed_prob.items():
        print(f"P(sup distance > {radius:g}) = {prob:.4f}")
    print(
        f"supermartingale: {'PASS' if gate.passes else 'FAIL'} "
        f"(worst rise {gate.worst_violation_sigma:.2f} sigma over {gate.pairs} pairs)"
    )
    _maybe_json(args, summary)
    return 0 if gate.passes else GATE_FAILED


def _cmd_invariant_set(args):
    model, _, _ = _load(args)
    sweep = invariant_set_sweep(model, grid_points=args.grid_points)
    for dim in sorted(sweep.dimension_counts):
        print(f"dimension {dim}: {sweep.dimension_counts[dim]} grid nodes")
    target = sweep.target_slice
    print(
        f"canonical shifts {tuple(round(s, 6) for s in target.shifts)}: "
        f"dimension {target.dimension}, contains target: {target.contains_target}"
    )
    _maybe_json(args, sweep)
    return 0


def _cmd_escape(args):
    model, _, _ = _load(args)
    result = escape_matrix(model)
    singular = ", ".join(f"{s:.6f}" for s in result.singular_values)
    print(f"escape matrix rank {result.rank} of {model.n - 1} (singular values: {singular})")
    print(f"full rank: {'PASS' if result.full_rank else 'FAIL'}")
    _maybe_json(args, result)
    return 0 if result.full_rank else GATE_FAILED


def _cmd_report(args):
    model, law, params = _load(args)
    psi0 = _initial_state(args, model, params)
    assumptions = check_assumptions(model)
    escape = escape_matrix(model)
    summary = run_ensemble(
        model,
        law,
        psi0,
        params.dt,
        params.t_final,
        params.trials,
        params.seed,
        r_list=params.r_list,
    )
    gate = supermartingale_test(summary)
    print(f"assumptions: {'PASS' if assumptions.all_hold else 'FAIL'}")
    print(f"escape matrix full rank: {'PASS' if escape.full_rank else 'FAIL'}")
    print(
        f"mean V {summary.mean_V[0]:.6f} -> {summary.mean_V[-1]:.6f}, "
        f"supermartingale {'PASS' if gate.passes else 'FAIL'}"
    )
    for radius, prob in summary.sup_distance_exceed_prob.items():
        print(f"P(sup distance > {radius:g}) = {prob:.4f}")
    _maybe_json(
        args,
        {
            "assumptions": assumptions,
            "escape": escape,
            "ensemble": summary,
            "supermartingale": gate,
        },
    )
    ok = assumptions.all_hold and escape.full_rank and gate.passes
    return 0 if ok else GATE_FAILED


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlyap",
        description="Weak-measurement feedback simulator and stability checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("definition", help="definition JSON path or bundled fixture name")
        p.set_defaults(func=func)
        return p

    p = add("check", _cmd_check, "evaluate the structural design assumptions")
    p.add_argument("--json", help="write the report JSON here")

    p = add("simulate", _cmd_simulate, "integrate one trajectory and write a CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="override the definition seed")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-final", type=float, default=None)
    p.add_argument("--psi0", default=None, help="initial state as re,im,re,im,...")

    p = add("ensemble", _cmd_ensemble, "run a seeded ensemble and the mean-decrease gate")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stride", type=int, default=None, help="recording stride in steps")
    p.add_argument("--psi0", default=None, help="initial state as re,im,re,im,...")
    p.add_argument("--json", help="write the summary JSON here")

    p = add("invariant-set", _cmd_invariant_set, "scan stationarity slices over shift values")
    p.add_argument("--grid-points", type=int, default=50)
    p.add_argument("--json", help="write the sweep JSON here")

    p = add("escape", _cmd_escape, "rank of the control coupling out of the orthogonal set")
    p.add_argument("--json", help="write the result JSON here")

    p = add("report", _cmd_report, "assumptions, escape rank, and ensemble gates in one run")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--psi0", default=None, help="initial state as re,im,re,im,...")
    p.add_argument("--json", help="write the combined JSON here")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE
    try:
        # fail on an unwritable --out or --json before any work starts
        for path in (getattr(args, "out", None), getattr(args, "json", None)):
            if path is not None:
                _require_writable(path)
        return args.func(args)
    except (ValidationError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
