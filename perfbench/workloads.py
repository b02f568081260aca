"""The four benchmark workloads.

Each workload turns a seed into a stream of rounds. A round is a list of
operations; an operation is one call through a public qlyap entry point
(`qlyap.cli.main` for CLI workloads, the library where no command
exists), with the amount of work it does and a check of its output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "ensemble_qubit_seed7.json"
REFERENCE_SEED = 7  # the bundled qubit definition's default seed
SERIES = ("mean_V", "stderr_V", "mean_X", "stderr_X", "mean_fidelity", "stderr_fidelity")
SERIES_TOL = 1e-9


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    work: int
    check: Callable[[object], tuple]  # output -> (problems, excluded trajectories)


@dataclass
class CliResult:
    code: int
    path: Path
    printed: str

    def problems(self):
        return [] if self.code == 0 else [f"exit code {self.code}: {self.printed.strip()[-300:]}"]


@dataclass
class Outcome:
    kind: str
    seconds: float
    work: int
    problems: list
    excluded: int = 0


def _pairs(vector):
    return [[float(z.real), float(z.imag)] for z in np.asarray(vector, dtype=complex).ravel()]


def _matrix(rows):
    return [_pairs(row) for row in np.asarray(rows, dtype=complex)]


def _coupling(i, j, value):
    h = np.zeros((4, 4), dtype=complex)
    h[i, j] = value
    h[j, i] = np.conj(value)
    return h


def four_level_definition(phases=(0.0, 0.5 * math.pi, 0.0), deficient=False):
    """Definition dict of the n=4, m=3 model: controls couple the target to each other axis.

    The deficient variant couples axes 2 and 3 with the third control, so
    axis 4 decouples from every generator (a stuck orthogonal state).
    """
    third = (1, 2) if deficient else (0, 3)
    controls = [
        _coupling(0, 1, np.exp(1j * phases[0])),
        _coupling(0, 2, np.exp(1j * phases[1])),
        _coupling(*third, np.exp(1j * phases[2])),
    ]
    return {
        "system": {
            "free_hamiltonian": _matrix(np.diag([3.0, -1.0, -1.0, -1.0])),
            "controls": [_matrix(c) for c in controls],
            "observable": _matrix(np.diag([1.0, 0.0, 0.0, -1.0])),
            "target": _pairs([1.0, 0.0, 0.0, 0.0]),
            "measurement_strength": 1.0,
            "hbar": 1.0,
        },
        "control_law": {"gains": [1.0, 1.0, 1.0], "phase_tol": 1e-12},
        "run": {"dt": 0.002, "t_final": 0.3, "trials": 256, "seed": 1},
    }


def write_definition(path, definition):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(definition, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def qubit_definition(t_final):
    """The bundled qubit definition with another horizon."""
    import qlyap

    text = (Path(qlyap.__file__).parent / "fixtures" / "qubit.json").read_text(encoding="utf-8")
    data = json.loads(text)
    data["run"]["t_final"] = float(t_final)
    return data


def _cli(workload, argv, artifact):
    """An operation that calls `qlyap.cli.main(argv)`, keeping what it prints."""

    def run():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            code = workload.api.main(argv)
        return CliResult(code, artifact, printed.getvalue())

    return run


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    name = ""
    item = ""  # unit of work: "traj_steps" or "sweep_nodes"

    def __init__(self, api, work_dir, seed, small=False):
        self.api = api
        self.work_dir = Path(work_dir)
        self.rng = random.Random(seed)
        self.small = small

    def next_seed(self):
        return self.rng.randrange(1, 2**31)

    def setup(self):
        """Load definitions, build models and laws, and warm up."""

    def rounds(self):
        raise NotImplementedError


class EnsembleQubit(Workload):
    name = "ensemble-qubit"
    item = "traj_steps"

    def setup(self):
        self.model, self.law, self.params = self.api.bundled_fixture("qubit")
        if self.small:
            self.definition = str(write_definition(self.work_dir / "qubit-short.json", qubit_definition(0.5)))
            self.trials, self.steps = 512, 500
        else:
            self.definition = "qubit"
            self.trials, self.steps = 512, int(round(self.params.t_final / self.params.dt))
        self.api.run_ensemble(
            self.model, self.law, self.params.initial_state, self.params.dt,
            100 * self.params.dt, 64, self.params.seed, r_list=self.params.r_list,
        )

    def rounds(self):
        for index in itertools.count():
            seed = REFERENCE_SEED if index == 0 and not self.small else self.next_seed()
            out = self.work_dir / f"ensemble-{index % 2}.json"
            argv = ["ensemble", self.definition, "--trials", str(self.trials),
                    "--seed", str(seed), "--json", str(out)]
            yield [Op("ensemble", _cli(self, argv, out), self.trials * self.steps,
                      self._checker(seed == REFERENCE_SEED and not self.small))]

    def _checker(self, against_reference):
        def check(result):
            if result.problems():
                return result.problems(), 0
            data = _read_json(result.path)
            problems = []
            if data["included"] != data["trials"] or data["trials"] != self.trials:
                problems.append(f"included {data['included']} of {data['trials']}")
            if not data["mean_V"][-1] < data["mean_V"][0]:
                problems.append("mean V did not fall")
            if against_reference:
                problems += compare_series(data, json.loads(REFERENCE.read_text(encoding="utf-8")))
            return problems, data["failures"]

        return check


def compare_series(data, reference):
    problems = []
    for key in SERIES:
        got = np.asarray(data[key], dtype=float)
        want = np.asarray(reference[key], dtype=float)
        if got.shape != want.shape:
            problems.append(f"{key}: {got.size} points, reference has {want.size}")
            continue
        gap = float(np.max(np.abs(got - want)))
        if not gap <= SERIES_TOL:
            problems.append(f"{key}: differs from the reference by {gap:.3g}")
    return problems


class TrajectoryCsv(Workload):
    name = "trajectory-csv"
    item = "traj_steps"

    def setup(self):
        self.model, self.law, self.params = self.api.bundled_fixture("qubit")
        self.t_final = 0.5 if self.small else 2.0
        self.steps = int(round(self.t_final / self.params.dt))
        record = self.api.simulate_trajectory(
            self.model, self.law, self.params.initial_state, self.params.dt,
            100 * self.params.dt, self.params.seed,
        )
        self.api.write_trajectory_csv(self.work_dir / "warm-up.csv", record, self.model, self.law)

    def rounds(self):
        for index in itertools.count():
            out = self.work_dir / f"trajectory-{index % 2}.csv"
            argv = ["simulate", "qubit", "--t-final", repr(self.t_final),
                    "--seed", str(self.next_seed()), "--out", str(out)]
            yield [Op("simulate", _cli(self, argv, out), self.steps, self.check)]

    def check(self, result):
        if result.problems():
            return result.problems(), 0
        with open(result.path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], np.array(rows[1:], dtype=float)
        problems = []
        if body.shape[0] != self.steps + 1:
            problems.append(f"{body.shape[0]} rows, expected {self.steps + 1}")
        col = {name: i for i, name in enumerate(header)}
        v, fid = body[:, col["V"]], body[:, col["fidelity"]]
        if not np.max(np.abs(v - 0.5 * (1.0 - fid))) <= 1e-12:
            problems.append("V != (1 - fidelity) / 2")
        psi = [col[name] for name in header if name.startswith("psi_")]
        norms = np.sqrt(np.sum(body[:, psi] ** 2, axis=1))
        if not np.max(np.abs(norms - 1.0)) <= 1e-12:
            problems.append(f"state norm off by {np.max(np.abs(norms - 1.0)):.3g}")
        if not abs(body[-1, col["t"]] - self.t_final) <= 1e-9:
            problems.append("last row is not at t_final")
        return problems, 0


PROBE_DT = 0.002
PROBE_T = 0.3
STABILITY_T = 0.5
STABILITY_RADII = (0.3, 0.5, 1.0)
STABILITY_SIZE = 0.1
DRIVEN = 1j * np.array([0.0, 1.0, 0.0, 0.0])
STUCK = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)


class Probe4Level(Workload):
    name = "probe-4level"
    item = "traj_steps"

    def setup(self):
        paths = (
            write_definition(self.work_dir / "four-level.json", four_level_definition()),
            write_definition(self.work_dir / "four-level-deficient.json",
                             four_level_definition(deficient=True)),
        )
        (self.model, self.law, _), (self.deficient, self.deficient_law, _) = (
            self.api.load_definition(str(p)) for p in paths
        )
        self.qubit, self.qubit_law, _ = self.api.bundled_fixture("qubit")
        if self.small:  # two chunks per stability row, so the thread pool has work to split
            self.driven_trials, self.stuck_trials, self.row_trials = 64, 32, 512
            self.probe_t, self.row_t = 10 * PROBE_DT, 10 * PROBE_DT
        else:
            self.driven_trials, self.stuck_trials, self.row_trials = 512, 256, 256
            self.probe_t, self.row_t = PROBE_T, STABILITY_T
        self.api.invariance_probe(self.model, self.law, [DRIVEN], dt=PROBE_DT,
                                  t_probe=10 * PROBE_DT, trials=16, base_seed=1)

    def rounds(self):
        probe_steps = int(round(self.probe_t / PROBE_DT))
        row_steps = int(round(self.row_t / PROBE_DT))
        while True:
            ops = [
                Op("probe-driven", self._probe(self.model, self.law, DRIVEN, self.driven_trials),
                   self.driven_trials * probe_steps, self._check_driven),
                Op("probe-stuck", self._probe(self.deficient, self.deficient_law, STUCK, self.stuck_trials),
                   self.stuck_trials * probe_steps, self._check_stuck),
            ]
            for radius in STABILITY_RADII:
                ops.append(Op("stability-row", self._row(radius), self.row_trials * row_steps,
                              self._check_row))
            yield ops

    def _probe(self, model, law, candidate, trials):
        seed = self.next_seed()

        def run():
            return self.api.invariance_probe(model, law, [candidate], dt=PROBE_DT,
                                             t_probe=self.probe_t, trials=trials, base_seed=seed)

        return run

    def _row(self, radius):
        seed = self.next_seed()

        def run():
            return self.api.stability_bound_test(
                self.qubit, self.qubit_law, radius, (STABILITY_SIZE,), self.row_trials,
                dt=PROBE_DT, t_final=self.row_t, base_seed=seed,
            )

        return run

    @staticmethod
    def _check_driven(results):
        (result,) = results
        sigmas = result.mean_drift_fidelity / max(result.stderr_drift_fidelity, 1e-300)
        return ([] if sigmas > 3.0 else [f"driven fidelity growth only {sigmas:.2f} sigma"]), 0

    @staticmethod
    def _check_stuck(results):
        (result,) = results
        problems = []
        if not result.stationary:
            problems.append("stuck state not classified stationary")
        if not abs(result.mean_drift_fidelity) < 1e-12:
            problems.append(f"stuck fidelity drift {result.mean_drift_fidelity:.3g}")
        return problems, 0

    @staticmethod
    def _check_row(report):
        return ([] if report.passes else [f"stability row failed: {report.rows[0]}"]), 0


class Sweep4Level(Workload):
    name = "sweep-4level"
    item = "sweep_nodes"

    def setup(self):
        self.grid_points = 4 if self.small else 10
        phases = [self.rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
        self.definition = write_definition(self.work_dir / "four-level-sweep.json",
                                           four_level_definition(phases))
        model, _, _ = self.api.load_definition(str(self.definition))
        self.target = model.target
        self.nodes = math.prod(self._grid_size(h) for h in model.controls)
        self.api.invariant_set_sweep(model, grid_points=3)

    def _grid_size(self, control, pad=1.0):
        eigenvalues = np.linalg.eigvalsh(control)
        grid = np.linspace(eigenvalues[0] - pad, eigenvalues[-1] + pad, self.grid_points)
        return np.unique(np.concatenate([grid, eigenvalues])).size

    def rounds(self):
        for index in itertools.count():
            out = self.work_dir / f"sweep-{index % 2}.json"
            argv = ["invariant-set", str(self.definition), "--grid-points",
                    str(self.grid_points), "--json", str(out)]
            yield [Op("sweep", _cli(self, argv, out), self.nodes, self.check)]

    def check(self, result):
        if result.problems():
            return result.problems(), 0
        data = _read_json(result.path)
        problems = []
        counted = sum(data["dimension_counts"].values())
        if not counted == self.nodes == math.prod(data["grid_sizes"]):
            problems.append(f"dimension counts sum to {counted}, expected {self.nodes} nodes")
        target_slice = data["target_slice"]
        basis = np.array([[complex(*z) for z in vec] for vec in target_slice["basis"]])
        inside = np.linalg.norm(basis.conj() @ self.target) if basis.size else 0.0
        if not (target_slice["contains_target"] and abs(inside - 1.0) <= 1e-9):
            problems.append("target slice does not contain the target")
        return problems, 0


WORKLOADS = {w.name: w for w in (EnsembleQubit, Probe4Level, TrajectoryCsv, Sweep4Level)}


def run_op(op):
    """Time one call, then check its output. Exceptions count as failures."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        return Outcome(op.kind, time.perf_counter() - start, op.work, [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    try:
        problems, excluded = op.check(result)
    except Exception as exc:
        problems, excluded = [f"output check raised {type(exc).__name__}: {exc}"], 0
    return Outcome(op.kind, seconds, op.work, problems, excluded)
