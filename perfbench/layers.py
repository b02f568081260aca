"""Per-layer measurements for the traced run.

Every traced run, whatever its workload, runs this fixed suite so that
each per-layer metric has the same inputs on every workload and commit.
Each metric is computed from the spans the suite records around its calls
into dynamics, ensemble, analysis, io and cli. Micro-benchmark loops record
one span per batch of calls; everything else records one span per call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from statistics import median
from pathlib import Path

import numpy as np

from workloads import (
    DRIVEN,
    PROBE_DT,
    PROBE_T,
    STABILITY_SIZE,
    STABILITY_T,
    four_level_definition,
    qubit_definition,
    write_definition,
)

MODELS = ("qubit", "qutrit", "4level")
WIDTHS = (1, 64, 256, 1024, 4096)
CALLS_PER_BATCH = {1: 512, 64: 64, 256: 32, 1024: 8, 4096: 4}
REPS = 7
ENSEMBLE_TRIALS, ENSEMBLE_STEPS = 256, 2000
THREADS_TRIALS, THREADS_T = 512, 1.0

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
STEP_MOVES = {
    ("qubit", 256): "items_per_s on ensemble-qubit",
    ("4level", 256): "items_per_s on probe-4level",
    ("qubit", 1): "wall_s on trajectory-csv",
}
PER_LAYER = {
    "dynamics.noise_setup_us_per_seed": ("us", "items_per_s on probe-4level; negligible on ensemble-qubit"),
    "dynamics.noise_ns_per_increment": ("ns", "items_per_s on ensemble-qubit (~5%)"),
    **{
        f"dynamics.step_ns_per_traj_step.{model}.B{width}": (
            "ns", STEP_MOVES.get((model, width), "kernel roofline stand-in; no effect on sweep-4level"),
        )
        for model in MODELS
        for width in WIDTHS
    },
    "dynamics.simulate_us_per_step": ("us", "wall_s on trajectory-csv"),
    "ensemble.bare_ns_per_traj_step": ("ns", "items_per_s on ensemble-qubit"),
    "ensemble.bookkeeping_ns_per_traj_step": ("ns", "items_per_s on ensemble-qubit, not probe-4level"),
    "ensemble.fixed_us_per_trajectory": ("us", "items_per_s on probe-4level"),
    "ensemble.probe_s_per_candidate": ("s", "op_p50_s on probe-4level"),
    "ensemble.stability_s_per_row": ("s", "op_p50_s on probe-4level"),
    "ensemble.threads2_wall_ratio": ("ratio", "none; evidence for removing the thread pool"),
    "ensemble.stderr_V_t0": ("V", "none; exact answer 0, never gated"),
    "ensemble.excluded_trajectories": ("count", "failed counts on ensemble-qubit"),
    "analysis.slice_us_per_node": ("us", "items_per_s on sweep-4level"),
    "analysis.sweep_nodes": ("count", "items_per_s on sweep-4level (exact count)"),
    "analysis.check_assumptions_ms": ("ms", "none; structural checks"),
    "analysis.escape_matrix_ms": ("ms", "none; structural checks"),
    "io.load_definition_ms": ("ms", "setup_s on every workload"),
    "io.csv_write_s": ("s", "wall_s on trajectory-csv"),
    "io.csv_bytes": ("bytes", "wall_s on trajectory-csv"),
    "io.json_write_s": ("s", "wall_s on ensemble-qubit and sweep-4level"),
    "io.json_bytes": ("bytes", "wall_s on ensemble-qubit and sweep-4level"),
    "cli.self_s": ("s", "wall_s on the CLI workloads"),
    "trace.overhead_s": ("s", "none; traced minus untraced round wall of this workload"),
}

# Re-anchor measurements quoted in ROADMAP.md, printed beside ours as a cross-check.
BASELINES = (
    ("256-trajectory qubit chunk, traj-steps/s", 1.2e6, "ensemble_steps_per_s"),
    ("bare step kernel ns/traj-step at B=64", 1200.0, "dynamics.step_ns_per_traj_step.qubit.B64"),
    ("bare step kernel ns/traj-step at B=256", 500.0, "dynamics.step_ns_per_traj_step.qubit.B256"),
    ("bare step kernel ns/traj-step at B=1024", 340.0, "dynamics.step_ns_per_traj_step.qubit.B1024"),
    ("bare step kernel ns/traj-step at B=4096", 250.0, "dynamics.step_ns_per_traj_step.qubit.B4096"),
    ("simulate us/step", 90.0, "dynamics.simulate_us_per_step"),
    ("cli check qutrit s", 0.26, "cli_check_s"),
    ("cli invariant-set qutrit s", 0.53, "cli_invariant_set_qutrit_s"),
    ("cli simulate qubit s", 1.09, None),
    ("cli ensemble qutrit --trials 256 s", 3.06, None),
)


class LayerSuite:
    def __init__(self, tracer, api, work_dir, seed):
        self.tracer = tracer
        self.api = api
        self.work_dir = Path(work_dir)
        self.rng = np.random.default_rng(seed)
        self.seed = int(self.rng.integers(1, 2**31))
        self.metrics = {}
        self.extra = {}

    def _run(self, run_id):
        self.tracer.run_id = f"suite:{run_id}"
        return self.tracer.run_id

    def _batch(self, name, calls, fn):
        with self.tracer.span(name, calls=calls):
            for _ in range(calls):
                fn()

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.api.main(argv)

    def _per_call(self, name, run_id, scale=1.0):
        return median([s.duration / s.calls for s in self.tracer.by_name(name, run_id)]) * scale

    def run(self):
        import qlyap.dynamics as dynamics

        api = self.api
        self.qubit = api.bundled_fixture("qubit")
        self.qutrit = api.bundled_fixture("qutrit")
        self.four_path = write_definition(self.work_dir / "suite-four-level.json", four_level_definition())
        self.four = api.load_definition(str(self.four_path))
        self._noise(dynamics)
        self._steps(dynamics)
        self._simulate_and_csv()
        self._ensemble()
        self._probe_rows()
        self._threads()
        self._analysis_and_io()
        self._cli()
        return self.metrics

    def _noise(self, dynamics):
        dt = self.qubit[2].dt
        run = self._run("noise.setup")
        for rep in range(REPS):
            seeds = iter(range(self.seed + rep * 256, self.seed + (rep + 1) * 256))
            self._batch("dynamics.WienerPath.generate", 256,
                        lambda: dynamics.WienerPath.generate(next(seeds), 0, dt))
        self.metrics["dynamics.noise_setup_us_per_seed"] = self._per_call(
            "dynamics.WienerPath.generate", run, 1e6)
        run = self._run("noise.increments")
        count = 1 << 16
        for rep in range(REPS):
            self._batch("dynamics.WienerPath.generate", 1,
                        lambda: dynamics.WienerPath.generate(self.seed + rep, count, dt))
        self.metrics["dynamics.noise_ns_per_increment"] = self._per_call(
            "dynamics.WienerPath.generate", run, 1e9 / count)

    def _steps(self, dynamics):
        for label, (model, law, params) in zip(MODELS, (self.qubit, self.qutrit, self.four)):
            for width in WIDTHS:
                raw = self.rng.normal(size=(width, model.n)) + 1j * self.rng.normal(size=(width, model.n))
                psi = raw / np.linalg.norm(raw, axis=1, keepdims=True)
                dws = self.rng.normal(0.0, np.sqrt(params.dt), width)
                state = [psi]

                def step():
                    state[0] = dynamics.euler_maruyama_step_many(model, law, state[0], params.dt, dws)

                run = self._run(f"step.{label}.B{width}")
                step()  # first call outside the spans
                for _ in range(REPS):
                    self._batch("dynamics.euler_maruyama_step_many", CALLS_PER_BATCH[width], step)
                self.metrics[f"dynamics.step_ns_per_traj_step.{label}.B{width}"] = self._per_call(
                    "dynamics.euler_maruyama_step_many", run, 1e9 / width)

    def _simulate_and_csv(self):
        model, law, params = self.qubit
        steps = ENSEMBLE_STEPS
        run = self._run("simulate")
        records = [
            self.api.simulate_trajectory(model, law, params.initial_state, params.dt,
                                         steps * params.dt, self.seed + rep)
            for rep in range(3)
        ]
        self.metrics["dynamics.simulate_us_per_step"] = self._per_call(
            "dynamics.simulate_trajectory", run, 1e6 / steps)
        run = self._run("csv")
        path = self.work_dir / "suite.csv"
        for record in records:
            self.api.write_trajectory_csv(path, record, model, law)
        self.metrics["io.csv_write_s"] = self._per_call("io.write_trajectory_csv", run)
        self.metrics["io.csv_bytes"] = path.stat().st_size

    def _ensemble(self):
        model, law, params = self.qubit
        t_final = ENSEMBLE_STEPS * params.dt
        summaries = []
        for rep in range(4):
            for run_id, kwargs in (("ensemble.bare", {"r_list": (), "max_recorded": 2}),
                                   ("ensemble.full", {"r_list": params.r_list})):
                self._run(run_id)
                summaries.append(self.api.run_ensemble(
                    model, law, params.initial_state, params.dt, t_final,
                    ENSEMBLE_TRIALS, self.seed + rep * ENSEMBLE_TRIALS, **kwargs))
        per_step = 1e9 / (ENSEMBLE_TRIALS * ENSEMBLE_STEPS)
        bare = [s.duration * per_step for s in self.tracer.by_name("ensemble.run_ensemble", "suite:ensemble.bare")]
        full = [s.duration * per_step for s in self.tracer.by_name("ensemble.run_ensemble", "suite:ensemble.full")]
        self.metrics["ensemble.bare_ns_per_traj_step"] = median(bare)
        # each full call runs right after its bare twin, so their difference cancels slow host drift
        self.metrics["ensemble.bookkeeping_ns_per_traj_step"] = median([f - b for f, b in zip(full, bare)])
        self.extra["ensemble_steps_per_s"] = 1e9 / median(full)
        self.excluded = sum(s.failures for s in summaries)

        run = self._run("ensemble.fixed")
        for rep in range(5):
            self.api.run_ensemble(model, law, params.initial_state, params.dt, 0.0,
                                  ENSEMBLE_TRIALS, self.seed + rep)
        self.metrics["ensemble.fixed_us_per_trajectory"] = self._per_call(
            "ensemble.run_ensemble", run, 1e6 / ENSEMBLE_TRIALS)

        run = self._run("io.json")
        path = self.work_dir / "suite.json"
        for _ in range(3):
            self.api.write_report_json(path, summaries[-1])
        self.metrics["io.json_write_s"] = self._per_call("io.write_report_json", run)
        self.metrics["io.json_bytes"] = path.stat().st_size

    def _probe_rows(self):
        model, law, _ = self.four
        qubit, qubit_law, _ = self.qubit
        run = self._run("probe")
        for rep in range(3):
            self.api.invariance_probe(model, law, [DRIVEN], dt=PROBE_DT, t_probe=PROBE_T,
                                      trials=512, base_seed=self.seed + rep * 512)
        self.metrics["ensemble.probe_s_per_candidate"] = self._per_call("ensemble.invariance_probe", run)
        run = self._run("stability")
        for rep in range(3):
            self.api.stability_bound_test(qubit, qubit_law, 0.5, (STABILITY_SIZE,), 256,
                                          dt=PROBE_DT, t_final=STABILITY_T,
                                          base_seed=self.seed + rep * 256)
        self.metrics["ensemble.stability_s_per_row"] = self._per_call("ensemble.stability_bound_test", run)

    def _threads(self):
        """The ensemble CLI call at QLYAP_THREADS=2 over =1; outputs must match byte for byte."""
        definition = write_definition(self.work_dir / "suite-qubit.json", qubit_definition(THREADS_T))
        walls = {"1": [], "2": []}
        outputs = {}
        with self.api.boundaries():
            for pair in range(2):
                for threads in ("1", "2") if pair % 2 == 0 else ("2", "1"):
                    out = self.work_dir / f"suite-threads{threads}.json"
                    run = self._run(f"threads{threads}.{pair}")
                    os.environ["QLYAP_THREADS"] = threads
                    try:
                        code = self._main(["ensemble", str(definition), "--trials", str(THREADS_TRIALS),
                                              "--seed", str(self.seed), "--json", str(out)])
                    finally:
                        del os.environ["QLYAP_THREADS"]
                    if code != 0:
                        raise RuntimeError(f"ensemble CLI exited {code} at QLYAP_THREADS={threads}")
                    walls[threads].append(self.tracer.by_name("cli.main", run)[-1].duration)
                    outputs.setdefault(threads, set()).add(out.read_bytes())
        self.threads_identical = len(outputs["1"] | outputs["2"]) == 1
        self.metrics["ensemble.threads2_wall_ratio"] = median(walls["2"]) / median(walls["1"])
        summary = json.loads(next(iter(outputs["1"])))
        self.metrics["ensemble.stderr_V_t0"] = summary["stderr_V"][0]
        self.excluded += summary["failures"]

    def _analysis_and_io(self):
        model = self.four[0]
        for name, fn in (("analysis.check_assumptions", lambda: self.api.check_assumptions(model)),
                         ("analysis.escape_matrix", lambda: self.api.escape_matrix(model)),
                         ("io.load_definition", lambda: self.api.load_definition(str(self.four_path)))):
            run = self._run(name)
            for _ in range(REPS):
                for _ in range(10):
                    fn()
            self.metrics[f"{name}_ms"] = self._per_call(name, run, 1e3)

    def _cli(self):
        out = self.work_dir / "suite-cli.json"
        commands = {
            "check": ["check", "qutrit"],
            "invariant_set_qutrit": ["invariant-set", "qutrit", "--json", str(out)],
            "sweep4": ["invariant-set", str(self.four_path), "--grid-points", "10", "--json", str(out)],
        }
        with self.api.boundaries():
            for _ in range(3):
                for label, argv in commands.items():
                    self._run(f"cli.{label}")
                    self._main(argv)
                    if label == "sweep4":
                        nodes = int(np.prod(json.loads(out.read_text(encoding="utf-8"))["grid_sizes"]))
        sweeps = self.tracer.by_name("analysis.invariant_set_sweep", "suite:cli.sweep4")
        self.metrics["analysis.slice_us_per_node"] = median([s.duration for s in sweeps]) * 1e6 / nodes
        self.metrics["analysis.sweep_nodes"] = nodes
        calls, _, self_s = self.tracer.self_times("suite:cli.")["cli.main"]
        self.metrics["cli.self_s"] = self_s / calls
        self.metrics["ensemble.excluded_trajectories"] = self.excluded
        for label, key in (("check", "cli_check_s"), ("invariant_set_qutrit", "cli_invariant_set_qutrit_s")):
            self.extra[key] = median([s.duration for s in self.tracer.by_name("cli.main", f"suite:cli.{label}")])
