"""The three benchmark workloads: set-up from a seed, one operation, its check.

Each workload runs every builtin in ``SYSTEMS``.  A round is one pass over
``ops``, a list of ``(system, input)`` pairs; ``run`` performs one operation
and ``check`` returns ``None`` when its output is correct or a one-line
reason otherwise.  ``units`` is how many units of work one operation does
(RK4 steps for ``geodesic``, one otherwise), so per-unit times compare across
seeds.

Calls into algmech go through module attributes looked up at call time, so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

from algmech import cli, dynamics, report, systems

SYSTEMS = ("planar_body", "robotic_leg", "snakeboard")


class Geodesic:
    """Unforced RK4 geodesics at step 1e-3 from seeded start states.

    Start states perturb the energy-conservation seeds of the acceptance
    suite; the perturbation keeps them inside the chart and the snakeboard's
    steering angle well away from its excluded values at +-pi/2.  Steps per
    trajectory differ per system so each trajectory costs a few tenths of a
    second.
    """

    STEP = 1e-3
    STEPS = {"planar_body": 2000, "robotic_leg": 400, "snakeboard": 60}
    SEEDS = {
        "planar_body": ([0.1, 0.2, 0.3], [0.3, 0.2, -0.1]),
        "robotic_leg": ([1.5, 0.3, -0.2], [0.2, 0.05, 0.1]),
        "snakeboard": ([0.0, 0.0, 0.2, 0.1, 0.3], [0.15, 0.1, 0.05]),
    }
    DRIFT_TOL = 1e-7

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 1])
        self.systems = {name: systems.builtin(name) for name in SYSTEMS}
        self.ops = []
        for name in SYSTEMS:
            base, fiber = (np.array(v, dtype=float) for v in self.SEEDS[name])
            base = base + rng.uniform(-0.1, 0.1, size=base.size)
            fiber = fiber * rng.uniform(0.8, 1.2, size=fiber.size)
            if not self.systems[name].chart.contains(base, pad=-0.2):
                raise ValueError(f"{name}: start state {base} is too close to the chart edge")
            self.ops.append((name, (base, fiber)))

    def units(self, name: str) -> int:
        return self.STEPS[name]

    def run(self, name, state):
        sysdef = self.systems[name]
        field = dynamics.spray_field(sysdef.structure, sysdef.metric)
        base, fiber = state
        return dynamics.integrate(field, dynamics.TotalPoint(base, fiber), 0.0,
                                  self.STEPS[name] * self.STEP, self.STEP, chart=sysdef.chart)

    def check(self, name, state, traj):
        if traj.truncated:
            return f"{name}: trajectory truncated ({traj.reason})"
        if len(traj) != self.STEPS[name] + 1:
            return f"{name}: {len(traj)} samples, expected {self.STEPS[name] + 1}"
        if not (np.all(np.isfinite(traj.base)) and np.all(np.isfinite(traj.fiber))):
            return f"{name}: non-finite state"
        sysdef = self.systems[name]
        values = [dynamics.energy(sysdef.structure, sysdef.metric, None, (x, y))
                  for x, y in zip(traj.base, traj.fiber)]
        drift = max(values) - min(values)
        # Written so that a NaN drift fails.
        if not drift <= self.DRIFT_TOL:
            return f"{name}: energy drift {drift!r} above {self.DRIFT_TOL}"
        return None

    def close(self):
        pass


# Verdicts of ``run_battery`` at its defaults for the builtins at their
# default parameters.  They held for every sampling seed tried (0-7 and
# 1000000-1000001 directly, and every seed the benchmark was run with); they
# include the decoupling, kinematic-reduction and maximal-reducibility
# verdicts of acceptance criterion 4.
GOLDEN_VERDICTS = {
    "planar_body": {
        "decoupling:Y1": "pass", "decoupling:Y2": "pass",
        "kinematic_reduction:controls": "fail", "geodesic_invariance:controls": "fail",
        "maximal_reducibility": "fail",
        "hj:gY1": "pass", "hj_trajectory:gY1": "pass",
        "hj:gY2": "pass", "hj_trajectory:gY2": "pass",
        "hj:xY1": "fail", "hj_trajectory:xY1": "inconclusive",
        "reparam:g": "pass", "reparam:coord_x": "fail",
    },
    "robotic_leg": {
        "decoupling:Y1": "pass", "decoupling:Y2": "pass",
        "kinematic_reduction:controls": "pass", "geodesic_invariance:controls": "pass",
        "maximal_reducibility": "pass",
        "hj:fY1": "pass", "hj_trajectory:fY1": "pass",
        "hj:thetaY1": "fail", "hj_trajectory:thetaY1": "inconclusive",
        "reparam:f": "pass", "reparam:coord_theta": "fail",
    },
    "snakeboard": {
        "decoupling:Y1": "pass", "decoupling:Y2": "pass",
        "kinematic_reduction:controls": "fail", "geodesic_invariance:controls": "fail",
        "maximal_reducibility": "fail",
        "hj:psiX3": "pass", "hj_trajectory:psiX3": "pass",
        "hj:xX2": "fail", "hj_trajectory:xX2": "inconclusive",
        "reparam:psi_fun": "pass", "reparam:coord_x": "fail",
    },
}
GOLDEN_RANKS = {
    "planar_body": {"lie_closure": 3, "symmetric_closure": 3},
    "robotic_leg": {"lie_closure": 3, "symmetric_closure": 2},
    "snakeboard": {"lie_closure": 5, "symmetric_closure": 3},
}


class Battery:
    """``run_battery`` at its defaults with the workload seed as sampling seed.

    A round runs the planar and leg batteries (tenths of a second) twice for
    each snakeboard battery (seconds), so their medians rest on more samples.
    """

    ROUND = ("planar_body", "robotic_leg") * 2 + ("snakeboard",)

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.systems = {name: systems.builtin(name) for name in SYSTEMS}
        self.ops = [(name, None) for name in self.ROUND]

    def units(self, name: str) -> int:
        return 1

    def run(self, name, state):
        return report.run_battery(self.systems[name], seed=self.seed)

    def check(self, name, state, doc):
        if doc["verdicts"] != GOLDEN_VERDICTS[name]:
            wrong = {k: v for k, v in doc["verdicts"].items()
                     if GOLDEN_VERDICTS[name].get(k) != v}
            return f"{name}: verdicts differ from the golden vector: {wrong}"
        ranks = {kind: info["rank"] for kind, info in doc["ranks"].items()}
        if ranks != GOLDEN_RANKS[name]:
            return f"{name}: closure ranks {ranks}, expected {GOLDEN_RANKS[name]}"
        return None

    def close(self):
        pass


class Load:
    """Seeded parameter variants of the builtin documents answered by the CLI.

    Set-up writes ``VARIANTS`` documents per builtin, each parameter scaled
    by a factor in [0.85, 1.15], to a scratch directory in the checkout.  One
    operation is ``algmech christoffel --system <file> --format json`` run
    in-process.
    """

    VARIANTS = 8

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 3])
        self.tmp = root / ".bench_tmp" / f"load-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=False)
        self.documents = {}
        self.ops = []
        try:
            defaults = {name: systems.builtin(name).params for name in SYSTEMS}
            for i in range(self.VARIANTS):
                for name in SYSTEMS:
                    params = {k: v * float(rng.uniform(0.85, 1.15))
                              for k, v in defaults[name].items()}
                    document = systems.dump_spec(systems.builtin(name, **params))
                    path = self.tmp / f"{name}-{i}.json"
                    path.write_text(json.dumps(document), encoding="utf-8")
                    self.documents[str(path)] = document
                    self.ops.append((name, str(path)))
        except BaseException:
            self.close()
            raise
        self._expected = {}

    def units(self, name: str) -> int:
        return 1

    def run(self, name, path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["christoffel", "--system", path, "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def expected(self, path) -> dict:
        """The in-process table of the same document (computed once per document)."""
        if path not in self._expected:
            sysdef = systems.load_spec(self.documents[path])
            self._expected[path] = {"system": sysdef.name, **report.christoffel_table(sysdef)}
        return self._expected[path]

    def check(self, name, path, result):
        code, out, err = result
        if code != 0:
            return f"{path}: exit code {code}: {err.strip()}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"{path}: output is not JSON ({exc})"
        if payload != self.expected(path):
            return f"{path}: CLI table differs from the in-process christoffel_table"
        return None

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:  # another run's documents are still there
            pass


def make(workload: str, seed: int, root: Path):
    return {"geodesic": Geodesic, "battery": Battery, "load": Load}[workload](seed, root)
