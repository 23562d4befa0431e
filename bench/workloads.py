"""The benchmark's three training workloads.

Each workload is an ``ExperimentConfig`` plus the number of iterations one
training run takes and the number of runs (``panel``) whose results a
benchmark run pools.  The ``--seed`` of a benchmark run selects the panel's
config seeds, ``seed * panel + j``; the seed reaches the program only as
``ExperimentConfig.seed``.  Pooling a panel is what keeps the end-to-end
figures steady across seeds: a single run's step counts follow its data and
initialisation (see README.md).

``Workload.active`` names the traced entry points (``spans.LABELS``) the
workload must reach; every other entry point must stay idle on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from snopt_kit import trainer as tr


@dataclass(frozen=True)
class Workload:
    name: str
    config: tr.ExperimentConfig
    panel: int
    active: frozenset[str]

    def config_for(self, config_seed: int, iterations: int | None = None) -> tr.ExperimentConfig:
        return replace(self.config, seed=config_seed,
                       iterations=self.config.iterations if iterations is None else iterations)

    def panel_seeds(self, seed: int) -> list[int]:
        return [seed * self.panel + j for j in range(self.panel)]


# Entry points every workload reaches.
_COMMON = frozenset({
    "data.build", "trainer.forward", "trainer.eval_forward", "trainer.train_eval",
    "trainer.test_eval", "odesolve.fwd", "odesolve.bwd", "vector_field.forward",
    "vector_field.cotangents", "vector_field.param_grad", "loss.value", "loss.accuracy",
    "loss.readout_grads", "optimizer.step", "curvature.weight_decay",
})
_FIRST_ORDER = frozenset({"adjoint.sweep", "loss.grad_x1"})
_SECOND_ORDER = frozenset({"loss.terminal_curvature", "kfac.sweep", "kfac.factor_terms",
                           "numerics.sym_eigen"})
_HORIZON = frozenset({"horizon.terms", "horizon.step"})

_SOLVER_AND_BATCH = dict(batch_size=128, model=tr.ModelConfig(dims=(2, 16, 16, 2)))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="adam-spirals",
        config=tr.ExperimentConfig(
            optimizer=tr.OptimizerConfig(kind="adam", lr=1e-2),
            iterations=20, **_SOLVER_AND_BATCH),
        panel=40,
        active=_COMMON | _FIRST_ORDER),
    Workload(
        name="snopt-grid33",
        config=tr.ExperimentConfig(
            optimizer=tr.OptimizerConfig(kind="snopt", lr=3e-2),
            grid_samples=33, iterations=12, **_SOLVER_AND_BATCH),
        panel=24,
        active=_COMMON | _SECOND_ORDER),
    Workload(
        name="snopt-rank2-horizon",
        config=tr.ExperimentConfig(
            dataset=tr.DatasetConfig(kind="circles"),
            loss=tr.LossConfig(curvature="exact_rank"),
            optimizer=tr.OptimizerConfig(kind="snopt", lr=3e-2, weight_decay=1e-4),
            horizon=tr.HorizonConfig(enabled=True, policy="feedback", period=25),
            grid_samples=13, iterations=30, **_SOLVER_AND_BATCH),
        panel=20,
        active=_COMMON | _SECOND_ORDER | _HORIZON),
)}
