"""Training loop: forward solve, backward sweep, update, metrics.

One iteration is one forward solve over the full training split plus one
backward sweep on a minibatch: the factor-accumulating sweep for the
second-order rule, the plain adjoint for the first-order baselines.  The
minibatch is a subset of the training split, so its terminal states are
rows of that one solve, which also gives the train metrics at the
pre-update parameters; a zero learning rate therefore yields a constant
loss sequence.  The readout (for class labels) is updated in the same
iteration by Adam; its curvature is never tracked.  Test
metrics run on the evaluation cadence and on the final iteration.

Each section of :class:`ExperimentConfig` is the config type of the
module that reads it, with that type's checks: ``data.DatasetConfig``,
``vector_field.MlpSpec``, ``loss.LossConfig``, ``optimizer.OptimizerConfig``,
``odesolve.SolverConfig`` and ``horizon.HorizonConfig``; the config's own
fields, and the rules that join sections, are checked here.  The run
holds the optimizer's accumulators, and each step is given its settings
from the config: the second-order damping is ``epsilon + weight_decay``.

The dataset (``data.DatasetConfig``) states the task and the loss follows
from its labels (``loss.TerminalLoss``): class labels take softmax_ce
through a readout of one row per class, and regression targets take mse
on the state.  Every flow runs from ``t = 0`` to the bound ``t1``.

Randomness comes from Philox generators seeded from the run seed: the
dataset (seed), batch sampling (seed+2), and two generators both seeded
with seed+1, one for the field's parameters and one for the readout.
Those two draw the same numbers, so they are not independent: the
readout starts as the field's first-layer block ``W0[:C, :m]`` scaled by
the ratio of the two init bounds.  Two runs with the same config produce
identical records up to wall-clock fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import vector_field as vf
from .adjoint import adjoint_gradient
from .data import DatasetConfig, build_dataset
from .horizon import (HorizonConfig, HorizonTerms, NonFiniteUpdate, average,
                      first_order_horizon_step, horizon_step, horizon_terms)
from .kfac import KroneckerFactors, accumulate_factors
from .loss import (LossAt, LossConfig, TerminalCurvature, TerminalLoss, accuracy, grad_x1,
                   init_readout, loss_value, readout_grads, terminal_curvature)
from .odesolve import MaxStepsExceeded, NonFiniteState, SolveReport, SolverConfig, odesolve
from .optimizer import (AdamState, OptimizerConfig, SgdState, SingularFactor, adam_step,
                        apply_weight_decay, sgd_step, snopt_step)
from .vector_field import MlpSpec as ModelConfig

# A record's train loss above this multiple of the first record's ends the run
DIVERGENCE_FACTOR = 1e6


class Diverged(RuntimeError):
    """The train loss grew past ``DIVERGENCE_FACTOR`` times the first record's."""


# Numeric failures of one iteration; ``train`` re-raises each as ``TrainAbort``.
NUMERIC_FAILURES = (NonFiniteState, MaxStepsExceeded, SingularFactor, NonFiniteUpdate, Diverged)


class TrainAbort(RuntimeError):
    """Training hit a numeric failure (see ``NUMERIC_FAILURES``); carries the failing iteration."""

    def __init__(self, iteration: int, cause: str):
        super().__init__(f"training aborted at iteration {iteration}: {cause}")
        self.iteration = iteration


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    t1: float = 1.0
    iterations: int = 500
    batch_size: int = 128
    # No effect: the solver integrates the factors.  Kept, with its >= 2
    # check, so configs and callers that still set it load unchanged.
    grid_samples: int = 33
    eval_every: int = 25
    seed: int = 0
    horizon: HorizonConfig = field(default_factory=HorizonConfig)

    def __post_init__(self):
        # the flow runs on [0, t1]; NaN fails the check
        if not 0 < self.t1 < np.inf:
            raise ValueError(f"need a finite t1 > 0, got {self.t1}")
        if self.iterations < 0:
            raise ValueError("need iterations >= 0")
        if self.grid_samples < 2:
            raise ValueError("need grid_samples >= 2")
        if self.batch_size < 1:
            raise ValueError("need batch_size >= 1")
        if self.eval_every < 1:
            raise ValueError("need eval_every >= 1")
        if self.seed < 0:
            raise ValueError("need seed >= 0")
        # rules that join the sections, which check themselves as they are built
        if self.model.state_dim != self.dataset.input_dim:
            raise ValueError(f"model state width {self.model.state_dim} differs from the "
                             f"dataset's {self.dataset.input_dim} input features")
        if self.horizon.enabled and not self.horizon.t_min <= self.t1 <= self.horizon.t_max:
            # the bound starts at t1 and every update clips it into [t_min, t_max]
            raise ValueError(f"need horizon t_min <= t1 <= t_max with the horizon enabled, "
                             f"got t1 = {self.t1} outside [{self.horizon.t_min}, "
                             f"{self.horizon.t_max}]")


@dataclass
class TrainRecord:
    iteration: int
    wall_clock_s: float
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    nfe_fwd: int                     # the one forward solve, over the training split
    nfe_bwd: int
    t1: float


class _Run:
    """Mutable pieces of one training run."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.spec = cfg.model
        self.ds = build_dataset(cfg.dataset, cfg.seed)
        self.theta = vf.init_params(self.spec, cfg.seed + 1)
        classes = cfg.dataset.n_classes
        self.readout = (init_readout(self.spec.state_dim, classes, cfg.seed + 1)
                        if classes else None)
        self.batch_rng = np.random.Generator(np.random.Philox(cfg.seed + 2))
        self.t1 = cfg.t1
        # the first-order rules' accumulators; snopt carries none
        self.opt_state = {"adam": AdamState(), "sgd": SgdState()}.get(cfg.optimizer.kind)
        self.ro_w_state, self.ro_b_state = AdamState(), AdamState()
        # the horizon terms' moving average; None until the horizon's first fold
        self.horizon: HorizonTerms | None = None
        self.first_loss = None           # the first record's train loss

    def forward(self, x0: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        rep = odesolve(x0.ravel(), 0.0, self.t1,
                       vf.value_field(self.spec, self.theta, x0.shape), self.cfg.solver)
        return rep.terminal_state.reshape(x0.shape), rep

    def draw_batch(self) -> tuple[np.ndarray, TerminalLoss]:
        """Next minibatch: its positions in the training split and its loss."""
        size = min(self.cfg.batch_size, self.ds.n_train)
        pos = self.batch_rng.choice(self.ds.n_train, size=size, replace=False)
        return pos, self.loss_on(self.ds.train_idx[pos])

    def loss_on(self, idx: np.ndarray) -> TerminalLoss:
        """The run's loss on the samples ``idx``."""
        return TerminalLoss(target=self.ds.labels[idx], readout=self.readout)

    def evaluate(self, idx: np.ndarray, x1: np.ndarray | None = None) -> tuple[float, float]:
        """Loss and accuracy on ``idx``; solves forward unless given its terminal states."""
        if x1 is None:
            x1, _ = self.forward(self.ds.inputs[idx])
        at = self.loss_on(idx).at(x1)    # one set of logits for both
        return loss_value(at), accuracy(at)

    def terminal(self, at: LossAt) -> tuple[np.ndarray, TerminalCurvature | None]:
        """What the backward sweep starts from, read off the minibatch's loss ``at``.

        Returns the terminal-loss gradient and, for the second-order rule,
        the terminal curvature (None for first order).
        """
        if self.cfg.optimizer.kind == "snopt":
            curv = terminal_curvature(at, self.t1, mode=self.cfg.loss.curvature)
            return curv.grad, curv
        return grad_x1(at), None

    def backward(self, x1: np.ndarray, phi_grad: np.ndarray, curv: TerminalCurvature | None,
                 ) -> tuple[np.ndarray, KroneckerFactors | None, SolveReport]:
        """The factor sweep (given a curvature) or the adjoint from the minibatch's ``x1``.

        Returns the parameter gradient, the Kronecker factors (None for
        first order) and the solve report.
        """
        cfg = self.cfg
        if curv is not None:
            factors, grad, rep = accumulate_factors(self.spec, self.theta, x1, curv, self.t1,
                                                    cfg.solver)
            return grad, factors, rep
        grads, _, _, rep = adjoint_gradient(self.spec, self.theta, x1, phi_grad, self.t1,
                                            cfg.solver)
        return grads[0], None, rep

    def iterate(self, it: int, started: float) -> TrainRecord:
        """Training iteration ``it``; ``started`` is the run's start on the perf clock.

        Its arrays (the gradient, the factors, the backward report) die
        with the call, so none of them stays alive through the next
        iteration's forward solve.
        """
        cfg, opt = self.cfg, self.cfg.optimizer
        gamma = opt.weight_decay
        pos, lossfn = self.draw_batch()
        x_train, rep_fwd = self.forward(self.ds.inputs[self.ds.train_idx])
        nfe_fwd, x1 = rep_fwd.nfe, x_train[pos]
        train_loss, train_acc = self.evaluate(self.ds.train_idx, x_train)
        # the backward sweep needs only the minibatch rows
        del x_train, rep_fwd
        if not np.isfinite(train_loss):
            raise NonFiniteState(f"train loss {train_loss}")
        if self.first_loss is None:
            self.first_loss = train_loss
        if train_loss > DIVERGENCE_FACTOR * self.first_loss:
            raise Diverged(f"train loss {train_loss:.3g} is over {DIVERGENCE_FACTOR:g} times "
                           f"the first iteration's {self.first_loss:.3g}")

        # one softmax of the minibatch feeds the sweep's terminal values and
        # the readout update; the readout takes its step before the sweep,
        # which reads neither, so only the terminal values stay alive
        # through the sweep.  The sweep's peak is not always the iteration's:
        # sampled under tracemalloc (numpy 2.4), the full-train solve's
        # 400-row field evaluation reaches about 208 KiB on every benchmark
        # workload, against 183 KiB in the adjoint sweep and 201 KiB in the
        # gauss_newton_scaled factor sweep; only the exact_rank sweep's
        # weighted factor integrand reaches as high
        at = lossfn.at(x1)
        phi_grad, curv = self.terminal(at)
        if self.readout is not None:
            d_w, d_b = readout_grads(at)
            self.readout.weight = adam_step(self.ro_w_state, d_w + gamma * self.readout.weight,
                                            self.readout.weight, opt.readout_lr)
            self.readout.bias = adam_step(self.ro_b_state, d_b, self.readout.bias, opt.readout_lr)
            del d_w, d_b
        del at

        theta_before = self.theta
        grad, factors, rep_bwd = self.backward(x1, phi_grad, curv)
        grad = apply_weight_decay(grad, gamma, self.theta)
        if opt.kind == "snopt":
            # the decay's curvature γI shifts the damping
            self.theta = snopt_step(self.spec, factors, grad, self.theta, opt.lr,
                                    opt.epsilon + gamma)
        elif opt.kind == "adam":
            self.theta = adam_step(self.opt_state, grad, self.theta, opt.lr)
        else:
            self.theta = sgd_step(self.opt_state, grad, self.theta, opt.lr)

        if cfg.horizon.enabled:
            # x1 and phi_grad were reached at the pre-update parameters
            self.horizon = average(self.horizon, horizon_terms(
                self.spec, theta_before, x1, phi_grad, self.t1, cfg.horizon.penalty))
            if it % cfg.horizon.period == 0:
                if cfg.horizon.policy == "feedback":
                    self.t1 = horizon_step(self.horizon, cfg.horizon, self.t1, grad,
                                           self.theta - theta_before)
                else:
                    self.t1 = first_order_horizon_step(self.horizon, cfg.horizon, self.t1)

        test_loss = test_acc = float("nan")
        if (it % cfg.eval_every == 0 or it == cfg.iterations) and self.ds.test_idx.size:
            test_loss, test_acc = self.evaluate(self.ds.test_idx)
        return TrainRecord(
            iteration=it, wall_clock_s=time.perf_counter() - started,
            train_loss=train_loss, train_acc=train_acc,
            test_loss=test_loss, test_acc=test_acc,
            nfe_fwd=nfe_fwd, nfe_bwd=rep_bwd.nfe, t1=self.t1)


def train(config: ExperimentConfig, on_iteration=None) -> list[TrainRecord]:
    """Run the configured experiment and return one record per iteration.

    ``on_iteration(iteration, run)`` is called after each update with the
    live run state, for sampling internals (for example ``run.horizon``,
    the :class:`HorizonTerms` moving average of the horizon policy, None
    with the horizon off) or timing iterations.
    """
    records: list[TrainRecord] = []
    # an overflow or a NaN, in the dataset's draw or in an iteration, reaches
    # one of the finiteness checks, which abort with their own message;
    # numpy need not warn of it first
    with np.errstate(over="ignore", invalid="ignore"):
        run = _Run(config)
        started = time.perf_counter()
        for it in range(1, config.iterations + 1):
            try:
                records.append(run.iterate(it, started))
            except NUMERIC_FAILURES as exc:
                raise TrainAbort(it, f"{type(exc).__name__}: {exc}") from exc
            if on_iteration is not None:
                on_iteration(it, run)
    return records


def memory_probe(config: ExperimentConfig) -> int:
    """Peak live state of the first iteration's backward pass, in array elements.

    Read off the backward report: the packed ODE state ``train`` carries
    plus the quadrature the solve carries beside it (the gradient, and for
    the second-order rule the packed factor integrand), so the number is
    independent of solver tolerance and step counts by construction — the
    test suite checks that, not this docstring.
    """
    run = _Run(config)
    pos, lossfn = run.draw_batch()
    x1 = run.forward(run.ds.inputs[run.ds.train_idx])[0][pos]
    rep = run.backward(x1, *run.terminal(lossfn.at(x1)))[2]
    return rep.terminal_state.size + rep.quadrature.size
