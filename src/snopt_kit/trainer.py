"""Training loop: forward solve, backward sweep, update, metrics.

One iteration is one forward solve over the full training split plus one
backward sweep on a minibatch: the factor-accumulating sweep for the
second-order rule, the plain adjoint for the first-order baselines.  The
minibatch is a subset of the training split, so its terminal states are
rows of that one solve, which also gives the train metrics at the
pre-update parameters; a zero learning rate therefore yields a constant
loss sequence.  The readout (when present) is updated in the same
iteration by Adam; its curvature is never tracked.  Test
metrics run on the evaluation cadence and on the final iteration.

The dataset (``data.DatasetConfig``) states the task and the loss follows
from its labels (``loss.TerminalLoss``): class labels take softmax_ce
through a readout of one row per class (or on the state with
``loss.readout`` off), and regression targets take mse on the state.

Randomness is split into three Philox streams derived from the run seed:
the dataset, parameter/readout initialization (seed+1), and batch
sampling (seed+2).  Two runs with the same config produce identical
records up to wall-clock fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import vector_field as vf
from .adjoint import adjoint_gradient
from .data import INPUT_DIM, DatasetConfig, build_dataset
from .horizon import (HorizonConfig, HorizonState, NonFiniteUpdate, first_order_horizon_step,
                      horizon_step, horizon_terms)
from .kfac import KroneckerFactors, accumulate_factors
from .loss import (CURVATURE_MODES, LossAt, TerminalCurvature, TerminalLoss, accuracy, grad_x1,
                   init_readout, loss_value, readout_grads, terminal_curvature)
from .odesolve import MaxStepsExceeded, NonFiniteState, SolveReport, SolverConfig, odesolve
from .optimizer import (AdamState, SgdState, SingularFactor, SnoptState, adam_step,
                        apply_weight_decay, sgd_step, snopt_step)
from .vector_field import MlpSpec as ModelConfig

# Numeric failures of one iteration; ``train`` re-raises each as ``TrainAbort``.
NUMERIC_FAILURES = (NonFiniteState, MaxStepsExceeded, SingularFactor, NonFiniteUpdate)


class TrainAbort(RuntimeError):
    """Training hit a numeric failure (see ``NUMERIC_FAILURES``); carries the failing iteration."""

    def __init__(self, iteration: int, cause: str):
        super().__init__(f"training aborted at iteration {iteration}: {cause}")
        self.iteration = iteration


def _check_choice(what: str, value: str, choices: tuple[str, ...]):
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {', '.join(choices)}")


@dataclass(frozen=True)
class LossConfig:
    # the dataset sets the loss: softmax_ce on class labels, mse on regression targets
    readout: bool = True             # an affine row per class before the softmax
    curvature: str = "gauss_newton_scaled"

    def __post_init__(self):
        _check_choice("curvature mode", self.curvature, CURVATURE_MODES)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"               # adam | sgd | snopt
    lr: float = 1e-3
    weight_decay: float = 0.0
    epsilon: float = 0.05            # snopt Tikhonov damping
    amortization: float = 0.75       # snopt eigenbasis EMA
    momentum: float = 0.9            # sgd
    readout_lr: float = 0.01         # Adam on the readout, whose scale differs from the ODE's

    def __post_init__(self):
        _check_choice("optimizer", self.kind, ("adam", "sgd", "snopt"))
        # checked whatever the kind, so a grid may switch kinds in any order
        SnoptState(lr=self.lr, epsilon=self.epsilon, amortization=self.amortization)
        # zero rates stay valid: they freeze the ODE or the readout
        if not (0 <= self.lr < np.inf and 0 <= self.readout_lr < np.inf):
            raise ValueError("need finite optimizer lr >= 0 and readout_lr >= 0")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("need a finite optimizer weight_decay >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("need 0 <= optimizer momentum < 1")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    t0: float = 0.0
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
        if not -np.inf < self.t0 < self.t1 < np.inf:
            raise ValueError(f"need finite t1 > t0, got [{self.t0}, {self.t1}]")
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
        classes, width = self.dataset.n_classes, self.model.state_dim
        if width != INPUT_DIM:
            raise ValueError(f"model state width {width} differs from the dataset's "
                             f"{INPUT_DIM} input features")
        outputs = classes if self.loss.readout else width
        if classes and outputs < 2:
            # a one-output softmax is constant: its loss, gradient and Hessian are 0
            raise ValueError(f"softmax_ce needs at least 2 outputs, the readout has {outputs}")
        if classes > outputs:
            raise ValueError(f"dataset {self.dataset.kind} has {classes} classes but the state "
                             f"(no readout) has {outputs} outputs")
        if self.horizon.enabled and not self.t0 < self.horizon.t_min:
            # the bound may be driven down to t_min, and the flow needs t1 > t0
            raise ValueError(f"need t0 < horizon t_min with the horizon enabled, got t0 = "
                             f"{self.t0}, t_min = {self.horizon.t_min}")
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
                        if classes and cfg.loss.readout else None)
        self.batch_rng = np.random.Generator(np.random.Philox(cfg.seed + 2))
        self.t1 = cfg.t1

        kind = cfg.optimizer.kind
        if kind == "snopt":
            # the decay's curvature γI shifts the damping
            self.opt_state = SnoptState(
                lr=cfg.optimizer.lr, epsilon=cfg.optimizer.epsilon + cfg.optimizer.weight_decay,
                amortization=cfg.optimizer.amortization)
        elif kind == "adam":
            self.opt_state = AdamState(lr=cfg.optimizer.lr)
        else:
            self.opt_state = SgdState(lr=cfg.optimizer.lr, momentum=cfg.optimizer.momentum)

        ro_lr = cfg.optimizer.readout_lr
        self.ro_w_state, self.ro_b_state = AdamState(lr=ro_lr), AdamState(lr=ro_lr)

        self.horizon = HorizonState(cfg.horizon) if cfg.horizon.enabled else None

    def forward(self, x0: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        batch, m = x0.shape
        weights = vf.unpack_params(self.spec, self.theta)

        def fld(t, y):
            return vf._forward(self.spec, weights, t, y.reshape(batch, m),
                               value_only=True)[-1].ravel()

        rep = odesolve(x0.ravel(), self.cfg.t0, self.t1, fld, self.cfg.solver)
        return rep.terminal_state.reshape(batch, m), rep

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
            curv = terminal_curvature(at, self.cfg.t0, self.t1, mode=self.cfg.loss.curvature)
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
            factors, grad, rep = accumulate_factors(self.spec, self.theta, x1, curv, cfg.t0,
                                                    self.t1, cfg.solver)
            return grad, factors, rep
        grads, _, _, rep = adjoint_gradient(self.spec, self.theta, x1, phi_grad, cfg.t0,
                                            self.t1, cfg.solver)
        return grads[0], None, rep

    def iterate(self, it: int, started: float) -> TrainRecord:
        """Training iteration ``it``; ``started`` is the run's start on the perf clock.

        Its arrays (the gradient, the factors, the backward report) die
        with the call, so none of them stays alive through the next
        iteration's forward solve.
        """
        cfg = self.cfg
        gamma = cfg.optimizer.weight_decay
        pos, lossfn = self.draw_batch()
        x_train, rep_fwd = self.forward(self.ds.inputs[self.ds.train_idx])
        nfe_fwd, x1 = rep_fwd.nfe, x_train[pos]
        train_loss, train_acc = self.evaluate(self.ds.train_idx, x_train)
        # the backward sweep needs only the minibatch rows
        del x_train, rep_fwd
        if not np.isfinite(train_loss):
            raise NonFiniteState(f"train loss {train_loss}")

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
                                            self.readout.weight)
            self.readout.bias = adam_step(self.ro_b_state, d_b, self.readout.bias)
            del d_w, d_b
        del at

        theta_before = self.theta
        grad, factors, rep_bwd = self.backward(x1, phi_grad, curv)
        grad = apply_weight_decay(grad, gamma, self.theta)
        if cfg.optimizer.kind == "snopt":
            self.theta = snopt_step(self.opt_state, self.spec, factors, grad, self.theta)
        elif cfg.optimizer.kind == "adam":
            self.theta = adam_step(self.opt_state, grad, self.theta)
        else:
            self.theta = sgd_step(self.opt_state, grad, self.theta)

        if self.horizon is not None:
            # x1 and phi_grad were reached at the pre-update parameters
            self.horizon.observe(horizon_terms(self.spec, theta_before, x1, phi_grad,
                                               self.t1, cfg.horizon.penalty))
            if it % cfg.horizon.period == 0:
                if cfg.horizon.policy == "feedback":
                    self.t1 = horizon_step(self.horizon, self.t1, grad,
                                           self.theta - theta_before)
                else:
                    self.t1 = first_order_horizon_step(self.horizon, self.t1)

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
    live run state, for sampling internals (for example the moving
    averages of the horizon policy) or timing iterations.
    """
    run = _Run(config)
    records: list[TrainRecord] = []
    started = time.perf_counter()
    # an overflow or a NaN reaches one of the finiteness checks, which abort
    # with their own message; numpy need not warn of it first
    with np.errstate(over="ignore", invalid="ignore"):
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
