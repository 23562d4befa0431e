"""Second-order backward sweeps.

Two routes to the same curvature:

* :func:`dense_sweep` integrates the full matrix system — gradient pieces,
  the state-state block, the state-parameter block, and the
  parameter-parameter block — jointly with the state replay.  It is the
  desk-scale reference: exact for the linearized dynamics, quadratic in
  the problem sizes, for a batch of one.

* :func:`lowrank_sweep` replaces the matrix system with independent vector
  pairs ``(q_i, p_i)`` seeded by a rank factorization of the terminal
  Hessian.  Each ``q_i`` obeys the same backward ODE as the adjoint and
  each ``p_i`` accumulates the parameter coupling, so the reconstructions
  ``sum q q^T``, ``sum q p^T``, ``sum p p^T`` reproduce the dense blocks.
  It runs the shared :class:`adjoint.BackwardSweep`: the ``q_i`` are ODE
  state, and its integrand is the gradient of every cotangent group, so
  the quadrature is ``[g | p_1..p_R]``.  It is checked against
  :func:`dense_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vector_field as vf
from .loss import TerminalCurvature
from .numerics import triu_flat, triu_unpack
from .odesolve import SolveReport, SolverConfig, odesolve
from .adjoint import BackwardSweep


@dataclass
class DenseCurvatureState:
    """All cost-to-go derivatives at t0 from the matrix sweep."""

    x0: np.ndarray      # (1, m)
    qx: np.ndarray      # (1, m)
    qu: np.ndarray      # (n,) gradient
    qxx: np.ndarray     # (m, m) symmetric
    qxu: np.ndarray     # (m, n)
    quu: np.ndarray     # (n, n) symmetric
    report: SolveReport


def dense_sweep(spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray,
                curv: TerminalCurvature, t0: float, t1: float,
                cfg: SolverConfig) -> DenseCurvatureState:
    """Backward matrix sweep from the terminal state ``x1`` of a batch of one,
    seeded by the terminal gradient and Hessian.

    Only the upper triangles of the two symmetric blocks are carried;
    they are symmetrized on read.  The off-diagonal parameter-state block
    is the transpose of the state-parameter block throughout, so only one
    is integrated.
    """
    m, n = spec.state_dim, vf.num_params(spec)
    x1v, gradv = vf.one_sample(x1, "x1"), vf.one_sample(curv.grad, "the terminal gradient")
    phi_xx = curv.hessian()

    txx = m * (m + 1) // 2
    tuu = n * (n + 1) // 2
    sizes = [m, m, n, txx, m * n, tuu]
    offsets = np.cumsum([0] + sizes)

    def pack(x, qx, qu, qxx, qxu, quu):
        return np.concatenate([x, qx, qu, qxx.ravel()[triu_flat(m)], qxu.ravel(),
                               quu.ravel()[triu_flat(n)]])

    def unpack(y):
        parts = [y[offsets[i]:offsets[i + 1]] for i in range(6)]
        return (parts[0], parts[1], parts[2], triu_unpack(parts[3], m),
                parts[4].reshape(m, n), triu_unpack(parts[5], n))

    def field(t, y):
        x, qx, qu, qxx, qxu, _ = unpack(y)
        f, fx, fu = vf.jacobians(spec, theta, t, x)
        dqx = -(fx.T @ qx)
        dqu = -(fu.T @ qx)
        dqxx = -(fx.T @ qxx + qxx @ fx)
        dqxu = -(qxx @ fu + fx.T @ qxu)
        fuqxu = fu.T @ qxu
        dquu = -(fuqxu + fuqxu.T)
        return pack(f, dqx, dqu, dqxx, dqxu, dquu)

    y1 = pack(x1v, gradv, np.zeros(n), phi_xx, np.zeros((m, n)), np.zeros((n, n)))
    report = odesolve(y1, t1, t0, field, cfg)
    x0, qx, qu, qxx, qxu, quu = unpack(report.terminal_state)
    return DenseCurvatureState(x0=x0[None].copy(), qx=qx[None].copy(), qu=qu.copy(),
                               qxx=qxx, qxu=qxu.copy(), quu=quu, report=report)


@dataclass
class LowRankCurvatureState:
    """Vector-pair representation of the curvature at t0.

    ``qs[i]`` keeps the batch axis; ``ps[i]`` and the gradient are
    batch-mean reduced, mirroring the expectation in the gradient
    integral.  The solve carries ``batch*m*(2+R)`` state entries and a
    quadrature of ``n*(1+R)`` — no matrix ever rides along.
    """

    x0: np.ndarray
    qx: np.ndarray
    qu: np.ndarray
    qs: list[np.ndarray]
    ps: list[np.ndarray]
    report: SolveReport

    def _sample_qs(self) -> list[np.ndarray]:
        return [vf.one_sample(q, "a rank vector") for q in self.qs]

    def recon_qxx(self) -> np.ndarray:
        return sum(np.outer(q, q) for q in self._sample_qs())

    def recon_qxu(self) -> np.ndarray:
        return sum(np.outer(q, p) for q, p in zip(self._sample_qs(), self.ps))

    def recon_quu(self) -> np.ndarray:
        return sum(np.outer(p, p) for p in self.ps)


def lowrank_sweep(spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray,
                  curv: TerminalCurvature, t0: float, t1: float,
                  cfg: SolverConfig) -> LowRankCurvatureState:
    """Backward sweep of R independent vector pairs plus the gradient path.

    The solve's error norm scores the state replay ``x``, as every
    backward sweep does; the gradient and the couplings are its
    quadrature, which no norm scores.
    """
    if len(curv.factors) < 1:
        raise ValueError("need at least one terminal factor")
    sweep = BackwardSweep(spec, theta, x1, curv.grad, curv.factors)
    fn = sweep.field(lambda trace, gs: vf._param_grad_from_cotangents(spec, trace, gs).ravel())
    groups = 1 + len(curv.factors)
    report = odesolve(sweep.state, t1, t0, fn, cfg, scored=sweep.x_len,
                      quadrature=np.zeros(groups * vf.num_params(spec)))
    x0, cot = sweep.unpack(report.terminal_state)
    # the solve runs from t1 down to t0, so it subtracts the integral
    params = -report.quadrature.reshape(groups, -1)
    return LowRankCurvatureState(x0=x0.copy(), qx=cot[0].copy(), qu=params[0],
                                 qs=[q.copy() for q in cot[1:]],
                                 ps=list(params[1:]), report=report)

