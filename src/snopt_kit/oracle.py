"""Independent brute-force references for the analytic sweeps.

One central difference, :func:`fd_gradient`, provides the ground-truth
surrogate for every gradient and curvature check: it differences the loss
for the gradient, the terminal state for the flow Jacobian and the loss
in the horizon for dL/dT.  :func:`flow` is the one forward solve it
differences, through the field training integrates
(:func:`vector_field.value_field`), and :func:`error_study` tabulates how
far the backward sweep drifts from these references as the solver
tolerances vary.  Finite differencing assumes a smooth field, so these
references are only valid for tanh networks.

:func:`dense_sweep` is the desk-scale reference for the low-rank
curvature blocks: it integrates the full matrix system (gradient pieces,
the state-state, state-parameter and parameter-parameter blocks) jointly
with the state replay, exact for the linearized dynamics, quadratic in
the problem sizes, for a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vector_field as vf
from .adjoint import adjoint_gradient
from .kfac import triu_flat, triu_unpack
from .loss import TerminalCurvature, TerminalLoss, loss_value, terminal_curvature
from .odesolve import SolverConfig, odesolve

# ground-truth surrogate solver for the error study
REFERENCE_CFG = SolverConfig(method="dopri5", rtol=1e-12, atol=1e-12, max_steps=10_000_000)
# central-difference step of every finite-difference reference
FD_STEP = 1e-5


def flow(spec: vf.MlpSpec, theta: np.ndarray, x0: np.ndarray, t0: float, t1: float,
         cfg: SolverConfig) -> np.ndarray:
    """Terminal states at ``t1`` of the (batch, m) states ``x0`` at ``t0``."""
    x0 = vf.check_states(spec, x0)
    return odesolve(x0.ravel(), t0, t1, vf.value_field(spec, theta, x0.shape),
                    cfg).terminal_state.reshape(x0.shape)


def fd_gradient(fn, theta: np.ndarray) -> np.ndarray:
    """Central differences of ``fn`` in each entry of the flat ``theta``,
    stacked on a leading axis of ``theta.size``: the gradient of a scalar
    ``fn``, the transposed Jacobian of an array-valued one."""
    theta = np.asarray(theta, dtype=float)
    steps = FD_STEP * np.eye(theta.size)
    return np.array([(fn(theta + step) - fn(theta - step)) / (2 * FD_STEP) for step in steps])


@dataclass
class DenseCurvatureState:
    """All cost-to-go derivatives at t0 from the matrix sweep."""

    qx: np.ndarray      # (1, m)
    qu: np.ndarray      # (n,) gradient
    qxx: np.ndarray     # (m, m) symmetric
    qxu: np.ndarray     # (m, n)
    quu: np.ndarray     # (n, n) symmetric


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
    _, qx, qu, qxx, qxu, quu = unpack(odesolve(y1, t1, t0, field, cfg).terminal_state)
    return DenseCurvatureState(qx=qx[None].copy(), qu=qu.copy(), qxx=qxx, qxu=qxu.copy(),
                               quu=quu)


@dataclass
class ErrorRow:
    label: str
    method: str
    tolerance: float
    grad_error: float
    curvature_error: float


def _rel(err_vec: np.ndarray, ref: np.ndarray) -> float:
    denom = np.linalg.norm(ref)
    return float(np.linalg.norm(err_vec - ref) / (denom if denom > 0 else 1.0))


def error_study(spec: vf.MlpSpec, theta: np.ndarray, x0: np.ndarray,
                lossfn: TerminalLoss, solver_cfgs: list[tuple[str, SolverConfig]],
                ) -> list[ErrorRow]:
    """Relative errors of both derivative orders per solver setting, over [0, 1],
    from the batch of one ``x0``.

    For each entry, the forward pass and one backward sweep run at that
    setting, the sweep under the error norm training uses (the state
    replay) with the terminal Hessian's factors as its rank vectors: its
    row 0 is the gradient and its couplings ``P`` give the curvature
    ``PᵀP``.  The references are a finite-difference gradient (over
    tightly solved forward passes) and the Gauss-Newton curvature built
    from a finite-difference flow Jacobian.
    """
    t0, t1 = 0.0, 1.0
    x1_ref = flow(spec, theta, x0, t0, t1, REFERENCE_CFG)
    curv_ref = terminal_curvature(lossfn.at(x1_ref), t0, t1, mode="exact_rank")
    phi_xx = curv_ref.hessian()

    grad_ref = fd_gradient(
        lambda th: loss_value(lossfn.at(flow(spec, th, x0, t0, t1, REFERENCE_CFG))), theta)
    jac = fd_gradient(lambda th: flow(spec, th, x0, t0, t1, REFERENCE_CFG)[0], theta).T
    quu_ref = jac.T @ phi_xx @ jac

    rows = []
    for label, cfg in solver_cfgs:
        x1 = flow(spec, theta, x0, t0, t1, cfg)
        curv = terminal_curvature(lossfn.at(x1), t0, t1, mode="exact_rank")
        grads, _, _, _ = adjoint_gradient(spec, theta, x1, curv.grad, t0, t1, cfg,
                                          qs=curv.rank_vectors())
        grad, p = grads[0], grads[1:]
        quu = p.T @ p
        tol = cfg.fixed_step if cfg.method in ("euler", "rk4") else cfg.rtol
        rows.append(ErrorRow(
            label=label, method=cfg.method, tolerance=float(tol),
            grad_error=_rel(grad, grad_ref),
            curvature_error=float(np.linalg.norm(quu - quu_ref) / np.linalg.norm(quu_ref)),
        ))
    return rows


def write_error_study_csv(rows: list[ErrorRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("label,method,tolerance,grad_error,curvature_error\n")
        for r in rows:
            fh.write(f"{r.label},{r.method},{r.tolerance:.17g},"
                     f"{r.grad_error:.17g},{r.curvature_error:.17g}\n")


def format_error_study_markdown(rows: list[ErrorRow]) -> str:
    lines = ["| solver | tolerance | first-order error | second-order error |",
             "|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r.label} | {r.tolerance:.1e} | "
                     f"{r.grad_error:.3e} | {r.curvature_error:.3e} |")
    return "\n".join(lines) + "\n"
