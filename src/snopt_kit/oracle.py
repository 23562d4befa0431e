"""Independent brute-force references for the analytic sweeps.

Central finite differences over the loss and over the flow provide the
ground-truth surrogate for gradient and curvature checks, :func:`flow` is
the one forward solve they difference, and :func:`error_study` tabulates
how far the backward sweeps drift from them as the solver tolerances
vary.  Finite differencing assumes a smooth
field, so these references are only valid for tanh/softplus networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vector_field as vf
from .adjoint import adjoint_gradient
from .curvature import lowrank_sweep
from .loss import TerminalLoss, grad_x1, loss_value, terminal_curvature
from .odesolve import SolverConfig, odesolve

# ground-truth surrogate solver for the error study
REFERENCE_CFG = SolverConfig(method="dopri5", rtol=1e-12, atol=1e-12, max_steps=10_000_000)
# central-difference step of both finite-difference references
FD_STEP = 1e-5


def flow(spec: vf.MlpSpec, theta: np.ndarray, x0: np.ndarray, t0: float, t1: float,
         cfg: SolverConfig) -> np.ndarray:
    """Terminal states at ``t1`` of the (batch, m) states ``x0`` at ``t0``."""
    x0 = vf.check_states(spec, x0)
    weights = vf.unpack_params(spec, theta)
    fld = lambda t, y: vf._forward(spec, weights, t, y.reshape(x0.shape),
                                   value_only=True).zs[-1].ravel()
    return odesolve(x0.ravel(), t0, t1, fld, cfg).terminal_state.reshape(x0.shape)


def fd_gradient(lossfn, theta: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of the parameters."""
    h = FD_STEP
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        grad[i] = (lossfn(theta + step) - lossfn(theta - step)) / (2 * h)
    return grad


def fd_flow_jacobian(spec: vf.MlpSpec, theta: np.ndarray, x0: np.ndarray,
                     t0: float, t1: float, cfg: SolverConfig) -> np.ndarray:
    """Central differences of the terminal state of the batch of one ``x0``
    w.r.t. each parameter: the (m, n) flow Jacobian."""
    h = FD_STEP
    vf.one_sample(x0, "x0")
    jac = np.empty((spec.state_dim, theta.size))
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        jac[:, j] = (flow(spec, theta + step, x0, t0, t1, cfg)[0]
                     - flow(spec, theta - step, x0, t0, t1, cfg)[0]) / (2 * h)
    return jac


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

    For each entry, the forward and backward passes run at that setting,
    the backward sweeps under the error norm training uses (the state
    replay); the references are a finite-difference gradient (over
    tightly solved forward passes) and the Gauss-Newton curvature built
    from a finite-difference flow Jacobian.
    """
    t0, t1 = 0.0, 1.0
    x1_ref = flow(spec, theta, x0, t0, t1, REFERENCE_CFG)
    curv_ref = terminal_curvature(lossfn, x1_ref, t0, t1, mode="exact_rank")
    phi_xx = curv_ref.hessian()

    grad_ref = fd_gradient(
        lambda th: loss_value(lossfn, flow(spec, th, x0, t0, t1, REFERENCE_CFG)), theta)
    jac = fd_flow_jacobian(spec, theta, x0, t0, t1, REFERENCE_CFG)
    quu_ref = jac.T @ phi_xx @ jac

    rows = []
    for label, cfg in solver_cfgs:
        x1 = flow(spec, theta, x0, t0, t1, cfg)
        a1 = grad_x1(lossfn, x1)
        grad, _, _, _ = adjoint_gradient(spec, theta, x1, a1, t0, t1, cfg)
        curv = terminal_curvature(lossfn, x1, t0, t1, mode="exact_rank")
        state = lowrank_sweep(spec, theta, x1, curv, t0, t1, cfg)
        quu = state.recon_quu()
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
