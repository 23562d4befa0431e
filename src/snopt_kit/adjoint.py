"""Backward sweeps at O(1) memory.

Every backward pass in the package integrates one augmented ODE from t1
down to t0.  Its state is the one flat vector

    [x | a, q_1..q_R]

``x`` is the state replay, ``a`` the adjoint and ``q_i`` the rank vectors
of the second-order rule (each obeys the adjoint's ODE).  These are the
only channels that feed back into the field.  The gradient ``g`` and the
parameter couplings ``p_i`` of the ``q_i`` are plain integrals along the
trajectory, so they ride as the solve's quadrature (``odesolve(...,
quadrature=)``), packed ``[g | p_1..p_R]``: they never enter the stage
storage or the error norm, and the solver computes them only at the
stages whose weight it uses (Kidger, Chen & Lyons, arXiv:2009.09457).

The ``1 + R`` cotangent groups share one reverse traversal per field
evaluation, so a stage costs one forward and one reverse pass whatever R
is.  The plain adjoint is R = 0; the Kronecker-factor sweep carries the
``q_i`` without the ``p_i``; the low-rank sweep carries both.  The state
has ``batch*m*(2+R)`` entries and the quadrature ``n*(1+R)`` with the
couplings or ``n`` without, regardless of how many steps the solver
takes.
"""

from __future__ import annotations

import numpy as np

from . import vector_field as vf
from .odesolve import SolveReport, SolverConfig, odesolve


class BackwardSweep:
    """Layout of the backward state, its forward-time derivative and the
    integrand of its parameter quadrature."""

    def __init__(self, spec: vf.MlpSpec, theta: np.ndarray, batch: int, rank: int = 0,
                 couplings: bool = False):
        self.spec = spec
        self.weights = vf.unpack_params(spec, theta)
        self.batch, self.m = batch, spec.state_dim
        self.x_len = batch * self.m
        self.groups = 1 + rank
        self.param_rows = self.groups if couplings else 1
        self.quad_len = self.param_rows * vf.num_params(spec)
        # a lone adjoint stays 2-D: a stacked traversal costs a few µs more per evaluation
        self.cot_shape = (self.groups, batch, self.m) if rank else (batch, self.m)

    @classmethod
    def seeded(cls, spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray, a1: np.ndarray,
               qs=(), couplings: bool = False) -> tuple["BackwardSweep", np.ndarray]:
        """The sweep plus its terminal state at ``x1``.

        The adjoint ``a1`` and each rank vector in ``qs`` broadcast against
        the (batch, m) terminal states.  The quadrature starts at zero.
        """
        x1 = vf.check_states(spec, x1)
        sweep = cls(spec, theta, x1.shape[0], len(qs), couplings)
        cot = np.stack([np.broadcast_to(v, x1.shape) for v in (a1, *qs)])
        return sweep, sweep.pack(x1, cot)

    def pack(self, x: np.ndarray, cot: np.ndarray) -> np.ndarray:
        return np.concatenate([x.ravel(), cot.ravel()])

    def unpack(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``x`` (batch, m) and ``[a, q_i]``.

        The cotangents are (1+R, batch, m), or the adjoint alone as
        (batch, m) when R = 0.
        """
        bm = self.x_len
        return y[:bm].reshape(self.batch, self.m), y[bm:].reshape(self.cot_shape)

    def stage(self, t: float, y: np.ndarray,
              ) -> tuple[np.ndarray, vf.LayerTrace, list[np.ndarray]]:
        """The derivative at ``(t, y)``, plus the forward trace and the
        per-layer cotangents of every group that it was computed from, so
        an integrand can be read off the same two passes."""
        x, cot = self.unpack(y)
        trace = vf._forward(self.spec, self.weights, t, x)
        gs, r = vf._cotangents(self.spec, self.weights, trace, cot)
        # a time input column is not part of the state: drop its cotangent
        return self.pack(trace.zs[-1], -r[..., :self.m]), trace, gs

    def param_grad(self, trace: vf.LayerTrace, gs: list[np.ndarray]) -> np.ndarray:
        """The flat ``[g | p_i]`` integrand at one stage, before the backward
        solve's sign: the solve subtracts it, so the caller negates the sum."""
        # without couplings only the adjoint group feeds the gradient
        if self.param_rows == 1 and self.groups > 1:
            gs = [g[0] for g in gs]
        return vf._param_grad_from_cotangents(self.spec, trace, gs).ravel()

    def field(self, t: float, y: np.ndarray):
        """The quadrature field ``(dy, integrand)`` of the sweep's ``[g | p_i]``."""
        dy, trace, gs = self.stage(t, y)
        return dy, lambda: self.param_grad(trace, gs)


def adjoint_gradient(spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray, a1: np.ndarray,
                     t0: float, t1: float, cfg: SolverConfig,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveReport]:
    """Loss gradient by integrating the adjoint system from t1 back to t0.

    ``a1`` is the terminal-loss gradient at the (batch, m) states ``x1``.  Returns
    the flat parameter gradient, the reconstructed initial state, the
    adjoint at t0, and the solve report.  The error norm scores the state
    replay; the gradient is the quadrature, which no norm scores.
    """
    if np.shape(a1) != np.shape(x1):
        raise ValueError(f"state/adjoint shapes {np.shape(x1)}/{np.shape(a1)} differ")
    sweep, y1 = BackwardSweep.seeded(spec, theta, x1, a1)
    report = odesolve(y1, t1, t0, sweep.field, cfg, scored=sweep.x_len,
                      quadrature=np.zeros(sweep.quad_len))
    x0, a0 = sweep.unpack(report.terminal_state)
    # the solve runs from t1 down to t0, so it subtracts the integral
    return -report.quadrature, x0, a0, report
