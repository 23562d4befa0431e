"""Backward sweeps at O(1) memory.

Every backward pass in the package integrates one augmented ODE from t1
down to t0, packed into one flat vector

    [x | a, q_1..q_R | g | p_1..p_R]

``x`` is the state replay, ``a`` the adjoint, ``q_i`` the rank vectors of
the second-order rule (each obeys the adjoint's ODE), ``g`` the gradient
integral and ``p_i`` the parameter coupling of ``q_i``.  The ``1 + R``
cotangent groups share one reverse traversal per field evaluation, so a
stage costs one forward and one reverse pass whatever R is.  The plain
adjoint is R = 0; the Kronecker-factor sweep carries the ``q_i`` without
the ``p_i``; the low-rank sweep carries both.  The vector has
``batch*m*(2+R) + n*(1+R)`` entries with the couplings and
``batch*m*(2+R) + n`` without, regardless of how many steps the solver
takes.
"""

from __future__ import annotations

import numpy as np

from . import vector_field as vf
from .odesolve import SolveReport, SolverConfig, odesolve


class BackwardSweep:
    """Layout of the packed backward state and its forward-time derivative."""

    def __init__(self, spec: vf.MlpSpec, theta: np.ndarray, batch: int, rank: int = 0,
                 couplings: bool = False):
        self.spec = spec
        self.weights = vf.unpack_params(spec, theta)
        self.batch, self.m = batch, spec.state_dim
        self.x_len = batch * self.m
        self.groups = 1 + rank
        self.param_rows = self.groups if couplings else 1
        # a lone adjoint stays 2-D: a stacked traversal costs a few µs more per evaluation
        self.cot_shape = (self.groups, batch, self.m) if rank else (batch, self.m)

    @classmethod
    def seeded(cls, spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray, a1: np.ndarray,
               qs=(), couplings: bool = False) -> tuple["BackwardSweep", np.ndarray]:
        """The sweep plus its terminal state at ``x1``.

        The adjoint ``a1`` and each rank vector in ``qs`` broadcast against
        the (batch, m) terminal states; ``g`` and the ``p_i`` start at zero.
        """
        x1 = np.atleast_2d(np.asarray(x1, dtype=float))
        if x1.ndim != 2 or x1.shape[1] != spec.state_dim:
            raise ValueError(f"terminal states {x1.shape} do not match width {spec.state_dim}")
        sweep = cls(spec, theta, x1.shape[0], len(qs), couplings)
        cot = np.stack([np.broadcast_to(np.atleast_2d(v), x1.shape) for v in (a1, *qs)])
        return sweep, sweep.pack(x1, cot, np.zeros((sweep.param_rows, vf.num_params(spec))))

    def pack(self, x: np.ndarray, cot: np.ndarray, params: np.ndarray) -> np.ndarray:
        return np.concatenate([x.ravel(), cot.ravel(), params.ravel()])

    def unpack(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of ``x`` (batch, m), ``[a, q_i]`` and ``[g, p_i]`` (rows, n).

        The cotangents are (1+R, batch, m), or the adjoint alone as
        (batch, m) when R = 0.
        """
        bm = self.x_len
        cut = bm * (1 + self.groups)
        return (y[:bm].reshape(self.batch, self.m),
                y[bm:cut].reshape(self.cot_shape),
                y[cut:].reshape(self.param_rows, -1))

    def stage(self, t: float, y: np.ndarray,
              ) -> tuple[np.ndarray, vf.LayerTrace, list[np.ndarray]]:
        """The derivative at ``(t, y)``, plus the forward trace and the
        per-layer cotangents of every group that it was computed from, so
        an integrand can be read off the same two passes."""
        x, cot, _ = self.unpack(y)
        trace = vf._forward(self.spec, self.weights, t, x)
        gs, r = vf._cotangents(self.spec, self.weights, trace, cot)
        # without couplings only the adjoint group feeds the gradient
        param_gs = [g[0] for g in gs] if self.param_rows == 1 and self.groups > 1 else gs
        dparams = vf._param_grad_from_cotangents(self.spec, trace, param_gs)
        # a time input column is not part of the state: drop its cotangent
        return self.pack(trace.zs[-1], -r[..., :self.m], -dparams), trace, gs

    def field(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.stage(t, y)[0]


def adjoint_gradient(spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray, a1: np.ndarray,
                     t0: float, t1: float, cfg: SolverConfig, use_semi: bool = True,
                     probe: dict | None = None,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveReport]:
    """Loss gradient by integrating the adjoint system from t1 back to t0.

    ``a1`` is the terminal-loss gradient at ``x1`` (per sample).  Returns
    the flat parameter gradient, the reconstructed initial state, the
    adjoint at t0, and the solve report.  The error norm scores the state
    replay, or with ``use_semi=False`` the whole packed state.
    """
    if np.shape(a1) != np.shape(x1):
        raise ValueError(f"state/adjoint shapes {np.shape(x1)}/{np.shape(a1)} differ")
    sweep, y1 = BackwardSweep.seeded(spec, theta, x1, a1)
    if probe is not None:
        probe["state_elements"] = int(y1.size)
    report = odesolve(y1, t1, t0, sweep.field, cfg,
                      scored=sweep.x_len if use_semi else None)
    x0, a0, params = sweep.unpack(report.terminal_state)
    if np.ndim(x1) == 1:
        x0, a0 = x0[0], a0[0]
    return params[0].copy(), x0, a0, report
