"""Backward sweeps at O(1) memory.

Every backward pass in the package integrates one augmented ODE from t1
down to t0.  Its state is the one flat vector

    [x | a, q_1..q_R]

``x`` is the state replay, ``a`` the adjoint and ``q_i`` the rank vectors
of the second-order rule (each obeys the adjoint's ODE).  These are the
only channels that feed back into the field, and the state has
``batch*m*(2+R)`` entries regardless of how many steps the solver takes.

What a sweep integrates besides is its one variable: an integrand read
off each stage's forward trace and per-layer cotangents, which rides as
the solve's quadrature (``odesolve(..., quadrature=)``).  A quadrature
never enters the stage storage or the error norm, and the solver runs the
integrand only at the stages whose weight it uses (Kidger, Chen & Lyons,
arXiv:2009.09457).  :func:`adjoint_gradient` integrates the gradient of
every group, ``[g | p_1..p_R]``: the loss gradient ``g`` and, given rank
vectors, their parameter couplings ``p_i``, whose products ``QᵀQ``,
``QᵀP`` and ``PᵀP`` are the low-rank curvature blocks.  The
Kronecker-factor sweep integrates the gradient and the factors.  The
``1 + R`` cotangent groups share one reverse traversal per field
evaluation, so a stage costs one forward and one reverse pass whatever R
is.

A sweep allocates its stage buffers once per solve: the layer inputs of
the forward trace, with the bias's ones columns set once, which every
stage overwrites.  That relies on ``odesolve`` calling each stage's
integrand before the field's next evaluation or never.  Each stage's
derivative ``[F | -r]`` is written into one new array, which the solver
keeps as its stage.
"""

from __future__ import annotations

import numpy as np

from . import vector_field as vf
from .odesolve import SolveReport, SolverConfig, odesolve


class BackwardSweep:
    """The backward state seeded at ``x1`` and its quadrature field.

    The adjoint ``a1`` and each rank vector in ``qs`` broadcast against the
    (batch, m) terminal states ``x1``; ``state`` is the packed terminal
    state, built from copies.
    """

    def __init__(self, spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray, a1: np.ndarray,
                 qs=()):
        x1 = vf.check_states(spec, x1)
        self._spec = spec
        self._weights = vf.unpack_params(spec, theta)
        self._x_shape = x1.shape
        # a lone adjoint stays 2-D: a stacked traversal costs a few µs more per evaluation
        self._cot_shape = (1 + len(qs), *x1.shape) if len(qs) else x1.shape
        self.x_len = x1.size
        cot = np.stack([np.broadcast_to(v, x1.shape) for v in (a1, *qs)])
        self.state = np.concatenate([x1.ravel(), cot.ravel()])

    def unpack(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``x`` (batch, m) and ``[a, q_i]``.

        The cotangents are (1+R, batch, m), or the adjoint alone as
        (batch, m) when R = 0.
        """
        return y[:self.x_len].reshape(self._x_shape), y[self.x_len:].reshape(self._cot_shape)

    def field(self, integrand):
        """The ``odesolve`` quadrature field of the sweep.

        At each stage the derivative comes from one forward and one reverse
        pass, and ``dq`` is ``integrand(trace, gs)`` on that stage's forward
        trace and per-layer cotangents of every group.  Each call of
        ``field`` allocates the layer inputs that all its stages' traces
        are written into (see the module docstring).
        """
        spec, weights, m = self._spec, self._weights, self._x_shape[1]
        inputs = vf._trace_inputs(spec, self._x_shape[0])

        def fn(t: float, y: np.ndarray):
            x, cot = self.unpack(y)
            dy = np.empty_like(y)
            value, dcot = self.unpack(dy)
            trace = vf._forward(spec, weights, t, x, inputs=inputs, out=value)
            gs, r = vf._cotangents(spec, weights, trace, cot)
            # a time input column is not part of the state: drop its cotangent
            np.negative(r[..., :m], out=dcot)
            return dy, lambda: integrand(trace, gs)

        return fn


def adjoint_gradient(spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray, a1: np.ndarray,
                     t0: float, t1: float, cfg: SolverConfig, qs=(),
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveReport]:
    """Loss gradient by integrating the adjoint system from t1 back to t0.

    ``a1`` is the terminal-loss gradient at the (batch, m) states ``x1``.  Returns
    the flat parameter gradient, the reconstructed initial state, the
    adjoint at t0, and the solve report.  The error norm scores the state
    replay; the gradient is the quadrature, which no norm scores.

    With R rank vectors ``qs``, the gradients are (1+R, n), the loss
    gradient then each coupling ``p_i``, and the cotangents at t0 are
    ``[a, q_1..q_R]``, (1+R, batch, m).  Group 0 is bit for bit the lone
    adjoint's.
    """
    if np.shape(a1) != np.shape(x1):
        raise ValueError(f"state/adjoint shapes {np.shape(x1)}/{np.shape(a1)} differ")
    sweep = BackwardSweep(spec, theta, x1, a1, qs)
    fn = sweep.field(lambda trace, gs: vf._param_grad_from_cotangents(spec, trace, gs).ravel())
    report = odesolve(sweep.state, t1, t0, fn, cfg, scored=sweep.x_len,
                      quadrature=np.zeros((1 + len(qs)) * vf.num_params(spec)))
    x0, cot = sweep.unpack(report.terminal_state)
    # the solve runs from t1 down to t0, so it subtracts the integral; each
    # cotangent group has its row of gradients
    return -report.quadrature.reshape(*cot.shape[:-2], -1), x0, cot, report
