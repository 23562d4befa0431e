"""Kronecker-factor accumulation along the backward time grid.

This is the production second-order sweep.  It integrates the backward
state ``[x | a, q_1..q_R | g]`` of :class:`adjoint.BackwardSweep` (no
parameter couplings) from t1 down to t0 in one solve and reads it at the
points of a uniform grid from the solver's dense output, so the grid
costs no solver steps.  The ``gauss_newton_scaled`` surrogate carries
no rank vector: its ``q_1`` is the adjoint times the curvature's
``adjoint_scale`` at every t, so the sweep runs ``[x | a | g]`` and
rescales ``a`` at the grid points.  At each grid point the layer
activations and backpropagated signals are read off a fresh field
evaluation and folded into per-layer second-moment matrices:

    A_n(t) = mean_b zbar^n zbar^nT          (activation side)
    B_n(t) = mean_b sum_i g^n_i g^n_iT      (signal side)

accumulated as ``Abar_n += A_n(t) dt`` (left-Riemann weights at every grid
point, endpoints included).  ``kron(Abar_n, Bbar_n)`` then approximates the
layer's parameter-space curvature block, and the same sweep also delivers
the exact first-order gradient.

Biases share their layer's block through the homogeneous coordinate: the
activation vector gets a constant 1 appended, matching the flat parameter
layout ``vec([W, b])``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import vector_field as vf
from .loss import TerminalCurvature
from .odesolve import SolveReport, SolverConfig, odesolve
from .adjoint import BackwardSweep


class BadInterval(ValueError):
    pass


@dataclass
class KroneckerFactors:
    """Time-integrated per-layer factors."""

    a_factors: list[np.ndarray]   # per layer: (pbar, pbar)
    b_factors: list[np.ndarray]   # per layer: (l, l)
    extra_damping: float = 0.0    # weight decay folded into the update's eigenbasis

    def with_damping(self, gamma: float) -> "KroneckerFactors":
        return replace(self, extra_damping=self.extra_damping + gamma)


def make_grid(t0: float, t1: float, samples: int) -> np.ndarray:
    """Uniform grid from t1 down to t0 inclusive."""
    if not t1 > t0:
        raise BadInterval(f"need t1 > t0, got [{t0}, {t1}]")
    if samples < 2:
        raise BadInterval("need at least 2 grid samples")
    return np.linspace(t1, t0, samples)


def _factor_terms(spec: vf.MlpSpec, weights: vf.Weights, t: float, x: np.ndarray,
                  qs: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Instantaneous factor matrices A_n(t), B_n(t) at one grid point.

    ``x`` is (batch, m) and ``qs`` stacks the rank vectors as (R, batch, m).
    """
    batch = x.shape[0]
    trace = vf._forward(spec, weights, t, x)
    gs, _ = vf._cotangents(spec, weights, trace, qs)

    a_terms, b_terms = [], []
    zbars = vf.trace_zbars(spec, trace)
    for k in range(spec.n_layers):
        zb = zbars[k]
        a_terms.append(zb.T @ zb / batch)
        g = gs[k].reshape(-1, gs[k].shape[-1])  # (R*batch, l)
        b_terms.append(g.T @ g / batch)
    return a_terms, b_terms


def accumulate_factors(spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray,
                       curv: TerminalCurvature, grid: np.ndarray, cfg: SolverConfig,
                       probe: dict | None = None,
                       ) -> tuple[KroneckerFactors, np.ndarray, SolveReport]:
    """Backward sweep over the grid, returning factors and the gradient.

    One solve carries the backward state ``[x | a, q_i | g]`` from
    ``grid[0]`` to ``grid[-1]``; the state at every grid point comes from
    the solver's observations (dopri5's continuous extension, or a step
    ending there for the fixed-step methods) and feeds one fresh field
    evaluation for the factor matrices.  NFE in the returned report is
    the solve's NFE plus one per grid point.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise BadInterval("grid must hold at least two time points")
    dt = float(abs(grid[0] - grid[-1]) / (grid.size - 1))

    scale = curv.adjoint_scale
    sweep, state = BackwardSweep.seeded(spec, theta, x1, curv.grad,
                                        curv.factors if scale is None else ())
    a_bar = [np.zeros((spec.dims[k] + (1 if spec.bias else 0),) * 2)
             for k in range(spec.n_layers)]
    b_bar = [np.zeros((spec.dims[k + 1],) * 2) for k in range(spec.n_layers)]
    if probe is not None:
        probe["state_elements"] = int(state.size)
        probe["factor_elements"] = int(sum(a.size for a in a_bar) + sum(b.size for b in b_bar))

    def accumulate(t: float, y: np.ndarray):
        x, cot, _ = sweep.unpack(y)
        qs = cot[1:] if scale is None else scale * cot[None]
        a_terms, b_terms = _factor_terms(spec, sweep.weights, t, x, qs)
        for k in range(spec.n_layers):
            a_bar[k] += a_terms[k] * dt
            b_bar[k] += b_terms[k] * dt

    report = odesolve(state, grid[0], grid[-1], sweep.field, cfg, observe=(grid, accumulate),
                      scored=sweep.x_len)
    report.nfe += grid.size
    _, _, params = sweep.unpack(report.terminal_state)
    factors = KroneckerFactors(a_factors=a_bar, b_factors=b_bar)
    return factors, params[0].copy(), report
