"""Kronecker factors integrated along the backward sweep.

This is the production second-order sweep.  It integrates the backward
state ``[x | a, q_1..q_R]`` of :class:`adjoint.BackwardSweep` from t1 down
to t0 in one solve, and its integrand is the gradient ``g`` of the adjoint
group plus the per-layer second moments

    A_n(t) = mean_b zbar^n zbar^nT          (activation side)
    B_n(t) = mean_b sum_i g^n_i g^n_iT      (signal side)

read off the same stage trace and cotangents that the derivative was
computed from, packed ``[g | A_1..A_L | B_1..B_L]``.  The solver's own
stage weights give ``Abar_n = ∫ A_n dt`` and ``Bbar_n = ∫ B_n dt`` over the
steps it accepts, at no extra field evaluation, and it runs the integrand
only at the stages whose weight it uses.  The factors are held as the
upper triangles of the symmetric matrices.  Each stage writes its
integrand into one new array, which the solver weights in place.  The
stage's trace lives in the sweep's per-solve layer-input buffers
(:class:`adjoint.BackwardSweep`), which the next stage overwrites, so the
integrand reads it before the field's next evaluation, as ``odesolve``
guarantees.  The quadrature stays out of
the state and the error norm, so the sweep's steps, ``x0`` and ``a0`` are
the adjoint's, and so is its gradient, bit for bit.  ``kron(Abar_n,
Bbar_n)`` then approximates the layer's parameter-space curvature block.

A terminal factor parallel to the gradient carries no rank vector: with
the curvature's per-sample ``adjoint_weights`` w, its ``q_1`` at sample b
is ``w_b a_b`` at every t, because a rank vector obeys the adjoint's
linear ODE.  The sweep then runs ``[x | a]`` and its B side is ``B_n(t) =
mean_b (w_b g_b)(w_b g_b)^T`` over the adjoint group's cotangents ``g``.
That covers the ``gauss_newton_scaled`` surrogate (constant w) and the
two-class softmax.  Otherwise the sweep carries R >= 1 rank vectors, one
per terminal factor (C-1 for C >= 3 classes, m for mse), and the B side
sums groups 1..R.  Either way the B side reads a slice of the one
(1+R, batch, l) group stack: group 0 weighted, or groups 1..R.  Each rank
vector adds ``batch*m`` entries to the state.

Biases share their layer's block through the homogeneous coordinate that
``vector_field`` evaluates in: each trace entry ``zs[k]`` already is
``zbar^k = [z^k, 1]``, matching the flat parameter layout ``vec([W, b])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import vector_field as vf
from .loss import TerminalCurvature
from .odesolve import SolveReport, SolverConfig, odesolve
from .adjoint import BackwardSweep


@dataclass
class KroneckerFactors:
    """Time-integrated per-layer factors."""

    a_factors: list[np.ndarray]   # per layer: (pbar, pbar)
    b_factors: list[np.ndarray]   # per layer: (l, l)


@lru_cache(maxsize=None)
def triu_flat(side: int) -> np.ndarray:
    """Row-major flat indices of the upper triangle of a ``(side, side)``
    matrix, the one packed-triangle layout: ``mat.ravel()[triu_flat(side)]``."""
    rows, cols = np.triu_indices(side)
    flat = rows * side + cols
    flat.setflags(write=False)
    return flat


def triu_unpack(packed: np.ndarray, side: int) -> np.ndarray:
    """The symmetric matrix whose packed upper triangle is ``packed``."""
    rows, cols = np.divmod(triu_flat(side), side)
    mat = np.empty((side, side))
    mat[rows, cols] = packed
    mat[cols, rows] = packed
    return mat


def _sides(spec: vf.MlpSpec) -> list[int]:
    """The factors' sides in the packed order ``A_1..A_L, B_1..B_L``."""
    return list(spec.zbar_widths) + list(spec.dims[1:])


def _packed_len(spec: vf.MlpSpec) -> int:
    """Entries of the factors' packed upper triangles."""
    return sum(side * (side + 1) // 2 for side in _sides(spec))


def _factor_terms(spec: vf.MlpSpec, zs: list[np.ndarray], gs: list[np.ndarray],
                  weights: np.ndarray | None = None, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Upper triangles of ``A_n(t)`` and ``B_n(t)`` at one stage, packed
    ``[A_1..A_L | B_1..B_L]``, written into ``out`` when given.

    ``zs`` is the stage's forward trace and ``gs[k]`` its layer-``k``
    cotangents, a (groups, batch, l) stack; every row of every group is a
    B-side sample.  With per-sample ``weights`` (batch,), row b of each
    group is weighted by ``weights[b]`` before its square: the weight alone
    can overflow when squared.  The weighting writes every layer's rows in
    place, which the traversal hands to its caller
    (:func:`vector_field._cotangents`), so anything else that reads ``gs``
    must read it first.
    """
    samples = []
    for g in gs:
        if weights is not None:
            # numpy buffers the zero-stride weight column; no Gram matrix
            # is alive yet while it does
            g *= weights[:, None]
        samples.append(g.reshape(-1, g.shape[-1]))
    mats = [zb.T @ zb for zb in zs[:-1]] + [g.T @ g for g in samples]
    if out is None:
        out = np.empty(_packed_len(spec))
    offset = 0
    for mat in mats:
        triu = triu_flat(mat.shape[0])
        out[offset:offset + triu.size] = mat.ravel()[triu]
        offset += triu.size
    out /= zs[0].shape[0]
    return out


def _unpack_factors(spec: vf.MlpSpec, packed: np.ndarray) -> KroneckerFactors:
    """Full symmetric factors from their packed upper triangles."""
    mats, offset = [], 0
    for side in _sides(spec):
        size = side * (side + 1) // 2
        mats.append(triu_unpack(packed[offset:offset + size], side))
        offset += size
    return KroneckerFactors(a_factors=mats[:spec.n_layers], b_factors=mats[spec.n_layers:])


def accumulate_factors(spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray,
                       curv: TerminalCurvature, t0: float, t1: float, cfg: SolverConfig,
                       ) -> tuple[KroneckerFactors, np.ndarray, SolveReport]:
    """Backward sweep from ``t1`` to ``t0``: the factors, the gradient and the report.

    One solve carries the backward state ``[x | a, q_i]`` with the gradient
    and the factor integrand as its quadrature.  The error norm scores the
    state replay ``x``.
    """
    weights = curv.adjoint_weights
    if weights is None and not curv.factors:
        # a rank-0 sweep would give the B side no sample
        raise ValueError("need at least one terminal factor")
    sweep = BackwardSweep(spec, theta, x1, curv.grad, curv.factors if weights is None else ())
    n = vf.num_params(spec)
    packed = _packed_len(spec)

    def integrand(zs: list[np.ndarray], gs: list[np.ndarray]) -> np.ndarray:
        # weighted, the adjoint group is also the B-side sample; else groups 1..R are
        adjoint, samples = (gs, gs) if weights is not None else ([g[:1] for g in gs],
                                                                  [g[1:] for g in gs])
        # one array per stage, [g | factor triangles]; the gradient reads gs
        # before the weighted factor terms write them
        dq = np.empty(n + packed)
        vf._param_grad_from_cotangents(spec, zs, adjoint, out=dq[:n])
        _factor_terms(spec, zs, samples, weights, out=dq[n:])
        return dq

    report = odesolve(sweep.state, t1, t0, sweep.field(integrand), cfg, scored=sweep.x_len,
                      quadrature=np.zeros(n + packed))
    # the solve runs from t1 down to t0, so it subtracts the integral
    total = -report.quadrature
    return _unpack_factors(spec, total[n:]), total[:n], report
