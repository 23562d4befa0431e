"""Parameter update rules.

The second-order update inverts the Kronecker-approximated curvature in
the joint eigenbasis of the two factors, with Tikhonov damping and
eigen-amortization: per layer

    X  = U_B^T unvec(grad) U_A
    S* = alpha S* + (1 - alpha) X^2          (elementwise)
    dW = U_B [X / (S* + eps)] U_A^T

which, at alpha = 0, equals the dense preconditioner
``(U_A ⊗ U_B) diag(vec(X^2) + eps)^{-1} (U_A ⊗ U_B)^T grad`` — asserted in
the tests via the Kronecker identities.  SGD with momentum and Adam are
the first-order baselines with their textbook constants.

Weight decay γ is the one running cost (the intermediate penalty).  It is
folded in after the backward sweep rather than inside its integrals: the
gradient gains ``γθ`` (:func:`apply_weight_decay`) and the curvature
``γI``, which in the eigenbasis update is a constant shift of the damping,
so the trainer builds its :class:`SnoptState` with ``epsilon = ε + γ``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vector_field as vf
from .kfac import KroneckerFactors
from .numerics import NotSymmetric, sym_eigen


class SingularFactor(RuntimeError):
    """Eigendecomposition of a Kronecker factor failed to converge."""


@dataclass
class SnoptState:
    """Hyperparameters and per-layer amortized squares for the update."""

    lr: float
    epsilon: float                          # Tikhonov damping, weight decay included
    amortization: float
    s_star: list[np.ndarray] | None = None  # zero-initialized on first step

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 <= self.amortization < 1.0:
            raise ValueError("amortization must lie in [0, 1)")


def snopt_step(state: SnoptState, spec: vf.MlpSpec, factors: KroneckerFactors,
               grad: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One preconditioned update; mutates the amortized squares in place.

    Each layer's gradient and update are its ``Wbar`` blocks as
    :func:`vector_field.unpack_params` lays them out, so the factors must
    fit the field ``spec`` layer by layer.
    """
    theta_new = np.array(theta, dtype=float)
    if state.s_star is None:
        state.s_star = [np.zeros((b.shape[0], a.shape[0]))
                        for a, b in zip(factors.a_factors, factors.b_factors)]
    layers = zip(factors.a_factors, factors.b_factors, vf.unpack_params(spec, grad),
                 vf.unpack_params(spec, theta_new), strict=True)
    for k, (a_bar, b_bar, g_mat, w_bar) in enumerate(layers):
        try:
            eig_a = sym_eigen(a_bar)
            eig_b = sym_eigen(b_bar)
        except (np.linalg.LinAlgError, NotSymmetric) as exc:
            raise SingularFactor(f"layer {k}: {exc}") from exc
        x = eig_b.vectors.T @ g_mat @ eig_a.vectors
        state.s_star[k] = (state.amortization * state.s_star[k]
                           + (1.0 - state.amortization) * x ** 2)
        x = x / (state.s_star[k] + state.epsilon)
        w_bar -= state.lr * (eig_b.vectors @ x @ eig_a.vectors.T)
    return theta_new


def apply_weight_decay(grad: np.ndarray, gamma: float, theta: np.ndarray) -> np.ndarray:
    """The gradient of the loss plus the decay penalty ``γ/2 |θ|^2``."""
    return grad + gamma * theta


@dataclass
class SgdState:
    lr: float
    momentum: float
    buf: np.ndarray | None = None


def sgd_step(state: SgdState, grad: np.ndarray, theta: np.ndarray) -> np.ndarray:
    if state.buf is None:
        state.buf = np.zeros_like(theta)
    state.buf = state.momentum * state.buf + grad
    return theta - state.lr * state.buf


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def adam_step(state: AdamState, grad: np.ndarray, theta: np.ndarray) -> np.ndarray:
    if state.m is None:
        state.m = np.zeros_like(theta)
        state.v = np.zeros_like(theta)
    state.t += 1
    state.m = state.beta1 * state.m + (1 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1 - state.beta2) * grad ** 2
    m_hat = state.m / (1 - state.beta1 ** state.t)
    v_hat = state.v / (1 - state.beta2 ** state.t)
    return theta - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
