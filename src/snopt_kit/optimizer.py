"""Parameter update rules.

The second-order update is ``Q_θθ^{-1} Q_θ`` with each layer's curvature
approximated by ``Ā ⊗ B̄`` and damped by ε.  With ``Ā = U_A diag(s_A) U_A^T``
and ``B̄ = U_B diag(s_B) U_B^T`` the damped inverse is diagonal in the joint
eigenbasis (K-FAC, Martens & Grosse 2015, arXiv:1503.05671): per layer

    X  = U_B^T unvec(grad) U_A
    dW = U_B [X / (s_B s_A^T + eps)] U_A^T      (elementwise division)

which is ``(Ā ⊗ B̄ + eps I)^{-1} grad`` exactly; ``snopt-kit verify`` checks
it against the dense solve.  The factors are positive semidefinite only in
exact arithmetic (dopri5's quadrature weights are not all positive), so
each eigenvalue is clamped at 0 and the divisor never falls below eps.
The rule carries nothing from step to step.  SGD with momentum and Adam
are the first-order baselines with their textbook constants.

:class:`OptimizerConfig` is the ``[optimizer]`` config section and holds
every setting of every rule, with its checks.  A rule's state holds only
what the rule accumulates from step to step; each step function takes its
settings as arguments.

Weight decay γ is the one running cost (the intermediate penalty).  It is
folded in after the backward sweep rather than inside its integrals: the
gradient gains ``γθ`` (:func:`apply_weight_decay`) and the curvature
``γI``, which in the eigenbasis update is a constant shift of the damping,
so the trainer passes ``damping = ε + γ`` to :func:`snopt_step`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vector_field as vf
from .kfac import KroneckerFactors
from .numerics import NotSymmetric, sym_eigen


class SingularFactor(RuntimeError):
    """Eigendecomposition of a Kronecker factor failed to converge."""


# Adam's textbook constants
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """The ``[optimizer]`` config section: the rule for the ODE's parameters."""

    kind: str = "adam"               # adam | sgd | snopt
    lr: float = 1e-3
    weight_decay: float = 0.0
    epsilon: float = 0.05            # snopt Tikhonov damping
    momentum: float = 0.9            # sgd
    readout_lr: float = 0.01         # Adam on the readout, whose scale differs from the ODE's

    def __post_init__(self):
        if self.kind not in ("adam", "sgd", "snopt"):
            raise ValueError(f"unknown optimizer {self.kind!r}; expected one of adam, sgd, snopt")
        # checked whatever the kind, so a grid may switch kinds in any order;
        # each check is written so that NaN fails it
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        # zero rates stay valid: they freeze the ODE or the readout
        if not (0 <= self.lr < np.inf and 0 <= self.readout_lr < np.inf):
            raise ValueError("need finite optimizer lr >= 0 and readout_lr >= 0")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError("need a finite optimizer weight_decay >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("need 0 <= optimizer momentum < 1")
        if not self.epsilon + self.weight_decay < np.inf:
            raise ValueError("need a finite snopt damping epsilon + weight_decay")


def snopt_step(spec: vf.MlpSpec, factors: KroneckerFactors, grad: np.ndarray,
               theta: np.ndarray, lr: float, damping: float) -> np.ndarray:
    """One preconditioned update ``theta - lr (Ā ⊗ B̄ + damping I)^{-1} grad``
    per layer; ``damping`` is the Tikhonov damping, weight decay included.

    Each layer's gradient and update are its ``Wbar`` blocks as
    :func:`vector_field.unpack_params` lays them out, so the factors must
    fit the field ``spec`` layer by layer.
    """
    theta_new = np.array(theta, dtype=float)
    layers = zip(factors.a_factors, factors.b_factors, vf.unpack_params(spec, grad),
                 vf.unpack_params(spec, theta_new), strict=True)
    for k, (a_bar, b_bar, g_mat, w_bar) in enumerate(layers):
        try:
            eig_a = sym_eigen(a_bar)
            eig_b = sym_eigen(b_bar)
        except (np.linalg.LinAlgError, NotSymmetric) as exc:
            raise SingularFactor(f"layer {k}: {exc}") from exc
        x = eig_b.vectors.T @ g_mat @ eig_a.vectors
        x /= np.outer(np.maximum(eig_b.values, 0.0), np.maximum(eig_a.values, 0.0)) + damping
        w_bar -= lr * (eig_b.vectors @ x @ eig_a.vectors.T)
    return theta_new


def apply_weight_decay(grad: np.ndarray, gamma: float, theta: np.ndarray) -> np.ndarray:
    """The gradient of the loss plus the decay penalty ``γ/2 |θ|^2``."""
    return grad + gamma * theta


@dataclass
class SgdState:
    buf: np.ndarray | None = None


def sgd_step(state: SgdState, grad: np.ndarray, theta: np.ndarray, lr: float,
             momentum: float) -> np.ndarray:
    if state.buf is None:
        state.buf = np.zeros_like(theta)
    state.buf = momentum * state.buf + grad
    return theta - lr * state.buf


@dataclass
class AdamState:
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def adam_step(state: AdamState, grad: np.ndarray, theta: np.ndarray, lr: float) -> np.ndarray:
    if state.m is None:
        state.m = np.zeros_like(theta)
        state.v = np.zeros_like(theta)
    state.t += 1
    state.m = _BETA1 * state.m + (1 - _BETA1) * grad
    state.v = _BETA2 * state.v + (1 - _BETA2) * grad ** 2
    m_hat = state.m / (1 - _BETA1 ** state.t)
    v_hat = state.v / (1 - _BETA2 ** state.t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
