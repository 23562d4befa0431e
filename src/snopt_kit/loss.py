"""Terminal objectives, their gradients, and rank-factorized Hessians.

Two objectives, read off the target: float targets take ``mse`` on the
state itself, in the half-scaled convention ``0.5 * ||x1 - target||^2`` so
its Hessian is exactly the identity, and integer class labels take
``softmax_ce`` through an optional affine readout (trained by a plain
first-order rule in the training loop; its curvature is never
Kronecker-tracked).

``terminal_curvature`` produces the terminal Hessian as rank vectors
``y_i`` with ``Hessian = sum_i y_i y_i^T``, in the one form a backward
sweep reads:

* ``exact_rank`` gives an exact symmetric factorization: identity columns
  for mse, and for cross entropy the C-1 columns of the stick-breaking
  Cholesky factor of the multinomial covariance ``diag(p) - p p^T``
  (Tanabe & Sagae, J. R. Stat. Soc. B 54, 1992), pushed through the
  readout.  That matrix maps the all-ones vector to zero, so it has rank
  C-1 and a C-th column would be redundant.
* ``gauss_newton_scaled`` gives the single factor ``grad / sqrt(t1 - t0)``,
  the cheap rank-1 surrogate used in production training (an
  empirical-Fisher B side; Kunstner, Balles & Hennig, arXiv:1905.12558).

A factor parallel to the gradient, sample by sample, is held as the
per-sample ``adjoint_weights`` it multiplies the gradient by, not as a
vector: the surrogate's constant ``1/sqrt(t1 - t0)``, and for a two-class
softmax ``sqrt(p_y) / sqrt(p_o)`` (``p_o`` the non-label probability).  A
rank vector obeys the adjoint's linear ODE, so a sweep reads such a
factor off the adjoint instead of carrying it.  For that the gradient's
label entry is ``-sum_{j != y} p_j``, not ``p_y - 1``, which cancels to 0
once ``p_o < 2**-53``.  Rank vectors are built only for C >= 3 classes
(C-1 of them) and for mse.

:class:`LossConfig` is the ``[loss]`` config section: the readout switch
and the curvature mode.

Every function that scores, differentiates or factors the loss reads it at
one batch of terminal states through :class:`LossAt` (``lossfn.at(x1)``),
which computes the predictions, the label check, the softmax and the
residual once for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import vector_field as vf

CURVATURE_MODES = ("exact_rank", "gauss_newton_scaled")


class BadLabel(ValueError):
    pass


@dataclass(frozen=True)
class LossConfig:
    """The ``[loss]`` config section; the dataset's labels set the objective."""

    readout: bool = True             # an affine row per class before the softmax
    curvature: str = "gauss_newton_scaled"

    def __post_init__(self):
        if self.curvature not in CURVATURE_MODES:
            raise ValueError(f"unknown curvature mode {self.curvature!r}; "
                             f"expected one of {', '.join(CURVATURE_MODES)}")


@dataclass
class Readout:
    """Affine map from terminal states to logits: ``logits = x V^T + c``."""

    weight: np.ndarray  # (classes, state_dim)
    bias: np.ndarray    # (classes,)

    def logits(self, x1: np.ndarray) -> np.ndarray:
        return x1 @ self.weight.T + self.bias


def init_readout(state_dim: int, n_classes: int, seed: int) -> Readout:
    rng = np.random.Generator(np.random.Philox(seed))
    bound = np.sqrt(6.0 / (state_dim + n_classes))
    return Readout(weight=rng.uniform(-bound, bound, size=(n_classes, state_dim)),
                   bias=np.zeros(n_classes))


@dataclass
class TerminalLoss:
    """The terminal objective, whose kind its target implies.

    Integer class labels (batch,) take ``softmax_ce`` through the optional
    readout; float targets, (m,) or (batch, m), take ``mse`` on the state.
    """

    target: np.ndarray
    readout: Readout | None = None

    def __post_init__(self):
        self.target = np.asarray(self.target)
        if self.readout is not None and not self.classifies:
            raise ValueError("a readout needs integer class labels; float targets are "
                             "mse on the state itself")

    @property
    def classifies(self) -> bool:
        """True for integer class labels (``softmax_ce``), False for ``mse``."""
        return self.target.dtype.kind in "iu"    # signed or unsigned integers

    def at(self, x1: np.ndarray) -> LossAt:
        """The loss at the (batch, m) terminal states ``x1``."""
        return LossAt(self, x1)


class LossAt:
    """A terminal loss at one batch of (batch, m) terminal states.

    The predictions (the readout's logits, or the states themselves) and
    the readout ``weight`` are taken when it is built, so a later readout
    update does not reach it.  The label check, the softmax and the
    residual are computed on first use and then shared by every function
    that reads them: a minibatch's curvature or state gradient and its
    readout gradients pay for one softmax, and the train loss and accuracy
    for one set of logits.  Callers must not write the arrays it holds.
    """

    def __init__(self, lossfn: TerminalLoss, x1: np.ndarray):
        readout = lossfn.readout
        self.lossfn = lossfn
        self.x1 = x1
        self.pred = x1 if readout is None else readout.logits(x1)
        self.weight = None if readout is None else readout.weight

    @cached_property
    def labels(self) -> np.ndarray:
        """The class labels, checked once against the predictions."""
        return _check_labels(self.lossfn.target, self.pred.shape[1], self.pred.shape[0])

    @cached_property
    def probs(self) -> np.ndarray:
        """Class probabilities of a ``softmax_ce`` loss."""
        self.labels  # bad labels fail before any arithmetic
        return _softmax(self.pred)

    @cached_property
    def residual(self) -> np.ndarray:
        """Per-sample gradient of the objective w.r.t. the predictions."""
        if not self.lossfn.classifies:
            return self.x1 - np.broadcast_to(self.lossfn.target, self.x1.shape)
        return _ce_residual(self.labels, self.probs.copy())


class TerminalCurvature:
    """Gradient and rank factorization of the terminal Hessian.

    The Hessian ``sum_i y_i y_i^T`` is held in exactly one of two forms,
    the one a backward sweep reads.  ``factors`` is a list of rank
    vectors shaped like the per-sample gradient, each carried by the
    sweep: m of them for mse and C-1 for a C >= 3 class softmax under
    ``exact_rank``.  ``adjoint_weights`` (batch,) stands for the one
    factor ``adjoint_weights[:, None] * grad`` (up to each row's sign),
    which the sweep reads off the adjoint: the ``gauss_newton_scaled``
    surrogate and the two-class softmax.  Given neither or both, the
    curvature is a ``ValueError``: a rank-0 sweep would give the B side no
    sample, and a sweep seeded with both would carry rank vectors while
    weighting the adjoint.  The reference paths read every factor as a
    vector through :meth:`rank_vectors`.
    """

    def __init__(self, grad: np.ndarray, factors: list[np.ndarray] | tuple = (),
                 adjoint_weights: np.ndarray | None = None):
        if (adjoint_weights is None) == (len(factors) == 0):
            raise ValueError("a terminal curvature takes rank vectors or adjoint weights, "
                             "exactly one of the two")
        self.grad = grad
        self.factors = factors
        self.adjoint_weights = adjoint_weights

    def rank_vectors(self) -> list[np.ndarray]:
        """Every factor as a vector, for the dense reference and the error
        study: ``factors``, or the one weighted factor rebuilt as
        ``adjoint_weights[:, None] * grad``, whose rows' signs may differ
        from the factor's but not its outer products."""
        return self.factors or [self.adjoint_weights[:, None] * self.grad]

    def hessian(self) -> np.ndarray:
        """Dense reconstruction for a batch of one."""
        ys = [vf.one_sample(y, "a factor") for y in self.rank_vectors()]
        return sum(np.outer(y, y) for y in ys)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1, keepdims=True)``, one column at a time.

    A max is exact in any order, and a reduction along a row of a few
    classes costs more than the C-1 elementwise maxima over the columns.
    """
    return reduce(np.maximum, a.T)[:, None]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - _row_max(logits)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _check_labels(labels: np.ndarray, n_classes: int, batch: int):
    if labels.shape != (batch,):
        raise BadLabel(f"labels of shape {labels.shape} for a batch of {batch}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise BadLabel(f"label out of range for {n_classes} classes")
    return labels


def loss_value(at: LossAt) -> float:
    """Batch-mean objective at the terminal states."""
    if not at.lossfn.classifies:
        return float(0.5 * np.mean(np.sum(at.residual ** 2, axis=1)))
    pred, labels = at.pred, at.labels
    z = pred - _row_max(pred)
    log_probs = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    return float(-np.mean(log_probs[np.arange(pred.shape[0]), labels]))


def _ce_residual(labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``probs`` minus the one-hot labels, in place.

    The label entry is ``-sum_{j != y} p_j``: ``p_y - 1`` would cancel to 0
    for a confident sample and drop the gradient's label component.
    """
    rows = np.arange(probs.shape[0])
    probs[rows, labels] = 0.0
    probs[rows, labels] = -probs.sum(axis=1)
    return probs


def _to_state(weight: np.ndarray | None, v: np.ndarray) -> np.ndarray:
    """Pull per-sample prediction-space vectors back through a readout ``weight``."""
    return v if weight is None else v @ weight


def grad_x1(at: LossAt) -> np.ndarray:
    """Per-sample gradient of the per-sample objective w.r.t. the state."""
    return _to_state(at.weight, at.residual)


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, with 0 wherever ``den`` is 0."""
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    return np.divide(num, den, out=out, where=den != 0)


def _multinomial_cholesky(probs: np.ndarray) -> list[np.ndarray]:
    """The C-1 columns of the stick-breaking factor of ``diag(p) - p p^T``.

    With ``s_k = sum_{j>=k} p_j`` (a reverse cumulative sum, so a small
    tail is not lost to ``1 - p``), column k holds ``sqrt(p_k/s_k) *
    sqrt(s_{k+1})`` at row k, ``-sqrt(p_k/s_k) * p_j/sqrt(s_{k+1})`` at
    the rows j > k and 0 above.  A quotient whose denominator underflowed
    to 0 is 0.  For C = 2 the one column is ``sqrt(p_0 p_1) (e_0 - e_1)``.
    """
    tail = np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]
    root_next = np.sqrt(tail[:, 1:])
    lead = np.sqrt(_quotient(probs[:, :-1], tail[:, :-1]))
    cols = []
    for k in range(probs.shape[1] - 1):
        col = np.zeros_like(probs)
        col[:, k] = lead[:, k] * root_next[:, k]
        col[:, k + 1:] = -lead[:, k:k + 1] * _quotient(probs[:, k + 1:], root_next[:, k:k + 1])
        cols.append(col)
    return cols


def readout_grads(at: LossAt) -> tuple[np.ndarray, np.ndarray]:
    """Batch-mean gradients of the readout weight and bias."""
    if at.lossfn.readout is None:
        raise ValueError("loss has no readout")
    resid, x1 = at.residual, at.x1
    return resid.T @ x1 / x1.shape[0], resid.mean(axis=0)


def terminal_curvature(at: LossAt, t0: float, t1: float, mode: str) -> TerminalCurvature:
    """Terminal gradient plus the terminal Hessian in the form its sweep reads."""
    if not t1 > t0:
        raise ValueError("terminal_curvature requires t1 > t0")
    if mode not in CURVATURE_MODES:
        raise ValueError(f"unknown curvature mode {mode!r}")

    grad = grad_x1(at)
    if mode == "gauss_newton_scaled":
        return TerminalCurvature(grad, adjoint_weights=np.broadcast_to(
            float(1.0 / np.sqrt(t1 - t0)), grad.shape[:1]))
    if not at.lossfn.classifies:
        # the mse Hessian is the identity: read-only views of its rows
        return TerminalCurvature(grad, [np.broadcast_to(row, grad.shape)
                                        for row in np.eye(grad.shape[1])])
    # one softmax feeds the gradient and the curvature
    probs = at.probs
    if probs.shape[1] == 2:
        # the one factor is ±sqrt(p_y p_o) (e_y - e_o) and the residual
        # p_o (e_o - e_y); the roots come first, as p_y / p_o overflows
        # where p_o is subnormal
        rows, roots, labels = np.arange(probs.shape[0]), np.sqrt(probs), at.labels
        return TerminalCurvature(grad, adjoint_weights=_quotient(
            roots[rows, labels], roots[rows, 1 - labels]))
    return TerminalCurvature(grad, [_to_state(at.weight, col)
                                    for col in _multinomial_cholesky(probs)])


def accuracy(at: LossAt) -> float:
    """Fraction of correct argmax predictions; NaN for vector targets."""
    if not at.lossfn.classifies:
        return float("nan")
    return float(np.mean(at.pred.argmax(axis=1) == at.labels))
