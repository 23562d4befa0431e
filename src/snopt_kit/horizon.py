"""Free optimization of the integration bound t1.

Lengthening the integration costs solver time, so the bound is treated as
a trainable quantity with a quadratic penalty (c/2) T^2 on top of the
terminal loss.  With the rank-1 surrogate for the terminal Hessian the
derivative terms collapse to scalars built from one extra field
evaluation at the terminal point:

    s      = mean_b <phi_grad_b, F(T, x1_b)>      (loss sensitivity to T)
    Q_T    = c T + s
    Q_TT   = c + s^2
    Q_Tu   = s * grad      (kept as s and grad, never formed)

Both scalar terms are constant along the backward pass, so nothing is
added to the backward solve.  The update is a damped Newton step with a
feedback term that accounts for the parameter update applied in the same
iteration:

    dT = (avg Q_TT)^{-1} (avg Q_T + avg(s) * <grad, dtheta>)
    T <- clamp(T - eta_T * dT)

applied once every ``period`` iterations from exponential moving averages
of the per-iteration terms, at the constant rate ``_EMA``.  The
first-order baseline drops the curvature scaling and the feedback.

The caller keeps the bound and the moving average (a
:class:`HorizonTerms`), passes both in, and keeps the ones returned; each
step takes its settings, a :class:`HorizonConfig`, as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vector_field as vf


class NonFiniteUpdate(RuntimeError):
    pass


# weight of the running average against each new iteration's terms
_EMA = 0.9


@dataclass(frozen=True)
class HorizonConfig:
    enabled: bool = False
    policy: str = "feedback"         # feedback | first_order
    penalty: float = 0.5             # c > 0
    lr: float = 0.3                  # eta_T
    period: int = 75                 # iterations between bound updates
    t_min: float = 0.05
    t_max: float = 2.0

    def __post_init__(self):
        if self.policy not in ("feedback", "first_order"):
            raise ValueError(f"unknown horizon policy {self.policy!r}; "
                             "expected one of feedback, first_order")
        if self.period < 1:
            raise ValueError("need horizon period >= 1")
        if not (0 < self.penalty < np.inf and 0 < self.lr < np.inf):
            raise ValueError("horizon penalty and lr must be positive and finite")
        # the bound is clipped into [t_min, t_max], and every flow starts at 0
        if not 0 < self.t_min < self.t_max < np.inf:
            raise ValueError("need finite horizon t_min, t_max with 0 < t_min < t_max")


@dataclass
class HorizonTerms:
    qt: float
    qtt: float
    s: float


def average(avg: HorizonTerms | None, terms: HorizonTerms) -> HorizonTerms:
    """The moving average ``avg`` with one iteration's ``terms`` folded in;
    the first iteration's terms start it."""
    if avg is None:
        return terms
    return HorizonTerms(qt=_EMA * avg.qt + (1 - _EMA) * terms.qt,
                        qtt=_EMA * avg.qtt + (1 - _EMA) * terms.qtt,
                        s=_EMA * avg.s + (1 - _EMA) * terms.s)


def horizon_terms(spec: vf.MlpSpec, theta: np.ndarray, x1: np.ndarray,
                  phi_grad: np.ndarray, t_bar: float, penalty: float) -> HorizonTerms:
    """Derivative terms of the penalized objective w.r.t. the bound, at the
    parameters ``theta`` that reached the (batch, m) terminal states ``x1``."""
    f_bar = vf.eval(spec, theta, t_bar, x1)
    s = float(np.mean(np.sum(phi_grad * f_bar, axis=1)))
    return HorizonTerms(qt=penalty * t_bar + s, qtt=penalty + s * s, s=s)


def horizon_step(avg: HorizonTerms, cfg: HorizonConfig, t_bar: float, grad: np.ndarray,
                 dtheta: np.ndarray) -> float:
    """Second-order feedback update of the bound ``t_bar`` from the moving
    average ``avg``; returns the new bound.  ``avg.qtt`` is positive, as
    every iteration's ``Q_TT = c + s^2 >= c > 0`` is."""
    feedback = avg.s * float(np.dot(np.asarray(grad), np.asarray(dtheta)))
    dt = (avg.qt + feedback) / avg.qtt
    if not np.isfinite(dt):
        raise NonFiniteUpdate(f"non-finite bound update {dt}")
    return float(np.clip(t_bar - cfg.lr * dt, cfg.t_min, cfg.t_max))


def first_order_horizon_step(avg: HorizonTerms, cfg: HorizonConfig, t_bar: float) -> float:
    """Plain gradient step on the bound along the averaged ``Q_T`` (comparison baseline)."""
    if not np.isfinite(avg.qt):
        raise NonFiniteUpdate(f"non-finite bound gradient {avg.qt}")
    return float(np.clip(t_bar - cfg.lr * avg.qt, cfg.t_min, cfg.t_max))
