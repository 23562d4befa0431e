"""Initial-value-problem solvers over flat state vectors.

Fixed-step Euler and RK4, plus the adaptive Dormand-Prince 5(4) pair with
FSAL and a PI step-size controller (safety 0.9, growth clamped to
[0.2, 10]).  Integration direction follows the sign of ``t_end - t_start``;
backward solves negate the internal step rather than rewriting the field.

dopri5 sizes its first step by the starting-step algorithm of Hairer,
Norsett & Wanner (Solving ODEs I, II.4): one explicit Euler probe of the
field, counted as one evaluation, measures how fast the field changes, and
the step is chosen for a local error near 1% of the tolerance in the norm
the controller scores.  A solve therefore starts at its working step size
instead of growing into it.

The solvers retain no per-step history: the only output is the terminal
state plus step counters, so memory is independent of the number of
accepted or rejected steps.  A caller that needs the state at intermediate
times passes them as ``observe``; dopri5 keeps stepping freely and reads
each time off its 4th-order continuous extension within the accepted step
that covers it (built from that step's stages, so it costs no evaluation),
while the fixed-step methods end a step on each observation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

METHODS = ("euler", "rk4", "dopri5")


class MaxStepsExceeded(RuntimeError):
    """The solve did not reach ``t_end`` within ``max_steps`` attempts."""


class NonFiniteState(RuntimeError):
    """A state component became NaN or infinite during the solve."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    ``max_steps`` bounds the step attempts (accepted plus rejected) of one
    ``odesolve`` call.  Observing intermediate times does not split the
    call, so for the Kronecker-factor sweep it bounds the whole sweep over
    the grid.
    """

    method: str = "dopri5"
    rtol: float = 1e-6
    atol: float = 1e-6
    fixed_step: float | None = None
    max_steps: int = 100_000
    max_step: float | None = None     # optional cap on the adaptive step

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.method in ("euler", "rk4"):
            if self.fixed_step is None or self.fixed_step <= 0:
                raise ValueError(f"{self.method} requires fixed_step > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")


@dataclass
class SolveReport:
    terminal_state: np.ndarray
    nfe: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0


Field = Callable[[float, np.ndarray], np.ndarray]
# (times, callback): callback(t, y) runs once per time, in order of integration
Observe = tuple[np.ndarray, Callable[[float, np.ndarray], None]]

# Dormand-Prince 5(4) tableau.  Row 7 equals the 5th-order weights (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# 5th-order minus embedded 4th-order weights: local error coefficients.
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Quartic term of the continuous extension (Hairer, Norsett & Wanner I, II.6).
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# Hairer-style PI exponents for a 5th-order error estimate.
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA


def _check_finite(y: np.ndarray, t: float):
    if not np.all(np.isfinite(y)):
        raise NonFiniteState(f"non-finite state encountered at t={t:.6g}")


def _scaled_rms(v: np.ndarray, scale: np.ndarray, scored: int | None) -> float:
    """RMS of ``v / scale`` over the first ``scored`` components (all when None)."""
    return float(np.sqrt(np.mean((v[:scored] / scale[:scored]) ** 2)))


def _fixed_steps(span: float, h: float) -> int:
    return max(1, int(np.ceil(abs(span) / h - 1e-12))) if span != 0 else 0


def _fixed_segment(y, t_start, t_end, fn: Field, cfg: SolverConfig) -> tuple[np.ndarray, int]:
    """Fixed steps from ``t_start`` to ``t_end``, the last one clipped to land on it."""
    direction = 1.0 if t_end >= t_start else -1.0
    h = cfg.fixed_step
    n_steps = _fixed_steps(t_end - t_start, h)
    t = t_start
    for i in range(n_steps):
        hs = direction * min(h, abs(t_end - t))
        if i == n_steps - 1:
            hs = t_end - t  # land on the boundary exactly
        if cfg.method == "euler":
            y = y + hs * fn(t, y)
        else:  # rk4
            k1 = fn(t, y)
            k2 = fn(t + hs / 2, y + hs / 2 * k1)
            k3 = fn(t + hs / 2, y + hs / 2 * k2)
            k4 = fn(t + hs, y + hs * k3)
            y = y + hs / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + hs
        _check_finite(y, t)
    return y, n_steps * (1 if cfg.method == "euler" else 4)


def _solve_fixed(y0, t_start, t_end, fn: Field, cfg: SolverConfig,
                 times, callback) -> SolveReport:
    """Fixed steps; every observation time ends a step, as a restart there would."""
    bounds = [t_start, *times, t_end]
    n_steps = sum(_fixed_steps(b - a, cfg.fixed_step) for a, b in zip(bounds, bounds[1:]))
    if n_steps > cfg.max_steps:
        raise MaxStepsExceeded(f"{n_steps} fixed steps exceed max_steps={cfg.max_steps}")

    y = np.array(y0, dtype=float)
    nfe = 0
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        y, seg_nfe = _fixed_segment(y, a, b, fn, cfg)
        nfe += seg_nfe
        if i < len(times):
            callback(b, y)
    return SolveReport(terminal_state=y, nfe=nfe, accepted_steps=n_steps, rejected_steps=0)


def _observe_step(times, i: int, callback, t: float, hs: float, t_new: float,
                  y: np.ndarray, y_new: np.ndarray, k: np.ndarray) -> int:
    """Report every pending time the accepted step ``t -> t_new`` covers.

    Between the ends the state comes from Dormand-Prince's 4th-order
    continuous extension, whose coefficients are the step's own stages.
    Returns the index of the first time still pending.
    """
    direction = 1.0 if hs > 0 else -1.0
    if i == len(times) or direction * (times[i] - t_new) > 0:
        return i
    dy = y_new - y
    bspl = hs * k[0] - dy
    cubic = dy - hs * k[6] - bspl
    quartic = hs * (_DP_D @ k)
    while i < len(times) and direction * (times[i] - t_new) <= 0:
        tau = times[i]
        if tau == t_new:
            callback(tau, y_new)
        else:
            th = (tau - t) / hs
            callback(tau, y + th * (dy + (1 - th) * (bspl + th * (cubic + (1 - th) * quartic))))
        i += 1
    return i


def _initial_step(fn: Field, t: float, y0: np.ndarray, f0: np.ndarray, direction: float,
                  total: float, cfg: SolverConfig, scored: int | None) -> float:
    """First dopri5 step size, by the starting-step rule of Hairer, Norsett &
    Wanner I, II.4 (the rule of scipy's ``solve_ivp`` and torchdiffeq).

    Norms are the controller's: RMS scaled by ``atol + rtol * |y0|``, over
    the first ``scored`` components.  ``h0 = 0.01 * |y0| /
    |f0|`` (1e-6 when either is below 1e-5) moves the state by about 1%.
    One explicit Euler probe ``f1 = fn(t + h0, y0 + h0 * f0)``, taken in
    the direction of integration, estimates the second derivative ``d2 =
    |f1 - f0| / h0``, and ``h1 = (0.01 / max(|f0|, d2)) ** (1/5)`` puts
    the step's local error, of order ``h^5`` times those derivatives, near
    1% of the tolerance.  The step is ``min(100 * h0, h1)``, capped by the
    interval and ``max_step``.  The probe is one field evaluation, which
    the caller counts; a non-finite probe raises ``NonFiniteState``.
    """
    scale = cfg.atol + cfg.rtol * np.abs(y0)
    d0 = _scaled_rms(y0, scale, scored)
    d1 = _scaled_rms(f0, scale, scored)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, total)  # the probe stays inside the interval
    f1 = fn(t + direction * h0, y0 + direction * h0 * f0)
    d2 = _scaled_rms(f1 - f0, scale, scored) / h0
    if not (np.all(np.isfinite(f1)) and np.isfinite(d2)):
        raise NonFiniteState(
            f"non-finite field at the first-step probe t={t + direction * h0:.6g}")
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1, total)
    return h if cfg.max_step is None else min(h, cfg.max_step)


def _solve_dopri5(y0, t_start, t_end, fn: Field, cfg: SolverConfig,
                  times, callback, scored: int | None) -> SolveReport:
    span = t_end - t_start
    direction = 1.0 if span >= 0 else -1.0
    total = abs(span)

    y = np.array(y0, dtype=float)
    t = t_start
    pending = 0
    while pending < len(times) and times[pending] == t_start:
        callback(t_start, y)
        pending += 1
    k = np.empty((7, y.size))
    k[0] = fn(t, y)
    h = _initial_step(fn, t, y, k[0], direction, total, cfg, scored)
    nfe = 2  # the start point and the first-step probe

    accepted = rejected = 0
    err_old = 1e-4
    while abs(t_end - t) > 1e-14 * max(1.0, total):
        if accepted + rejected >= cfg.max_steps:
            raise MaxStepsExceeded(f"dopri5 exceeded max_steps={cfg.max_steps}")
        remaining = abs(t_end - t)
        h_prop = min(h, cfg.max_step) if cfg.max_step is not None else h
        h_eff = min(h_prop, remaining)
        hs = direction * h_eff
        last = h_eff >= remaining - 1e-14 * max(1.0, total)

        for i in range(1, 6):
            k[i] = fn(t + _DP_C[i] * hs, y + hs * (_DP_A[i] @ k[:i]))
        # stage 7's combination row equals the 5th-order weights, so its
        # evaluation point is the candidate state itself (FSAL)
        y_new = y + hs * (_DP_A[6] @ k[:6])
        k[6] = fn(t + hs, y_new)
        nfe += 6
        err_vec = hs * (_DP_E @ k)

        _check_finite(y_new, t + hs)
        err = _scaled_rms(err_vec, cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new)),
                          scored)
        if not np.isfinite(err):
            raise NonFiniteState(f"non-finite error estimate at t={t:.6g}")

        if err <= 1.0:
            accepted += 1
            t_new = t_end if last else t + hs
            if pending < len(times):
                pending = _observe_step(times, pending, callback, t, hs, t_new, y, y_new, k)
            t = t_new
            y = y_new
            k[0] = k[6]
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_EXPO) * err_old ** _BETA
            h_next = h_eff * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            # a boundary-clipped step says nothing against the proposed h
            h = max(h_next, h_prop) if h_eff < h_prop else h_next
            err_old = max(err, 1e-10)
        else:
            rejected += 1
            # stage 1 is still f(t, y): no new evaluation needed on retry
            h = h_eff * min(1.0, max(_MIN_FACTOR, _SAFETY * err ** (-0.2)))
    # times within rounding of t_end that no step covered
    for tau in times[pending:]:
        callback(tau, y)
    return SolveReport(terminal_state=y, nfe=nfe, accepted_steps=accepted,
                       rejected_steps=rejected)


def odesolve(y0: np.ndarray, t_start: float, t_end: float, fn: Field,
             cfg: SolverConfig, observe: Observe | None = None,
             scored: int | None = None) -> SolveReport:
    """Integrate ``dy/dt = fn(t, y)`` from ``t_start`` to ``t_end``.

    ``t_end < t_start`` integrates backward.  ``observe = (times,
    callback)`` calls ``callback(t, y)`` once for every entry of ``times``,
    in order, with the state at that time; the times must run from
    ``t_start`` towards ``t_end`` (both ends allowed, repeats allowed) and
    the callback must not modify ``y``.  Observing adds no field
    evaluation, and an observation at either end receives the initial or
    terminal state exactly.  Under dopri5 the steps taken do not depend
    on the times observed.  dopri5's error norm scores the first
    ``scored`` components of the state (all of them when None).
    """
    if scored is not None and scored < 1:
        raise ValueError(f"scored prefix must be positive, got {scored}")
    y0 = np.asarray(y0, dtype=float)
    _check_finite(y0, t_start)
    if observe is None:
        times, callback = (), None
    else:
        times, callback = np.asarray(observe[0], dtype=float), observe[1]
        sign = 1.0 if t_end >= t_start else -1.0
        if times.ndim != 1 or np.any(sign * np.diff([t_start, *times, t_end]) < 0):
            raise ValueError(f"observation times must run from {t_start} to {t_end}")
    if t_start == t_end:
        for tau in times:
            callback(tau, y0)
        return SolveReport(terminal_state=y0.copy(), nfe=0, accepted_steps=0, rejected_steps=0)
    if cfg.method in ("euler", "rk4"):
        return _solve_fixed(y0, t_start, t_end, fn, cfg, times, callback)
    return _solve_dopri5(y0, t_start, t_end, fn, cfg, times, callback, scored)
