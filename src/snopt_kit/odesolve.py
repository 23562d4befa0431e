"""Initial-value-problem solvers over flat state vectors.

Fixed-step Euler and RK4, plus the adaptive Dormand-Prince 5(4) pair with
FSAL and a PI step-size controller (safety 0.9, growth clamped to
[0.2, 10]).  Each method is a Butcher tableau ``(c, A, b)``, and every
stage of every method is evaluated by one helper, for plain and quadrature
fields alike.  Integration direction follows the sign of ``t_end -
t_start``; backward solves negate the internal step rather than rewriting
the field.

dopri5 sizes its first step by the starting-step algorithm of Hairer,
Norsett & Wanner (Solving ODEs I, II.4): an explicit Euler probe of the
field measures how fast the field changes.  Where that rule aims the
step's local error at 1% of the tolerance, here it aims at the tolerance
itself, in the norm the controller scores: on the fields trained here
the rule's error model overestimates the first step's error by orders of
magnitude, and the controller still judges the step.  A solve therefore
starts at its working step size instead of growing into it.  The probe
is no separate evaluation: dopri5's second stage is itself an explicit
Euler step, of a fifth of the step, from the start.  The first attempt
takes the longest step the rule allows before the probe, and its second
stage is the probe.  Only where the rule then asks for a shorter step
does the attempt restart, at that step, which costs the one evaluation
a separate probe would; a solve whose first step stands spends one
evaluation fewer.

The solvers retain no per-step history: the only output is the terminal
state plus step counters, so memory is independent of the number of
accepted or rejected steps.  A caller that needs an integral along the
trajectory passes ``quadrature``: the field then returns, beside the
derivative, a zero-argument callable that computes the integrand, and
every accepted step adds the method's own weighted sum of its stages'
integrands.  The solver calls an integrand only where its weight reaches
an accepted step, so dopri5 skips the zero-weight second stage (the
first-step probe among them) and the FSAL stage of a rejected or final
step.  The integrand never enters the state, the stage storage or the
error norm, the way Kidger, Chen & Lyons (arXiv:2009.09457) treat
parameter-integral channels, so it costs no evaluation and no step.
Every integrand the solver calls, it calls before the field's next
evaluation, so a field may keep each stage's intermediates in buffers
that its next evaluation overwrites (``adjoint.BackwardSweep.field``
does).
"""

from __future__ import annotations

import math
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
    """Solver settings: the ``[solver]`` config section, with its defaults.

    ``max_steps`` bounds the step attempts (accepted plus rejected) of one
    ``odesolve`` call.  dopri5's step size has no cap but the interval:
    the tolerances alone set it.
    """

    method: str = "dopri5"
    rtol: float = 1e-3
    atol: float = 1e-3
    fixed_step: float | None = None
    max_steps: int = 100_000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        # each check is written so that NaN fails it
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError("rtol and atol must be positive and finite")
        if self.method in _FIXED:
            if self.fixed_step is None or not self.fixed_step > 0:
                raise ValueError(f"{self.method} requires fixed_step > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class SolveReport:
    terminal_state: np.ndarray
    nfe: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    quadrature: np.ndarray | None = None   # q0 + the integral, when one was asked for


Field = Callable[[float, np.ndarray], np.ndarray]

# Butcher tableaux (c, A, b): row i of A combines stages 0..i-1 into stage i's input.
_EULER = (np.array([0.0]), [np.array([])], np.array([1.0]))
_RK4 = (np.array([0.0, 1 / 2, 1 / 2, 1.0]),
        [np.array([]), np.array([1 / 2]), np.array([0.0, 1 / 2]), np.array([0.0, 0.0, 1.0])],
        np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]))
_FIXED = {"euler": _EULER, "rk4": _RK4}

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
    u = v[:scored] / scale[:scored]
    # np.mean's own pairwise sum and division, without its Python wrapper
    return float(np.sqrt(np.add.reduce(u * u) / u.size))


def _stage(fn, t: float, y: np.ndarray, weight: float, acc: np.ndarray | None):
    """One stage: the derivative of ``fn`` at ``(t, y)`` and its integrand, uncalled.

    With an accumulator ``acc`` the solve has a quadrature: ``fn`` returns
    ``(dy, integrand)``, and a nonzero ``weight`` adds ``weight *
    integrand()`` to ``acc``, weighting the integrand's array in place.  A
    plain field (``acc`` None) has no integrand.  Callers that do not keep
    the integrand drop it at once, so its closure dies before the solver's
    next evaluation.
    """
    if acc is None:
        return fn(t, y), None
    dy, integrand = fn(t, y)
    if weight:
        dq = integrand()
        dq *= weight
        acc += dq
    return dy, integrand


def _solve_fixed(y0, t_start, t_end, fn, cfg: SolverConfig, q0) -> SolveReport:
    """Fixed steps of the method's tableau, the last one clipped to land on ``t_end``."""
    c, a, b = _FIXED[cfg.method]
    direction = 1.0 if t_end >= t_start else -1.0
    h = cfg.fixed_step
    # counted as a float first: a span over a subnormal step overflows to inf
    steps = max(1.0, np.ceil(abs(t_end - t_start) / h - 1e-12))
    if steps > cfg.max_steps:
        raise MaxStepsExceeded(f"{steps:.0f} fixed steps exceed max_steps={cfg.max_steps}")
    n_steps = int(steps)

    y, q = y0, q0
    k = np.empty((b.size, y.size))
    t = t_start
    for i in range(n_steps):
        hs = direction * min(h, abs(t_end - t))
        if i == n_steps - 1:
            hs = t_end - t  # land on the boundary exactly
        # every stage carries weight, so each integrand runs at once
        dq = None if q is None else np.zeros_like(q)
        for j in range(b.size):
            k[j] = _stage(fn, t + c[j] * hs, y + hs * (a[j] @ k[:j]), b[j], dq)[0]
        y = y + hs * (b @ k)
        if q is not None:
            q += hs * dq
        t = t + hs
        _check_finite(y, t)
    return SolveReport(terminal_state=y, nfe=n_steps * b.size, accepted_steps=n_steps,
                       rejected_steps=0, quadrature=q)


def _initial_step(d0: float, d1: float, d2: float, total: float) -> float:
    """First dopri5 step size, by the starting-step rule of Hairer, Norsett &
    Wanner I, II.4 (scipy's ``solve_ivp`` and torchdiffeq use it), with its
    error target raised from 1% of the tolerance to the tolerance.

    The norms are the controller's: RMS scaled by ``atol + rtol * |y0|``,
    over the scored components.  ``d0 = |y0|`` and ``d1 = |f0|`` set ``h0
    = 0.01 * d0 / d1``, a step that moves the state by about 1%.  ``d2``
    estimates the second derivative from an explicit Euler probe, and ``h1
    = (1 / max(d1, d2)) ** (1/5)`` predicts a local error, of order
    ``h^5`` times those derivatives, at the tolerance itself.  The book
    aims at 1% of it, but on the fields trained here the first step's own
    error estimate came out near 1e-6 to 1e-5 of the tolerance.  The step
    is ``min(100 * h0, h1)``, capped by the interval ``total``.  With
    ``d2 = 0`` it is the rule's step before any probe, the longest the
    probe can allow.

    When ``d0`` or ``d1`` is below 1e-5, ``h0`` says nothing about the
    scale and the ``100 * h0`` cap is dropped.  When both derivative
    estimates vanish, ``h1`` is the whole interval.  The controller still
    judges that step, so a constant state costs one step instead of a
    10x-per-step ramp up from 1e-6.
    """
    d = max(d1, d2)
    h1 = total if d <= 1e-15 else (1.0 / d) ** 0.2
    if d0 < 1e-5 or d1 < 1e-5:
        return min(h1, total)
    return min(100.0 * (0.01 * d0 / d1), h1, total)


def _solve_dopri5(y0, t_start, t_end, fn, cfg: SolverConfig, scored: int | None,
                  q0) -> SolveReport:
    span = t_end - t_start
    direction = 1.0 if span >= 0 else -1.0
    total = abs(span)
    cutoff = 1e-14 * max(1.0, total)
    if total <= cutoff:
        # no step and no evaluation: y0 is the caller's, so the state is a copy
        return SolveReport(terminal_state=y0.copy(), quadrature=q0)

    y, q = y0, q0
    # b_1 times the integrand at the attempt's start point
    first = None if q is None else np.zeros_like(q)
    t = t_start
    k = np.empty((7, y.size))
    k[0] = _stage(fn, t, y, _DP_B[0], first)[0]

    # The first attempt takes the longest step the first-step rule allows
    # before any probe.  Its second stage, an explicit Euler step of h/5
    # from the start, is the rule's probe: if the rule's step with that d2
    # is shorter, the attempt restarts at it, which costs the one
    # evaluation a separate probe would; otherwise stage 2 stands.
    scale = cfg.atol + cfg.rtol * np.abs(y0)
    d0 = _scaled_rms(y0, scale, scored)
    d1 = _scaled_rms(k[0], scale, scored)
    if not math.isfinite(d1):
        # an overflowing norm would make the step zero, and the probe's quotient 0/0
        raise NonFiniteState(f"the field's scaled norm overflows at the start t={t:.6g}")
    h = _initial_step(d0, d1, 0.0, total)
    hs = direction * h
    # weight 0 (b_2): the probe's integrand is never called
    k[1] = _stage(fn, t + _DP_C[1] * hs, y + hs * (_DP_A[1] @ k[:1]), 0.0, first)[0]
    d2 = _scaled_rms(k[1] - k[0], scale, scored) / (_DP_C[1] * h)
    scale = None
    if not (np.all(np.isfinite(k[1])) and math.isfinite(d2)):
        raise NonFiniteState(
            f"non-finite field at the first-step probe t={t + _DP_C[1] * hs:.6g}")
    h_rule = _initial_step(d0, d1, d2, total)
    nfe = 2   # the start point and the probe
    stands = not h_rule < h   # the first attempt goes on from its stage 2
    if not stands:
        h = h_rule

    accepted = rejected = 0
    err_old = 1e-4
    while abs(t_end - t) > cutoff:
        if accepted + rejected >= cfg.max_steps:
            raise MaxStepsExceeded(f"dopri5 exceeded max_steps={cfg.max_steps}")
        remaining = abs(t_end - t)
        h_eff = min(h, remaining)
        hs = direction * h_eff
        last = h_eff >= remaining - cutoff

        # this attempt's sum of b_i * dq_i, kept only if the step is accepted;
        # each stage's input stays a temporary, freed once its evaluation returns
        dq = None if q is None else first.copy()
        stages = range(2 if stands else 1, 6)
        stands = False
        for i in stages:
            k[i] = _stage(fn, t + _DP_C[i] * hs, y + hs * (_DP_A[i] @ k[:i]), _DP_B[i], dq)[0]
        # stage 7's combination row equals the 5th-order weights, so its
        # evaluation point is the candidate state itself (FSAL); b_7 = 0, and
        # its integrand is the next step's first, run once this step is accepted
        y_new = y + hs * (_DP_A[6] @ k[:6])
        k[6], fsal = _stage(fn, t + hs, y_new, _DP_B[6], dq)
        nfe += len(stages) + 1

        _check_finite(y_new, t + hs)
        # the norm reads the scored prefix: slice before building any temporary;
        # a named slice of y would keep this y alive through the next attempt
        err = _scaled_rms(hs * (_DP_E @ k[:, :scored]),
                          cfg.atol + cfg.rtol * np.maximum(np.abs(y[:scored]),
                                                           np.abs(y_new[:scored])), None)
        if not np.isfinite(err):
            raise NonFiniteState(f"non-finite error estimate at t={t:.6g}")

        if err <= 1.0:
            accepted += 1
            t = t_end if last else t + hs
            y = y_new
            k[0] = k[6]
            if q is not None:
                q += hs * dq
                if not last:
                    # before the next attempt's first evaluation
                    first = fsal()
                    first *= _DP_B[0]
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_EXPO) * err_old ** _BETA
            h_next = h_eff * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            # a boundary-clipped step says nothing against the proposed h
            h = max(h_next, h) if h_eff < h else h_next
            err_old = max(err, 1e-10)
        else:
            rejected += 1
            # stage 1 is still f(t, y): no new evaluation needed on retry
            h = h_eff * min(1.0, max(_MIN_FACTOR, _SAFETY * err ** (-0.2)))
        # drop the stage's trace and a rejected candidate before the next evaluation
        fsal = y_new = None
    return SolveReport(terminal_state=y, nfe=nfe,
                       accepted_steps=accepted, rejected_steps=rejected, quadrature=q)


def odesolve(y0: np.ndarray, t_start: float, t_end: float, fn: Field, cfg: SolverConfig, *,
             scored: int | None = None, quadrature: np.ndarray | None = None) -> SolveReport:
    """Integrate ``dy/dt = fn(t, y)`` from ``t_start`` to ``t_end``.

    ``t_end < t_start`` integrates backward.  dopri5's error norm scores
    the first ``scored`` components of the state (all of them when None).

    With ``quadrature = q0``, ``fn`` returns a pair ``(dy, integrand)``,
    where ``integrand()`` takes no argument and returns the stage's ``dq``.
    The report's ``quadrature`` is ``q0`` plus the integral of ``dq`` from
    ``t_start`` to ``t_end`` (a backward solve subtracts), taken with the
    method's own weights over each accepted step: dopri5's 5th-order
    weights, RK4's ``(1, 2, 2, 1)/6``, Euler's one stage.  ``dq`` never
    enters the state or the error norm.  The solver calls ``integrand``
    only where its weight reaches an accepted step: every fixed-step
    stage, and for dopri5 the start point, stages 3 to 6 of every attempt
    and the FSAL stage of every accepted step but the last, so
    ``5 * accepted + 4 * rejected`` calls.  Stage 2 (``b_2 = 0``), the
    first-step probe among them, and the FSAL stage of a rejected or final
    step never run theirs.  Each integrand is called before the field's
    next evaluation or never: the FSAL stage's runs once its step is
    accepted, before the next attempt's first evaluation.  The array an
    integrand returns belongs to the solver, which weights it in place, so
    ``integrand()`` returns a new array on every call.

    dopri5's ``nfe`` is ``1 + 6 * attempts``, plus 1 when the first-step
    probe, the first attempt's stage 2, restarts that attempt at a shorter
    step.  A restart is neither a rejected step nor an attempt against
    ``max_steps``.  An interval under dopri5's cutoff of ``1e-14 * max(1,
    |t_end - t_start|)`` takes no step and calls nothing.

    Neither array of the caller's is copied.  ``y0`` is never written: every
    step builds a new state, and a solve that takes no step returns a copy
    of ``y0``.  A float ``q0`` is the accumulator itself: the integral is
    added to it in place and the report's ``quadrature`` is ``q0``, so a
    caller passes an array it gives up.  Only the empty interval
    ``t_start == t_end``, which calls nothing, returns copies of both.
    """
    if scored is not None and scored < 1:
        raise ValueError(f"scored prefix must be positive, got {scored}")
    # an infinite or NaN end, or finite ends whose distance overflows
    if not math.isfinite(t_end - t_start):
        raise ValueError(f"the length of the interval [{t_start}, {t_end}] is not finite")
    y0 = np.asarray(y0, dtype=float)
    _check_finite(y0, t_start)
    q0 = None if quadrature is None else np.asarray(quadrature, dtype=float)
    if t_start == t_end:
        return SolveReport(terminal_state=y0.copy(), nfe=0, accepted_steps=0, rejected_steps=0,
                           quadrature=None if q0 is None else q0.copy())
    if cfg.method in _FIXED:
        return _solve_fixed(y0, t_start, t_end, fn, cfg, q0)
    return _solve_dopri5(y0, t_start, t_end, fn, cfg, scored, q0)
