import numpy as np
import pytest

from snopt_kit.odesolve import MaxStepsExceeded, NonFiniteState, SolverConfig, odesolve


def dopri(rtol=1e-8, atol=1e-8, **kw):
    return SolverConfig(method="dopri5", rtol=rtol, atol=atol, **kw)


class TestConfigValidation:
    def test_fixed_step_required(self):
        with pytest.raises(ValueError):
            SolverConfig(method="rk4")

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(rtol=0.0)

    def test_semi_needs_prefix(self):
        with pytest.raises(ValueError):
            odesolve(np.array([1.0]), 0.0, 1.0, lambda t, y: y, dopri(), scored=0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="rk45")


class TestBasicSolves:
    def test_zero_field(self):
        rep = odesolve(np.array([1.0, 2.0]), 0.0, 3.7, lambda t, y: np.zeros_like(y), dopri())
        assert np.allclose(rep.terminal_state, [1.0, 2.0])

    def test_exponential(self):
        rep = odesolve(np.array([1.0]), 0.0, 1.0, lambda t, y: y, dopri())
        assert abs(rep.terminal_state[0] - np.e) < 1e-6

    def test_cosine_integral(self):
        rep = odesolve(np.array([0.0]), 0.0, np.pi / 2,
                       lambda t, y: np.array([np.cos(t)]), dopri())
        assert abs(rep.terminal_state[0] - 1.0) < 1e-6

    def test_backward_direction(self):
        # dy/dt = y solved from 1 back to 0 inverts the growth
        rep = odesolve(np.array([np.e]), 1.0, 0.0, lambda t, y: y, dopri())
        assert abs(rep.terminal_state[0] - 1.0) < 1e-6

    def test_zero_length_interval(self):
        rep = odesolve(np.array([5.0]), 1.0, 1.0, lambda t, y: y, dopri())
        assert rep.nfe == 0 and rep.terminal_state[0] == 5.0

    def test_deterministic(self):
        fn = lambda t, y: np.sin(y) + t
        a = odesolve(np.array([0.3]), 0.0, 2.0, fn, dopri())
        b = odesolve(np.array([0.3]), 0.0, 2.0, fn, dopri())
        assert np.array_equal(a.terminal_state, b.terminal_state)
        assert a.nfe == b.nfe


class TestStepAccounting:
    def test_rk4_stage_count(self):
        cfg = SolverConfig(method="rk4", fixed_step=0.1)
        rep = odesolve(np.array([1.0]), 0.0, 1.0, lambda t, y: y, cfg)
        assert rep.accepted_steps == 10
        assert rep.nfe == 40
        assert rep.rejected_steps == 0

    def test_euler_stage_count(self):
        cfg = SolverConfig(method="euler", fixed_step=0.1)
        rep = odesolve(np.array([1.0]), 0.0, 1.0, lambda t, y: y, cfg)
        assert rep.nfe == 10

    def test_dopri5_fsal_accounting(self):
        rep = odesolve(np.array([1.0]), 0.0, 1.0, lambda t, y: y, dopri())
        # one evaluation at the start, six per attempt, and one for the
        # first-step probe, whose attempt restarts here: d2 and d1 agree up to
        # rounding, and the rule's step after the probe is an ulp shorter
        assert rep.nfe == 2 + 6 * (rep.accepted_steps + rep.rejected_steps)

    def test_nfe_counts_actual_calls(self):
        calls = [0]

        def fn(t, y):
            calls[0] += 1
            return y

        rep = odesolve(np.array([1.0]), 0.0, 1.0, fn, dopri())
        assert calls[0] == rep.nfe


class TestAccuracyProperties:
    def test_rk4_time_reversal(self):
        # forward then backward on dy/dt = -y returns to the start
        cfg = SolverConfig(method="rk4", fixed_step=1e-2)
        fn = lambda t, y: -y
        fwd = odesolve(np.array([1.0]), 0.0, 1.0, fn, cfg)
        back = odesolve(fwd.terminal_state, 1.0, 0.0, fn, cfg)
        assert abs(back.terminal_state[0] - 1.0) < 1e-6

    def test_dopri5_order_under_step_halving(self):
        # at huge tolerances each solve's first step is its whole interval, so
        # chained solves of length h take steps of h: pure truncation error
        def err(h):
            y = np.array([1.0])
            for i in range(round(1 / h)):
                rep = odesolve(y, i * h, (i + 1) * h, lambda t, y: y, dopri(rtol=1e3, atol=1e3))
                assert rep.accepted_steps == 1 and rep.rejected_steps == 0
                y = rep.terminal_state
            return abs(y[0] - np.e)

        assert err(0.1) / err(0.05) >= 2 ** 4

    def test_semi_norm_ignores_suffix_error(self):
        # the suffix component is stiff; the semi norm should not see it
        def fn(t, y):
            return np.array([y[0], -80.0 * y[1]])

        full = odesolve(np.array([1.0, 1.0]), 0.0, 1.0, fn, dopri(rtol=1e-6, atol=1e-6))
        semi = odesolve(np.array([1.0, 1.0]), 0.0, 1.0, fn, dopri(rtol=1e-6, atol=1e-6),
                        scored=1)
        assert semi.accepted_steps + semi.rejected_steps < full.accepted_steps + full.rejected_steps
        assert abs(semi.terminal_state[0] - np.e) < 1e-4


def call_log(fn):
    """Wrap ``fn`` to record the time of every call."""
    times = []

    def logged(t, y):
        times.append(t)
        return fn(t, y)

    return logged, times


def first_step(fn, t_start, t_end, y0, cfg):
    """Length of dopri5's first step, read off the time of its last stage.

    The first attempt's stage 2 is the first-step probe; when the attempt
    restarts, one call more than ``1 + 6 * attempts`` precedes it.
    """
    logged, times = call_log(fn)
    rep = odesolve(np.asarray(y0, dtype=float), t_start, t_end, logged, cfg)
    restarted = rep.nfe - 1 - 6 * (rep.accepted_steps + rep.rejected_steps)
    assert restarted in (0, 1)
    return abs(times[6 + restarted] - t_start)


class TestInitialStep:
    def test_probe_is_one_counted_call(self):
        # one call at the start and six per attempt; the probe, inside the
        # interval, is the first attempt's stage 2, and costs one call more
        # only where it binds: scoring y0 alone, whose derivative is 0 at the
        # start, the first attempt spans the interval and restarts
        for t_start, t_end, cfg, scored, restarts in ((0.0, 1.0, dopri(), None, 0),
                                                      (1.0, 0.0, dopri(1e-3, 1e-3), None, 0),
                                                      (0.0, 2.0, dopri(), 1, 1)):
            fn, times = call_log(lambda t, y: np.array([y[1], -y[0]]))
            rep = odesolve(np.array([1.0, 0.0]), t_start, t_end, fn, cfg, scored=scored)
            attempts = rep.accepted_steps + rep.rejected_steps
            assert len(times) == rep.nfe == 1 + 6 * attempts + restarts
            assert times[0] == t_start
            assert 0 < (times[1] - t_start) / (t_end - t_start) < 1

    def test_probe_that_does_not_bind_is_stage_two(self):
        # y' = -0.5 y: d2 = d1 / 2, so the rule allows the probe's own step, and
        # the solve is the one a separate probe gave, one call cheaper
        fn, times = call_log(lambda t, y: -0.5 * y)
        rep = odesolve(np.array([1.0]), 0.0, 1.0, fn, dopri(1e-3, 1e-3))
        assert (rep.nfe, rep.accepted_steps, rep.rejected_steps) == (13, 2, 0)
        assert len(times) == 13
        # call 6 is the first step's last stage, at its end
        assert times[1] == pytest.approx(times[6] / 5, rel=1e-15)
        assert rep.terminal_state[0] == 0.606531067928576   # with a separate probe

    def test_probe_that_binds_restarts_the_attempt(self):
        # y' = -4 y from 1 at scale s = atol + rtol: d0 = 1/s and d1 = 4/s, so
        # the attempt before the probe is h_t = min(100 h0, d1^(-1/5)) with
        # h0 = 0.01 d0 / d1; its stage 2 measures d2 = 16/s, and the attempt
        # restarts at h = d2^(-1/5) < h_t
        s = 2e-3
        h_t = min(100 * 0.01 / 4, (s / 4) ** 0.2)
        h = (s / 16) ** 0.2
        fn, times = call_log(lambda t, y: -4.0 * y)
        rep = odesolve(np.array([1.0]), 0.0, 1.0, fn, dopri(1e-3, 1e-3))
        assert rep.nfe == len(times) == 2 + 6 * (rep.accepted_steps + rep.rejected_steps)
        assert times[1] == pytest.approx(h_t / 5, rel=1e-12)
        assert times[2] == pytest.approx(h / 5, rel=1e-12)
        assert times[7] == pytest.approx(h, rel=1e-12)

    def test_aims_at_the_tolerance(self):
        # y' = (y1, -y0) from (1, 0): f0 = (0, -1) and, after a probe of length
        # p, f1 - f0 = (-p, 0), so with scale = atol + rtol * |y0| = (atol +
        # rtol, atol) the scaled norms are d0 = 1 / (sqrt 2 (atol + rtol)), d1 =
        # 1 / (sqrt 2 atol) and d2 = d0.  The step predicts a local error of the
        # tolerance itself, capped by 100 h0 and by the interval.
        rotate = lambda t, y: np.array([y[1], -y[0]])
        for rtol, atol, total in ((1e-3, 1e-3, 1.0), (1e-6, 1e-7, 1.0), (1e-1, 1e-1, 1.0),
                                  (1e-3, 1e-3, 0.1)):
            d0 = d2 = 1 / (np.sqrt(2) * (atol + rtol))
            d1 = 1 / (np.sqrt(2) * atol)
            h0 = 0.01 * d0 / d1
            want = min(100 * h0, (1 / max(d1, d2)) ** 0.2, total)
            h = first_step(rotate, 0.0, total, [1.0, 0.0], dopri(rtol, atol))
            assert h == pytest.approx(want, rel=1e-12)

    def test_bounded_by_interval(self):
        # a slow field on loose tolerances wants a step far longer than the interval
        slow = lambda t, y: 1e-6 * y
        for t_end in (0.05, 1.0, 1e-9):
            for t_start, t_stop in ((0.0, t_end), (t_end, 0.0)):
                h = first_step(slow, t_start, t_stop, [1.0], dopri(1e-2, 1e-2))
                assert h == t_end
        # and the solve lands on the end of a 0.05 interval
        rep = odesolve(np.array([1.0]), 0.0, 0.05, lambda t, y: y, dopri(1e-3, 1e-3))
        assert abs(rep.terminal_state[0] - np.exp(0.05)) < 1e-3

    def test_zero_field_and_zero_state(self):
        zero = lambda t, y: np.zeros_like(y)
        for fn, y0 in ((zero, [1.0, 2.0]), (lambda t, y: y + 1.0, [0.0, 0.0]), (zero, [0.0])):
            h = first_step(fn, 0.0, 1.0, y0, dopri())
            assert np.isfinite(h) and 0 < h <= 1.0
        rep = odesolve(np.zeros(2), 0.0, 1.0, lambda t, y: y + 1.0, dopri())
        assert np.allclose(rep.terminal_state, np.e - 1.0, atol=1e-6)

    def test_zero_field_takes_one_step(self):
        # no measurable change: the whole interval is tried, and accepted
        for tol in (1e-3, 1e-8):
            rep = odesolve(np.array([1.0, 1.0]), 0.0, 1.0, lambda t, y: np.zeros_like(y),
                           dopri(tol, tol))
            assert (rep.nfe, rep.accepted_steps, rep.rejected_steps) == (7, 1, 0)
            assert np.array_equal(rep.terminal_state, [1.0, 1.0])

    def test_semi_norm_ignores_unscored_tail(self):
        # the tail is decoupled and unscored: its scale must not move any step
        def fn(t, y):
            return np.concatenate([[np.cos(t) * y[0]], -3.0 * y[1:]])

        cfg = dopri(1e-5, 1e-5)
        seqs = []
        for tail in (1.0, 1e6):
            logged, times = call_log(fn)
            rep = odesolve(np.array([1.0, tail, -tail]), 0.0, 1.5, logged, cfg, scored=1)
            seqs.append((times, rep.terminal_state[0]))
        assert seqs[0] == seqs[1]

    def test_backward_mirrors_forward(self):
        # y' = lam*y from 0 back to -T is y' = -lam*y from 0 to T, step for step
        for lam in (0.5, -2.0):
            fwd_fn, fwd_times = call_log(lambda t, y: -lam * y)
            bwd_fn, bwd_times = call_log(lambda t, y: lam * y)
            fwd = odesolve(np.array([1.0, -0.5]), 0.0, 1.3, fwd_fn, dopri(1e-6, 1e-6))
            bwd = odesolve(np.array([1.0, -0.5]), 0.0, -1.3, bwd_fn, dopri(1e-6, 1e-6))
            assert bwd_times == [-t for t in fwd_times]
            assert np.array_equal(bwd.terminal_state, fwd.terminal_state)
            assert (bwd.nfe, bwd.accepted_steps) == (fwd.nfe, fwd.accepted_steps)

    def test_non_finite_probe(self):
        # finite at y0, NaN one Euler step away: the probe raises before any step
        y0 = np.array([1.0, 0.5])
        fn, times = call_log(lambda t, y: np.where(y > y0, np.nan, 1.0))
        with pytest.raises(NonFiniteState, match="probe"):
            odesolve(y0, 0.0, 1.0, fn, dopri())
        assert len(times) == 2

    # the overflow is the case under test, and odesolve called directly runs
    # outside the np.errstate that train sets, so numpy warns as it happens
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_start_norm(self):
        # a finite derivative whose scaled norm overflows leaves h0 = 0, and the
        # probe's quotient used to raise ZeroDivisionError
        for scale in (1e300, 1e160):
            fn, times = call_log(lambda t, y: scale * y)
            with pytest.raises(NonFiniteState, match="overflows at the start"):
                odesolve(np.array([1.0, 2.0]), 0.0, 1.0, fn, dopri(1e-3, 1e-3))
            assert times == [0.0]


def quad_solve(y0, t_start, t_end, fn, cfg, integrand, q0=(0.0,)):
    """Solve ``y' = fn`` with ``integrand(t, y)`` as the quadrature, run when the solver asks."""
    return odesolve(np.asarray(y0, dtype=float), t_start, t_end,
                    lambda t, y: (fn(t, y), lambda: integrand(t, y)), cfg,
                    quadrature=np.asarray(q0, dtype=float))


def powers(degrees):
    """Integrand ``[t^d for d in degrees]`` and its exact integral over [a, b]."""
    degrees = np.asarray(degrees, dtype=float)
    return (lambda t, y: t ** degrees,
            lambda a, b: (b ** (degrees + 1) - a ** (degrees + 1)) / (degrees + 1))


DECAY = lambda t, y: -3.0 * y   # a state that makes dopri5 take several steps


class TestQuadrature:
    def test_dopri5_exact_through_degree_four(self):
        integrand, exact = powers([0, 1, 2, 3, 4])
        for t_start, t_end in ((0.0, 1.7), (0.3, 2.0), (1.5, -0.5)):
            rep = quad_solve([1.0], t_start, t_end, DECAY, dopri(1e-6, 1e-6), integrand,
                             q0=np.zeros(5))
            assert rep.accepted_steps > 2
            np.testing.assert_allclose(rep.quadrature, exact(t_start, t_end),
                                       rtol=1e-13, atol=1e-14)

    def test_rk4_exact_through_degree_three_not_four(self):
        integrand, exact = powers([0, 1, 2, 3, 4])
        cfg = SolverConfig(method="rk4", fixed_step=0.3)
        rep = quad_solve([1.0], 0.2, 1.9, DECAY, cfg, integrand, q0=np.zeros(5))
        want = exact(0.2, 1.9)
        np.testing.assert_allclose(rep.quadrature[:4], want[:4], rtol=1e-13)
        assert abs(rep.quadrature[4] - want[4]) > 1e-6   # Simpson's rule misses t^4

    def test_euler_takes_its_one_stage(self):
        # left-point rule: exact for constants, sum of h * t_i for t
        cfg = SolverConfig(method="euler", fixed_step=0.25)
        rep = quad_solve([1.0], 0.0, 1.0, DECAY, cfg, lambda t, y: np.array([1.0, t]),
                         q0=np.zeros(2))
        np.testing.assert_allclose(rep.quadrature, [1.0, 0.25 * (0 + 0.25 + 0.5 + 0.75)],
                                   rtol=1e-15)

    def test_backward_solve_subtracts(self):
        for cfg in (dopri(), SolverConfig(method="rk4", fixed_step=0.1)):
            rep = quad_solve([1.0], 1.0, 0.0, DECAY, cfg, lambda t, y: np.array([1.0, t]),
                             q0=[5.0, 0.0])
            np.testing.assert_allclose(rep.quadrature, [4.0, -0.5], rtol=1e-13)

    def test_rejected_attempts_contribute_nothing(self):
        # a constant integrand sums to the span only if rejected attempts drop out
        stiff = lambda t, y: np.array([y[0], -80.0 * y[1]])
        rep = quad_solve([1.0, 1.0], 0.0, 1.0, stiff, dopri(1e-6, 1e-6),
                         lambda t, y: np.ones(1))
        assert rep.rejected_steps > 0
        assert abs(rep.quadrature[0] - 1.0) < 1e-13

    def test_probe_integrand_is_ignored(self):
        # the second call is the first-step probe; its integrand is huge
        calls = [0]

        def field(t, y):
            calls[0] += 1
            value = np.array([1e9 if calls[0] == 2 else 1.0])
            return DECAY(t, y), lambda: value

        rep = odesolve(np.array([1.0]), 0.0, 1.0, field, dopri(), quadrature=np.zeros(1))
        assert calls[0] == rep.nfe
        assert abs(rep.quadrature[0] - 1.0) < 1e-13

    def test_state_and_steps_unchanged(self):
        fn = lambda t, y: np.array([y[1], -np.sin(y[0])])
        for cfg in (dopri(1e-5, 1e-5), SolverConfig(method="rk4", fixed_step=0.07)):
            plain = odesolve(np.array([1.0, 0.0]), 2.0, 0.0, fn, cfg)
            rep = quad_solve([1.0, 0.0], 2.0, 0.0, fn, cfg, lambda t, y: y ** 2, q0=np.zeros(2))
            assert np.array_equal(rep.terminal_state, plain.terminal_state)
            assert (rep.nfe, rep.accepted_steps, rep.rejected_steps) == (
                plain.nfe, plain.accepted_steps, plain.rejected_steps)
            assert plain.quadrature is None


def observed(y0, t_start, t_end, fn, cfg, integrand=lambda t, y: np.ones(1), q0=(0.0,)):
    """Quadrature solve; returns the report and the (t, y copy) pairs its field saw."""
    seen = []

    def watch(t, y):
        seen.append((t, y.copy()))
        return fn(t, y)

    return quad_solve(y0, t_start, t_end, watch, cfg, integrand, q0), seen


ALL_METHODS = (dopri(rtol=1e-6, atol=1e-6), SolverConfig(method="rk4", fixed_step=0.07),
               SolverConfig(method="euler", fixed_step=0.07))


class TestObserve:
    """A quadrature field observes the solve: it sees each stage's ``(t, y)``,
    and what its integrand returns never reaches the state or the steps."""

    def test_each_time_once_in_order(self):
        # fixed steps: each stage time once, step after step, in both directions
        fn = lambda t, y: np.cos(t) * y
        for method, offsets in (("euler", [0.0]), ("rk4", [0.0, 0.5, 0.5, 1.0])):
            cfg = SolverConfig(method=method, fixed_step=0.07)
            for t_start, t_end in ((0.0, 1.3), (1.3, 0.0)):
                rep, seen = observed(np.array([1.0, -2.0]), t_start, t_end, fn, cfg)
                ends = np.append(t_start + np.sign(t_end - t_start) * 0.07 * np.arange(19), t_end)
                want = [a + c * (b - a) for a, b in zip(ends, ends[1:]) for c in offsets]
                assert len(seen) == rep.nfe == len(want)
                np.testing.assert_allclose([t for t, _ in seen], want, rtol=0, atol=1e-12)

    def test_endpoints_bit_exact(self):
        # every method starts at (t_start, y0); dopri5's last stage is the
        # terminal state itself (FSAL)
        y0 = np.array([0.3, -1.7])
        fn = lambda t, y: np.sin(y) + t
        for cfg in ALL_METHODS:
            for t_start, t_end in ((1.0, 0.0), (0.0, 1.3)):
                rep, seen = observed(y0, t_start, t_end, fn, cfg)
                assert seen[0][0] == t_start and np.array_equal(seen[0][1], y0)
                if cfg.method == "dopri5":
                    assert seen[-1][0] == t_end
                    assert np.array_equal(seen[-1][1], rep.terminal_state)

    def test_dopri5_matches_exponential(self):
        # along y' = y from 1, the integral of y over [0, 1] is e - 1
        for tol in (1e-3, 1e-6, 1e-9):
            rep, _ = observed(np.array([1.0]), 0.0, 1.0, lambda t, y: y, dopri(tol, tol),
                              lambda t, y: y.copy())
            assert abs(rep.quadrature[0] - (np.e - 1.0)) < 10 * tol

    def test_dopri5_steps_do_not_depend_on_times(self):
        # integrands of any width in t leave the state and the steps alone
        fn = lambda t, y: np.array([y[1], -np.sin(y[0])])
        y0 = np.array([1.0, 0.0])
        plain = odesolve(y0, 2.0, 0.0, fn, dopri(1e-5, 1e-5))
        for n in (2, 13, 101):
            rep, _ = observed(y0, 2.0, 0.0, fn, dopri(1e-5, 1e-5),
                              lambda t, y: t ** np.arange(n), q0=np.zeros(n))
            assert rep.quadrature.size == n
            assert np.array_equal(rep.terminal_state, plain.terminal_state)
            assert (rep.nfe, rep.accepted_steps, rep.rejected_steps) == (
                plain.nfe, plain.accepted_steps, plain.rejected_steps)

    def test_zero_length_interval(self):
        q0 = np.array([2.0, 3.0])
        seen = []
        rep = quad_solve([5.0], 1.0, 1.0, DECAY, dopri(),
                         lambda t, y: seen.append(t) or np.ones(2), q0=q0)
        assert rep.nfe == 0 and seen == []
        assert np.array_equal(rep.quadrature, q0) and rep.quadrature is not q0
        assert rep.terminal_state[0] == 5.0

    def test_max_steps_bounds_the_whole_observed_solve(self):
        # ten rk4 steps in one call: nine attempts are too few, ten suffice
        fn = lambda t, y: y
        with pytest.raises(MaxStepsExceeded):
            observed(np.array([1.0]), 0.0, 1.0, fn,
                     SolverConfig(method="rk4", fixed_step=0.1, max_steps=9))
        rep, _ = observed(np.array([1.0]), 0.0, 1.0, fn,
                          SolverConfig(method="rk4", fixed_step=0.1, max_steps=10))
        assert rep.accepted_steps == 10
        steps = odesolve(np.array([1.0]), 0.0, 1.0, fn, dopri()).accepted_steps
        with pytest.raises(MaxStepsExceeded):
            observed(np.array([1.0]), 0.0, 1.0, fn, dopri(max_steps=steps - 1))


def integrand_log(fn, cfg, y0, t_start, t_end):
    """Quadrature solve of ``y' = fn``; returns the report, the number of
    field calls and the indices of the calls whose integrand the solver ran.

    An integrand that runs after a later field call fails the solve: a
    field may keep a stage's intermediates in buffers that its next
    evaluation overwrites (``adjoint.BackwardSweep.field`` does).
    """
    calls, ran = [0], []

    def field(t, y):
        index = calls[0]
        calls[0] += 1

        def integrand():
            assert calls[0] == index + 1, f"integrand {index} ran after call {calls[0] - 1}"
            ran.append(index)
            return np.ones(1)

        return fn(t, y), integrand

    rep = odesolve(np.asarray(y0, dtype=float), t_start, t_end, field, cfg,
                   quadrature=np.zeros(1))
    return rep, calls[0], ran


class TestIntegrandContract:
    """The solver runs an integrand only where its weight reaches an accepted
    step, and before the field's next evaluation (``integrand_log``)."""

    def test_dopri5_skips_probe_zero_weight_and_unused_fsal(self):
        stiff = lambda t, y: np.array([y[0], -80.0 * y[1]])
        rejected = []
        for fn, y0, t_start, t_end in ((stiff, [1.0, 1.0], 0.0, 1.0),
                                       (DECAY, [1.0], 2.0, 0.0)):
            rep, calls, ran = integrand_log(fn, dopri(1e-6, 1e-6), y0, t_start, t_end)
            attempts = rep.accepted_steps + rep.rejected_steps
            assert calls == rep.nfe
            assert len(ran) == 5 * rep.accepted_steps + 4 * rep.rejected_steps
            assert len(set(ran)) == len(ran)      # each integrand at most once
            assert ran[0] == 0 and 1 not in ran   # the start point, never the probe
            # both solves' first-step probes bind, so attempt j's calls are
            # 2 + 6j .. 7 + 6j after the probe's: stage 2 never, stages 3 to 6
            # always, the FSAL stage only after an accepted, non-final step
            stage = [(i - 2) % 6 for i in ran[1:]]
            assert 0 not in stage
            assert [stage.count(s) for s in (1, 2, 3, 4)] == [attempts] * 4
            assert stage.count(5) == rep.accepted_steps - 1
            assert calls - 1 not in ran
            assert abs(rep.quadrature[0] - (t_end - t_start)) < 1e-13
            rejected.append(rep.rejected_steps)
        assert rejected[0] > 0   # the stiff solve exercises rejected attempts

    def test_fixed_steps_run_every_stage(self):
        for method, stages in (("rk4", 4), ("euler", 1)):
            cfg = SolverConfig(method=method, fixed_step=0.1)
            rep, calls, ran = integrand_log(DECAY, cfg, [1.0], 0.0, 1.0)
            assert rep.accepted_steps == 10
            assert ran == list(range(calls)) and calls == rep.nfe == stages * 10


class TestCallerArrays:
    """odesolve copies neither of the caller's arrays and writes only ``q0``."""

    @pytest.mark.parametrize("cfg", [dopri(1e-6, 1e-6), SolverConfig(method="rk4", fixed_step=0.1),
                                     SolverConfig(method="euler", fixed_step=0.1)],
                             ids=["dopri5", "rk4", "euler"])
    def test_y0_is_read_and_q0_accumulates(self, cfg):
        y0 = np.array([1.0, -0.5, 2.0])
        kept = y0.tobytes()
        q0 = np.zeros(1)
        rep = quad_solve(y0, 0.0, 1.3, DECAY, cfg, powers([0])[0], q0=q0)
        assert y0.tobytes() == kept
        assert not np.shares_memory(rep.terminal_state, y0)
        assert rep.quadrature is q0
        assert abs(q0[0] - 1.3) < 1e-12

    def test_interval_below_the_cutoff_returns_a_copy(self):
        # dopri5 takes no step and calls nothing on an interval under its
        # 1e-14 cutoff, so its state is still y0: the report must not hand the
        # caller's array back
        y0 = np.array([1.0, 2.0])
        rep = odesolve(y0, 0.0, 1e-16, lambda t, y: y, dopri())
        assert rep.nfe == rep.accepted_steps == rep.rejected_steps == 0
        assert not np.shares_memory(rep.terminal_state, y0)
        assert np.array_equal(rep.terminal_state, y0)


class TestErrors:
    def test_max_steps(self):
        cfg = SolverConfig(method="euler", fixed_step=1e-4, max_steps=10)
        with pytest.raises(MaxStepsExceeded):
            odesolve(np.array([1.0]), 0.0, 1.0, lambda t, y: y, cfg)

    # the blowup overflows in the field's own y ** 2, which numpy warns of
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state(self):
        # finite-time blowup of dy/dt = y^2 from y(0)=1 at t=1
        with pytest.raises(NonFiniteState):
            odesolve(np.array([1.0]), 0.0, 4.0, lambda t, y: y ** 2,
                     SolverConfig(method="euler", fixed_step=0.1))

    def test_non_finite_initial_state(self):
        with pytest.raises(NonFiniteState):
            odesolve(np.array([np.nan]), 0.0, 1.0, lambda t, y: y, dopri())

    def test_non_finite_interval(self):
        # dopri5's cutoff would scale with an infinite span and take no step, and
        # finite ends 2e308 apart overflow rk4's step count
        for t_start, t_end in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan),
                               (-1e308, 1e308), (1e308, -1e308)):
            for cfg in (dopri(), SolverConfig(method="rk4", fixed_step=0.1)):
                with pytest.raises(ValueError, match="not finite"):
                    odesolve(np.array([1.0]), t_start, t_end, lambda t, y: y, cfg)
