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
            SolverConfig(error_norm="semi")

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
        assert rep.nfe == 1 + 6 * (rep.accepted_steps + rep.rejected_steps)

    def test_dopri5_handoff_skips_initial_eval(self):
        y0 = np.array([1.0])
        rep = odesolve(y0, 0.0, 1.0, lambda t, y: y, dopri(), f_start=y0.copy())
        assert rep.nfe == 6 * (rep.accepted_steps + rep.rejected_steps)

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
        # with huge tolerances the max_step binds, exposing pure truncation error
        def err(h):
            cfg = dopri(rtol=1e3, atol=1e3, max_step=h)
            rep = odesolve(np.array([1.0]), 0.0, 1.0, lambda t, y: y, cfg)
            return abs(rep.terminal_state[0] - np.e)

        assert err(0.1) / err(0.05) >= 2 ** 4

    def test_semi_norm_ignores_suffix_error(self):
        # the suffix component is stiff; the semi norm should not see it
        def fn(t, y):
            return np.array([y[0], -80.0 * y[1]])

        full = odesolve(np.array([1.0, 1.0]), 0.0, 1.0, fn, dopri(rtol=1e-6, atol=1e-6))
        semi = odesolve(np.array([1.0, 1.0]), 0.0, 1.0, fn,
                        dopri(rtol=1e-6, atol=1e-6, error_norm="semi", semi_prefix=1))
        assert semi.accepted_steps + semi.rejected_steps < full.accepted_steps + full.rejected_steps
        assert abs(semi.terminal_state[0] - np.e) < 1e-4


class TestErrors:
    def test_max_steps(self):
        cfg = SolverConfig(method="euler", fixed_step=1e-4, max_steps=10)
        with pytest.raises(MaxStepsExceeded):
            odesolve(np.array([1.0]), 0.0, 1.0, lambda t, y: y, cfg)

    def test_non_finite_state(self):
        # finite-time blowup of dy/dt = y^2 from y(0)=1 at t=1
        with pytest.raises(NonFiniteState):
            odesolve(np.array([1.0]), 0.0, 4.0, lambda t, y: y ** 2,
                     SolverConfig(method="euler", fixed_step=0.1))

    def test_non_finite_initial_state(self):
        with pytest.raises(NonFiniteState):
            odesolve(np.array([np.nan]), 0.0, 1.0, lambda t, y: y, dopri())
