import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from snopt_kit import vector_field as vf
from snopt_kit.horizon import (HorizonConfig, HorizonState, HorizonTerms, NonFiniteUpdate,
                               first_order_horizon_step, horizon_step, horizon_terms)
from snopt_kit.odesolve import SolverConfig
from snopt_kit.oracle import flow


def scalar_exp_spec():
    # dx/dt = w x with w = 1 encodes exponential growth
    spec = vf.MlpSpec(dims=(1, 1), activations=("identity",), bias=False)
    return spec, np.array([1.0])


class TestHorizonTerms:
    def test_orthogonal_loss_direction(self):
        spec = vf.MlpSpec(dims=(2, 2), activations=("identity",), bias=False)
        theta = np.array([0.0, 1.0, -1.0, 0.0])  # rotation generator
        x1 = np.array([[1.0, 0.0]])
        f_val = vf.eval(spec, theta, 0.0, x1)
        phi_grad = np.array([[1.0, 0.0]])
        assert abs(float(np.sum(phi_grad * f_val))) < 1e-12
        terms = horizon_terms(spec, theta, x1, phi_grad, t_bar=1.5, penalty=0.7)
        assert terms.s == pytest.approx(0.0)
        assert terms.qt == pytest.approx(0.7 * 1.5)
        assert terms.qtt == pytest.approx(0.7)

    def test_reads_the_value_path(self, monkeypatch):
        # F(T, x1) comes from one value-only evaluation, the full trace's last
        # entry bit for bit
        spec = vf.MlpSpec(dims=(2, 16, 16, 2), activations=("tanh", "tanh", "identity"))
        theta = vf.init_params(spec, 2)
        rng = np.random.default_rng(4)
        x1, phi_grad = rng.normal(size=(32, 2)), rng.normal(size=(32, 2))
        f = vf._forward(spec, vf.unpack_params(spec, theta), 0.8, x1).zs[-1]
        modes = []
        forward = vf._forward

        def logged(*args, **kwargs):
            modes.append(kwargs.get("value_only", False))
            return forward(*args, **kwargs)

        monkeypatch.setattr(vf, "_forward", logged)
        terms = horizon_terms(spec, theta, x1, phi_grad, t_bar=0.8, penalty=0.5)
        assert modes == [True]
        assert terms.s == float(np.mean(np.sum(phi_grad * f, axis=1)))

    def test_degenerate_all_zero(self):
        spec = vf.MlpSpec(dims=(2, 2), activations=("identity",), bias=False)
        theta = np.array([0.0, 1.0, -1.0, 0.0])
        terms = horizon_terms(spec, theta, np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]),
                              t_bar=1.0, penalty=0.0)
        assert terms.qt == 0.0 and terms.qtt == 0.0

    def test_scalar_exponential_fd(self):
        # L(T) = 0.5 x(T)^2 + (c/2) T^2 for dx/dt = x: dL/dT = x(T)^2 + cT
        spec, theta = scalar_exp_spec()
        cfg = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10)
        c, t_bar = 0.3, 1.0
        x0 = np.array([[1.0]])

        def objective(T):
            x = flow(spec, theta, x0, 0.0, T, cfg)
            return 0.5 * x[0, 0] ** 2 + 0.5 * c * T ** 2

        x1 = flow(spec, theta, x0, 0.0, t_bar, cfg)
        terms = horizon_terms(spec, theta, x1, x1, t_bar, c)
        assert terms.s == pytest.approx(np.e ** 2, rel=1e-8)
        h = 1e-6
        fd = (objective(t_bar + h) - objective(t_bar - h)) / (2 * h)
        assert terms.qt == pytest.approx(fd, rel=1e-5)

    def test_batch_mean_sensitivity(self):
        spec = vf.MlpSpec(dims=(1, 1), activations=("identity",), bias=False)
        theta = np.array([1.0])
        x1 = np.array([[1.0], [2.0]])
        pg = np.array([[1.0], [1.0]])
        terms = horizon_terms(spec, theta, x1, pg, 1.0, 0.0)
        assert terms.s == pytest.approx((1.0 * 1.0 + 1.0 * 2.0) / 2)


def seeded_state(**kw):
    settings = dict(penalty=0.5, lr=0.2, period=10, t_min=0.05, t_max=2.0, ema=0.9)
    settings.update(kw)
    return HorizonState(HorizonConfig(**settings))


class TestHorizonStep:
    def test_pure_newton_when_no_feedback(self):
        state = seeded_state()
        state.observe(HorizonTerms(qt=0.4, qtt=0.8, s=0.1))
        out = horizon_step(state, 1.0, np.zeros(3), np.zeros(3))
        assert out == pytest.approx(1.0 - 0.2 * 0.4 / 0.8)

    def test_penalty_shrinks_geometrically(self):
        # with the loss term frozen (s = 0) the update is T <- (1 - lr) T
        state = seeded_state(penalty=0.5, lr=0.25, t_min=0.0)
        t_bar = 1.5
        for _ in range(6):
            state.avg_qt = state.config.penalty * t_bar
            state.avg_qtt = state.config.penalty
            state.avg_s = 0.0
            t_bar = horizon_step(state, t_bar, np.zeros(2), np.zeros(2))
        assert t_bar == pytest.approx(1.5 * 0.75 ** 6)

    def test_feedback_term_enters(self):
        state = seeded_state()
        grad = np.array([1.0, 2.0])
        state.observe(HorizonTerms(qt=0.0, qtt=1.0, s=0.5))
        dtheta = np.array([0.1, 0.1])
        out = horizon_step(state, 1.0, grad, dtheta)
        # dt = (0 + 0.5 * <grad, dtheta>) / 1.0
        assert out == pytest.approx(1.0 - 0.2 * 0.5 * 0.3)

    def test_clamped_to_bounds(self):
        state = seeded_state(lr=5.0, t_min=0.05, t_max=2.0)
        state.observe(HorizonTerms(qt=10.0, qtt=1.0, s=0.0))
        assert horizon_step(state, 0.1, np.zeros(1), np.zeros(1)) == 0.05

    def test_requires_populated_averages(self):
        state = seeded_state()
        with pytest.raises(NonFiniteUpdate):
            horizon_step(state, 1.0, np.zeros(1), np.zeros(1))

    def test_non_finite_rejected(self):
        state = seeded_state()
        state.observe(HorizonTerms(qt=np.inf, qtt=1.0, s=0.0))
        with pytest.raises(NonFiniteUpdate):
            horizon_step(state, 1.0, np.zeros(1), np.zeros(1))


class TestFirstOrderStep:
    def test_zero_gradient_keeps_bound(self):
        state = seeded_state()
        state.avg_qt = 0.0
        assert first_order_horizon_step(state, 1.0) == 1.0

    def test_penalty_descent(self):
        state = seeded_state(lr=0.1, penalty=0.5)
        state.avg_qt = 0.5 * 1.0
        out = first_order_horizon_step(state, 1.0)
        assert out == pytest.approx(1.0 - 0.1 * 0.5)

    def test_non_finite_rejected(self):
        state = seeded_state()
        state.avg_qt = np.nan
        with pytest.raises(NonFiniteUpdate):
            first_order_horizon_step(state, 1.0)

    def test_requires_populated_averages(self):
        with pytest.raises(NonFiniteUpdate):
            first_order_horizon_step(seeded_state(), 1.0)


class TestMovingAverages:
    def test_first_observation_initializes(self):
        state = seeded_state()
        state.observe(HorizonTerms(qt=2.0, qtt=3.0, s=0.5))
        assert state.avg_qt == 2.0 and state.avg_qtt == 3.0 and state.avg_s == 0.5

    def test_exponential_update(self):
        state = seeded_state(ema=0.9)
        a = HorizonTerms(qt=1.0, qtt=1.0, s=0.0)
        b = HorizonTerms(qt=2.0, qtt=3.0, s=1.0)
        state.observe(a)
        state.observe(b)
        assert state.avg_qt == pytest.approx(0.9 * 1.0 + 0.1 * 2.0)
        assert state.avg_qtt == pytest.approx(0.9 * 1.0 + 0.1 * 3.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 10.0), st.floats(-50.0, 50.0))
def test_qtt_dominates_penalty(penalty, s):
    spec = vf.MlpSpec(dims=(1, 1), activations=("identity",), bias=False)
    theta = np.array([float(s)])
    x1 = np.array([[1.0]])
    terms = horizon_terms(spec, theta, x1, x1, 1.0, penalty)
    assert terms.qtt >= penalty
