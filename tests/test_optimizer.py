import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from snopt_kit import numerics as nm
from snopt_kit.kfac import KroneckerFactors
from snopt_kit.optimizer import (AdamState, SgdState, SnoptState, adam_step,
                                 sgd_step, snopt_step)


def spd(rng, d):
    m = rng.normal(size=(d, d))
    return m @ m.T + 0.1 * np.eye(d)


def one_layer_factors(a, b):
    return KroneckerFactors(a_factors=[a], b_factors=[b])


class TestSnoptStep:
    def test_zero_gradient_keeps_parameters(self):
        rng = np.random.default_rng(0)
        factors = one_layer_factors(spd(rng, 3), spd(rng, 2))
        theta = rng.normal(size=6)
        state = SnoptState(lr=0.5, epsilon=0.05, amortization=0.75)
        assert np.array_equal(snopt_step(state, factors, np.zeros(6), theta), theta)

    def test_identity_factors_elementwise_rule(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=6)
        theta = np.zeros(6)
        state = SnoptState(lr=1.0, epsilon=0.1, amortization=0.0)
        out = snopt_step(state, one_layer_factors(np.eye(3), np.eye(2)), g, theta)
        assert np.allclose(theta - out, g / (g ** 2 + 0.1))

    def test_matches_dense_eigenbasis_assembly(self):
        rng = np.random.default_rng(2)
        for p, l in [(2, 2), (4, 3), (8, 8)]:
            a, b = spd(rng, p), spd(rng, l)
            g = rng.normal(size=p * l)
            theta = rng.normal(size=p * l)
            eps = 0.05
            state = SnoptState(lr=1.0, epsilon=eps, amortization=0.0)
            delta = theta - snopt_step(state, one_layer_factors(a, b), g, theta)
            ea, eb = nm.sym_eigen(a), nm.sym_eigen(b)
            basis = np.kron(ea.vectors, eb.vectors)
            xg = basis.T @ g
            dense = basis @ (xg / (xg ** 2 + eps))
            assert np.linalg.norm(delta - dense) / np.linalg.norm(dense) < 1e-8

    def test_scale_behavior_identity_factors(self):
        # scaling the gradient by beta rescales the update to beta*g/(beta^2 g^2 + eps)
        rng = np.random.default_rng(3)
        g = rng.normal(size=4)
        beta = 3.0
        theta = np.zeros(4)
        eps = 0.05
        state = SnoptState(lr=1.0, epsilon=eps, amortization=0.0)
        out = snopt_step(state, one_layer_factors(np.eye(2), np.eye(2)), beta * g, theta)
        assert np.allclose(theta - out, beta * g / (beta ** 2 * g ** 2 + eps))

    def test_amortization_accumulates(self):
        # diagonal factors with distinct eigenvalues keep the eigenbasis trivial
        rng = np.random.default_rng(4)
        g = rng.normal(size=4)
        theta = np.zeros(4)
        state = SnoptState(lr=1.0, epsilon=0.05, amortization=0.75)
        factors = one_layer_factors(np.diag([2.0, 1.0]), np.diag([3.0, 1.0]))
        snopt_step(state, factors, g, theta)
        assert np.allclose(np.abs(state.s_star[0]).ravel(order="F"), 0.25 * g ** 2)
        snopt_step(state, factors, g, theta)
        assert np.allclose(state.s_star[0].ravel(order="F"),
                           (0.75 * 0.25 + 0.25) * g ** 2)

    def test_extra_damping_enters_denominator(self):
        # weight decay 0.2 rides in the damping: epsilon = 0.05 + 0.2
        rng = np.random.default_rng(5)
        g = rng.normal(size=4)
        theta = np.zeros(4)
        factors = one_layer_factors(np.eye(2), np.eye(2))
        state = SnoptState(lr=1.0, epsilon=0.05 + 0.2, amortization=0.0)
        out = snopt_step(state, factors, g, theta)
        assert np.allclose(theta - out, g / (g ** 2 + 0.25))

    def test_multi_layer_offsets(self):
        rng = np.random.default_rng(6)
        a1, b1 = spd(rng, 3), spd(rng, 2)
        a2, b2 = spd(rng, 2), spd(rng, 4)
        factors = KroneckerFactors(a_factors=[a1, a2], b_factors=[b1, b2])
        n = 3 * 2 + 2 * 4
        g = rng.normal(size=n)
        theta = rng.normal(size=n)
        state = SnoptState(lr=1.0, epsilon=0.05, amortization=0.0)
        out = snopt_step(state, factors, g, theta)
        # layer 2 alone must reproduce the tail segment
        state2 = SnoptState(lr=1.0, epsilon=0.05, amortization=0.0)
        out2 = snopt_step(state2, one_layer_factors(a2, b2), g[6:], theta[6:])
        assert np.allclose(out[6:], out2)

    def test_parameter_count_mismatch(self):
        rng = np.random.default_rng(7)
        factors = one_layer_factors(spd(rng, 2), spd(rng, 2))
        state = SnoptState(lr=1.0, epsilon=0.05, amortization=0.75)
        with pytest.raises(ValueError):
            snopt_step(state, factors, np.zeros(5), np.zeros(5))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            SnoptState(lr=0.1, epsilon=0.0, amortization=0.75)
        with pytest.raises(ValueError):
            SnoptState(lr=0.1, epsilon=0.05, amortization=1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_descent_direction(seed):
    # with any positive damping the preconditioner is positive definite
    rng = np.random.default_rng(seed)
    a, b = spd(rng, 3), spd(rng, 2)
    g = rng.normal(size=6)
    if np.linalg.norm(g) < 1e-6:
        return
    state = SnoptState(lr=1.0, epsilon=0.05, amortization=0.0)
    delta = np.zeros(6) - snopt_step(state, one_layer_factors(a, b), g, np.zeros(6))
    assert np.dot(delta, g) > 0


class TestBaselines:
    def test_sgd_zero_gradient(self):
        state = SgdState(lr=0.1, momentum=0.9)
        theta = np.array([1.0, 2.0])
        assert np.array_equal(sgd_step(state, np.zeros(2), theta), theta)

    def test_sgd_single_step(self):
        state = SgdState(lr=0.1, momentum=0.9)
        out = sgd_step(state, np.array([1.0, 0.0]), np.zeros(2))
        assert np.allclose(out, [-0.1, 0.0])

    def test_sgd_momentum_accumulates(self):
        state = SgdState(lr=0.1, momentum=0.9)
        theta = np.zeros(1)
        g = np.array([1.0])
        theta = sgd_step(state, g, theta)     # buf = 1
        theta = sgd_step(state, g, theta)     # buf = 1.9
        assert theta[0] == pytest.approx(-0.1 * (1.0 + 1.9))

    def test_adam_zero_gradient(self):
        state = AdamState(lr=0.1)
        theta = np.array([3.0])
        assert np.array_equal(adam_step(state, np.zeros(1), theta), theta)

    def test_adam_first_step_hand_computed(self):
        # bias correction makes the first step lr * g/(|g| + eps) elementwise
        state = AdamState(lr=0.1)
        g = np.array([0.5, -2.0])
        out = adam_step(state, g, np.zeros(2))
        want = -0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(out, want, atol=1e-8)

    def test_adam_constants(self):
        state = AdamState(lr=0.1)
        assert state.beta1 == 0.9 and state.beta2 == 0.999 and state.eps == 1e-8
