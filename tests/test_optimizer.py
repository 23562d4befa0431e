from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from snopt_kit import vector_field as vf
from snopt_kit import optimizer as opt
from snopt_kit.kfac import KroneckerFactors
from snopt_kit.optimizer import (AdamState, OptimizerConfig, SgdState, adam_step, sgd_step,
                                 snopt_step, sym_eigen)


def spd(rng, d):
    m = rng.normal(size=(d, d))
    return m @ m.T + 0.1 * np.eye(d)


def one_layer(a, b):
    """A one-layer field whose (l, pbar) block the factors ``a`` (pbar) and
    ``b`` (l) fit, ``pbar`` being ``l`` or ``l`` plus the bias, and the factors."""
    pbar, l = a.shape[0], b.shape[0]
    assert pbar in (l, l + 1)
    spec = vf.MlpSpec(dims=(l, l), activations=("identity",), bias=pbar == l + 1)
    return spec, KroneckerFactors(a_factors=[a], b_factors=[b])


def dense_damped_solve(a, b, g, damping):
    """``(a ⊗ b + damping I)^{-1} g`` in the column-major vec of the block."""
    return np.linalg.solve(np.kron(a, b) + damping * np.eye(g.size), g)


class TestKron:
    # the identities the eigenbasis update rests on
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar(self):
        assert np.array_equal(np.kron([[2.0]], [[3.0]]), [[6.0]])

    def test_diagonal(self):
        # expanded by hand: diag(2,3) x diag(1,4) interleaves as (2*1, 2*4, 3*1, 3*4)
        out = np.kron(np.diag([2.0, 3.0]), np.diag([1.0, 4.0]))
        assert np.array_equal(out, np.diag([2.0, 8.0, 3.0, 12.0]))

    def test_mixed_product_identity(self):
        # (A x B)(C x D)^T = (A C^T) x (B D^T)
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, l = rng.integers(1, 5, size=2)
            a, c = rng.normal(size=(p, p)), rng.normal(size=(p, p))
            b, d = rng.normal(size=(l, l)), rng.normal(size=(l, l))
            lhs = np.kron(a, b) @ np.kron(c, d).T
            rhs = np.kron(a @ c.T, b @ d.T)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_kron_transpose_property(dim, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim))
    assert np.max(np.abs(np.kron(a, b).T - np.kron(a.T, b.T))) < 1e-12


class TestSymEigen:
    def test_diagonal(self):
        values, vectors = sym_eigen(np.diag([5.0, 1.0]))
        assert np.allclose(values, [5.0, 1.0])
        assert np.allclose(np.abs(vectors), np.eye(2))

    def test_two_by_two_hand_roots(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 -> l in {3, 1}
        values, _ = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(values, [3.0, 1.0])

    def test_zero_matrix(self):
        values, _ = sym_eigen(np.zeros((3, 3)))
        assert np.allclose(values, 0.0)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 4, 7):
            m = spd(rng, d)
            values, vectors = sym_eigen(m)
            rel = np.linalg.norm(vectors @ np.diag(values) @ vectors.T - m) / np.linalg.norm(m)
            assert rel < 1e-10
            assert np.max(np.abs(vectors.T @ vectors - np.eye(d))) < 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        values, _ = sym_eigen(spd(rng, 6))
        assert np.all(np.diff(values) <= 0)


class TestSnoptStep:
    def test_zero_gradient_keeps_parameters(self):
        rng = np.random.default_rng(0)
        layer = one_layer(spd(rng, 3), spd(rng, 2))
        theta = rng.normal(size=6)
        out = snopt_step(*layer, np.zeros(6), theta, 0.5, 0.05)
        assert np.array_equal(out, theta)

    def test_identity_factors_elementwise_rule(self):
        # identity factors have unit eigenvalues: the step is g/(1 + eps)
        rng = np.random.default_rng(1)
        g = rng.normal(size=6)
        theta = np.zeros(6)
        out = snopt_step(*one_layer(np.eye(3), np.eye(2)), g, theta, 1.0, 0.1)
        assert np.allclose(theta - out, g / (1 + 0.1))

    def test_matches_dense_damped_solve(self):
        rng = np.random.default_rng(2)
        for p, l in [(2, 2), (4, 3), (8, 8)]:
            a, b = spd(rng, p), spd(rng, l)
            g = rng.normal(size=p * l)
            theta = rng.normal(size=p * l)
            eps = 0.05
            delta = theta - snopt_step(*one_layer(a, b), g, theta, 1.0, eps)
            dense = dense_damped_solve(a, b, g, eps)
            assert np.linalg.norm(delta - dense) / np.linalg.norm(dense) < 1e-8

    def test_scale_behavior_identity_factors(self):
        # the rule is linear in the gradient: beta g moves theta by beta lr g/(1 + eps)
        rng = np.random.default_rng(3)
        g = rng.normal(size=4)
        beta = 3.0
        theta = np.zeros(4)
        eps = 0.05
        out = snopt_step(*one_layer(np.eye(2), np.eye(2)), beta * g, theta, 0.5, eps)
        assert np.allclose(theta - out, 0.5 * beta * g / (1 + eps))

    def test_extra_damping_enters_denominator(self):
        # weight decay 0.2 rides in the damping: 0.05 + 0.2
        rng = np.random.default_rng(5)
        g = rng.normal(size=4)
        theta = np.zeros(4)
        layer = one_layer(np.eye(2), np.eye(2))
        out = snopt_step(*layer, g, theta, 1.0, 0.05 + 0.2)
        assert np.allclose(theta - out, g / (1 + 0.25))

    def test_multi_layer_offsets(self):
        # a gradient in one layer's unpack_params block moves that block alone,
        # by the dense damped solve of its column-major vec
        rng = np.random.default_rng(6)
        spec = vf.MlpSpec(dims=(2, 3, 4, 2), activations=("tanh", "tanh", "identity"))
        factors = KroneckerFactors(a_factors=[spd(rng, p) for p in spec.zbar_widths],
                                   b_factors=[spd(rng, l) for l in spec.dims[1:]])
        n = vf.num_params(spec)
        g, theta = rng.normal(size=n), rng.normal(size=n)
        full = vf.unpack_params(spec, theta - snopt_step(spec, factors, g, theta, 1.0, 0.05))
        for k, (sl, _, _) in enumerate(vf.layer_slices(spec)):
            g_k = np.zeros(n)
            vf.unpack_params(spec, g_k)[k][...] = vf.unpack_params(spec, g)[k]
            delta = theta - snopt_step(spec, factors, g_k, theta, 1.0, 0.05)
            for j, block in enumerate(vf.unpack_params(spec, delta)):
                if j != k:
                    assert not block.any()
            assert np.array_equal(vf.unpack_params(spec, delta)[k], full[k])
            dense = dense_damped_solve(factors.a_factors[k], factors.b_factors[k], g[sl], 0.05)
            assert np.linalg.norm(delta[sl] - dense) / np.linalg.norm(dense) < 1e-8

    def test_layer_count_mismatch(self):
        rng = np.random.default_rng(8)
        spec = vf.MlpSpec(dims=(2, 3, 2), activations=("tanh", "identity"))
        factors = KroneckerFactors(a_factors=[spd(rng, 3)], b_factors=[spd(rng, 3)])
        n = vf.num_params(spec)
        with pytest.raises(ValueError):
            snopt_step(spec, factors, np.zeros(n), np.zeros(n), 1.0, 0.05)

    def test_parameter_count_mismatch(self):
        rng = np.random.default_rng(7)
        layer = one_layer(spd(rng, 2), spd(rng, 2))
        with pytest.raises(ValueError):
            snopt_step(*layer, np.zeros(5), np.zeros(5), 1.0, 0.05)

    def test_hyperparameter_validation(self):
        # the config owns the update's settings and checks them
        with pytest.raises(ValueError, match="epsilon must be positive"):
            OptimizerConfig(kind="snopt", lr=0.1, epsilon=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_descent_direction(seed):
    # with any positive damping the preconditioner is positive definite
    rng = np.random.default_rng(seed)
    a, b = spd(rng, 3), spd(rng, 2)
    g = rng.normal(size=6)
    if np.linalg.norm(g) < 1e-6:
        return
    delta = np.zeros(6) - snopt_step(*one_layer(a, b), g, np.zeros(6), 1.0, 0.05)
    assert np.dot(delta, g) > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_indefinite_factor_still_descends(seed):
    # a factor integrated by dopri5 (whose weights are not all positive) may
    # come out slightly indefinite; its negative eigenvalues are clamped at 0,
    # so even a tiny damping leaves a finite step that descends
    rng = np.random.default_rng(seed)
    a = spd(rng, 3)
    u = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    b = u @ np.diag([1.0, -rng.uniform(1e-6, 1.0)]) @ u.T
    b = (b + b.T) / 2
    g = rng.normal(size=6)
    if np.linalg.norm(g) < 1e-6:
        return
    delta = np.zeros(6) - snopt_step(*one_layer(a, b), g, np.zeros(6), 1.0, 1e-12)
    assert np.all(np.isfinite(delta))
    assert np.dot(delta, g) > 0


def test_states_hold_only_their_accumulators():
    # the settings are OptimizerConfig's; a state keeps what its rule carries from step to step
    assert ([[f.name for f in fields(state)] for state in (SgdState, AdamState)]
            == [["buf"], ["m", "v", "t"]])


class TestBaselines:
    def test_sgd_zero_gradient(self):
        theta = np.array([1.0, 2.0])
        assert np.array_equal(sgd_step(SgdState(), np.zeros(2), theta, 0.1, 0.9), theta)

    def test_sgd_single_step(self):
        out = sgd_step(SgdState(), np.array([1.0, 0.0]), np.zeros(2), 0.1, 0.9)
        assert np.allclose(out, [-0.1, 0.0])

    def test_sgd_momentum_accumulates(self):
        state = SgdState()
        theta = np.zeros(1)
        g = np.array([1.0])
        theta = sgd_step(state, g, theta, 0.1, 0.9)     # buf = 1
        theta = sgd_step(state, g, theta, 0.1, 0.9)     # buf = 1.9
        assert theta[0] == pytest.approx(-0.1 * (1.0 + 1.9))

    def test_adam_zero_gradient(self):
        theta = np.array([3.0])
        assert np.array_equal(adam_step(AdamState(), np.zeros(1), theta, 0.1), theta)

    def test_adam_first_step_hand_computed(self):
        # bias correction makes the first step lr * g/(|g| + eps) elementwise
        g = np.array([0.5, -2.0])
        out = adam_step(AdamState(), g, np.zeros(2), 0.1)
        want = -0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(out, want, atol=1e-8)

    def test_adam_constants(self):
        assert opt._BETA1 == 0.9 and opt._BETA2 == 0.999 and opt._ADAM_EPS == 1e-8
