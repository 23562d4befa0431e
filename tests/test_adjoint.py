import numpy as np
import pytest

from snopt_kit import vector_field as vf
from snopt_kit.adjoint import BackwardSweep, adjoint_gradient
from snopt_kit.loss import TerminalLoss, grad_x1, loss_value
from snopt_kit.odesolve import SolverConfig
from snopt_kit.oracle import fd_gradient, flow

RK4 = SolverConfig(method="rk4", fixed_step=1e-2)


def forward(spec, theta, x0):
    return flow(spec, theta, x0, 0.0, 1.0, RK4)


class TestAugmentedState:
    # the state [x | a, q_1..q_R] for R = 0, 1, 2 rank vectors
    RANKS = (0, 1, 2)

    def sweep(self, rank, seed):
        spec = vf.MlpSpec(dims=(3, 4, 3), activations=("tanh", "identity"))
        rng = np.random.default_rng(seed)
        x1, a1 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        qs = [rng.normal(size=3) for _ in range(rank)]
        return spec, x1, a1, qs, BackwardSweep(spec, vf.init_params(spec, 0), x1, a1, qs)

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        for rank in self.RANKS:
            _, x1, a1, qs, sweep = self.sweep(rank, rank)
            # the seed unpacks to x1, a1 and each rank vector broadcast over the batch
            x, cot = sweep.unpack(sweep.state)
            seeds = np.stack([np.broadcast_to(v, x1.shape) for v in (a1, *qs)])
            assert np.array_equal(x, x1)
            assert np.array_equal(cot, seeds)
            # the adjoint and the rank vectors stack on one group axis, for every rank
            y = rng.normal(size=sweep.state.size)
            x, cot = sweep.unpack(y)
            assert x.shape == (4, 3)
            assert cot.shape == (1 + rank, 4, 3)
            assert np.array_equal(np.concatenate([x.ravel(), cot.ravel()]), y)

    def test_flat_length_is_2bm_plus_n(self):
        # the plain adjoint: a state of 2bm and, with the gradient as its
        # integrand, a quadrature of n; each rank vector adds bm to the state,
        # and n to the gradient of every group
        for rank in self.RANKS:
            spec, x1, _, _, sweep = self.sweep(rank, 1)
            n = vf.num_params(spec)
            assert sweep.state.size == 4 * 3 * (2 + rank)
            assert sweep.x_len == 4 * 3
            fn = sweep.field(
                lambda trace, gs: vf._param_grad_from_cotangents(spec, trace, gs).ravel())
            dy, integrand = fn(0.5, sweep.state)
            assert dy.shape == sweep.state.shape
            assert integrand().size == (1 + rank) * n


class TestAdjointGradient:
    def test_zero_terminal_adjoint(self):
        spec = vf.MlpSpec(dims=(2, 4, 2), activations=("tanh", "identity"))
        theta = vf.init_params(spec, 1)
        x1 = np.array([[0.3, -0.4]])
        grad, _, a0, _ = adjoint_gradient(spec, theta, x1, np.zeros((1, 2)), 0.0, 1.0, RK4)
        assert np.allclose(grad, 0.0)
        assert np.allclose(a0, 0.0)

    def test_scalar_linear_closed_form(self):
        # dx/dt = theta*x + b, L = x(1)^2 at theta=b=0: dL/dtheta = 2
        spec = vf.MlpSpec(dims=(1, 1), activations=("identity",), bias=False)
        theta = np.zeros(1)
        x1 = forward(spec, theta, np.array([[1.0]]))
        grad, _, _, _ = adjoint_gradient(spec, theta, x1, 2 * x1, 0.0, 1.0, RK4)
        assert grad[0, 0] == pytest.approx(2.0, abs=1e-8)

    def test_matches_fd_on_batch(self):
        for time_input, width in (("none", 2), ("concat", 3)):
            spec = vf.MlpSpec(dims=(width, 4, 2), activations=("tanh", "identity"),
                              time_input=time_input)
            theta = vf.init_params(spec, 2)
            rng = np.random.default_rng(3)
            x0 = rng.uniform(-1, 1, size=(4, 2))
            lossfn = TerminalLoss(target=rng.uniform(-1, 1, size=(4, 2)))

            x1 = forward(spec, theta, x0)
            grads, _, _, _ = adjoint_gradient(spec, theta, x1, grad_x1(lossfn.at(x1)), 0.0,
                                              1.0, RK4)
            fd = fd_gradient(lambda th: loss_value(lossfn.at(forward(spec, th, x0))), theta)
            assert np.linalg.norm(grads[0] - fd) / np.linalg.norm(fd) < 1e-4

    def test_linear_in_terminal_adjoint(self):
        spec = vf.MlpSpec(dims=(2, 3, 2), activations=("tanh", "identity"))
        theta = vf.init_params(spec, 4)
        x1 = np.array([[0.5, 0.1]])
        a1 = np.array([[0.3, -0.7]])
        g1, _, _, _ = adjoint_gradient(spec, theta, x1, a1, 0.0, 1.0, RK4)
        g3, _, _, _ = adjoint_gradient(spec, theta, x1, 3.0 * a1, 0.0, 1.0, RK4)
        assert np.allclose(g3, 3.0 * g1, rtol=1e-12, atol=1e-14)

    def test_state_reconstruction(self):
        spec = vf.MlpSpec(dims=(2, 4, 2), activations=("tanh", "identity"))
        theta = vf.init_params(spec, 5)
        x0 = np.array([[0.4, -0.6], [0.2, 0.8]])
        x1 = forward(spec, theta, x0)
        _, x0_rec, _, _ = adjoint_gradient(spec, theta, x1, np.ones_like(x1), 0.0, 1.0, RK4)
        assert np.max(np.abs(x0_rec - x0)) < 1e-5

    def test_augmented_length_independent_of_steps(self):
        spec = vf.MlpSpec(dims=(2, 3, 2), activations=("tanh", "identity"))
        theta = vf.init_params(spec, 6)
        x1 = np.array([[0.1, 0.2], [0.3, 0.4]])
        a1 = np.ones_like(x1)
        sizes = []
        for h in (1e-1, 1e-2, 1e-3):
            rep = adjoint_gradient(spec, theta, x1, a1, 0.0, 1.0,
                                   SolverConfig(method="rk4", fixed_step=h))[3]
            sizes.append((rep.terminal_state.size, rep.quadrature.size))
        assert sizes[0] == sizes[1] == sizes[2] == (2 * 2 * 2, vf.num_params(spec))

    def test_rejects_one_dimensional_state(self):
        # states are (batch, m) everywhere: a bare (m,) state is an error
        spec = vf.MlpSpec(dims=(2, 3, 2), activations=("tanh", "identity"))
        theta = vf.init_params(spec, 7)
        x, a = np.array([0.1, 0.2]), np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            adjoint_gradient(spec, theta, x, a, 0.0, 1.0, RK4)
        with pytest.raises(vf.DimensionMismatch):
            vf.eval(spec, theta, 0.0, x)
        grad, x0, a0, _ = adjoint_gradient(spec, theta, x[None], a[None], 0.0, 1.0, RK4)
        assert x0.shape == (1, 2) and a0.shape == (1, 1, 2)
        assert grad.shape == (1, vf.num_params(spec))

    def test_writes_no_caller_array(self):
        # x1 and a1 seed the backward state, which is built from copies
        spec = vf.MlpSpec(dims=(2, 5, 2), activations=("tanh", "identity"))
        theta = vf.init_params(spec, 6)
        rng = np.random.default_rng(8)
        x1, a1 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        held = (theta, x1, a1)
        kept = [v.tobytes() for v in held]
        for cfg in (RK4, SolverConfig(method="dopri5", rtol=1e-6, atol=1e-6)):
            adjoint_gradient(spec, theta, x1, a1, 0.0, 1.0, cfg)
            assert [v.tobytes() for v in held] == kept


class TestRankVectors:
    # the rank vectors ride along the adjoint without touching it, which is
    # what lets one sweep give both the gradient and the curvature blocks

    @pytest.mark.parametrize("cfg", [RK4, SolverConfig(method="dopri5", rtol=1e-6, atol=1e-6)],
                             ids=["rk4", "dopri5"])
    @pytest.mark.parametrize("batch", [1, 128])
    def test_group_0_is_the_lone_adjoint(self, cfg, batch):
        spec = vf.MlpSpec(dims=(2, 16, 16, 2), activations=("tanh", "tanh", "identity"))
        theta = vf.init_params(spec, 3)
        rng = np.random.default_rng(batch)
        x1, a1 = rng.uniform(-1, 1, size=(batch, 2)), rng.normal(size=(batch, 2))
        grad, x0, a0, rep = adjoint_gradient(spec, theta, x1, a1, 0.0, 1.0, cfg)
        for rank in (1, 2, 3):
            qs = [rng.normal(size=(batch, 2)) for _ in range(rank)]
            grads, x0_r, cot, rep_r = adjoint_gradient(spec, theta, x1, a1, 0.0, 1.0, cfg, qs=qs)
            assert grads.shape == (1 + rank, vf.num_params(spec))
            assert cot.shape == (1 + rank, batch, 2)
            assert np.array_equal(grads[:1], grad) and np.array_equal(cot[:1], a0)
            assert np.array_equal(x0_r, x0)
            assert (rep_r.nfe, rep_r.accepted_steps) == (rep.nfe, rep.accepted_steps)
