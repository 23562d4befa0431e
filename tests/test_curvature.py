import numpy as np
import pytest

from snopt_kit import trainer as tr
from snopt_kit import vector_field as vf
from snopt_kit.adjoint import adjoint_gradient
from snopt_kit.loss import TerminalCurvature
from snopt_kit.odesolve import SolverConfig
from snopt_kit.optimizer import apply_weight_decay
from snopt_kit.oracle import dense_sweep, fd_gradient, flow

TIGHT = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10)


def tiny_net(seed, dims=(2, 3, 2), time_input="none"):
    acts = ("tanh",) * (len(dims) - 2) + ("identity",)
    spec = vf.MlpSpec(dims=dims, activations=acts, time_input=time_input)
    return spec, vf.init_params(spec, seed)


def rel_fro(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def lowrank(spec, theta, x1, curv):
    """The adjoint sweep with the curvature's factors as its rank vectors."""
    return adjoint_gradient(spec, theta, x1, curv.grad, 0.0, 1.0, TIGHT, qs=curv.factors)


def blocks(grads, cot):
    """QᵀQ, QᵀP and PᵀP of the rank vectors Q of a batch of one and their couplings P."""
    q, p = cot[1:, 0], grads[1:]
    return q.T @ q, q.T @ p, p.T @ p


class TestDenseSweep:
    def test_zero_terminal_data_gives_zero(self):
        spec, theta = tiny_net(0)
        curv = TerminalCurvature(grad=np.zeros((1, 2)), factors=[np.zeros((1, 2))])
        out = dense_sweep(spec, theta, np.array([[0.3, 0.1]]), curv, 0.0, 1.0, TIGHT)
        for block in (out.qx, out.qu, out.qxx, out.qxu, out.quu):
            assert np.allclose(block, 0.0)

    def test_scalar_linear_closed_form(self):
        # dx/dt = theta x, Phi = x^2, theta = 0: curvature 2 e^{2 theta} = 2
        spec = vf.MlpSpec(dims=(1, 1), activations=("identity",), bias=False)
        theta = np.zeros(1)
        x1 = np.array([[1.0]])
        curv = TerminalCurvature(grad=np.array([[2.0]]),
                                 factors=[np.array([[np.sqrt(2.0)]])])
        out = dense_sweep(spec, theta, x1, curv, 0.0, 1.0, TIGHT)
        assert out.quu[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert out.qu[0] == pytest.approx(2.0, abs=1e-8)

    def test_matches_fd_flow_jacobian_reference(self):
        spec, theta = tiny_net(3, dims=(2, 4, 2))
        x0 = np.array([[0.4, -0.2]])
        x1 = flow(spec, theta, x0, 0.0, 1.0, TIGHT)
        rng = np.random.default_rng(0)
        ys = [rng.normal(size=(1, 2)) for _ in range(2)]
        curv = TerminalCurvature(grad=rng.normal(size=(1, 2)), factors=ys)
        out = dense_sweep(spec, theta, x1, curv, 0.0, 1.0, TIGHT)
        jac = fd_gradient(lambda th: flow(spec, th, x0, 0.0, 1.0, TIGHT)[0], theta).T
        phi_xx = curv.hessian()
        assert rel_fro(out.quu, jac.T @ phi_xx @ jac) < 1e-3

    def test_symmetry_and_transpose_invariants(self):
        spec, theta = tiny_net(5)
        rng = np.random.default_rng(1)
        curv = TerminalCurvature(grad=rng.normal(size=(1, 2)),
                                 factors=[rng.normal(size=(1, 2))])
        out = dense_sweep(spec, theta, np.array([[0.2, 0.6]]), curv, 0.0, 1.0, TIGHT)
        assert np.allclose(out.qxx, out.qxx.T)
        assert np.allclose(out.quu, out.quu.T)

    def test_agrees_with_adjoint_gradient(self):
        spec, theta = tiny_net(7)
        rng = np.random.default_rng(2)
        x1 = rng.uniform(-1, 1, size=(1, 2))
        grad_vec = rng.normal(size=(1, 2))
        curv = TerminalCurvature(grad=grad_vec, factors=[rng.normal(size=(1, 2))])
        out = dense_sweep(spec, theta, x1, curv, 0.0, 1.0, TIGHT)
        g_adj, _, a0, _ = adjoint_gradient(spec, theta, x1, grad_vec, 0.0, 1.0, TIGHT)
        assert np.max(np.abs(out.qu - g_adj[0])) < 1e-8
        assert np.max(np.abs(out.qx - a0[0])) < 1e-8


class TestLowRankSweep:
    # the adjoint sweep carries the rank vectors q_i; its quadrature the
    # gradient of every group, [g | p_1..p_R]

    def test_zero_factors_stay_zero(self):
        spec, theta = tiny_net(0)
        curv = TerminalCurvature(grad=np.zeros((1, 2)),
                                 factors=[np.zeros((1, 2)), np.zeros((1, 2))])
        grads, _, cot, _ = lowrank(spec, theta, np.array([[0.1, 0.9]]), curv)
        for q in cot[1:]:
            assert np.allclose(q, 0.0)
        for p in grads[1:]:
            assert np.allclose(p, 0.0)

    def test_adjoint_aliasing(self):
        # seeding the rank vector with the terminal adjoint makes q track the
        # adjoint trajectory and p accumulate the gradient path
        spec, theta = tiny_net(9)
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-1, 1, size=(1, 2))
        a1 = rng.normal(size=(1, 2))
        curv = TerminalCurvature(grad=a1, factors=[a1])
        grads, _, cot, _ = lowrank(spec, theta, x1, curv)
        assert np.max(np.abs(cot[1][0] - cot[0][0])) < 1e-10
        assert np.max(np.abs(grads[1] - grads[0])) < 1e-10

    def test_reconstructions_match_dense(self):
        for time_input, dims in (("none", (3, 4, 3)), ("concat", (4, 4, 3))):
            for seed in range(5):
                spec, theta = tiny_net(seed + 20, dims, time_input)
                rng = np.random.default_rng(seed)
                x1 = rng.uniform(-1, 1, size=(1, 3))
                for rank in (1, 2, 3):
                    ys = [rng.normal(size=(1, 3)) for _ in range(rank)]
                    curv = TerminalCurvature(grad=rng.normal(size=(1, 3)), factors=ys)
                    dense = dense_sweep(spec, theta, x1, curv, 0.0, 1.0, TIGHT)
                    grads, _, cot, _ = lowrank(spec, theta, x1, curv)
                    qxx, qxu, quu = blocks(grads, cot)
                    assert rel_fro(qxx, dense.qxx) < 1e-6
                    assert rel_fro(qxu, dense.qxu) < 1e-6
                    assert rel_fro(quu, dense.quu) < 1e-6

    def test_state_length(self):
        spec, theta = tiny_net(11)
        n = vf.num_params(spec)
        rng = np.random.default_rng(4)
        curv = TerminalCurvature(grad=rng.normal(size=(1, 2)),
                                 factors=[rng.normal(size=(1, 2)) for _ in range(2)])
        report = lowrank(spec, theta, rng.normal(size=(1, 2)), curv)[3]
        # [x | a | q_1, q_2] is the state; [g | p_1, p_2] the quadrature
        assert report.terminal_state.size == 2 * (2 + 2)
        assert report.quadrature.size == n * (1 + 2)


class TestAssembleQuu:
    def test_zero(self):
        spec, theta = tiny_net(0)
        curv = TerminalCurvature(grad=np.zeros((1, 2)), factors=[np.zeros((1, 2))])
        grads, _, cot, _ = lowrank(spec, theta, np.zeros((1, 2)), curv)
        assert np.allclose(blocks(grads, cot)[2], 0.0)

    def test_psd(self):
        spec, theta = tiny_net(13)
        rng = np.random.default_rng(5)
        curv = TerminalCurvature(grad=rng.normal(size=(1, 2)),
                                 factors=[rng.normal(size=(1, 2)) for _ in range(2)])
        grads, _, cot, _ = lowrank(spec, theta, rng.normal(size=(1, 2)), curv)
        assert np.linalg.eigvalsh(blocks(grads, cot)[2]).min() >= -1e-10


class TestApplyWeightDecay:
    # the decay penalty is folded in after the sweep: grad += γθ, and its
    # curvature γI lands in the update's damping, ε + γ

    @staticmethod
    def dampings(monkeypatch, opt):
        """The damping that each iteration of a short run passes to ``snopt_step``."""
        seen, step = [], tr.snopt_step

        def spy(spec, factors, grad, theta, lr, damping):
            seen.append(damping)
            return step(spec, factors, grad, theta, lr, damping)

        monkeypatch.setattr(tr, "snopt_step", spy)
        tr.train(tr.ExperimentConfig(
            dataset=tr.DatasetConfig(n_per_class=8),
            model=tr.ModelConfig(dims=(2, 3, 2), activations=("tanh", "identity")),
            optimizer=opt, iterations=2, batch_size=8))
        return seen

    def test_zero_decay_is_identity(self, monkeypatch):
        grad = np.array([1.0, 2.0])
        assert np.array_equal(apply_weight_decay(grad, 0.0, np.array([5.0, -5.0])), grad)
        # and leaves the second-order damping as configured
        damping = self.dampings(monkeypatch, tr.OptimizerConfig(kind="snopt"))
        assert damping == [tr.OptimizerConfig().epsilon] * 2

    def test_gradient_shift(self):
        g2 = apply_weight_decay(np.zeros(2), 1.0, np.array([1.0, 0.0]))
        assert np.array_equal(g2, [1.0, 0.0])

    def test_kronecker_factor_damping(self, monkeypatch):
        grad, theta = np.ones(4), np.full(4, 2.0)
        g2 = apply_weight_decay(grad, 1e-3, theta)
        assert np.allclose(g2, 1.0 + 2e-3)
        assert np.array_equal(grad, np.ones(4)) and np.array_equal(theta, np.full(4, 2.0))
        # the trainer shifts the second-order damping by the decay
        opt = tr.OptimizerConfig(kind="snopt", epsilon=0.05, weight_decay=1e-3)
        assert self.dampings(monkeypatch, opt) == [0.05 + 1e-3] * 2

    def test_negative_decay_rejected(self):
        # the config rejects it, before any iteration runs
        with pytest.raises(ValueError, match="weight_decay"):
            tr.OptimizerConfig(weight_decay=-0.1)
