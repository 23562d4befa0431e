import numpy as np
import pytest

from snopt_kit import trainer as tr
from snopt_kit import vector_field as vf
from snopt_kit.adjoint import BackwardSweep, adjoint_gradient
from snopt_kit.kfac import BadInterval, _factor_terms, accumulate_factors, make_grid
from snopt_kit.loss import TerminalCurvature, terminal_curvature
from snopt_kit.numerics import kron
from snopt_kit.odesolve import SolverConfig, odesolve

RK4 = SolverConfig(method="rk4", fixed_step=1e-2)


def tanh_net(seed, dims=(2, 3, 2), time_input="none"):
    acts = ("tanh",) * (len(dims) - 2) + ("identity",)
    spec = vf.MlpSpec(dims=dims, activations=acts, time_input=time_input)
    return spec, vf.init_params(spec, seed)


def default_batch(t1=1.0):
    """Network, terminal states and curvature of the default snopt config's first batch.

    The curvature is taken for a horizon ``[0, t1]``.
    """
    cfg = tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind="snopt"))
    run = tr._Run(cfg)
    pos, lossfn = run.draw_batch()
    x1 = run.forward(run.ds.inputs[run.ds.train_idx])[0][pos]
    curv = terminal_curvature(lossfn, x1, cfg.t0, t1, mode=cfg.loss.curvature)
    return run.spec, run.theta, x1, curv, cfg


def segmented_factors(spec, theta, x1, curv, grid, cfg):
    """Reference sweep: one solve per grid interval, factor terms at every grid point."""
    sweep, state = BackwardSweep.seeded(spec, theta, x1, curv.grad, curv.factors)
    dt = abs(grid[0] - grid[-1]) / (grid.size - 1)
    a_bar = b_bar = [0.0] * spec.n_layers
    nfe = grid.size
    for j, t_j in enumerate(grid):
        x, cot, _ = sweep.unpack(state)
        a_t, b_t = _factor_terms(spec, sweep.weights, t_j, x, cot[1:])
        a_bar = [s + a * dt for s, a in zip(a_bar, a_t)]
        b_bar = [s + b * dt for s, b in zip(b_bar, b_t)]
        if j + 1 < grid.size:
            seg = odesolve(state, t_j, grid[j + 1], sweep.field, cfg)
            state, nfe = seg.terminal_state, nfe + seg.nfe
    return a_bar, b_bar, sweep.unpack(state)[2][0], nfe


class TestMakeGrid:
    def test_two_points(self):
        grid = make_grid(0.0, 1.0, 2)
        assert np.array_equal(grid, [1.0, 0.0])

    def test_paper_scale_spacing(self):
        grid = make_grid(0.0, 1.0, 101)
        assert grid[0] == 1.0 and grid[-1] == 0.0
        assert np.allclose(np.diff(grid), -0.01)

    def test_scaled_interval(self):
        grid = make_grid(0.0, 0.5, 51)
        assert np.allclose(np.diff(grid), -0.01)

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            make_grid(1.0, 0.0, 10)
        with pytest.raises(BadInterval):
            make_grid(0.0, 1.0, 1)


class TestFactorTerms:
    def test_rank_one_kron_exactness(self):
        # one sample, one rank vector: kron(A_n, B_n) equals the exact outer
        # product of the layer gradient, with zero factorization error
        spec, theta = tanh_net(1)
        weights = vf.unpack_params(spec, theta)
        x = np.array([[0.4, -0.7]])
        q = np.array([[[0.9, -0.3]]])
        a_terms, b_terms = _factor_terms(spec, weights, 0.7, x, q)
        _, trace = vf.eval(spec, theta, 0.7, x)
        gs, _ = vf._cotangents(spec, weights, trace, q)
        for k in range(spec.n_layers):
            zbar = np.concatenate([trace.zs[k][0], [1.0]])
            g = gs[k][0, 0]
            seg = np.kron(zbar, g)
            assert np.max(np.abs(kron(a_terms[k], b_terms[k]) - np.outer(seg, seg))) < 1e-10

    def test_psd(self):
        spec, theta = tanh_net(2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 2))
        qs = rng.normal(size=(2, 8, 2))
        a_terms, b_terms = _factor_terms(spec, vf.unpack_params(spec, theta), 0.3, x, qs)
        for mat in a_terms + b_terms:
            assert np.linalg.eigvalsh(mat).min() >= -1e-12


class TestAccumulateFactors:
    def test_zero_factors_zero_b(self):
        spec, theta = tanh_net(3)
        x1 = np.array([[0.5, -0.5]])
        curv = TerminalCurvature(grad=np.zeros((1, 2)), factors=[np.zeros((1, 2))],
                                 mode="exact_rank")
        factors, grad, _ = accumulate_factors(spec, theta, x1, curv,
                                              make_grid(0.0, 1.0, 5), RK4)
        for b in factors.b_factors:
            assert np.allclose(b, 0.0)
        # activation factors remain nonzero PSD
        for a in factors.a_factors:
            assert np.linalg.eigvalsh(a).min() >= -1e-12
            assert np.linalg.norm(a) > 0
        assert np.allclose(grad, 0.0)

    def test_riemann_sum_replay(self):
        # scripted replay: integrate the same grid by hand and compare
        spec, theta = tanh_net(4)
        rng = np.random.default_rng(1)
        x1 = rng.uniform(-1, 1, size=(2, 2))
        a1 = rng.normal(size=(2, 2))
        curv = TerminalCurvature(grad=a1, factors=[a1], mode="gauss_newton_scaled")
        grid = make_grid(0.0, 1.0, 3)
        factors, _, _ = accumulate_factors(spec, theta, x1, curv, grid, RK4)

        # replay: separately solve to each grid point, evaluate terms, sum
        from snopt_kit.curvature import lowrank_sweep
        dt = 0.5
        a_sum = [np.zeros_like(a) for a in factors.a_factors]
        b_sum = [np.zeros_like(b) for b in factors.b_factors]
        for t_j in grid:
            if t_j == 1.0:
                x_j, qs_j = x1, [np.broadcast_to(curv.factors[0], x1.shape)]
            else:
                seg = lowrank_sweep(spec, theta, x1, curv, t_j, 1.0, RK4)
                x_j, qs_j = seg.x0, seg.qs
            a_t, b_t = _factor_terms(spec, vf.unpack_params(spec, theta), t_j, x_j,
                                     np.stack(qs_j))
            for k in range(spec.n_layers):
                a_sum[k] += a_t[k] * dt
                b_sum[k] += b_t[k] * dt
        for k in range(spec.n_layers):
            assert np.max(np.abs(a_sum[k] - factors.a_factors[k])) < 1e-8
            assert np.max(np.abs(b_sum[k] - factors.b_factors[k])) < 1e-8

    def test_gradient_matches_adjoint(self):
        for time_input, dims in (("none", (2, 3, 2)), ("concat", (3, 3, 2))):
            spec, theta = tanh_net(5, dims, time_input)
            rng = np.random.default_rng(2)
            x1 = rng.uniform(-1, 1, size=(4, 2))
            a1 = rng.normal(size=(4, 2))
            curv = TerminalCurvature(grad=a1, factors=[a1], mode="gauss_newton_scaled")
            factors, grad, _ = accumulate_factors(spec, theta, x1, curv,
                                                  make_grid(0.0, 1.0, 101), RK4)
            g_adj, _, _, _ = adjoint_gradient(spec, theta, x1, a1, 0.0, 1.0, RK4)
            assert np.max(np.abs(grad - g_adj)) < 1e-8

    def test_single_point_grid_rejected(self):
        spec, theta = tanh_net(6)
        curv = TerminalCurvature(grad=np.zeros((1, 2)), factors=[np.zeros((1, 2))],
                                 mode="exact_rank")
        with pytest.raises(BadInterval):
            accumulate_factors(spec, theta, np.zeros((1, 2)), curv,
                               np.array([1.0]), RK4)

    def test_psd_preserved_under_accumulation(self):
        spec, theta = tanh_net(8)
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-1, 1, size=(4, 2))
        a1 = rng.normal(size=(4, 2))
        curv = TerminalCurvature(grad=a1, factors=[a1], mode="gauss_newton_scaled")
        factors, _, _ = accumulate_factors(spec, theta, x1, curv,
                                           make_grid(0.0, 1.0, 9), RK4)
        for mat in factors.a_factors + factors.b_factors:
            assert np.linalg.eigvalsh(mat).min() >= -1e-12

    def test_nfe_counts_grid_and_segments(self):
        spec, theta = tanh_net(9)
        x1 = np.array([[0.1, 0.1]])
        curv = TerminalCurvature(grad=np.ones((1, 2)), factors=[np.ones((1, 2))],
                                 mode="gauss_newton_scaled")
        grid = make_grid(0.0, 1.0, 11)
        cfg = SolverConfig(method="rk4", fixed_step=0.1)
        _, _, report = accumulate_factors(spec, theta, x1, curv, grid, cfg)
        # 11 grid evaluations plus 10 segments of one rk4 step each
        assert report.accepted_steps == 10
        assert report.nfe == 11 + 10 * 4

    def test_rk4_bit_identical_to_segmented_sweep(self):
        spec, theta = tanh_net(10, (2, 4, 3, 2))
        rng = np.random.default_rng(4)
        x1 = rng.uniform(-1, 1, size=(5, 2))
        a1 = rng.normal(size=(5, 2))
        for factors in ([a1], [a1, rng.normal(size=(5, 2))]):
            curv = TerminalCurvature(grad=a1, factors=factors, mode="exact_rank")
            grid = make_grid(0.0, 0.9, 7)
            got, grad, report = accumulate_factors(spec, theta, x1, curv, grid, RK4)
            a_ref, b_ref, g_ref, nfe_ref = segmented_factors(spec, theta, x1, curv, grid, RK4)
            for mine, ref in zip(got.a_factors + got.b_factors, a_ref + b_ref):
                assert np.array_equal(mine, ref)
            assert np.array_equal(grad, g_ref)
            assert report.nfe == nfe_ref


class TestDefaultConfigSweep:
    """The default snopt config's first batch under its own dopri5 settings."""

    def test_nfe_is_solver_nfe_plus_grid(self):
        # the solver's steps do not depend on the grid it is read on
        spec, theta, x1, curv, cfg = default_batch()
        solver_nfe = set()
        for samples in (13, 33, 101):
            grid = make_grid(cfg.t0, cfg.t1, samples)
            _, _, report = accumulate_factors(spec, theta, x1, curv, grid, cfg.solver)
            solver_nfe.add(report.nfe - grid.size)
        assert solver_nfe == {14}

    def test_scaled_adjoint_matches_carried_rank_vector(self):
        # gauss_newton_scaled reads q_1 = a/sqrt(T) off the adjoint; an exact_rank
        # sweep that carries q_1 as a rank vector must agree: bit for bit at T = 1,
        # where the scale is 1, and to rounding at T = 0.7
        for t1, rel_tol in ((1.0, 0.0), (0.7, 1e-12)):
            spec, theta, x1, curv, cfg = default_batch(t1)
            assert curv.adjoint_scale == 1.0 / np.sqrt(t1)
            carried = TerminalCurvature(grad=curv.grad, factors=[curv.grad / np.sqrt(t1)],
                                        mode="exact_rank")
            grid = make_grid(0.0, t1, cfg.grid_samples)
            runs = []
            for c in (curv, carried):
                probe = {}
                runs.append((*accumulate_factors(spec, theta, x1, c, grid, cfg.solver, probe),
                             probe["state_elements"]))
            (got, grad, rep, size), (ref, g_ref, rep_ref, size_ref) = runs
            assert size_ref - size == x1.size
            assert rep.nfe == rep_ref.nfe and rep.accepted_steps == rep_ref.accepted_steps
            for mine, want in zip(got.a_factors + got.b_factors,
                                  ref.a_factors + ref.b_factors):
                assert np.max(np.abs(mine - want)) <= rel_tol * np.max(np.abs(want))
            assert np.max(np.abs(grad - g_ref)) <= rel_tol * np.max(np.abs(g_ref))

    def test_factors_match_tight_reference(self):
        spec, theta, x1, curv, cfg = default_batch()
        grid = make_grid(cfg.t0, cfg.t1, cfg.grid_samples)
        got, grad, _ = accumulate_factors(spec, theta, x1, curv, grid, cfg.solver)
        tight = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10)
        ref, g_ref, _ = accumulate_factors(spec, theta, x1, curv, grid, tight)
        for mine, want in zip(got.a_factors + got.b_factors, ref.a_factors + ref.b_factors):
            assert np.linalg.norm(mine - want) <= 1e-3 * np.linalg.norm(want)
        assert np.linalg.norm(grad - g_ref) <= 1e-3 * np.linalg.norm(g_ref)
