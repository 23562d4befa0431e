import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from snopt_kit import loss as ls
from snopt_kit import trainer as tr
from snopt_kit import vector_field as vf
from snopt_kit.adjoint import BackwardSweep, adjoint_gradient
from snopt_kit.kfac import (_factor_terms, _packed_len, _unpack_factors, accumulate_factors,
                            triu_flat, triu_unpack)
from snopt_kit.loss import TerminalCurvature, terminal_curvature
from snopt_kit.odesolve import SolverConfig

RK4 = SolverConfig(method="rk4", fixed_step=1e-2)


def tanh_net(seed, dims=(2, 3, 2), time_input="none"):
    acts = ("tanh",) * (len(dims) - 2) + ("identity",)
    spec = vf.MlpSpec(dims=dims, activations=acts, time_input=time_input)
    return spec, vf.init_params(spec, seed)


def first_batch(cfg, t1):
    """Network, terminal states and curvature of ``cfg``'s first batch.

    The curvature is taken for a horizon ``[0, t1]``.
    """
    run = tr._Run(cfg)
    pos, lossfn = run.draw_batch()
    x1 = run.forward(run.ds.inputs[run.ds.train_idx])[0][pos]
    curv = terminal_curvature(lossfn.at(x1), t1, mode=cfg.loss.curvature)
    return run.spec, run.theta, x1, curv, cfg


def default_batch(t1=1.0):
    """:func:`first_batch` of the default snopt config."""
    return first_batch(tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind="snopt")), t1)


CIRCLES = tr.ExperimentConfig(dataset=tr.DatasetConfig(kind="circles"),
                              loss=tr.LossConfig(curvature="exact_rank"),
                              optimizer=tr.OptimizerConfig(kind="snopt"), batch_size=128,
                              model=tr.ModelConfig(dims=(2, 16, 16, 2)))


def assert_same_sweep(spec, theta, x1, curv, ref_curv, t1, solver, b_tol):
    """Both curvatures' sweeps take the same steps and NFE and give the same
    gradient, A side and ``x0``, bit for bit, and B sides within ``b_tol``
    relative to the reference's largest entry."""
    got, grad, rep = accumulate_factors(spec, theta, x1, curv, t1, solver)
    ref, g_ref, rep_ref = accumulate_factors(spec, theta, x1, ref_curv, t1, solver)
    assert (rep.nfe, rep.accepted_steps, rep.rejected_steps) == (
        rep_ref.nfe, rep_ref.accepted_steps, rep_ref.rejected_steps)
    assert np.array_equal(grad, g_ref)
    assert np.array_equal(rep.terminal_state[:x1.size], rep_ref.terminal_state[:x1.size])
    for mine, want in zip(got.a_factors, ref.a_factors):
        assert np.array_equal(mine, want)
    for mine, want in zip(got.b_factors, ref.b_factors):
        assert np.all(np.isfinite(mine))
        assert np.max(np.abs(mine - want)) <= b_tol * np.max(np.abs(want))


def terms_at(spec, theta, t, x, qs):
    """Full factor matrices A_n(t), B_n(t) at states ``x`` for the rank vectors ``qs``."""
    weights = vf.unpack_params(spec, theta)
    trace = vf._forward(spec, weights, t, x, inputs=vf._trace_inputs(spec, x.shape[0]))
    gs, _ = vf._cotangents(spec, weights, trace, qs)
    return _unpack_factors(spec, packed_terms(spec, trace, gs))


def packed_terms(spec, trace, gs, weights=None):
    """:func:`_factor_terms` into a new array."""
    return _factor_terms(trace, gs, weights, np.empty(_packed_len(spec)))


def stick_breaking(probs, readout_weight):
    """The C-1 stick-breaking rank vectors of a softmax Hessian, through the readout."""
    return [col @ readout_weight for col in ls._multinomial_cholesky(probs)]


class TestFactorTerms:
    def test_rank_one_kron_exactness(self):
        # one sample, one rank vector: kron(A_n, B_n) equals the exact outer
        # product of the layer gradient, with zero factorization error
        spec, theta = tanh_net(1)
        weights = vf.unpack_params(spec, theta)
        x = np.array([[0.4, -0.7]])
        q = np.array([[[0.9, -0.3]]])
        terms = terms_at(spec, theta, 0.7, x, q)
        trace = vf._forward(spec, weights, 0.7, x, inputs=vf._trace_inputs(spec, 1))
        gs, _ = vf._cotangents(spec, weights, trace, q)
        for k in range(spec.n_layers):
            zbar = trace[k][0]
            assert zbar[-1] == 1.0
            g = gs[k][0, 0]
            seg = np.kron(zbar, g)
            product = np.kron(terms.a_factors[k], terms.b_factors[k])
            assert np.max(np.abs(product - np.outer(seg, seg))) < 1e-10

    def test_psd(self):
        spec, theta = tanh_net(2)
        rng = np.random.default_rng(0)
        terms = terms_at(spec, theta, 0.3, rng.normal(size=(8, 2)), rng.normal(size=(2, 8, 2)))
        for mat in terms.a_factors + terms.b_factors:
            assert np.linalg.eigvalsh(mat).min() >= -1e-12

    def test_weighted_terms_copy_no_hidden_rows(self):
        # weights scale every layer's rows in place, the traversal's own copy
        # of the seed included: a warm weighted call through 2-16-16-2 on 128
        # rows peaks less than one (batch, l) array above the unweighted one,
        # the seed is never written, and the terms equal those of pre-weighted
        # copies
        spec = vf.MlpSpec(dims=(2, 16, 16, 2), activations=("tanh", "tanh", "identity"))
        weights = vf.unpack_params(spec, vf.init_params(spec, 0))
        rng = np.random.default_rng(5)
        trace = vf._forward(spec, weights, 0.3, rng.normal(size=(128, 2)),
                            inputs=vf._trace_inputs(spec, 128))
        q = rng.normal(size=(128, 2))
        seed = q.copy()
        w = rng.uniform(0.5, 2.0, size=128)
        want = packed_terms(spec, trace, [g * w[:, None] for g in
                                          vf._cotangents(spec, weights, trace, q)[0]])

        def peak(w):
            gs, _ = vf._cotangents(spec, weights, trace, q)
            packed_terms(spec, trace, gs, w)
            gs, _ = vf._cotangents(spec, weights, trace, q)
            out = np.empty(_packed_len(spec))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _factor_terms(trace, gs, w, out)
                return out, tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        got, weighted = peak(w)
        _, plain = peak(None)
        assert np.array_equal(got, want)
        assert np.array_equal(q, seed)
        assert weighted < plain + 8 * 128 * 16

    def test_packed_triangles_round_trip(self):
        # the packed integrand holds each upper triangle once; unpacking gives
        # the symmetric second moments bit for bit
        spec, theta = tanh_net(3, (3, 5, 4, 2), "concat")
        weights = vf.unpack_params(spec, theta)
        rng = np.random.default_rng(5)
        x, qs = rng.normal(size=(6, 2)), rng.normal(size=(2, 6, 2))
        trace = vf._forward(spec, weights, 0.4, x, inputs=vf._trace_inputs(spec, 6))
        gs, _ = vf._cotangents(spec, weights, trace, qs)
        packed = packed_terms(spec, trace, gs)
        assert packed.size == sum(n * (n + 1) // 2 for n in (4, 6, 5, 5, 4, 2))
        terms = _unpack_factors(spec, packed)
        for k, zb in enumerate(trace[:-1]):
            g = gs[k].reshape(-1, gs[k].shape[-1])
            assert np.array_equal(terms.a_factors[k], zb.T @ zb / 6)
            assert np.array_equal(terms.b_factors[k], g.T @ g / 6)


class TestAccumulateFactors:
    def test_zero_factors_zero_b(self):
        spec, theta = tanh_net(3)
        x1 = np.array([[0.5, -0.5]])
        curv = TerminalCurvature(grad=np.zeros((1, 2)), factors=[np.zeros((1, 2))])
        factors, grad, _ = accumulate_factors(spec, theta, x1, curv, 1.0, RK4)
        for b in factors.b_factors:
            assert np.allclose(b, 0.0)
        # activation factors remain nonzero PSD
        for a in factors.a_factors:
            assert np.linalg.eigvalsh(a).min() >= -1e-12
            assert np.linalg.norm(a) > 0
        assert np.allclose(grad, 0.0)

    def test_rejects_exact_rank_without_factors(self):
        # a rank-0 sweep has no rank vector for the B side to integrate: the
        # curvature it would start from cannot be built
        a1 = np.random.default_rng(6).normal(size=(8, 2))
        with pytest.raises(ValueError, match="exactly one of the two"):
            TerminalCurvature(grad=a1, factors=[])

    def test_rk4_step_weights_its_stages(self):
        # one RK4 step over [0, T]: the factors are T/6 * (F1 + 2 F2 + 2 F3 + F4)
        # at the step's four stages, with the B side over the rank vectors only;
        # each stage's integrand reads that stage's own trace and cotangents
        spec, theta = tanh_net(10, (2, 4, 3, 2))
        weights = vf.unpack_params(spec, theta)
        rng = np.random.default_rng(4)
        x1, a1 = rng.uniform(-1, 1, size=(5, 2)), rng.normal(size=(5, 2))
        span = 0.9
        for qs in ([a1], [a1, rng.normal(size=(5, 2))]):
            curv = TerminalCurvature(grad=a1, factors=qs)
            got, _, rep = accumulate_factors(spec, theta, x1, curv, span,
                                             SolverConfig(method="rk4", fixed_step=span))
            assert rep.nfe == 4
            sweep = BackwardSweep(spec, theta, x1, a1, qs)
            fn = sweep.field(lambda trace, gs: _unpack_factors(
                spec, packed_terms(spec, trace, [g[1:] for g in gs])))
            y, hs, stages, k = sweep.state, -span, [], None
            for dt, shift in ((0.0, 0.0), (0.5, 0.5), (0.5, 0.5), (1.0, 1.0)):
                t, y_stage = span + dt * hs, y if k is None else y + shift * hs * k
                k, integrand = fn(t, y_stage)
                stages.append(integrand())
                x, cot = sweep.unpack(y_stage)
                want = terms_at(spec, theta, t, x, cot[1:])
                for mine, ref in zip(stages[-1].a_factors + stages[-1].b_factors,
                                     want.a_factors + want.b_factors):
                    assert np.array_equal(mine, ref)
                # the stage's derivative is the field and the adjoint ODE there
                trace = vf._forward(spec, weights, t, x, inputs=vf._trace_inputs(spec, x.shape[0]))
                _, r = vf._cotangents(spec, weights, trace, cot)
                assert np.array_equal(k, np.concatenate([trace[-1].ravel(), -r.ravel()]))
            for side in ("a_factors", "b_factors"):
                for n in range(spec.n_layers):
                    f = [getattr(s, side)[n] for s in stages]
                    want = span / 6 * (f[0] + 2 * f[1] + 2 * f[2] + f[3])
                    np.testing.assert_allclose(getattr(got, side)[n], want, rtol=1e-12)

    def test_riemann_sum_replay(self):
        # Euler's quadrature is the left Riemann sum over its own steps:
        # replay the steps by hand, summing h * F(t_j) and h * g(t_j) at each
        # step's start
        spec, theta = tanh_net(4)
        rng = np.random.default_rng(1)
        x1, a1 = rng.uniform(-1, 1, size=(2, 2)), rng.normal(size=(2, 2))
        curv = TerminalCurvature(grad=a1, factors=[a1])
        h = 0.25
        got, grad, rep = accumulate_factors(spec, theta, x1, curv, 1.0,
                                            SolverConfig(method="euler", fixed_step=h))
        assert rep.nfe == rep.accepted_steps == 4
        sweep = BackwardSweep(spec, theta, x1, a1, [a1])
        fn = sweep.field(lambda trace, gs: vf._param_grad_from_cotangents(
            spec, trace, [g[0] for g in gs]).ravel())
        y = sweep.state
        a_sum = [np.zeros_like(a) for a in got.a_factors]
        b_sum = [np.zeros_like(b) for b in got.b_factors]
        g_sum = np.zeros_like(grad)
        t = 1.0
        for _ in range(4):
            x, cot = sweep.unpack(y)
            terms = terms_at(spec, theta, t, x, cot[1:])
            for n in range(spec.n_layers):
                a_sum[n] += h * terms.a_factors[n]
                b_sum[n] += h * terms.b_factors[n]
            dy, integrand = fn(t, y)
            g_sum += h * integrand()
            y = y - h * dy
            t -= h
        for mine, want in zip(got.a_factors + got.b_factors, a_sum + b_sum):
            np.testing.assert_allclose(mine, want, rtol=1e-12)
        assert np.array_equal(grad, g_sum)
        assert np.array_equal(rep.terminal_state, y)

    def test_nfe_counts_grid_and_segments(self):
        # the step grid 0, 0.1, ..., 1 has 10 segments of one rk4 step each;
        # the factors add no evaluation of their own at any grid point
        spec, theta = tanh_net(9)
        x1 = np.array([[0.1, 0.1]])
        curv = TerminalCurvature(grad=np.ones((1, 2)), factors=[np.ones((1, 2))])
        cfg = SolverConfig(method="rk4", fixed_step=0.1)
        _, _, report = accumulate_factors(spec, theta, x1, curv, 1.0, cfg)
        assert report.accepted_steps == 10
        assert report.nfe == 10 * 4

    def test_gradient_matches_adjoint(self):
        for time_input, dims in (("none", (2, 3, 2)), ("concat", (3, 3, 2))):
            spec, theta = tanh_net(5, dims, time_input)
            rng = np.random.default_rng(2)
            x1 = rng.uniform(-1, 1, size=(4, 2))
            a1 = rng.normal(size=(4, 2))
            curv = TerminalCurvature(grad=a1, factors=[a1])
            factors, grad, _ = accumulate_factors(spec, theta, x1, curv, 1.0, RK4)
            g_adj, _, _, _ = adjoint_gradient(spec, theta, x1, a1, 1.0, RK4)
            assert np.array_equal(grad, g_adj[0])

    def test_psd_preserved_under_accumulation(self):
        spec, theta = tanh_net(8)
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-1, 1, size=(4, 2))
        a1 = rng.normal(size=(4, 2))
        curv = TerminalCurvature(grad=a1, factors=[a1])
        factors, _, _ = accumulate_factors(spec, theta, x1, curv, 1.0,
                                           SolverConfig(method="rk4", fixed_step=0.125))
        for mat in factors.a_factors + factors.b_factors:
            assert np.linalg.eigvalsh(mat).min() >= -1e-12


class TestDefaultConfigSweep:
    """The default snopt config's first batch under its own dopri5 settings."""

    def test_sweep_is_the_adjoint_solve(self):
        # the factors ride on the adjoint's own stages: the same steps, NFE,
        # gradient and reconstructed x0, bit for bit
        spec, theta, x1, curv, cfg = default_batch()
        _, grad, rep = accumulate_factors(spec, theta, x1, curv, cfg.t1, cfg.solver)
        g_adj, x0, _, rep_adj = adjoint_gradient(spec, theta, x1, curv.grad, cfg.t1,
                                                 cfg.solver)
        assert (rep.nfe, rep.accepted_steps, rep.rejected_steps) == (
            rep_adj.nfe, rep_adj.accepted_steps, rep_adj.rejected_steps) == (13, 2, 0)
        assert np.array_equal(grad, g_adj[0])
        assert np.array_equal(rep.terminal_state[:x1.size], x0.ravel())

    def test_scaled_adjoint_matches_carried_rank_vector(self):
        # gauss_newton_scaled reads q_1 = a/sqrt(T) off the adjoint, weighting
        # each stage's adjoint cotangents by 1/sqrt(T); an exact_rank sweep that
        # carries q_1 as a rank vector must agree: bit for bit at T = 1, where
        # the weight is exactly 1, and to rounding at T = 0.7
        for t1, rel_tol in ((1.0, 0.0), (0.7, 1e-14)):
            spec, theta, x1, curv, cfg = default_batch(t1)
            assert np.all(curv.adjoint_weights == 1.0 / np.sqrt(t1))
            carried = TerminalCurvature(grad=curv.grad, factors=[curv.grad / np.sqrt(t1)])
            runs = []
            for c in (curv, carried):
                out = accumulate_factors(spec, theta, x1, c, t1, cfg.solver)
                runs.append((*out, out[2].terminal_state.size))
            (got, grad, rep, size), (ref, g_ref, rep_ref, size_ref) = runs
            assert size_ref - size == x1.size
            assert rep.nfe == rep_ref.nfe and rep.accepted_steps == rep_ref.accepted_steps
            for mine, want in zip(got.a_factors + got.b_factors,
                                  ref.a_factors + ref.b_factors):
                assert np.max(np.abs(mine - want)) <= rel_tol * np.max(np.abs(want))
            assert np.max(np.abs(grad - g_ref)) <= rel_tol * np.max(np.abs(g_ref))

    def test_factors_match_tight_reference(self):
        spec, theta, x1, curv, cfg = default_batch()
        got, grad, _ = accumulate_factors(spec, theta, x1, curv, cfg.t1, cfg.solver)
        tight = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10)
        ref, g_ref, _ = accumulate_factors(spec, theta, x1, curv, cfg.t1, tight)
        for mine, want in zip(got.a_factors + got.b_factors, ref.a_factors + ref.b_factors):
            assert np.linalg.norm(mine - want) <= 1e-3 * np.linalg.norm(want)
        assert np.linalg.norm(grad - g_ref) <= 1e-3 * np.linalg.norm(g_ref)


class TestSoftmaxRankVectors:
    """The circles config with ``exact_rank`` softmax factors, first batch."""

    def test_classes_minus_one_vectors_match_classes_vectors(self):
        # the C columns of diag(sqrt p) - p sqrt(p)^T and the C-1 stick-breaking
        # columns reconstruct the same Hessian; the sweep carries one vector
        # fewer (for C = 2 none: it rides on the adjoint) and must agree:
        # steps, NFE, gradient, A side and x0 bit for bit, the B side to rounding
        spec, theta, x1, curv, cfg = first_batch(CIRCLES, CIRCLES.t1)
        run = tr._Run(cfg)
        probs = ls._softmax(run.readout.logits(x1))
        n_cls = probs.shape[1]
        full = TerminalCurvature(
            grad=curv.grad,
            factors=[np.sqrt(probs[:, k:k + 1]) * (np.eye(n_cls)[k] - probs) @ run.readout.weight
                     for k in range(n_cls)])
        carried = TerminalCurvature(grad=curv.grad,
                                    factors=stick_breaking(probs, run.readout.weight))
        assert len(carried.factors) == n_cls - 1 == len(full.factors) - 1
        assert not curv.factors
        for c in (curv, carried):
            assert_same_sweep(spec, theta, x1, c, full, cfg.t1, cfg.solver, 1e-14)

    def test_two_class_factor_rides_on_the_adjoint(self):
        # the weighted sweep carries [x | a] only; carrying the same factor as a
        # rank vector must give the same sweep, the B side to rounding
        spec, theta, x1, curv, cfg = first_batch(CIRCLES, CIRCLES.t1)
        assert curv.adjoint_weights.shape == (x1.shape[0],)
        readout = tr._Run(cfg).readout
        carried = TerminalCurvature(grad=curv.grad, factors=stick_breaking(
            ls._softmax(readout.logits(x1)), readout.weight))
        assert_same_sweep(spec, theta, x1, curv, carried, cfg.t1, cfg.solver, 1e-14)

    def test_confident_samples_ride_on_the_adjoint(self):
        # logit gaps of 30, 400 and 740 either way, so p_o is below 2**-53, far
        # below and subnormal; w_b = sqrt(p_y)/sqrt(p_o) reaches 4.9e160, and
        # the weighted B side must stay finite and match the carried rank vector
        # (the second readout row is zero: a gradient that dropped its label
        # component would vanish)
        spec, theta = tanh_net(12, (2, 6, 2))
        gaps = np.array([30.0, -30.0, 400.0, -400.0, 740.0, -740.0])
        x1 = np.stack([gaps / 100.0, np.linspace(-1.0, 1.0, gaps.size)], axis=1)
        readout = ls.Readout(weight=np.array([[100.0, 0.0], [0.0, 0.0]]), bias=np.zeros(2))
        for labels in (np.zeros(gaps.size, dtype=int), np.arange(gaps.size) % 2):
            lf = ls.TerminalLoss(target=labels, readout=readout)
            curv = terminal_curvature(lf.at(x1), 1.0, mode="exact_rank")
            assert np.all(np.isfinite(curv.adjoint_weights))
            assert curv.adjoint_weights.max() > 1e160
            carried = TerminalCurvature(grad=curv.grad, factors=stick_breaking(
                ls._softmax(readout.logits(x1)), readout.weight))
            assert_same_sweep(spec, theta, x1, curv, carried, 1.0, RK4, 1e-14)


class TestCallerArrays:
    # the weighted factor terms write the traversal's own cotangents in place;
    # the caller's terminal states and curvature must come out as they went in
    THREE_CIRCLES = replace(CIRCLES, dataset=tr.DatasetConfig(kind="circles",
                                                              radii=(0.5, 1.0, 1.5)))

    @pytest.mark.parametrize("case", ["surrogate", "two_class", "three_class"])
    def test_sweep_writes_no_caller_array(self, case):
        cfg = {"surrogate": tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind="snopt")),
               "two_class": CIRCLES, "three_class": self.THREE_CIRCLES}[case]
        spec, theta, x1, curv, cfg = first_batch(cfg, cfg.t1)
        assert (curv.adjoint_weights is None) == (case == "three_class")
        held = [theta, x1, curv.grad, *curv.factors]
        if curv.adjoint_weights is not None:
            held.append(curv.adjoint_weights)
        kept = [v.tobytes() for v in held]
        accumulate_factors(spec, theta, x1, curv, cfg.t1, cfg.solver)
        assert [v.tobytes() for v in held] == kept


class TestTriangle:
    def test_flat_indices_are_row_major(self):
        assert np.array_equal(triu_flat(3), [0, 1, 2, 4, 5, 8])

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for side in (1, 2, 5):
            a = rng.normal(size=(side, side))
            m = a + a.T
            packed = m.ravel()[triu_flat(side)]
            assert packed.size == side * (side + 1) // 2
            assert np.array_equal(triu_unpack(packed, side), m)

    def test_unpacked_factors_are_exactly_symmetric(self):
        # the eigen-update hands each factor to eigh, which reads only its
        # lower triangle, so no unpacked factor may differ from its transpose
        rng = np.random.default_rng(3)
        for side in (1, 2, 3, 7, 17):
            m = triu_unpack(rng.normal(size=side * (side + 1) // 2), side)
            assert np.array_equal(m, m.T)
        for dims in ((2, 16, 16, 2), (3, 5, 3)):
            spec = vf.MlpSpec(dims=dims, activations=("tanh",) * (len(dims) - 2) + ("identity",))
            factors = _unpack_factors(spec, rng.normal(size=_packed_len(spec)))
            for m in factors.a_factors + factors.b_factors:
                assert np.array_equal(m, m.T)
