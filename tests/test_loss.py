import numpy as np
import pytest

from snopt_kit import loss as ls


def fd_grad(fn, x, h=1e-6):
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        out.flat[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return out


def fd_hessian(fn, x, h=1e-4):
    d = x.size
    hess = np.empty((d, d))
    for i in range(d):
        e = np.zeros_like(x)
        e.flat[i] = h
        gp = fd_grad(fn, x + e, h)
        gm = fd_grad(fn, x - e, h)
        hess[i] = ((gp - gm) / (2 * h)).ravel()
    return 0.5 * (hess + hess.T)


class TestLossValue:
    def test_mse_zero_at_target(self):
        lf = ls.TerminalLoss(target=np.array([1.0, -2.0]))
        assert ls.loss_value(lf.at(np.array([[1.0, -2.0]]))) == 0.0

    def test_mse_unit_perturbation(self):
        lf = ls.TerminalLoss(target=np.array([1.0, -2.0]))
        assert ls.loss_value(lf.at(np.array([[2.0, -2.0]]))) == pytest.approx(0.5)

    def test_softmax_uniform_logits(self):
        lf = ls.TerminalLoss(target=np.array([0]))
        assert ls.loss_value(lf.at(np.array([[0.0, 0.0]]))) == pytest.approx(np.log(2.0))

    def test_bad_label(self):
        lf = ls.TerminalLoss(target=np.array([5]))
        with pytest.raises(ls.BadLabel):
            ls.loss_value(lf.at(np.array([[0.0, 0.0]])))
        # one label per sample: a lone label does not stand for the batch
        lf = ls.TerminalLoss(target=np.array([0]))
        with pytest.raises(ls.BadLabel):
            ls.loss_value(lf.at(np.zeros((2, 2))))

    def test_float_labels_rejected(self):
        # float labels cannot feed a readout's softmax; without one they are mse targets
        readout = ls.Readout(weight=np.eye(2), bias=np.zeros(2))
        for target in (np.array([0.0]), np.zeros((1, 2))):
            with pytest.raises(ValueError, match="readout needs integer class labels"):
                ls.TerminalLoss(target=target, readout=readout)
        lf = ls.TerminalLoss(target=np.array([0.5, 0.0]))
        assert not lf.classifies and ls.loss_value(lf.at(np.zeros((1, 2)))) == 0.125
        assert np.isnan(ls.accuracy(lf.at(np.zeros((1, 2)))))

    def test_batch_mean(self):
        lf = ls.TerminalLoss(target=np.zeros(2))
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert ls.loss_value(lf.at(x)) == pytest.approx(0.5 * (1.0 + 4.0) / 2)


class TestGrad:
    def test_mse_grad(self):
        lf = ls.TerminalLoss(target=np.array([1.0, 0.0]))
        x = np.array([[2.0, 3.0]])
        assert np.allclose(ls.grad_x1(lf.at(x)), [[1.0, 3.0]])

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        readout = ls.Readout(weight=rng.normal(size=(3, 2)), bias=rng.normal(size=3))
        lf = ls.TerminalLoss(target=np.array([1]), readout=readout)
        x = rng.normal(size=(1, 2))
        got = ls.grad_x1(lf.at(x))
        want = fd_grad(lambda v: ls.loss_value(lf.at(v)), x)
        assert np.linalg.norm(got - want) < 1e-6 * max(1.0, np.linalg.norm(want))

    def test_confident_gradient_keeps_label_component(self):
        # logit gaps of 50 and 59 put p_o below 2**-53, where p_y - 1 rounds
        # to 0; the gradient is still p_o (V_o - V_y)
        readout = ls.Readout(weight=np.array([[1.0, 0.5], [-1.0, 0.25]]), bias=np.zeros(2))
        labels = np.array([0, 1])
        lf = ls.TerminalLoss(target=labels, readout=readout)
        x = np.array([[25.0, 0.0], [-30.0, 4.0]])
        logits = readout.logits(x)
        rows, other = np.arange(2), 1 - labels
        e_o = np.exp(logits[rows, other] - logits[rows, labels])
        p_o = e_o / (1.0 + e_o)
        assert np.all(p_o < 2.0 ** -53)
        want = p_o[:, None] * (readout.weight[other] - readout.weight[labels])
        np.testing.assert_allclose(ls.grad_x1(lf.at(x)), want, rtol=1e-15, atol=0)

    def test_quotient_divides_where_denominator_nonzero(self):
        num = np.array([1.0, 1.0, 1.0, 0.0])
        den = np.array([2.0, 0.0, -2.0, -4.0])
        np.testing.assert_array_equal(ls._quotient(num, den), [0.5, 0.0, -0.5, -0.0])

    def test_readout_grads_match_fd(self):
        rng = np.random.default_rng(1)
        readout = ls.Readout(weight=rng.normal(size=(2, 2)), bias=np.zeros(2))
        lf = ls.TerminalLoss(target=np.array([0, 1]), readout=readout)
        x = rng.normal(size=(2, 2))
        dw, db = ls.readout_grads(lf.at(x))
        h = 1e-6
        for i in range(2):
            for j in range(2):
                readout.weight[i, j] += h
                up = ls.loss_value(lf.at(x))
                readout.weight[i, j] -= 2 * h
                dn = ls.loss_value(lf.at(x))
                readout.weight[i, j] += h
                assert dw[i, j] == pytest.approx((up - dn) / (2 * h), abs=1e-6)


class TestTerminalCurvature:
    def test_mse_exact_rank_is_identity(self):
        lf = ls.TerminalLoss(target=np.zeros(3))
        curv = ls.terminal_curvature(lf.at(np.array([[1.0, 2.0, 3.0]])), 0.0, 1.0, "exact_rank")
        assert len(curv.factors) == 3
        assert np.allclose(curv.hessian(), np.eye(3))

    def test_gauss_newton_unit_interval(self):
        lf = ls.TerminalLoss(target=np.zeros(2))
        x = np.array([[0.5, -0.5]])
        curv = ls.terminal_curvature(lf.at(x), 0.0, 1.0, "gauss_newton_scaled")
        # the one factor grad / sqrt(t1 - t0) rides on the adjoint, no rank vector
        assert not curv.factors
        np.testing.assert_array_equal(curv.adjoint_weights, [1.0])
        assert np.allclose(curv.hessian(), np.outer(curv.grad, curv.grad))

    def test_gauss_newton_interval_scaling(self):
        lf = ls.TerminalLoss(target=np.zeros(2))
        x = np.array([[0.5, -0.5]])
        curv = ls.terminal_curvature(lf.at(x), 0.0, 4.0, "gauss_newton_scaled")
        factor = curv.grad / np.sqrt(4.0 - 0.0)
        assert np.allclose(curv.hessian(), np.outer(factor, factor))
        np.testing.assert_array_equal(curv.adjoint_weights, [0.5])
        # one weight per sample, as a zero-stride view
        assert curv.adjoint_weights.strides == (0,)
        assert ls.terminal_curvature(lf.at(x), 0.0, 4.0, "exact_rank").adjoint_weights is None

    def test_softmax_exact_rank_matches_fd_hessian(self):
        rng = np.random.default_rng(2)
        readout = ls.Readout(weight=rng.normal(size=(3, 2)), bias=rng.normal(size=3))
        lf = ls.TerminalLoss(target=np.array([2]), readout=readout)
        x = rng.normal(size=(1, 2))
        curv = ls.terminal_curvature(lf.at(x), 0.0, 1.0, "exact_rank")
        want = fd_hessian(lambda v: ls.loss_value(lf.at(v)), x)
        rel = np.linalg.norm(curv.hessian() - want) / np.linalg.norm(want)
        assert rel < 1e-5

    def test_factors_psd(self):
        rng = np.random.default_rng(3)
        readout = ls.Readout(weight=rng.normal(size=(4, 3)), bias=np.zeros(4))
        for mode in ("exact_rank", "gauss_newton_scaled"):
            lf = ls.TerminalLoss(target=np.array([1]), readout=readout)
            curv = ls.terminal_curvature(lf.at(rng.normal(size=(1, 3))), 0.0, 1.0, mode)
            assert np.linalg.eigvalsh(curv.hessian()).min() >= -1e-10

    def test_softmax_factor_count_is_classes_minus_one(self):
        # diag(p) - p p^T maps the all-ones vector to 0: rank C-1, C-1 factors
        rng = np.random.default_rng(4)
        for n_cls in range(2, 6):
            readout = ls.Readout(weight=rng.normal(size=(n_cls, 3)), bias=np.zeros(n_cls))
            lf = ls.TerminalLoss(target=np.array([0, n_cls - 1]),
                                 readout=readout)
            at = lf.at(rng.normal(size=(2, 3)))
            curv = ls.terminal_curvature(at, 0.0, 1.0, "exact_rank")
            assert len(ls._multinomial_cholesky(at.probs)) == n_cls - 1
            # only the two-class factor rides on the adjoint; more classes
            # carry all C-1 as rank vectors
            assert (curv.adjoint_weights is None) == (n_cls > 2)
            assert len(curv.factors) == (n_cls - 1 if n_cls > 2 else 0)
            assert all(f.shape == (2, 3) for f in curv.factors)

    def test_softmax_two_class_closed_form(self):
        # C = 2: the one factor is sqrt(p0 p1) (e0 - e1)
        x = np.array([[0.3, -1.2], [4.0, 0.5], [-2.0, 2.0]])
        lf = ls.TerminalLoss(target=np.array([0, 1, 1]))
        p = ls._softmax(x)
        (factor,) = ls._multinomial_cholesky(p)
        want = np.sqrt(p[:, :1] * p[:, 1:]) * np.array([1.0, -1.0])
        np.testing.assert_allclose(factor, want, rtol=1e-15, atol=0)
        # the curvature holds it as the weighted gradient, up to each row's sign
        curv = ls.terminal_curvature(lf.at(x), 0.0, 1.0, "exact_rank")
        np.testing.assert_allclose(np.abs(curv.adjoint_weights[:, None] * curv.grad),
                                   np.abs(want), rtol=1e-15, atol=0)

    def test_softmax_reconstruction_matches_accurate_reference(self):
        # the reference p_i (delta_ij - p_j), with its diagonal summed as
        # p_i * sum_{j != i} p_j; logits up to 1000 make probabilities underflow
        # to exactly 0, and the reconstruction stays finite and exact to rounding
        rng = np.random.default_rng(5)
        for n_cls in range(2, 6):
            x = np.concatenate([rng.normal(size=(100, n_cls)) * scale
                                for scale in (1.0, 10.0, 100.0, 1000.0)])
            p = ls._softmax(x)
            assert np.any(p == 0.0)
            lf = ls.TerminalLoss(target=np.zeros(len(x), dtype=int))
            cols = ls._multinomial_cholesky(p)
            # from three classes on, the curvature carries exactly these columns
            curv = ls.terminal_curvature(lf.at(x), 0.0, 1.0, "exact_rank")
            assert len(curv.factors) == (n_cls - 1 if n_cls > 2 else 0)
            for got, want in zip(curv.factors, cols):
                assert np.array_equal(got, want)
            ys = np.stack(cols)
            recon = np.einsum("kbi,kbj->bij", ys, ys)
            ref = -p[:, :, None] * p[:, None, :]
            for i in range(n_cls):
                ref[:, i, i] = p[:, i] * np.delete(p, i, axis=1).sum(axis=1)
            assert np.all(np.isfinite(recon))
            err = np.linalg.norm(recon - ref, axis=(1, 2))
            assert np.all(err <= 1e-14 * np.linalg.norm(ref, axis=(1, 2)))

    def test_two_class_weights_carry_the_factor(self):
        # the one factor is parallel to the gradient: w_b |grad_b| = |factor_b|
        # wherever the gradient is normal, and the weighted second moment is
        # the factors' on the whole batch, for logits up to 1000 (p_o underflows
        # to subnormal and to 0; the weight must stay finite there)
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(size=(100, 2)) * scale
                            for scale in (1.0, 10.0, 100.0, 1000.0)])
        lf = ls.TerminalLoss(target=rng.integers(0, 2, size=len(x)))
        curv = ls.terminal_curvature(lf.at(x), 0.0, 1.0, "exact_rank")
        (factor,), w = ls._multinomial_cholesky(ls._softmax(x)), curv.adjoint_weights
        p_o = ls._softmax(x)[np.arange(len(x)), 1 - lf.target]
        assert np.any(p_o == 0.0) and np.any((p_o > 0) & (p_o < np.finfo(float).tiny))
        assert np.all(np.isfinite(w))
        assert np.all(w[p_o == 0.0] == 0.0)
        # entry by entry: a row norm would square a 1e-306 gradient to 0
        normal = np.all(np.abs(curv.grad) >= np.finfo(float).tiny, axis=1)
        np.testing.assert_allclose(np.abs(w[normal, None] * curv.grad[normal]),
                                   np.abs(factor[normal]), rtol=1e-15, atol=0)
        wg = curv.grad * w[:, None]
        np.testing.assert_allclose(wg.T @ wg, factor.T @ factor, rtol=1e-14, atol=0)

    def test_holds_exactly_one_form(self):
        grad = np.ones((2, 3))
        for kwargs in ({}, {"factors": [grad], "adjoint_weights": np.ones(2)}):
            with pytest.raises(ValueError, match="exactly one of the two"):
                ls.TerminalCurvature(grad, **kwargs)

    def test_weighted_curvature_builds_no_rank_vector(self, monkeypatch):
        # the surrogate and the two-class softmax never build the Cholesky columns
        def refuse(probs):
            raise AssertionError("built the multinomial Cholesky factor")

        monkeypatch.setattr(ls, "_multinomial_cholesky", refuse)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        losses = {n_cls: ls.TerminalLoss(target=np.arange(4) % n_cls, readout=ls.Readout(
            weight=rng.normal(size=(n_cls, 3)), bias=np.zeros(n_cls))) for n_cls in (2, 3)}
        for n_cls, mode in ((2, "exact_rank"), (2, "gauss_newton_scaled"),
                            (3, "gauss_newton_scaled")):
            curv = ls.terminal_curvature(losses[n_cls].at(x), 0.0, 1.0, mode)
            assert not curv.factors and curv.adjoint_weights.shape == (4,)
        # three classes under exact_rank do build it
        with pytest.raises(AssertionError, match="Cholesky"):
            ls.terminal_curvature(losses[3].at(x), 0.0, 1.0, "exact_rank")

    def test_requires_forward_interval(self):
        lf = ls.TerminalLoss(target=np.zeros(2))
        with pytest.raises(ValueError):
            ls.terminal_curvature(lf.at(np.zeros((1, 2))), 1.0, 1.0, "gauss_newton_scaled")


def test_accuracy():
    readout = ls.Readout(weight=np.eye(2), bias=np.zeros(2))
    lf = ls.TerminalLoss(target=np.array([0, 1, 1]), readout=readout)
    x = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    assert ls.accuracy(lf.at(x)) == pytest.approx(2.0 / 3.0)
