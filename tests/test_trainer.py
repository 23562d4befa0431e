import copy
import time
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

from snopt_kit import trainer as tr
from snopt_kit import vector_field as vf
from snopt_kit.adjoint import adjoint_gradient
from snopt_kit.kfac import accumulate_factors
from snopt_kit.loss import TerminalCurvature, grad_x1
from snopt_kit.odesolve import SolverConfig
from snopt_kit.oracle import flow


def small_config(**kw):
    base = dict(
        dataset=tr.DatasetConfig(n_per_class=40, noise_sd=0.05),
        model=tr.ModelConfig(dims=(2, 4, 2), activations=("tanh", "identity")),
        iterations=5,
        batch_size=16,
        grid_samples=5,
        eval_every=2,
        seed=0,
    )
    base.update(kw)
    return tr.ExperimentConfig(**base)


class TestTrainBasics:
    def test_zero_iterations(self):
        records = tr.train(small_config(iterations=0))
        assert records == []

    def test_zero_lr_constant_loss(self):
        cfg = small_config(iterations=6, optimizer=tr.OptimizerConfig(
            kind="adam", lr=0.0, readout_lr=0.0))
        records = tr.train(cfg)
        losses = {r.train_loss for r in records}
        assert len(losses) == 1

    def test_seed_determinism(self):
        cfg = small_config(iterations=5, optimizer=tr.OptimizerConfig(kind="adam", lr=1e-2))
        a = tr.train(cfg)
        b = tr.train(cfg)
        assert [r.train_loss for r in a] == [r.train_loss for r in b]
        assert [r.nfe_fwd for r in a] == [r.nfe_fwd for r in b]

    def test_record_schema(self):
        records = tr.train(small_config())
        assert [r.iteration for r in records] == [1, 2, 3, 4, 5]
        clocks = [r.wall_clock_s for r in records]
        assert all(b >= a for a, b in zip(clocks, clocks[1:]))
        # eval cadence: test metrics at multiples of eval_every and the end
        assert np.isnan(records[0].test_loss)
        assert not np.isnan(records[1].test_loss)
        assert not np.isnan(records[-1].test_loss)

    def test_snopt_runs_and_updates(self):
        cfg = small_config(optimizer=tr.OptimizerConfig(kind="snopt", lr=0.1))
        records = tr.train(cfg)
        assert len(records) == 5
        assert len({r.train_loss for r in records}) > 1
        # the factors ride on the adjoint's own solve: the first sweep, from the
        # same parameters and batch, costs what the first-order one does
        adam = tr.train(small_config(iterations=1, optimizer=tr.OptimizerConfig(kind="adam")))
        assert records[0].nfe_bwd == adam[0].nfe_bwd

    def test_each_optimizer_kind(self):
        for kind, lr in (("adam", 1e-2), ("sgd", 1e-2), ("snopt", 0.05)):
            records = tr.train(small_config(optimizer=tr.OptimizerConfig(kind=kind, lr=lr)))
            assert all(np.isfinite(r.train_loss) for r in records)

    def test_regression_task(self):
        cfg = small_config(
            dataset=tr.DatasetConfig(kind="regression", n=60),
            optimizer=tr.OptimizerConfig(kind="adam", lr=1e-2),
        )
        records = tr.train(cfg)
        assert np.isnan(records[-1].train_acc)
        assert np.isfinite(records[-1].train_loss)

    def test_abort_carries_iteration(self):
        # a catastrophic step overflows the squared loss at the next evaluation
        cfg = small_config(
            iterations=30,
            dataset=tr.DatasetConfig(kind="regression", n=60),
            solver=SolverConfig(method="rk4", fixed_step=0.1),
            optimizer=tr.OptimizerConfig(kind="sgd", lr=1e160),
        )
        with pytest.raises(tr.TrainAbort) as err:
            tr.train(cfg)
        assert 1 <= err.value.iteration <= 3

    def test_non_finite_probe_aborts(self, monkeypatch):
        # the field is finite on the batch and NaN at the first-step probe
        calls = [0]
        orig = vf._forward

        def nan_at_probe(*a, **k):
            trace = orig(*a, **k)
            calls[0] += 1
            if calls[0] == 2:
                trace[-1] = np.full_like(trace[-1], np.nan)
            return trace

        monkeypatch.setattr(vf, "_forward", nan_at_probe)
        with pytest.raises(tr.TrainAbort, match="NonFiniteState.*probe") as err:
            tr.train(small_config(optimizer=tr.OptimizerConfig(kind="adam", lr=1e-3)))
        assert err.value.iteration == 1

    def test_one_forward_one_backward_per_iteration(self, monkeypatch):
        # one forward solve per iteration serves the minibatch and the train
        # metrics; test evaluation (iterations 2 and 4) adds one solve each
        import snopt_kit.trainer as trainer_mod
        calls = {"fwd": 0, "adj": 0, "acc": 0}
        originals = {name: getattr(trainer_mod, name)
                     for name in ("odesolve", "adjoint_gradient", "accumulate_factors")}

        def counting(key, name):
            def counted(*a, **k):
                calls[key] += 1
                return originals[name](*a, **k)
            return counted

        monkeypatch.setattr(trainer_mod, "odesolve", counting("fwd", "odesolve"))
        monkeypatch.setattr(trainer_mod, "adjoint_gradient", counting("adj", "adjoint_gradient"))
        monkeypatch.setattr(trainer_mod, "accumulate_factors",
                            counting("acc", "accumulate_factors"))
        for kind, lr, backward in (("adam", 1e-3, "adj"), ("snopt", 0.05, "acc")):
            calls.update(fwd=0, adj=0, acc=0)
            tr.train(small_config(iterations=4, eval_every=2,
                                  optimizer=tr.OptimizerConfig(kind=kind, lr=lr)))
            assert calls["fwd"] == 4 + 2
            assert calls[backward] == 4 and calls["adj"] + calls["acc"] == 4

    def test_horizon_updates_t1(self):
        cfg = small_config(
            iterations=12,
            optimizer=tr.OptimizerConfig(kind="adam", lr=1e-2),
            horizon=tr.HorizonConfig(enabled=True, penalty=0.5, lr=0.3, period=4),
        )
        records = tr.train(cfg)
        t1s = [r.t1 for r in records]
        assert t1s[0] == 1.0
        assert len(set(t1s)) > 1  # the bound moved at least once
        cfg2 = small_config(iterations=12, optimizer=tr.OptimizerConfig(kind="adam", lr=1e-2),
                            horizon=tr.HorizonConfig(enabled=True, policy="first_order",
                                                     penalty=0.5, lr=0.3, period=4))
        records2 = tr.train(cfg2)
        assert len({r.t1 for r in records2}) > 1

    def test_horizon_terms_use_pre_update_parameters(self):
        # s pairs the minibatch's x1 with the parameters that produced it
        cfg = small_config(iterations=1, optimizer=tr.OptimizerConfig(kind="adam", lr=0.1),
                           horizon=tr.HorizonConfig(enabled=True, period=1))
        ref = tr._Run(cfg)
        pos, lossfn = ref.draw_batch()
        x1 = ref.forward(ref.ds.inputs[ref.ds.train_idx])[0][pos]
        f1 = vf.eval(ref.spec, ref.theta, cfg.t1, x1)
        s0 = float(np.mean(np.sum(grad_x1(lossfn.at(x1)) * f1, axis=1)))

        run = tr._Run(cfg)
        run.iterate(1, 0.0)
        assert not np.array_equal(run.theta, ref.theta)
        assert run.horizon.s == pytest.approx(s0, rel=1e-12, abs=0.0)


class TestCallerArrays:
    @pytest.mark.parametrize("cfg", [
        small_config(optimizer=tr.OptimizerConfig(kind="adam")),
        small_config(optimizer=tr.OptimizerConfig(kind="snopt")),
        small_config(dataset=tr.DatasetConfig(kind="circles", n_per_class=40,
                                              radii=(0.5, 1.0, 1.5)),
                     loss=tr.LossConfig(curvature="exact_rank"),
                     optimizer=tr.OptimizerConfig(kind="snopt"),
                     horizon=tr.HorizonConfig(enabled=True, period=1)),
    ], ids=["adam", "snopt", "snopt-three-class-horizon"])
    def test_iterations_leave_the_dataset_alone(self, cfg):
        # no solve, sweep or update of an iteration writes the dataset's arrays
        run = tr._Run(cfg)
        kept = [v.tobytes() for v in (run.ds.inputs, run.ds.labels)]
        started = time.perf_counter()
        for it in (1, 2):
            run.iterate(it, started)
        assert [v.tobytes() for v in (run.ds.inputs, run.ds.labels)] == kept


TIGHT = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10)


def _trained_sweep_start(cfg):
    """Train ``cfg``, then draw the next minibatch: the run and what its sweep starts from."""
    runs = []
    tr.train(cfg, on_iteration=lambda it, run: runs.append(run))
    run = runs[-1]
    pos, lossfn = run.draw_batch()
    x1 = run.forward(run.ds.inputs[run.ds.train_idx])[0][pos]
    return (run, x1, *run.terminal(lossfn.at(x1)))


class TestDefaultConfigSolves:
    """The default config's seed-0 batch under its own dopri5 settings."""

    def test_first_iteration_nfe(self):
        # forward: start and two steps, the first attempt's stage 2 the
        # first-step probe; adam's adjoint the same, and so snopt's factor
        # sweep, whose factors ride on the solver's stages
        for kind, nfe in (("adam", (13, 13)), ("snopt", (13, 13))):
            cfg = tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind=kind), iterations=1)
            rec = tr.train(cfg)[0]
            assert (rec.nfe_fwd, rec.nfe_bwd) == nfe

    def test_forward_and_gradient_match_tight_reference(self):
        # rtol = atol = 1e-3 gave about 4e-7 (x1) and 2e-6 (gradient) relative
        # with a first step aimed at 1% of the tolerance, and 5.1e-8 and 2.9e-7
        # with the step aimed at the tolerance itself
        tight = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10)
        x1s, grads = [], []
        for cfg in (tr.ExperimentConfig(), tr.ExperimentConfig(solver=tight)):
            run = tr._Run(cfg)
            idx = run.batch_rng.choice(run.ds.train_idx, size=cfg.batch_size, replace=False)
            lossfn = run.loss_on(idx)
            x1, _ = run.forward(run.ds.inputs[idx])
            grad, _, _, _ = adjoint_gradient(run.spec, run.theta, x1, grad_x1(lossfn.at(x1)),
                                             cfg.t1, cfg.solver)
            x1s.append(x1)
            grads.append(grad[0])
        assert np.linalg.norm(x1s[0] - x1s[1]) <= 1e-5 * np.linalg.norm(x1s[1])
        assert np.linalg.norm(grads[0] - grads[1]) <= 1e-5 * np.linalg.norm(grads[1])

    def test_gradient_stays_accurate_at_a_trained_state(self):
        # after 10 Adam iterations at lr 0.01, the next minibatch's gradient
        # through _Run.backward measured 8.3e-5 relative to an rtol = atol =
        # 1e-10 sweep from the same x1 with a first step aimed at 1% of the
        # tolerance (1.4e-4 aimed at the tolerance); the bound is 10x 8.3e-5.
        # The error norm scores only the replay x, so a sweep started at a step
        # that fits x alone may span [0, t1] in one step and lose the
        # gradient: dopri5's first-step rule is what keeps it accurate
        cfg = tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind="adam", lr=0.01),
                                  iterations=10)
        run, x1, phi_grad, curv = _trained_sweep_start(cfg)
        grad, _, _ = run.backward(x1, phi_grad, curv)
        ref = adjoint_gradient(run.spec, run.theta, x1, phi_grad, run.t1, TIGHT)[0][0]
        assert np.linalg.norm(grad - ref) <= 10 * 8.3e-5 * np.linalg.norm(ref)

    def test_factors_stay_accurate_at_a_trained_state(self):
        # after snopt-grid33's 12 snopt iterations at lr 0.03, the next
        # minibatch's factor sweep through _Run.backward against an rtol =
        # atol = 1e-10 sweep from the same x1, relative: the gradient measured
        # 5.3e-5 with a first step aimed at 1% of the tolerance and 6.0e-6
        # aimed at the tolerance, the worst factor 1.6e-4 and 1.1e-5.  Each
        # bound is 10x the larger of the two
        cfg = tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind="snopt", lr=0.03),
                                  iterations=12)
        run, x1, phi_grad, curv = _trained_sweep_start(cfg)
        grad, factors, _ = run.backward(x1, phi_grad, curv)
        ref, ref_grad, _ = accumulate_factors(run.spec, run.theta, x1, curv, run.t1,
                                              TIGHT)
        assert np.linalg.norm(grad - ref_grad) <= 10 * 5.3e-5 * np.linalg.norm(ref_grad)
        for got, want in zip(factors.a_factors + factors.b_factors,
                             ref.a_factors + ref.b_factors):
            assert np.linalg.norm(got - want) <= 10 * 1.6e-4 * np.linalg.norm(want)
            # eigh reads only the lower triangle: the factors are symmetric bit for bit
            assert np.array_equal(got, got.T) and np.array_equal(want, want.T)

    def test_train_loss_stays_accurate_at_trained_states(self):
        # record k's full-train loss is solved at the state after update k-1;
        # over 30 Adam iterations at lr 0.01 it measured at most 3.9e-7
        # relative to an rtol = atol = 1e-10 solve with a first step aimed at 1%
        # of the tolerance (9.2e-7 aimed at the tolerance), and the bound is
        # 10x 3.9e-7.
        # Starting each solve at the previous solve's last proposed step
        # instead measured 1.5e-5
        cfg = tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind="adam", lr=0.01),
                                  iterations=30)
        states = []
        records = tr.train(cfg, on_iteration=lambda it, run: states.append(
            (run.theta.copy(), copy.deepcopy(run.readout), run.t1)))
        ref = tr._Run(replace(cfg, solver=SolverConfig(method="dopri5", rtol=1e-10,
                                                       atol=1e-10)))
        for record, (ref.theta, ref.readout, ref.t1) in zip(records[1:], states):
            want, _ = ref.evaluate(ref.ds.train_idx)
            assert abs(record.train_loss - want) <= 10 * 3.9e-7 * want


class TestSharedForward:
    """The minibatch's terminal states are rows of the full-train solve."""

    def test_batch_positions_follow_the_batch_stream(self, monkeypatch):
        drawn = []
        draw = tr._Run.draw_batch

        def recording(run):
            pos, lossfn = draw(run)
            drawn.append((run.ds.train_idx, pos))
            return pos, lossfn

        monkeypatch.setattr(tr._Run, "draw_batch", recording)
        for seed in (0, 1, 2):
            drawn.clear()
            cfg = small_config(seed=seed, iterations=4)
            tr.train(cfg)
            rng = np.random.Generator(np.random.Philox(seed + 2))
            assert len(drawn) == 4
            for train_idx, pos in drawn:
                expected = rng.choice(train_idx, size=cfg.batch_size, replace=False)
                np.testing.assert_array_equal(train_idx[pos], expected)

    def test_trainer_x1_is_full_train_rows_near_reference(self, monkeypatch):
        # default config, seed 0, first iteration: the x1 handed to the
        # adjoint is bit-equal to the full-train solve's rows and within the
        # TestDefaultConfigSolves bound of an rtol = atol = 1e-10 reference
        seen = []
        orig = tr.adjoint_gradient

        def capture(spec, theta, x1, *a, **k):
            seen.append(x1.copy())
            return orig(spec, theta, x1, *a, **k)

        monkeypatch.setattr(tr, "adjoint_gradient", capture)
        cfg = tr.ExperimentConfig(iterations=1)
        tr.train(cfg)
        (x1,) = seen

        tight = tr.ExperimentConfig(solver=SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10))
        rows = []
        for c in (cfg, tight):
            run = tr._Run(c)
            pos, _ = run.draw_batch()
            rows.append(run.forward(run.ds.inputs[run.ds.train_idx])[0][pos])
        np.testing.assert_array_equal(x1, rows[0])
        assert np.linalg.norm(x1 - rows[1]) <= 1e-5 * np.linalg.norm(rows[1])

    def test_training_and_the_references_integrate_the_same_field(self):
        # the references' forward solve is training's, bit for bit: both
        # integrate vector_field.value_field over the whole batch
        cfg = tr.ExperimentConfig()
        run = tr._Run(cfg)
        x0 = run.ds.inputs[run.ds.train_idx]
        x1, _ = run.forward(x0)
        ref = flow(cfg.model, run.theta, x0, cfg.t1, cfg.solver)
        assert np.array_equal(x1, ref)

    def test_forward_solves_keep_no_trace(self, monkeypatch):
        # training's forward solve and the references' flow read the field
        # value alone: every evaluation takes the value path, with no layer
        # inputs, and gets back [F]
        cfg = small_config()
        run = tr._Run(cfg)
        x0 = run.ds.inputs[run.ds.train_idx]
        calls = []
        forward = vf._forward

        def logged(*args, **kwargs):
            out = forward(*args, **kwargs)
            calls.append((kwargs.get("inputs"), len(out)))
            return out

        monkeypatch.setattr(vf, "_forward", logged)
        _, rep = run.forward(x0)
        assert len(calls) == rep.nfe and set(calls) == {(None, 1)}
        calls.clear()
        flow(cfg.model, run.theta, x0, cfg.t1, cfg.solver)
        assert len(calls) == rep.nfe and set(calls) == {(None, 1)}


class TestMemoryProbe:
    def test_probe_independent_of_tolerance(self):
        probes = []
        nfes = []
        for tol in (1e-3, 1e-6, 1e-8):
            cfg = small_config(solver=SolverConfig(method="dopri5", rtol=tol, atol=tol),
                               optimizer=tr.OptimizerConfig(kind="adam", lr=1e-3))
            probes.append(tr.memory_probe(cfg))
            nfes.append(tr.train(cfg)[-1].nfe_bwd)
        assert probes[0] == probes[1] == probes[2]
        assert len(set(nfes)) > 1  # the pairing is meaningful: work did change

    def test_adjoint_probe_is_exact_state_size(self):
        cfg = small_config(optimizer=tr.OptimizerConfig(kind="adam", lr=1e-3))
        m = 2
        n_params = 4 * 2 + 4 + 2 * 4 + 2  # 2-4-2 with biases
        assert tr.memory_probe(cfg) == 2 * 16 * m + n_params
        # the state [x | a] and the gradient quadrature
        run = tr._Run(cfg)
        pos, lossfn = run.draw_batch()
        x1 = run.forward(run.ds.inputs[run.ds.train_idx])[0][pos]
        rep = run.backward(x1, *run.terminal(lossfn.at(x1)))[2]
        assert (rep.terminal_state.size, rep.quadrature.size) == (2 * 16 * m, n_params)

    def test_snopt_probe_linear_in_rank(self):
        # the factor sweep's probe, batch 16 through 2-4-2, synthetic rank-R factors
        spec = small_config().model
        theta = vf.init_params(spec, 1)
        x1 = np.random.default_rng(0).uniform(-1, 1, size=(16, 2))
        probes = {}
        for rank in (1, 2, 4):
            curv = TerminalCurvature(grad=x1, factors=[x1 * (i + 1.0) for i in range(rank)])
            rep = accumulate_factors(spec, theta, x1, curv, 1.0,
                                     SolverConfig(method="rk4", fixed_step=0.25))[2]
            probes[rank] = rep.terminal_state.size + rep.quadrature.size
        p1, p2, p4 = probes[1], probes[2], probes[4]
        assert p2 - p1 == 16 * 2            # one extra batch-by-state vector
        assert p4 - p2 == 2 * (p2 - p1)     # exactly affine in the rank

    def test_default_scale_state_sizes(self):
        # batch 128 through 2-16-16-2 (n = 354 parameters; the factor integrand
        # holds upper triangles, 6 + 2*153 + 2*136 + 3 = 587 entries): adjoint
        # 2*256 + n; the rank-1 gauss_newton_scaled sweep carries the adjoint's
        # own state, 2*256 + n + 587; so does exact_rank on two-class circles,
        # whose one (C-1 = 1) softmax factor rides on the adjoint.  Two rank
        # vectors, exact_rank on three-radius circles (C-1 = 2) or on
        # regression (identity), carry [x | a, q_1, q_2]: 4*256 + n + 587
        base = dict(batch_size=128, model=tr.ModelConfig(dims=(2, 16, 16, 2)))
        adam = tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind="adam"), **base)
        grid33 = tr.ExperimentConfig(optimizer=tr.OptimizerConfig(kind="snopt"),
                                     grid_samples=33, **base)
        rank2 = tr.ExperimentConfig(dataset=tr.DatasetConfig(kind="circles"),
                                    loss=tr.LossConfig(curvature="exact_rank"),
                                    optimizer=tr.OptimizerConfig(kind="snopt"),
                                    grid_samples=13, **base)
        two_ranks = [tr.ExperimentConfig(dataset=dataset,
                                         loss=tr.LossConfig(curvature="exact_rank"),
                                         optimizer=tr.OptimizerConfig(kind="snopt"), **base)
                     for dataset in (tr.DatasetConfig(kind="circles", radii=(0.5, 1.0, 1.5)),
                                     tr.DatasetConfig(kind="regression"))]
        assert ([tr.memory_probe(c) for c in (adam, grid33, rank2, *two_ranks)]
                == [866, 1453, 1453, 1965, 1965])

    def test_baseline_below_snopt(self):
        adj = tr.memory_probe(small_config(optimizer=tr.OptimizerConfig(kind="adam", lr=1e-3)))
        sn = tr.memory_probe(small_config(optimizer=tr.OptimizerConfig(kind="snopt", lr=0.05)))
        assert adj < sn


class TestConfigValidation:
    def test_interval(self):
        with pytest.raises(ValueError):
            small_config(t1=0.0)

    def test_batch_size(self):
        with pytest.raises(ValueError):
            small_config(batch_size=0)

    def test_grid_samples_still_checked(self):
        # the key no longer has an effect, but configs that set it keep loading
        with pytest.raises(ValueError, match="grid_samples"):
            small_config(grid_samples=1)

    def test_built_and_replaced_configs_check_joined_sections(self):
        # a bound t1 = 3 outside the enabled horizon's [0.05, 2]: the
        # cross-section rule, checked on every build
        enabled = tr.HorizonConfig(enabled=True)
        with pytest.raises(ValueError, match="t_min <= t1 <= t_max"):
            tr.ExperimentConfig(t1=3.0, horizon=enabled)
        valid = tr.ExperimentConfig(t1=3.0, iterations=2)
        with pytest.raises(ValueError, match="t_min <= t1 <= t_max"):
            replace(valid, horizon=enabled)

    def test_sections_hold_their_types_defaults(self):
        # one default per setting: each section of the default config is its
        # type built with no argument
        cfg = tr.ExperimentConfig()
        sections = [f.name for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))]
        assert sections == ["dataset", "model", "loss", "optimizer", "solver", "horizon"]
        for name in sections:
            section = getattr(cfg, name)
            assert section == type(section)(), name
        # and each section's type is the one of the module that reads it
        modules = [type(getattr(cfg, name)).__module__ for name in sections]
        assert modules == ["snopt_kit." + m for m in ("data", "vector_field", "loss", "optimizer",
                                                      "odesolve", "horizon")]

    def test_built_config_cannot_be_changed_unchecked(self):
        # replace sections share, so a mutable one would skip the check for both configs
        cfg = tr.ExperimentConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.loss.curvature = "exact_rank"
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 1
