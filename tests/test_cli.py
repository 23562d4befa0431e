import math
import os

import numpy as np
import pytest

from snopt_kit import cli
from snopt_kit.trainer import TrainRecord

BASE_CONFIG = """
[dataset]
kind = spirals
n_per_class = 30
noise_sd = 0.05

[model]
dims = 2,4,2
activations = tanh,identity

[optimizer]
kind = adam
lr = 0.01

[solver]
method = rk4
fixed_step = 0.1

[train]
iterations = 4
batch_size = 8
grid_samples = 5
eval_every = 2
seed = 3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return str(path)


class TestConfigLoading:
    def test_round_trip_values(self, config_path):
        cfg = cli.load_config(config_path)
        assert cfg.dataset.n_per_class == 30
        assert cfg.model.dims == (2, 4, 2)
        assert cfg.optimizer.lr == 0.01
        assert cfg.solver.method == "rk4"
        assert cfg.iterations == 4
        assert cfg.seed == 3

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError, match="no/such/file"):
            cli.load_config("no/such/file.ini")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[optimizer]\nlearning = 1\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(path))

    def test_override(self, config_path):
        cfg = cli.load_config(config_path, overrides=["optimizer.lr=0.05"])
        assert cfg.optimizer.lr == 0.05

    def test_bad_override_shape(self, config_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(config_path, overrides=["lr=0.05"])

    def test_env_seed_override(self, config_path, monkeypatch):
        monkeypatch.setenv("SNOPT_SEED", "99")
        assert cli.load_config(config_path).seed == 99


class TestCmdTrain:
    def test_missing_config_exit_1(self, tmp_path, capsys):
        rc = cli.cmd_train(str(tmp_path / "nope.ini"), str(tmp_path / "out.csv"))
        assert rc == 1
        assert "nope.ini" in capsys.readouterr().err

    def test_writes_csv_schema(self, config_path, tmp_path):
        out = tmp_path / "metrics.csv"
        assert cli.cmd_train(config_path, str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 4

    def test_override_echoed_and_applied(self, config_path, tmp_path):
        out = tmp_path / "metrics.csv"
        rc = cli.cmd_train(config_path, str(out), overrides=["optimizer.lr=0.05"])
        assert rc == 0
        text = out.read_text()
        assert "# override optimizer.lr=0.05" in text

    def test_numeric_abort_exit_2(self, tmp_path, capsys):
        path = tmp_path / "explode.ini"
        path.write_text(BASE_CONFIG.replace("kind = adam", "kind = sgd")
                        .replace("lr = 0.01", "lr = 1e160")
                        .replace("kind = spirals", "kind = regression")
                        + "\n[loss]\nkind = mse\nreadout_classes = 0\n")
        rc = cli.cmd_train(str(path), str(tmp_path / "o.csv"))
        assert rc == 2

    def test_csv_round_trip_lossless(self, config_path, tmp_path):
        out = tmp_path / "metrics.csv"
        cli.cmd_train(config_path, str(out))
        records = cli.read_records_csv(str(out))
        rewritten = tmp_path / "again.csv"
        cli.write_records_csv(str(rewritten), records)
        again = cli.read_records_csv(str(rewritten))
        for a, b in zip(records, again):
            for field in ("iteration", "wall_clock_s", "train_loss", "train_acc",
                          "nfe_fwd", "nfe_bwd", "t1"):
                assert getattr(a, field) == getattr(b, field)
            assert (a.test_loss == b.test_loss) or (
                math.isnan(a.test_loss) and math.isnan(b.test_loss))


class TestCmdGrid:
    def test_empty_grid(self, config_path, tmp_path):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\n")
        out_dir = tmp_path / "cells"
        assert cli.cmd_grid(config_path, str(grid), str(out_dir)) == 0
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 1  # header only

    def test_two_by_two_grid(self, config_path, tmp_path):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\noptimizer.lr = 0.01, 0.02\ntrain.seed = 1, 2\n")
        out_dir = tmp_path / "cells"
        assert cli.cmd_grid(config_path, str(grid), str(out_dir)) == 0
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4
        assert len([f for f in os.listdir(out_dir) if f.startswith("cell_")]) == 4

    def test_best_cell_matches_argmin(self, config_path, tmp_path, capsys):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\noptimizer.lr = 0.001, 0.01, 0.03\n")
        out_dir = tmp_path / "cells"
        cli.cmd_grid(config_path, str(grid), str(out_dir))
        printed = capsys.readouterr().out
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")[1:]
        losses = [float(line.split(",")[2]) for line in lines]
        best_idx = int(np.argmin(losses))
        assert f"best cell {best_idx}" in printed

    def test_missing_grid_file(self, config_path, tmp_path):
        assert cli.cmd_grid(config_path, str(tmp_path / "none.ini"),
                            str(tmp_path / "o")) == 1


    def test_aborted_cell_recorded(self, config_path, tmp_path, capsys):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nsolver.max_steps = 3, 100000\n")
        out_dir = tmp_path / "cells"
        assert cli.cmd_grid(config_path, str(grid), str(out_dir)) == 0
        rows = (out_dir / "summary.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in rows] == ["1", "0"]
        assert "cell 0 aborted" in capsys.readouterr().err
        assert cli.read_records_csv(str(out_dir / "cell_000.csv")) == []


class TestFailureExitCodes:
    """Each failure mode ends the CLI with its documented exit code, not a traceback."""

    def snopt_config(self, tmp_path, extra=""):
        path = tmp_path / "snopt.ini"
        path.write_text(BASE_CONFIG.replace("kind = adam", "kind = snopt") + extra)
        return str(path)

    def test_max_steps_exit_2(self, config_path, tmp_path, capsys):
        rc = cli.cmd_train(config_path, str(tmp_path / "o.csv"), ["solver.max_steps=3"])
        assert rc == 2
        assert "MaxStepsExceeded" in capsys.readouterr().err

    def test_non_integer_seed_exit_1(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SNOPT_SEED", "abc")
        assert cli.cmd_train(config_path, str(tmp_path / "o.csv")) == 1
        assert "SNOPT_SEED" in capsys.readouterr().err
        assert cli.cmd_grid(config_path, str(tmp_path / "g.ini"), str(tmp_path / "g")) == 1

    def test_singular_factor_exit_2(self, tmp_path, monkeypatch, capsys):
        # an eigendecomposition that fails to converge inside the update
        def no_convergence(mat):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli.optimizer, "sym_eigen", no_convergence)
        assert cli.cmd_train(self.snopt_config(tmp_path), str(tmp_path / "o.csv")) == 2
        assert "SingularFactor" in capsys.readouterr().err

    def test_non_finite_horizon_update_exit_2(self, tmp_path, monkeypatch, capsys):
        # a non-finite bound derivative reaches the feedback horizon step
        orig = cli.trainer.horizon_terms

        def nan_qt(*args, **kwargs):
            terms = orig(*args, **kwargs)
            terms.qt = float("nan")
            return terms

        monkeypatch.setattr(cli.trainer, "horizon_terms", nan_qt)
        path = self.snopt_config(tmp_path, "\n[horizon]\nenabled = true\nperiod = 2\n")
        assert cli.cmd_train(path, str(tmp_path / "o.csv")) == 2
        assert "NonFiniteUpdate" in capsys.readouterr().err


class TestCmdVerify:
    def test_all_checks_pass(self, capsys):
        assert cli.cmd_verify() == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_sign_flip_mutation_caught(self, monkeypatch, capsys):
        # flipping the gradient integrand must make the gradient check fail
        from snopt_kit import adjoint as adjoint_mod
        orig = adjoint_mod.adjoint_gradient

        def flipped(*args, **kwargs):
            grad, x0, a0, rep = orig(*args, **kwargs)
            return -grad, x0, a0, rep

        monkeypatch.setattr(cli.adjoint, "adjoint_gradient", flipped)
        assert cli.cmd_verify() == 1
        out = capsys.readouterr().out
        assert "FAIL adjoint gradient" in out

    def test_tolerance_flag_propagates(self, capsys):
        # impossibly tight tolerances force failures; loose ones pass
        assert cli.cmd_verify(tol_scale=1e-12) == 1
        assert cli.cmd_verify(tol_scale=1e6) == 0


class TestMainEntry:
    def test_train_subcommand(self, config_path, tmp_path):
        rc = cli.main(["train", config_path, "--out", str(tmp_path / "m.csv")])
        assert rc == 0

    def test_verify_subcommand(self):
        assert cli.main(["verify"]) == 0
