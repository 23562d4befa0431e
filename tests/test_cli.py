import configparser
import csv
import errno
import math
import os
import re
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from snopt_kit import cli, trainer
from snopt_kit.trainer import ExperimentConfig

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

    @pytest.mark.parametrize("overrides, kind, readout_shape", [
        (["dataset.kind=circles", "dataset.radii=0.5,1.0,1.5"], "softmax_ce", (3, 2)),
        (["dataset.kind=regression"], "mse", None),
        (["loss.readout=false"], "softmax_ce", None),
    ], ids=["three_radii", "regression", "readout_off"])
    def test_dataset_sets_loss_and_readout(self, config_path, overrides, kind, readout_shape):
        # the readout has one row per class; regression targets have none
        run = trainer._Run(cli.load_config(config_path, overrides))
        assert run.loss_on(run.ds.train_idx).classifies == (kind == "softmax_ce")
        assert (None if run.readout is None else run.readout.weight.shape) == readout_shape


class TestReadmeConfigBlock:
    """The README's config block shows every accepted key at its default."""

    @pytest.fixture
    def block(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (text,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        path = tmp_path / "readme.ini"
        path.write_text(text)
        return path

    def test_block_is_the_default_config(self, block):
        assert cli.load_config(str(block)) == ExperimentConfig()

    def test_block_names_every_accepted_key(self, block):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(block)
        shown = {f"{sec}.{key}" for sec in parser.sections() for key in parser[sec]}
        cfg = ExperimentConfig()
        accepted = {f"train.{key}" for key in cli._TRAIN_KEYS}
        accepted |= {f"{sec}.{f.name}" for sec in cli._SECTIONS if sec != "train"
                     for f in fields(getattr(cfg, sec))}
        assert shown == accepted


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
                        .replace("kind = spirals", "kind = regression"))
        rc = cli.cmd_train(str(path), str(tmp_path / "o.csv"))
        assert rc == 2

    def test_csv_round_trip_lossless(self, config_path, tmp_path):
        # the stdlib's parse of the written file equals the records in memory
        records = trainer.train(cli.load_config(config_path))
        out = tmp_path / "metrics.csv"
        cli.write_records_csv(str(out), records, ["a comment"])
        reader = csv.DictReader(line for line in out.read_text().splitlines()
                                if not line.startswith("#"))
        rows = list(reader)
        assert reader.fieldnames == cli.CSV_HEADER.split(",")
        assert len(rows) == len(records) == 4
        assert any(math.isnan(r.test_loss) for r in records)
        for row, rec in zip(rows, records):
            for name, text in row.items():
                want = getattr(rec, name)
                got = type(want)(text)
                assert got == want or (math.isnan(got) and math.isnan(want)), name


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

    def test_cell_keys_apply_in_any_order(self, tmp_path):
        # an adaptive base: rk4 is valid only once its fixed_step is set too
        config = tmp_path / "adaptive.ini"
        config.write_text(BASE_CONFIG.replace("method = rk4\nfixed_step = 0.1",
                                              "method = dopri5\nrtol = 1e-3\natol = 1e-3"))
        losses = []
        for order in ("solver.method = rk4\nsolver.fixed_step = 0.1\n",
                      "solver.fixed_step = 0.1\nsolver.method = rk4\n"):
            grid = tmp_path / "grid.ini"
            grid.write_text("[grid]\n" + order)
            out_dir = tmp_path / f"cells{len(losses)}"
            assert cli.cmd_grid(str(config), str(grid), str(out_dir)) == 0
            losses.append((out_dir / "summary.csv").read_text().splitlines()[1].split(",")[2])
        assert losses[0] == losses[1]

    def test_base_valid_only_with_its_cells(self, tmp_path):
        # three classes on the two-wide state are invalid without the readout;
        # the one cell turns it on, and only the cell is built
        config = tmp_path / "three_class.ini"
        config.write_text(BASE_CONFIG.replace("kind = spirals", "kind = circles\n"
                                              "radii = 0.5,1.0,1.5")
                          + "\n[loss]\nreadout = false\n")
        assert cli.cmd_train(str(config), str(tmp_path / "o.csv")) == 1
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nloss.readout = true\n")
        out_dir = tmp_path / "cells"
        assert cli.cmd_grid(str(config), str(grid), str(out_dir)) == 0
        assert len((out_dir / "summary.csv").read_text().splitlines()) == 1 + 1
        assert sorted(f for f in os.listdir(out_dir) if f.startswith("cell_")) == [
            "cell_000.csv"]

    def test_dataset_kind_grid_trains_every_task(self, config_path, tmp_path):
        # each cell's dataset sets its loss: softmax_ce on labels, mse on targets
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\ndataset.kind = spirals, circles, regression\n")
        out_dir = tmp_path / "cells"
        assert cli.cmd_grid(config_path, str(grid), str(out_dir)) == 0
        rows = [row.split(",") for row in
                (out_dir / "summary.csv").read_text().strip().split("\n")[1:]]
        assert [row[-1] for row in rows] == ["0", "0", "0"]
        assert [math.isnan(float(row[3])) for row in rows] == [False, False, True]

    def test_seed_cells_beat_env_seed(self, config_path, tmp_path, monkeypatch):
        # the environment is not an input: an exported SNOPT_SEED moves
        # neither the file's seed nor a cell's
        monkeypatch.setenv("SNOPT_SEED", "99")
        assert cli.load_config(config_path).seed == 3
        seeds = []
        monkeypatch.setattr(trainer, "train", lambda cfg: seeds.append(cfg.seed) or [])
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\ntrain.seed = 1, 2, 3\n")
        assert cli.cmd_grid(config_path, str(grid), str(tmp_path / "cells")) == 0
        assert seeds == [1, 2, 3]

    def test_config_file_read_once(self, config_path, tmp_path, monkeypatch):
        # the file's items are read once, and each cell's values join them
        reads, lrs = [], []
        read_ini = cli._read_ini
        monkeypatch.setattr(cli, "_read_ini",
                            lambda path, what: reads.append(path) or read_ini(path, what))
        monkeypatch.setattr(trainer, "train", lambda cfg: lrs.append(cfg.optimizer.lr) or [])
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\noptimizer.lr = 0.01, 0.02, 0.03\n")
        assert cli.cmd_grid(config_path, str(grid), str(tmp_path / "cells")) == 0
        assert lrs == [0.01, 0.02, 0.03]
        assert Counter(reads) == {config_path: 1, str(grid): 1}

    def test_aborted_cell_recorded(self, config_path, tmp_path, capsys):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\nsolver.max_steps = 3, 100000\n")
        out_dir = tmp_path / "cells"
        assert cli.cmd_grid(config_path, str(grid), str(out_dir)) == 0
        rows = (out_dir / "summary.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in rows] == ["1", "0"]
        assert "cell 0 aborted" in capsys.readouterr().err
        assert (out_dir / "cell_000.csv").read_text().splitlines()[-1] == cli.CSV_HEADER


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

    @pytest.mark.parametrize("kind", ["adam", "sgd", "snopt"])
    def test_dopri5_start_overflow_exit_2(self, kind, tmp_path, capsys):
        # after one step at lr 1e300 the field's scaled norm overflows at the
        # start of the next forward solve, where dopri5 sizes its first step
        path = tmp_path / "dopri5.ini"
        path.write_text(BASE_CONFIG.replace("kind = adam", f"kind = {kind}")
                        .replace("lr = 0.01", "lr = 1e300")
                        .replace("method = rk4\nfixed_step = 0.1", "method = dopri5"))
        out = tmp_path / "o.csv"
        assert cli.main(["train", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric abort: ") and "NonFiniteState" in err
        assert "overflows at the start" in err and not out.exists()

    def test_dataset_overflow_exit_2_without_warning(self, config_path, tmp_path, capsys):
        # the draw's noise overflows to inf; the first solve aborts on it, and
        # numpy warns of nothing on the way
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli.main(["train", config_path, "--out", str(out),
                           "--override", "dataset.noise_sd=1e308"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric abort: ") and "NonFiniteState" in err
        assert "RuntimeWarning" not in err and not out.exists()


class TestOutputPaths:
    """A bad output path is a config error, found before anything trains; a
    write that fails is one too, found once its records are trained."""

    @pytest.fixture
    def trained(self, monkeypatch):
        cfgs = []
        monkeypatch.setattr(trainer, "train", lambda cfg: cfgs.append(cfg) or [])
        return cfgs

    @pytest.mark.parametrize("out", ["out", "out/", ""], ids=["directory", "slash", "empty"])
    def test_out_names_no_file(self, out, config_path, tmp_path, trained, capsys,
                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        assert cli.main(["train", config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error: --out must name a file" in err
        assert trained == [] and sorted(p.name for p in tmp_path.iterdir()) == [
            "exp.ini", "out"] and list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("out_dir", ["cells", "cells/sub"], ids=["file", "under_a_file"])
    def test_out_dir_is_a_file(self, out_dir, config_path, tmp_path, trained, capsys):
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\noptimizer.lr = 0.01, 0.02\n")
        (tmp_path / "cells").write_text("kept\n")
        argv = ["grid", config_path, str(grid), "--out-dir", str(tmp_path / out_dir)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: cannot make output directory" in err
        assert trained == [] and (tmp_path / "cells").read_text() == "kept\n"

    @pytest.mark.parametrize("command, fails", [("train", "o.csv"), ("grid", "cell_001.csv"),
                                                ("grid", "summary.csv")])
    def test_failed_write_exit_1(self, command, fails, config_path, tmp_path, trained, capsys,
                                 monkeypatch):
        # a full disk shows only once the records are trained; grid stops at
        # the first file it cannot write
        def full_disk(path, *args, **kwargs):
            if os.path.basename(path) == fails:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        grid = tmp_path / "grid.ini"
        grid.write_text("[grid]\noptimizer.lr = 0.01, 0.02, 0.03\n")
        if command == "train":
            path = tmp_path / fails
            argv = ["train", config_path, "--out", str(path)]
        else:
            path = tmp_path / "cells" / fails
            argv = ["grid", config_path, str(grid), "--out-dir", str(tmp_path / "cells")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"config error: cannot write {path}: {os.strerror(errno.ENOSPC)}" in err
        assert len(trained) == {"o.csv": 1, "cell_001.csv": 2, "summary.csv": 3}[fails]
        assert not path.exists()


# (command, overrides for train or the text of the config or grid file, a
# fragment of the error); a "config" case trains the config file it gives
CONFIG_ERRORS = {
    "eval_every_0": ("train", ["train.eval_every=0"], "eval_every >= 1"),
    "negative_seed": ("train", ["train.seed=-1"], "seed >= 0"),
    "unknown_optimizer": ("train", ["optimizer.kind=lbfgs"], "unknown optimizer 'lbfgs'"),
    "unknown_dataset": ("train", ["dataset.kind=moons"], "unknown dataset kind 'moons'"),
    "unknown_curvature": ("train", ["optimizer.kind=snopt", "loss.curvature=full"],
                          "unknown curvature mode 'full'"),
    "zero_epsilon": ("train", ["optimizer.kind=snopt", "optimizer.epsilon=0"],
                     "epsilon must be positive"),
    "negative_weight_decay": ("train", ["optimizer.weight_decay=-0.1"], "weight_decay >= 0"),
    "negative_lr": ("train", ["optimizer.lr=-1"], "lr >= 0"),
    "negative_readout_lr": ("train", ["optimizer.readout_lr=-1"], "readout_lr >= 0"),
    "negative_momentum": ("train", ["optimizer.kind=sgd", "optimizer.momentum=-5"],
                          "momentum < 1"),
    "momentum_1": ("train", ["optimizer.kind=sgd", "optimizer.momentum=1"], "momentum < 1"),
    "one_grid_sample": ("train", ["optimizer.kind=snopt", "train.grid_samples=1"],
                        "grid_samples >= 2"),
    "unknown_policy": ("train", ["horizon.enabled=true", "horizon.policy=feedbak"],
                       "unknown horizon policy 'feedbak'"),
    "missing_out_dir": ("train", [], "output directory not found"),
    # a path that exists but cannot be read as a file (here a directory):
    # configparser's read() would skip it and run the built-in defaults
    "unreadable_config": ("train", None, "cannot read config file"),
    "unreadable_grid": ("grid", None, "cannot read grid file"),
    "grid_no_header": ("grid", "optimizer.lr = 0.01, 0.02\n", "no section headers"),
    "grid_repeated_key": ("grid", "[grid]\noptimizer.lr = 0.01\noptimizer.lr = 0.02\n",
                          "'optimizer.lr' in section 'grid' already exists"),
    "grid_bad_interpolation": ("grid", "[grid]\noptimizer.lr = 5%\n", "'%' must be followed"),
    "grid_tuple_key": ("grid", "[grid]\nmodel.dims = 2,4,2\n",
                       "cannot sweep tuple-valued key model.dims"),
    # a grid file holds one [grid] section alone, and every key has a value
    "grid_misspelled_section": ("grid", "[grdi]\noptimizer.lr = 0.01, 0.02\n",
                                "one [grid] section alone, found [grdi]"),
    "grid_extra_section": ("grid", "[grid]\noptimizer.lr = 0.01\n[optimizer]\nlr = 0.02\n",
                           "found [grid], [optimizer]"),
    "grid_default_section": ("grid", "[DEFAULT]\noptimizer.lr = 0.01\n[grid]\n",
                             "found [grid], [DEFAULT]"),
    # configparser would read [DEFAULT]'s keys into every section, or drop them
    "config_default_beside_sections": ("config", "[DEFAULT]\nlr = 0.5\n[optimizer]\n"
                                       "kind = adam\n[horizon]\nenabled = false\n",
                                       "found [optimizer], [horizon], [DEFAULT]"),
    "config_default_alone": ("config", "[DEFAULT]\nlr = 0.5\n", "found [DEFAULT]"),
    # names match exactly: configparser would fold a key to lower case
    "config_upper_case_key": ("config", "[optimizer]\nLR = 0.05\n",
                              "unknown key 'LR' in [optimizer]"),
    "grid_upper_case_key": ("grid", "[grid]\noptimizer.LR = 0.05\n",
                            "unknown key 'LR' in [optimizer]"),
    # a cell's own value is checked with the rest, before any cell trains
    "grid_bad_cell": ("grid", "[grid]\noptimizer.lr = 0.01, -1\n", "cell 1: need finite"),
    "grid_empty_file": ("grid", "", "one [grid] section alone, found none"),
    "grid_key_without_values": ("grid", "[grid]\noptimizer.lr =\n",
                                "grid key optimizer.lr in"),
    "grid_key_only_commas": ("grid", "[grid]\ntrain.seed = 1, 2\noptimizer.lr = ,\n",
                             "has no values"),
    "error_norm_key": ("train", ["solver.error_norm=semi"], "unknown key 'error_norm'"),
    "semi_prefix_key": ("train", ["solver.semi_prefix=5"], "unknown key 'semi_prefix'"),
    "kind_key_in_loss": ("train", ["loss.kind=mse"], "unknown key 'kind' in [loss]"),
    "readout_classes_key": ("train", ["loss.readout_classes=3"],
                            "unknown key 'readout_classes' in [loss]"),
    "amortization_key": ("train", ["optimizer.amortization=0.75"],
                         "unknown key 'amortization' in [optimizer]"),
    "classes_over_state": ("train", ["loss.readout=false", "dataset.kind=circles",
                                     "dataset.radii=0.5,1.0,1.5"],
                           "3 classes but the state (no readout) has 2 outputs"),
    "one_output_softmax": ("train", ["dataset.kind=circles", "dataset.radii=1.0"],
                           "at least 2 outputs, the readout has 1"),
    "state_width_over_inputs": ("train", ["model.dims=3,4,3"], "state width 3"),
    "relu_activation": ("train", ["model.activations=relu,relu,identity",
                                  "model.dims=2,4,4,2"], "unknown activation 'relu'"),
    "softplus_activation": ("train", ["model.activations=softplus,tanh,identity",
                                      "model.dims=2,4,4,2"], "unknown activation 'softplus'"),
    "n_per_class_0": ("train", ["dataset.n_per_class=0"], "n_per_class >= 1"),
    "regression_n_0": ("train", ["dataset.kind=regression", "dataset.n=0"], "n >= 1"),
    "negative_noise_sd": ("train", ["dataset.noise_sd=-1"], "noise_sd >= 0"),
    "no_radii": ("train", ["dataset.kind=circles", "dataset.radii="],
                 "at least one dataset radius"),
    "test_fraction_1_5": ("train", ["dataset.test_fraction=1.5"], "test_fraction < 1"),
    "negative_test_fraction": ("train", ["dataset.test_fraction=-0.1"],
                               "0 <= dataset test_fraction"),
    "empty_train_split": ("train", ["dataset.n_per_class=1", "dataset.test_fraction=0.75"],
                          "leaves no training sample"),
    "horizon_t_min_over_t_max": ("train", ["horizon.t_min=3"], "t_min < t_max"),
    "horizon_t_min_at_t_max": ("train", ["horizon.t_min=2", "horizon.t_max=2"], "t_min < t_max"),
    "horizon_t_min_below_t0": ("train", ["horizon.enabled=true", "horizon.t_min=-1"],
                               "need t0 < horizon t_min"),
    "horizon_t_min_at_t0": ("train", ["horizon.enabled=true", "horizon.t_min=0"],
                            "need t0 < horizon t_min"),
    # the bound starts at t1, and its first update would clip it into [t_min, t_max]
    "horizon_t1_over_t_max": ("train", ["horizon.enabled=true", "train.t1=5"],
                              "need horizon t_min <= t1 <= t_max"),
    "horizon_t1_below_t_min": ("train", ["horizon.enabled=true", "horizon.t_min=0.5",
                                         "train.t1=0.2"], "need horizon t_min <= t1 <= t_max"),
    "horizon_negative_ema": ("train", ["horizon.ema=-1"], "ema must lie in [0, 1)"),
    "horizon_ema_1": ("train", ["horizon.ema=1"], "ema must lie in [0, 1)"),
    "horizon_negative_penalty": ("train", ["horizon.penalty=-1"],
                                 "penalty and lr must be positive"),
    "horizon_zero_penalty": ("train", ["horizon.penalty=0"], "penalty and lr must be positive"),
    "horizon_zero_lr": ("train", ["horizon.lr=0"], "penalty and lr must be positive"),
    # widths < 1 and NaN or infinite settings, which each check must fail
    "zero_width": ("train", ["model.dims=2,0,2"], "widths must be at least 1"),
    "fixed_step_nan": ("train", ["solver.method=rk4", "solver.fixed_step=nan"],
                       "requires fixed_step > 0"),
    "t1_inf": ("train", ["train.t1=inf"], "need finite t1 > t0"),
    "t0_minus_inf": ("train", ["train.t0=-inf"], "need finite t1 > t0"),
    # each end finite, but the span overflows: dopri5 would take no step
    # and rk4's step count would overflow
    "span_overflow": ("train", ["train.t0=-1e308", "train.t1=1e308"],
                      "finite span t1 - t0"),
    "horizon_span_overflow": ("train", ["horizon.enabled=true", "train.t0=-1e308",
                                        "horizon.t_max=1e308"],
                              "finite span horizon t_max - t0"),
    "rtol_nan": ("train", ["solver.rtol=nan"], "rtol and atol must be positive"),
    "atol_nan": ("train", ["solver.atol=nan"], "rtol and atol must be positive"),
    # the dopri5 step has no cap but the interval
    "max_step_key": ("train", ["solver.max_step=0.1"], "unknown key 'max_step' in [solver]"),
    "epsilon_nan": ("train", ["optimizer.kind=snopt", "optimizer.epsilon=nan"],
                    "epsilon must be positive"),
    "horizon_penalty_nan": ("train", ["horizon.penalty=nan"], "penalty and lr must be positive"),
    "horizon_lr_nan": ("train", ["horizon.lr=nan"], "penalty and lr must be positive"),
    "horizon_t_min_nan": ("train", ["horizon.t_min=nan"], "finite horizon t_min"),
    "horizon_t_max_nan": ("train", ["horizon.t_max=nan"], "finite horizon t_min"),
    "noise_sd_inf": ("train", ["dataset.noise_sd=inf"], "finite dataset noise_sd"),
    "radius_nan": ("train", ["dataset.kind=circles", "dataset.radii=0.5,nan"], "all finite"),
    "negative_iterations": ("train", ["train.iterations=-3"], "iterations >= 0"),
    "lr_inf": ("train", ["optimizer.lr=inf"], "finite optimizer lr"),
    "weight_decay_inf": ("train", ["optimizer.weight_decay=inf"], "finite optimizer weight_decay"),
    "readout_lr_inf": ("train", ["optimizer.readout_lr=inf"],
                       "finite optimizer lr >= 0 and readout_lr"),
    "epsilon_inf": ("train", ["optimizer.kind=snopt", "optimizer.epsilon=inf"],
                    "epsilon must be positive and finite"),
    # each finite, but the damping they sum to is not
    "damping_overflow": ("train", ["optimizer.kind=snopt", "optimizer.epsilon=1e308",
                                   "optimizer.weight_decay=1e308"],
                         "finite snopt damping epsilon + weight_decay"),
    "horizon_penalty_inf": ("train", ["horizon.enabled=true", "horizon.period=2",
                                      "horizon.penalty=inf"],
                            "penalty and lr must be positive and finite"),
    "horizon_lr_inf": ("train", ["horizon.enabled=true", "horizon.lr=inf"],
                       "penalty and lr must be positive and finite"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_error_exit_1(case, config_path, tmp_path, capsys):
    command, payload, why = CONFIG_ERRORS[case]
    if command == "grid":
        grid = tmp_path / "grid.ini"
        if payload is None:
            grid.mkdir()
        else:
            grid.write_text(payload)
        argv = ["grid", config_path, str(grid), "--out-dir", str(tmp_path / "cells")]
    elif command == "config":
        config = tmp_path / "default.ini"
        config.write_text(payload)
        argv = ["train", str(config), "--out", str(tmp_path / "o.csv")]
    else:
        out = tmp_path / "missing" / "o.csv" if case == "missing_out_dir" else tmp_path / "o.csv"
        argv = ["train", str(tmp_path) if payload is None else config_path, "--out", str(out)]
        for override in payload or []:
            argv += ["--override", override]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and why in err
    # a grid checks every cell before it trains or writes any
    assert not (tmp_path / "cells").exists()


class TestCmdVerify:
    def test_all_checks_pass(self, capsys):
        assert cli.cmd_verify() == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

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

    def test_horizon_sign_flip_caught(self, monkeypatch, capsys):
        # a horizon sensitivity of the wrong sign must fail the horizon check
        orig = cli.horizon.horizon_terms

        def flipped(*args, **kwargs):
            terms = orig(*args, **kwargs)
            return replace(terms, s=-terms.s)

        monkeypatch.setattr(cli.horizon, "horizon_terms", flipped)
        assert cli.cmd_verify() == 1
        out = capsys.readouterr().out
        assert "FAIL horizon sensitivity" in out and out.count("PASS") == 4

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

    @pytest.mark.parametrize("argv, why", [
        (["train", "configs/spirals.ini"], "the following arguments are required: --out"),
        ([], "the following arguments are required: command"),
        (["verify", "--tol-scale", "abc"], "argument --tol-scale: invalid float value: 'abc'"),
        # inf would pass every check, and 0, a negative scale or NaN fail every one
        *((["verify", "--tol-scale", v], f"argument --tol-scale: must be positive and finite, "
           f"got '{v}'") for v in ("inf", "0", "-1", "nan")),
    ])
    def test_usage_error_exit_1(self, argv, why, capsys):
        # exit 2 is a numeric abort, so argparse's usage errors exit 1 instead
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: snopt-kit") and "error: " + why in err

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--help"])
        assert exc.value.code == 0
        assert "--out OUT" in capsys.readouterr().out
