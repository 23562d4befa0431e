"""Command-line entry points: train, grid, verify.

Experiment configs are flat INI files (one section per config group, all
defaults overridable); metrics land in a fixed-schema CSV whose floats are
written with 17 significant digits so parsing the file back reproduces the
records exactly.  A run's config is its file's items, then its
``--override``s (a grid cell's values join them), and nothing else: a seed
comes from the file, ``--override train.seed=N`` or a grid cell, and the
environment is not read.  Section and key names match exactly, in a file
as on the command line.

Exit codes: 0 success, 1 for a config or usage error (a command line that
argparse rejects, or a ``ConfigError``: an unknown key, a
value the config dataclasses reject, sections that do not fit together
(which ``ExperimentConfig`` rejects as it is built), an unreadable or
unparsable config or grid file, a config or grid file with a
``[DEFAULT]`` section, a grid file without a lone ``[grid]`` section or
with a key that has no values, a grid cell whose config is invalid, a
missing output directory, an ``--out`` that names no file (a directory
or an empty path), an ``--out-dir`` that cannot be made, a records or
summary file that cannot be written), 2 numeric abort
(``TrainAbort``: a non-finite state, a field whose scaled norm overflows
at a solve's start, a solve over ``max_steps``, a factor
eigendecomposition that fails, a non-finite horizon update, or a train
loss over ``trainer.DIVERGENCE_FACTOR`` times the first record's).  One
wrapper around ``cmd_train`` and ``cmd_grid`` maps both: the stderr line
of a ``ConfigError`` starts with ``config error: `` (``config error: cell
1: ...`` for an invalid grid cell), and that of a ``TrainAbort`` with
``numeric abort: ``.  Every config error but a failed write is found
before anything trains or is written; a write fails once its records are
trained (a full disk), and ``grid`` stops at the first.  ``grid``
records an aborted cell in its summary and carries on.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import math
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from . import adjoint, horizon, kfac, loss, oracle, optimizer, trainer
from . import vector_field as vf
from .odesolve import SolverConfig
from .trainer import ExperimentConfig, TrainAbort, TrainRecord

CSV_HEADER = ",".join(f.name for f in fields(TrainRecord))


class ConfigError(ValueError):
    pass


def _parse_tuple(text: str, cast):
    items = [s.strip() for s in text.split(",") if s.strip()]
    return tuple(cast(s) for s in items)


def _coerce(current, text: str):
    if isinstance(current, bool):
        low = text.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if isinstance(current, tuple):
        cast = float if (current and isinstance(current[0], float)) else (
            int if (current and isinstance(current[0], int)) else str)
        return _parse_tuple(text, cast)
    if current is None:
        return float(text) if text.strip() else None
    return text.strip()


# Each section's keys live on the ExperimentConfig attribute of the same
# name, except [train], whose keys are the config's fields that are not sections.
_SECTIONS = ("dataset", "model", "loss", "optimizer", "solver", "train", "horizon")

_TRAIN_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _SECTIONS)


def _section_defaults(defaults: ExperimentConfig, section: str):
    """The object whose fields hold ``[section]``'s defaults, and the section's keys."""
    if section not in _SECTIONS:
        raise ConfigError(f"unknown config section [{section}]")
    holder = defaults if section == "train" else getattr(defaults, section)
    return holder, _TRAIN_KEYS if section == "train" else {f.name for f in fields(holder)}


def _read_ini(path: str, what: str) -> dict[str, list[tuple[str, str]]]:
    """The items of the INI file at ``path``, by section, read through an
    opened handle.

    ``ConfigParser.read`` skips any path it cannot open, so a missing
    file, a directory or an unreadable file would pass as an empty file;
    here each is a ``ConfigError``, and so is a file that does not parse or
    whose values do not interpolate.  A ``[DEFAULT]`` section with keys is
    one too: configparser would read its keys into every other section, or
    drop them where there is none.  Key names keep their case, which
    configparser would fold to lower.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        if parser.defaults():
            found = ", ".join(f"[{name}]" for name in [*parser.sections(), "DEFAULT"])
            raise ConfigError(f"{what} {path} must not hold a [DEFAULT] section, found {found}")
        return {section: parser.items(section) for section in parser.sections()}
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc


def _build(file_items: dict[str, list[tuple[str, str]]],
           overrides: list[str]) -> ExperimentConfig:
    """The file's items, then the overrides, coerced against the defaults;
    then each section and the config are built once, so no half-built
    config is ever checked."""
    staged = {section: list(items) for section, items in file_items.items()}
    for ov in overrides:
        section, key, value = _split_override(ov)
        staged.setdefault(section, []).append((key, value))
    defaults = ExperimentConfig()
    kwargs = {}
    try:
        for section, items in staged.items():
            holder, valid = _section_defaults(defaults, section)
            updates = {}
            for key, value in items:
                if key not in valid:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                updates[key] = _coerce(getattr(holder, key), value)
            if section == "train":
                kwargs.update(updates)
            else:
                kwargs[section] = replace(holder, **updates)
        return ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI file plus dotted overrides."""
    return _build(_read_ini(path, "config file"), overrides or [])


def _split_override(spec: str) -> tuple[str, str, str]:
    if "=" not in spec or "." not in spec.split("=", 1)[0]:
        raise ConfigError(f"override must look like section.key=value, got {spec!r}")
    path, value = spec.split("=", 1)
    section, key = path.split(".", 1)
    return section.strip(), key.strip(), value


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_lines(path: str, lines) -> None:
    """Write ``lines`` to ``path``, each ended by a newline; an ``OSError``
    (a full disk, no permission) is a ``ConfigError``."""
    try:
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_records_csv(path: str, records: list[TrainRecord],
                      comments: list[str] | None = None) -> None:
    _write_lines(path, [*(f"# {line}" for line in comments or []), CSV_HEADER,
                        *(",".join(_fmt(v) for v in astuple(r)) for r in records)])


def _exit_code(command):
    """``command`` with its failures mapped to exit codes: a ``ConfigError``
    prints ``config error: ...`` to stderr and returns 1, a ``TrainAbort``
    prints ``numeric abort: ...`` and returns 2."""
    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        except TrainAbort as exc:
            print(f"numeric abort: {exc}", file=sys.stderr)
            return 2
    return run


@_exit_code
def cmd_train(config_path: str, out_path: str, overrides: list[str] | None = None) -> int:
    cfg = load_config(config_path, overrides)
    out_dir = os.path.dirname(out_path) or "."
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory not found: {out_dir}")
    if os.path.isdir(out_path) or not os.path.basename(out_path):
        raise ConfigError(f"--out must name a file, got {out_path!r}")
    records = trainer.train(cfg)
    write_records_csv(out_path, records, [f"override {ov}" for ov in overrides or []])
    print(f"wrote {len(records)} records to {out_path}")
    return 0


def _grid_cells(grid_path: str) -> list[list[tuple[str, str]]]:
    """Cartesian product of the comma-separated values in [grid].

    The file holds one ``[grid]`` section and nothing else, and every key
    has at least one value, so a misspelled section or an unfinished line
    is an error instead of a grid with no cell.  The commas split values,
    so a tuple-valued key cannot be swept and is rejected; a key's type
    does not depend on its value, so the defaults tell which keys hold
    tuples.
    """
    sections = _read_ini(grid_path, "grid file")
    if list(sections) != ["grid"]:
        raise ConfigError(f"grid file {grid_path} must hold one [grid] section alone, found "
                          f"{', '.join(f'[{name}]' for name in sections) or 'none'}")
    defaults, axes = ExperimentConfig(), []
    for key, values in sections["grid"]:
        section, _, name = key.partition(".")
        holder, _ = _section_defaults(defaults, section)
        if isinstance(getattr(holder, name, None), tuple):
            raise ConfigError(f"cannot sweep tuple-valued key {key} in {grid_path}")
        choices = [v.strip() for v in values.split(",") if v.strip()]
        if not choices:
            raise ConfigError(f"grid key {key} in {grid_path} has no values")
        axes.append([(key, v) for v in choices])
    if not axes:
        return []
    return [list(cell) for cell in itertools.product(*axes)]


def _final_metrics(records: list[TrainRecord]) -> tuple[float, float, float, float]:
    if not records:
        return (math.nan,) * 4
    last = records[-1]
    return last.train_loss, last.train_acc, last.test_loss, last.test_acc


@_exit_code
def cmd_grid(config_path: str, grid_path: str, out_dir: str,
             overrides: list[str] | None = None) -> int:
    overrides = overrides or []
    file_items = _read_ini(config_path, "config file")  # read once, for every cell
    cells = _grid_cells(grid_path)
    if not cells:
        _build(file_items, overrides)  # no cell: the base alone must be valid
    # every cell is checked before any trains; a cell's values join the
    # overrides, so the base only has to be valid together with each cell
    configs = []
    for idx, cell in enumerate(cells):
        try:
            configs.append(_build(file_items, [*overrides, *(f"{k}={v}" for k, v in cell)]))
        except ConfigError as exc:
            raise ConfigError(f"cell {idx}: {exc}") from exc
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror}") from exc

    summary_path = os.path.join(out_dir, "summary.csv")
    rows = []
    for idx, (cell, cfg) in enumerate(zip(cells, configs)):
        label = ";".join(f"{k}={v}" for k, v in cell)
        try:
            records = trainer.train(cfg)
            aborted = 0
        except TrainAbort as exc:
            records = []
            aborted = 1
            print(f"cell {idx} aborted: {exc}", file=sys.stderr)
        write_records_csv(os.path.join(out_dir, f"cell_{idx:03d}.csv"), records,
                          [f"cell {label}"])
        tl, ta, vl, va = _final_metrics(records)
        rows.append((idx, label, tl, ta, vl, va, aborted))

    _write_lines(summary_path, [
        "cell,settings,final_train_loss,final_train_acc,final_test_loss,final_test_acc,"
        "aborted",
        *(f"{idx},\"{label}\",{_fmt(tl)},{_fmt(ta)},{_fmt(vl)},{_fmt(va)},{aborted}"
          for idx, label, tl, ta, vl, va, aborted in rows)])

    finished = [r for r in rows if not r[6] and not math.isnan(r[2])]
    if finished:
        best = min(finished, key=lambda r: r[2])
        print(f"best cell {best[0]}: {best[1]} (train loss {best[2]:.6g})")
    print(f"wrote {len(rows)} cells to {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# verification checks: each returns (name, error, tolerance)

def _check_gradient(tol_scale: float):
    spec = vf.MlpSpec(dims=(2, 4, 2), activations=("tanh", "identity"))
    theta = vf.init_params(spec, 0)
    rng = np.random.Generator(np.random.Philox(1))
    x0 = rng.uniform(-1, 1, size=(8, 2))
    target = rng.uniform(-1, 1, size=(8, 2))
    lossfn = loss.TerminalLoss(target=target)
    cfg = SolverConfig(method="rk4", fixed_step=1e-2)
    x1 = oracle.flow(spec, theta, x0, 0.0, 1.0, cfg)
    grads, _, _, _ = adjoint.adjoint_gradient(spec, theta, x1, loss.grad_x1(lossfn.at(x1)),
                                              0.0, 1.0, cfg)
    fd = oracle.fd_gradient(
        lambda th: loss.loss_value(lossfn.at(oracle.flow(spec, th, x0, 0.0, 1.0, cfg))), theta)
    err = np.linalg.norm(grads[0] - fd) / np.linalg.norm(fd)
    return "adjoint gradient vs finite differences", float(err), 1e-4 * tol_scale


def _check_dense_curvature(tol_scale: float):
    spec = vf.MlpSpec(dims=(2, 4, 2), activations=("tanh", "identity"))
    theta = vf.init_params(spec, 3)
    x0 = np.array([[0.4, -0.2]])
    cfg = SolverConfig(method="dopri5", rtol=1e-8, atol=1e-8)
    x1 = oracle.flow(spec, theta, x0, 0.0, 1.0, cfg)
    lossfn = loss.TerminalLoss(target=np.zeros(2))
    curv = loss.terminal_curvature(lossfn.at(x1), 0.0, 1.0, "exact_rank")
    dense = oracle.dense_sweep(spec, theta, x1, curv, 0.0, 1.0, cfg)
    jac = oracle.fd_flow_jacobian(spec, theta, x0, 0.0, 1.0, cfg)
    ref = jac.T @ curv.hessian() @ jac
    err = np.linalg.norm(dense.quu - ref) / np.linalg.norm(ref)
    return "dense curvature vs flow-jacobian reference", float(err), 1e-3 * tol_scale


def _check_lowrank_equivalence(tol_scale: float):
    spec = vf.MlpSpec(dims=(2, 3, 2), activations=("tanh", "identity"))
    theta = vf.init_params(spec, 5)
    rng = np.random.Generator(np.random.Philox(7))
    x1 = rng.uniform(-1, 1, size=(1, 2))
    curv = loss.TerminalCurvature(grad=rng.normal(size=(1, 2)),
                                  factors=[rng.normal(size=(1, 2)) for _ in range(2)])
    cfg = SolverConfig(method="dopri5", rtol=1e-10, atol=1e-10)
    dense = oracle.dense_sweep(spec, theta, x1, curv, 0.0, 1.0, cfg)
    grads, _, cot, _ = adjoint.adjoint_gradient(spec, theta, x1, curv.grad, 0.0, 1.0, cfg,
                                                qs=curv.factors)
    # the rank vectors' rows Q (R, m) and their couplings P (R, n) at t0
    q, p = cot[1:, 0], grads[1:]
    err = max(np.linalg.norm(low - ref) / max(np.linalg.norm(ref), 1e-300)
              for low, ref in ((q.T @ q, dense.qxx), (q.T @ p, dense.qxu), (p.T @ p, dense.quu)))
    return "low-rank sweep vs dense sweep", float(err), 1e-6 * tol_scale


def _check_kron_update(tol_scale: float):
    # one layer, 3 inputs plus the bias into 3 outputs: its blocks are (3, 4)
    spec = vf.MlpSpec(dims=(3, 3), activations=("identity",))
    rng = np.random.Generator(np.random.Philox(9))
    p, l = 4, 3
    m = rng.normal(size=(p, p))
    a = m @ m.T + 0.1 * np.eye(p)
    m = rng.normal(size=(l, l))
    b = m @ m.T + 0.1 * np.eye(l)
    grad = rng.normal(size=p * l)
    theta = rng.normal(size=p * l)
    eps = 0.05
    factors = kfac.KroneckerFactors(a_factors=[a], b_factors=[b])
    delta = theta - optimizer.snopt_step(spec, factors, grad, theta, lr=1.0, damping=eps)
    # the damped Kronecker curvature in the column-major vec of the (3, 4) block
    want = np.linalg.solve(np.kron(a, b) + eps * np.eye(p * l), grad)
    err = np.linalg.norm(delta - want) / np.linalg.norm(want)
    return "eigenbasis update vs dense damped solve", float(err), 1e-8 * tol_scale


def _check_horizon(tol_scale: float):
    # s = mean_b <grad_b, F(T, x1_b)> is dL/dT of the batch loss, exactly
    spec = vf.MlpSpec(dims=(2, 4, 2), activations=("tanh", "identity"))
    theta = vf.init_params(spec, 11)
    rng = np.random.Generator(np.random.Philox(13))
    x0 = rng.uniform(-1, 1, size=(8, 2))
    lossfn = loss.TerminalLoss(target=rng.integers(0, 3, size=8),
                               readout=loss.init_readout(2, 3, 17))
    cfg = SolverConfig(method="rk4", fixed_step=1e-2)
    t_bar, h = 0.8, oracle.FD_STEP
    x1 = oracle.flow(spec, theta, x0, 0.0, t_bar, cfg)
    terms = horizon.horizon_terms(spec, theta, x1, loss.grad_x1(lossfn.at(x1)), t_bar, 0.5)
    up, down = (loss.loss_value(lossfn.at(oracle.flow(spec, theta, x0, 0.0, t, cfg)))
                for t in (t_bar + h, t_bar - h))
    fd = (up - down) / (2 * h)
    err = abs(terms.s - fd) / abs(fd)
    return "horizon sensitivity vs finite differences in T", float(err), 1e-6 * tol_scale


CHECKS = (_check_gradient, _check_dense_curvature, _check_lowrank_equivalence,
          _check_kron_update, _check_horizon)


def cmd_verify(tol_scale: float = 1.0) -> int:
    ok = True
    for check in CHECKS:
        name, err, tol = check(tol_scale)
        passed = err < tol
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: error {err:.3e} (tol {tol:.1e})")
    return 0 if ok else 1


def _tol_scale(text: str) -> float:
    """A ``--tol-scale`` value: a positive, finite float.  0, a negative
    value or NaN would fail every check, and inf would pass every one."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse, except that a usage error exits 1, as a config error does:
    argparse's own 2 is the numeric-abort code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(prog="snopt-kit",
                     description="train small Neural ODEs with a "
                                 "second-order Kronecker-preconditioned optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    p_train.add_argument("config", help="INI config file")
    p_train.add_argument("--out", required=True, help="metrics CSV path")
    p_train.add_argument("--override", action="append", default=[],
                         help="section.key=value (repeatable)")

    p_grid = sub.add_parser("grid", help="run a hyperparameter sweep")
    p_grid.add_argument("config", help="INI config file")
    p_grid.add_argument("grid", help="INI grid file with a [grid] section")
    p_grid.add_argument("--out-dir", required=True)
    p_grid.add_argument("--override", action="append", default=[])

    p_verify = sub.add_parser("verify", help="run the derivative and update checks")
    p_verify.add_argument("--tol-scale", type=_tol_scale, default=1.0,
                          help="multiply every check tolerance")

    args = parser.parse_args(argv)
    if args.command == "train":
        return cmd_train(args.config, args.out, args.override)
    if args.command == "grid":
        return cmd_grid(args.config, args.grid, args.out_dir, args.override)
    return cmd_verify(args.tol_scale)


if __name__ == "__main__":
    sys.exit(main())
