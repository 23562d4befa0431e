"""The checked-in experiment configs load, and every grid cell trains."""

from dataclasses import replace
from pathlib import Path

import pytest

from snopt_kit import cli, trainer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BASES = sorted(p for p in CONFIGS.glob("*.ini") if not p.name.endswith(".grid.ini"))


def test_every_grid_file_has_a_base_config():
    grids = {p.name[:-len(".grid.ini")] for p in CONFIGS.glob("*.grid.ini")}
    assert grids and grids <= {p.stem for p in BASES}


@pytest.mark.parametrize("path", BASES, ids=lambda p: p.stem)
def test_config_and_grid_cells_train(path):
    base = cli.load_config(str(path))
    grid = path.with_name(path.stem + ".grid.ini")
    cells = cli._grid_cells(str(grid)) if grid.exists() else []
    configs = [base] + [cli.load_config(str(path), [f"{k}={v}" for k, v in cell])
                        for cell in cells]
    for cfg in configs:
        records = trainer.train(replace(cfg, iterations=2))
        assert [r.iteration for r in records] == [1, 2]
