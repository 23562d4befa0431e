"""Training records of the benchmark workloads, pinned.

Config seed 0 of each ``bench/workloads.py`` workload trains for four
iterations, and every record must match the values below: the solve
counts exactly, the losses, accuracies and ``t1`` to 1e-10 relative (NaN
where no test evaluation ran).  A change to the program's arithmetic
moves them; a refactor or a speed-up that keeps the arithmetic must not.
The rank2-horizon workload updates its horizon every 25 iterations, so a
second case runs it with period 2 to move ``t1`` within the four.

No workload carries a rank vector through its sweep, so two more cases
pin the paths that do, under the same rule: snopt at lr 0.03 and epsilon
0.01 with the ``exact_rank`` curvature, on three-class circles (two
Cholesky rank vectors through the readout) and on regression without a
readout (mse, one identity rank vector per state dimension), config seed
0 for four iterations.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS  # noqa: E402

from snopt_kit import trainer as tr  # noqa: E402

NAN = float("nan")

_RANK_VECTORS = tr.ExperimentConfig(
    loss=tr.LossConfig(curvature="exact_rank"),
    optimizer=tr.OptimizerConfig(kind="snopt", lr=3e-2, epsilon=1e-2), seed=0, iterations=4)
RANK_VECTOR_CONFIGS = {
    "circles3-exact-rank": replace(
        _RANK_VECTORS, dataset=tr.DatasetConfig(kind="circles", radii=(0.5, 1.0, 1.5))),
    "regression-exact-rank": replace(
        _RANK_VECTORS, dataset=tr.DatasetConfig(kind="regression"),
        loss=tr.LossConfig(readout=False, curvature="exact_rank")),
}

# (nfe_fwd, nfe_bwd, train_loss, train_acc, test_loss, test_acc, t1) per iteration
PINNED = {
    "adam-spirals": [
        (13, 13, 0.6995328790929927, 0.5325, NAN, NAN, 1.0),
        (13, 13, 0.681425479721147, 0.5725, NAN, NAN, 1.0),
        (13, 13, 0.6769512486099903, 0.5875, NAN, NAN, 1.0),
        (13, 13, 0.6734488515799386, 0.585, 0.7130759502913849, 0.57, 1.0),
    ],
    "snopt-grid33": [
        (13, 13, 0.6995328790929927, 0.5325, NAN, NAN, 1.0),
        (13, 13, 0.6944217719191741, 0.5375, NAN, NAN, 1.0),
        (13, 13, 0.6908025067252899, 0.535, NAN, NAN, 1.0),
        (13, 13, 0.6890105073448489, 0.535, 0.736876011034256, 0.51, 1.0),
    ],
    "snopt-rank2-horizon": [
        (13, 13, 0.8730376171253816, 0.5075, NAN, NAN, 1.0),
        (13, 13, 0.8413449274853955, 0.5175, NAN, NAN, 1.0),
        (13, 13, 0.8131182960760134, 0.5175, NAN, NAN, 1.0),
        (13, 13, 0.7877985769458112, 0.5175, 0.783277139134308, 0.47, 1.0),
    ],
    "snopt-rank2-horizon/period-2": [
        (13, 13, 0.8730376171253816, 0.5075, NAN, NAN, 1.0),
        (13, 13, 0.8413449274853955, 0.5175, NAN, NAN, 0.6668930541908928),
        (13, 13, 0.8096053841716769, 0.515, NAN, NAN, 0.6668930541908928),
        (13, 13, 0.7893252241735894, 0.5175, 0.7958437700341043, 0.48, 0.3589148765983656),
    ],
    "circles3-exact-rank": [
        (13, 13, 1.2798767830713167, 0.3416666666666667, NAN, NAN, 1.0),
        (13, 13, 1.2491142443066388, 0.3433333333333333, NAN, NAN, 1.0),
        (13, 13, 1.2234581140643925, 0.3433333333333333, NAN, NAN, 1.0),
        (13, 13, 1.2043445453026176, 0.3416666666666667, 1.169233730253507,
         0.35333333333333333, 1.0),
    ],
    "regression-exact-rank": [
        (13, 13, 0.4654777278290704, NAN, NAN, NAN, 1.0),
        (13, 13, 0.3979821795342701, NAN, NAN, NAN, 1.0),
        (13, 13, 0.3426309711597136, NAN, NAN, NAN, 1.0),
        (13, 13, 0.29683783756214177, NAN, 0.2723451727702179, NAN, 1.0),
    ],
}


def case_config(case: str) -> tr.ExperimentConfig:
    if case in RANK_VECTOR_CONFIGS:
        return RANK_VECTOR_CONFIGS[case]
    name, _, variant = case.partition("/")
    cfg = WORKLOADS[name].config_for(0, iterations=4)
    if variant:
        cfg = replace(cfg, horizon=replace(cfg.horizon, period=2))
    return cfg


@pytest.mark.parametrize("case", sorted(PINNED))
def test_records_match_their_pins(case):
    records = tr.train(case_config(case))
    assert [r.iteration for r in records] == [1, 2, 3, 4]
    for record, (nfe_fwd, nfe_bwd, *values) in zip(records, PINNED[case]):
        assert (record.nfe_fwd, record.nfe_bwd) == (nfe_fwd, nfe_bwd)
        got = [record.train_loss, record.train_acc, record.test_loss, record.test_acc, record.t1]
        np.testing.assert_allclose(got, values, rtol=1e-10, atol=0)
