"""Training records of the benchmark workloads, pinned.

Config seed 0 of each ``bench/workloads.py`` workload trains for four
iterations, and every record must match the values below: the solve
counts exactly, the losses, accuracies and ``t1`` to 1e-10 relative (NaN
where no test evaluation ran).  A change to the program's arithmetic
moves them; a refactor or a speed-up that keeps the arithmetic must not.
The rank2-horizon workload updates its horizon every 25 iterations, so a
second case runs it with period 2 to move ``t1`` within the four.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import WORKLOADS  # noqa: E402

from snopt_kit.trainer import train  # noqa: E402

NAN = float("nan")

# (nfe_fwd, nfe_bwd, train_loss, train_acc, test_loss, test_acc, t1) per iteration
PINNED = {
    "adam-spirals": [
        (14, 14, 0.6995329189566405, 0.5325, NAN, NAN, 1.0),
        (14, 14, 0.6814254875524882, 0.5725, NAN, NAN, 1.0),
        (14, 14, 0.6769512634692938, 0.5875, NAN, NAN, 1.0),
        (14, 14, 0.6734489205706151, 0.585, 0.7130760462256666, 0.57, 1.0),
    ],
    "snopt-grid33": [
        (14, 14, 0.6995329189566405, 0.5325, NAN, NAN, 1.0),
        (14, 14, 0.6854253745283089, 0.5875, NAN, NAN, 1.0),
        (14, 14, 0.6749894814522952, 0.5675, NAN, NAN, 1.0),
        (14, 14, 0.6751074214772484, 0.535, 0.7001219214325737, 0.51, 1.0),
    ],
    "snopt-rank2-horizon": [
        (14, 14, 0.8730377119734026, 0.5075, NAN, NAN, 1.0),
        (14, 14, 0.7651603321330721, 0.5525, NAN, NAN, 1.0),
        (20, 14, 0.7285390657542823, 0.5375, NAN, NAN, 1.0),
        (20, 20, 0.7127564399122137, 0.4925, 0.6995744704690161, 0.46, 1.0),
    ],
    "snopt-rank2-horizon/period-2": [
        (14, 14, 0.8730377119734026, 0.5075, NAN, NAN, 1.0),
        (14, 14, 0.7651603321330721, 0.5525, NAN, NAN, 0.6721914433446556),
        (14, 14, 0.7450559169020078, 0.52, NAN, NAN, 0.6721914433446556),
        (14, 14, 0.72988739912793, 0.505, 0.7458119499991152, 0.5, 0.3773772549039213),
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_records_match_their_pins(case):
    name, _, variant = case.partition("/")
    cfg = WORKLOADS[name].config_for(0, iterations=4)
    if variant:
        cfg = replace(cfg, horizon=replace(cfg.horizon, period=2))
    records = train(cfg)
    assert [r.iteration for r in records] == [1, 2, 3, 4]
    for record, (nfe_fwd, nfe_bwd, *values) in zip(records, PINNED[case]):
        assert (record.nfe_fwd, record.nfe_bwd) == (nfe_fwd, nfe_bwd)
        got = [record.train_loss, record.train_acc, record.test_loss, record.test_acc, record.t1]
        np.testing.assert_allclose(got, values, rtol=1e-10, atol=0)
