"""The benchmark's view of the program still holds.

``bench/spans.py`` traces the program by rebinding module globals, and
``bench/workloads.py`` names the entry points each workload must reach.
A change that moves a call site or bypasses a rebound name breaks the
benchmark only when it runs; this test trains every workload for two
iterations under the tracer and checks its two gates here.  It imports the
benchmark's modules and changes nothing in them.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from spans import LABELS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from snopt_kit import trainer  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reaches_its_entry_points(name):
    workload = WORKLOADS[name]
    cfg = workload.config_for(0, iterations=2)
    if cfg.horizon.enabled:
        # a horizon update on the second iteration, so two iterations reach it
        cfg = replace(cfg, horizon=replace(cfg.horizon, period=2))
    tracer = Tracer()
    with tracer.installed():
        records = trainer.train(cfg)
    active = {label for label in LABELS if tracer.calls[label] > 0}
    assert active == workload.active
    traced_nfe = tracer.counts["adjoint_nfe"] + tracer.counts["kfac_nfe"]
    assert traced_nfe == sum(r.nfe_bwd for r in records)
