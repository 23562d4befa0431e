"""The benchmark's view of the program still holds.

``bench/spans.py`` traces the program by rebinding module globals, and
``bench/workloads.py`` names the entry points each workload must reach.
A change that moves a call site or bypasses a rebound name breaks the
benchmark only when it runs; this test trains every workload for two
iterations under the tracer and checks its two gates here.  It also
re-measures the benchmark's ``peak_alloc_kib`` on snopt-grid33 against the
value recorded below.  It imports the benchmark's modules and changes
nothing in them.
"""

import sys
import tracemalloc
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
    # every field evaluation of the forward and backward solves goes through
    # the traced vf._forward; a value path that bypassed it would shrink the
    # per-layer picture without failing a gate
    assert tracer.calls["vector_field.forward"] >= sum(r.nfe_fwd + r.nfe_bwd for r in records)


def grid33_peak_kib() -> float:
    """The benchmark's ``peak_alloc_kib`` on snopt-grid33, config seed 0: the
    largest per-iteration tracemalloc peak of a 6-iteration run after a
    3-iteration warm-up, the first iteration excluded."""
    workload = WORKLOADS["snopt-grid33"]
    trainer.train(workload.config_for(0, iterations=3))
    peaks = []

    def sample(it, run):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        trainer.train(workload.config_for(0, iterations=6), on_iteration=sample)
    finally:
        tracemalloc.stop()
    return max(peaks[1:]) / 1024.0


# measured on Linux x86-64, CPython 3.11, numpy 2.4; before the dead buffers at
# the two peak moments were freed it read 236.8
GRID33_PEAK_KIB = 204.2


def test_grid33_peak_stays_at_its_measured_value():
    # the forward's two 400-row hidden inputs and dopri5's seven stage rows
    # (150 KiB) are the floor; no dead buffer may ride on top of them again
    assert grid33_peak_kib() <= 1.05 * GRID33_PEAK_KIB
