"""Training benchmark for snopt-kit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  ``--trace 0`` measures the
end-to-end metrics with the program untouched; ``--trace 1`` alternates
untraced and traced training runs and reports the per-layer metrics plus
the tracing overhead.  Each invocation first runs ``snopt-kit verify``'s
four checks, and every training run is checked (no abort, finite losses,
accuracies in [0, 1], identical records whenever a config seed repeats).
A failed check prints ``"correct": false`` with no metrics and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics and
their units are the ones ``BENCHMARK.json`` at the repo root lists.
README.md next to this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 9            # fresh processes timed per run for setup_s
MEMORY_ITERATIONS = 6       # length of the tracemalloc pass
COVERAGE_MIN = 0.85         # top-level spans must cover this share of traced loop time
# About the calibration kernel's time on the reference box (2 vCPU Xeon); a
# fixed unit scale.  ``*_ref`` metrics rescale every iteration's wall time by
# REF_KERNEL_MS / (the kernel's mean time just before and after it).
REF_KERNEL_MS = 0.20

# Deterministic per-layer counts: taken from the first pass over the panel,
# so they do not depend on how many runs fit in --seconds.
COUNT_METRICS = (
    "odesolve.fwd_calls", "odesolve.bwd_calls", "odesolve.fwd_accepted",
    "odesolve.fwd_rejected", "odesolve.bwd_accepted", "odesolve.bwd_rejected",
    "odesolve.bwd_accept_ratio", "vector_field.forward_calls",
    "vector_field.cotangents_calls", "vector_field.rows_per_forward", "adjoint.nfe",
    "kfac.nfe", "kfac.segments", "kfac.factor_terms_calls", "kfac.factor_elements",
    "numerics.sym_eigen_calls", "horizon.updates",
)


class BenchFailure(Exception):
    """A correctness check failed; the run reports no numbers."""


class Tally:
    """Training iterations attempted and failed over the whole invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def load_program():
    """Import snopt_kit from this checkout's ``src/``, or exit non-zero."""
    package = SRC / "snopt_kit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no snopt_kit sources at {package}")
    sys.path.insert(0, str(SRC))
    import snopt_kit
    if Path(snopt_kit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported snopt_kit from {snopt_kit.__file__}, not {package}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy's wheel, if there is one."""
    for path in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int, config_seeds: list[int]) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "seed": seed, "config_seeds": config_seeds}


_CAL_RNG = np.random.Generator(np.random.Philox(2109))
_CAL_X = _CAL_RNG.normal(size=(128, 16))
_CAL_W = _CAL_RNG.normal(size=(16, 16)) * 0.1


def kernel_s() -> float:
    """Best of two runs of a fixed kernel shaped like a field-evaluation chain."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        z = _CAL_X
        for _ in range(20):
            z = np.tanh(z @ _CAL_W)
        best = min(best, time.perf_counter() - start)
    return best


def run_verify_checks():
    from snopt_kit import cli
    for check in cli.CHECKS:
        name, err, tol = check(1.0)
        passed = err < tol
        print(f"{'PASS' if passed else 'FAIL'} verify {name}: error {err:.3e} (tol {tol:.1e})")
        if not passed:
            raise BenchFailure(f"verify check failed: {name}")


@dataclass
class TimedRun:
    """One checked training run and its per-iteration timing.

    ``seconds[k]`` is iteration k's wall time from consecutive
    ``wall_clock_s`` values, less the benchmark's own work between
    iterations; ``kernel_s[k]`` is the calibration kernel's mean time just
    before and just after it, the host-speed sample it is rescaled by.
    """

    records: list
    seconds: list[float]
    kernel_s: list[float]


def train_checked(cfg, tally: Tally) -> TimedRun:
    """One training run with the per-run correctness checks."""
    from snopt_kit import trainer
    kernel = [kernel_s()]
    gaps: list[float] = []

    def after_iteration(it, run):
        start = time.perf_counter()
        kernel.append(kernel_s())
        gaps.append(time.perf_counter() - start)

    tally.attempted += cfg.iterations
    try:
        records = trainer.train(cfg, on_iteration=after_iteration)
    except Exception as exc:
        tally.failed += cfg.iterations - len(gaps)
        raise BenchFailure(f"seed {cfg.seed}: training failed after {len(gaps)} of "
                           f"{cfg.iterations} iterations: {exc!r}") from exc
    if len(records) != cfg.iterations:
        tally.failed += cfg.iterations - len(records)
        raise BenchFailure(f"seed {cfg.seed}: {len(records)} records for {cfg.iterations} iterations")
    for r in records:
        evaluated = r.iteration % cfg.eval_every == 0 or r.iteration == cfg.iterations
        checks = [(r.train_loss, r.train_acc)] + ([(r.test_loss, r.test_acc)] if evaluated else [])
        for loss, acc in checks:
            if not (math.isfinite(loss) and 0.0 <= acc <= 1.0):
                raise BenchFailure(f"seed {cfg.seed} iteration {r.iteration}: "
                                   f"loss {loss!r}, accuracy {acc!r}")
    clock = [0.0] + [r.wall_clock_s for r in records]
    seconds = [clock[k + 1] - clock[k] - (gaps[k - 1] if k else 0.0)
               for k in range(len(records))]
    return TimedRun(records, seconds, [0.5 * (a + b) for a, b in zip(kernel, kernel[1:])])


def signature(records) -> tuple:
    """Everything a record holds except wall-clock time, exactly."""
    return tuple(repr((r.iteration, r.train_loss, r.train_acc, r.test_loss, r.test_acc,
                       r.nfe_fwd, r.nfe_bwd, r.t1)) for r in records)


def setup_probe(workload, config_seed: int) -> float:
    """Set-up time of one fresh process (``setup_probe.py``)."""
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload.name,
                          str(config_seed)], cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=False)
    if out.returncode != 0:
        raise BenchFailure(f"set-up probe failed: {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def peak_alloc_kib(workload, config_seed: int) -> float:
    """Largest per-iteration tracemalloc peak, set-up and first iteration excluded."""
    from snopt_kit import trainer
    peaks = []

    def sample(it, run):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        trainer.train(workload.config_for(config_seed, iterations=MEMORY_ITERATIONS),
                      on_iteration=sample)
    finally:
        tracemalloc.stop()
    return max(peaks[1:]) / 1024.0


class Pass:
    """Figures of the first pass over a panel: one training run per config seed."""

    def __init__(self):
        self.iterations = 0
        self.nfe_fwd = 0
        self.nfe_bwd = 0
        self.final_losses = []

    def add(self, records):
        self.iterations += len(records)
        self.nfe_fwd += sum(r.nfe_fwd for r in records)
        self.nfe_bwd += sum(r.nfe_bwd for r in records)
        self.final_losses.append(records[-1].train_loss)


def measure(workload, seeds: list[int], seconds: float, tally: Tally, tracer=None,
            between=None) -> dict:
    """Cycle through the panel until ``seconds`` passed and every seed ran once.

    With a tracer, each step is an untraced and a traced run of the same
    config, in alternating order; their records must agree exactly.
    ``between(elapsed_s)`` runs after every step, outside the timed runs.
    """
    from snopt_kit import trainer
    trainer.train(workload.config_for(seeds[0], iterations=3))  # warm-up, untimed
    reference: dict[int, tuple] = {}
    first = Pass()
    plain_s: list[float] = []
    plain_ref_s: list[float] = []
    traced_loop_s = 0.0
    traced_iterations = 0
    kernel: list[float] = []
    snapshot = None
    start = time.perf_counter()
    step = 0
    while step < len(seeds) or time.perf_counter() - start < seconds:
        seed = seeds[step % len(seeds)]
        cfg = workload.config_for(seed)
        order = (False,) if tracer is None else (False, True) if step % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                with tracer.installed():
                    run = train_checked(cfg, tally)
                traced_loop_s += sum(run.seconds)
                traced_iterations += len(run.seconds)
            else:
                run = train_checked(cfg, tally)
                plain_s += run.seconds
                plain_ref_s += [d * REF_KERNEL_MS * 1e-3 / k
                                for d, k in zip(run.seconds, run.kernel_s)]
            kernel += run.kernel_s
            if reference.setdefault(seed, signature(run.records)) != signature(run.records):
                raise BenchFailure(f"config seed {seed}: records differ between runs"
                                   + (" (traced vs untraced)" if tracer is not None else ""))
        if step < len(seeds):
            first.add(run.records)
        if between is not None:
            between(time.perf_counter() - start)
        step += 1
        if tracer is not None and step == len(seeds):
            snapshot = tracer.layer_metrics(first.iterations, len(seeds))
    return {"first": first, "plain_s": plain_s, "plain_ref_s": plain_ref_s,
            "traced_loop_s": traced_loop_s, "traced_iterations": traced_iterations,
            "runs": step, "calibration_ms": 1e3 * statistics.median(kernel),
            "snapshot": snapshot}


def end_to_end(workload, seeds, seconds, tally) -> tuple[dict, dict]:
    # Set-up probes are spread evenly over the timed window, so their median
    # sees the same mix of fast and slow host stretches as the iterations.
    setup_samples: list[float] = []

    def probe_setup(elapsed: float):
        while (len(setup_samples) < SETUP_PROBES
               and elapsed >= len(setup_samples) * seconds / SETUP_PROBES):
            setup_samples.append(setup_probe(workload, seeds[0]))

    m = measure(workload, seeds, seconds, tally, between=probe_setup)
    probe_setup(math.inf)
    durations, rescaled = m["plain_s"], m["plain_ref_s"]
    metrics = {
        "iter_ms_p50_ref": 1e3 * statistics.median(rescaled),
        "iter_ms_p90_ref": 1e3 * statistics.quantiles(rescaled, n=10)[8],
        "iters_per_s_ref": len(rescaled) / sum(rescaled),
        "nfe_fwd_per_iter": m["first"].nfe_fwd / m["first"].iterations,
        "nfe_bwd_per_iter": m["first"].nfe_bwd / m["first"].iterations,
        "setup_s": statistics.median(setup_samples),
        "peak_alloc_kib": peak_alloc_kib(workload, seeds[0]),
        "iters_completed_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    info = {"iteration_samples": len(durations), "training_runs": m["runs"],
            "calibration_ms": m["calibration_ms"],
            "iter_ms_p50": 1e3 * statistics.median(durations),
            "iter_ms_p90": 1e3 * statistics.quantiles(durations, n=10)[8],
            "iters_per_s": len(durations) / sum(durations),
            "train_loss_final": statistics.fmean(m["first"].final_losses)}
    return metrics, info


def per_layer(workload, seeds, seconds, tally) -> tuple[dict, dict]:
    from snopt_kit import trainer
    from spans import LABELS, Tracer

    tracer = Tracer()
    m = measure(workload, seeds, seconds, tally, tracer=tracer)

    for label in LABELS:
        if (tracer.calls[label] > 0) != (label in workload.active):
            state = "idle" if label in workload.active else "active"
            raise BenchFailure(f"entry point {label} is {state} on {workload.name}; "
                               "a wrapper was bypassed or a layer changed role")
    coverage = tracer.root_s / m["traced_loop_s"]
    if not COVERAGE_MIN <= coverage <= 1.0:
        raise BenchFailure(f"top-level spans cover {coverage:.3f} of traced loop time, "
                           f"outside [{COVERAGE_MIN}, 1]")

    metrics = tracer.layer_metrics(m["traced_iterations"], m["runs"])
    metrics.update({k: m["snapshot"][k] for k in COUNT_METRICS})
    first = m["first"]
    traced_nfe = metrics["adjoint.nfe"] + metrics["kfac.nfe"]
    if traced_nfe != first.nfe_bwd / first.iterations:
        raise BenchFailure(f"traced backward NFE {traced_nfe} disagrees with the records' "
                           f"{first.nfe_bwd / first.iterations}")

    elements = trainer.memory_probe(workload.config_for(seeds[0]))
    second_order = workload.config.optimizer.kind == "snopt"
    metrics["adjoint.state_elements"] = 0 if second_order else elements
    metrics["kfac.state_elements"] = elements if second_order else 0
    metrics["quality.train_loss_final"] = statistics.fmean(first.final_losses)
    metrics["harness.calibration_ms"] = m["calibration_ms"]
    metrics["harness.trace_overhead_frac"] = m["traced_loop_s"] / sum(m["plain_s"]) - 1.0
    metrics["harness.trace_coverage_frac"] = coverage
    info = {"traced_iterations": m["traced_iterations"], "training_runs": m["runs"],
            "nfe_fwd_per_iter": first.nfe_fwd / first.iterations,
            "nfe_bwd_per_iter": first.nfe_bwd / first.iterations}
    return metrics, info


def report(correct: bool, tally: Tally, metrics: dict, units: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


def bench(args) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    seeds = workload.panel_seeds(args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    tally = Tally()
    print("env " + json.dumps(environment(args.seed, seeds)))
    try:
        run_verify_checks()
        measure_run = per_layer if args.trace else end_to_end
        metrics, info = measure_run(workload, seeds, args.seconds, tally)
        if set(metrics) != set(units):
            raise BenchFailure(f"measured metrics differ from BENCHMARK.json: "
                               f"{sorted(set(metrics) ^ set(units))}")
    except BenchFailure as exc:
        print(f"bench: FAILED: {exc}", file=sys.stderr)
        report(False, tally, {}, units)
        return 1
    print("info " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    report(True, tally, metrics, units)
    return 0


def self_test() -> int:
    """Exact counts: two traced runs of config seed 0 must agree to the bit."""
    from workloads import WORKLOADS
    expected = {
        "snopt-grid33": {"nfe_fwd_per_iter": 25.0, "nfe_bwd_per_iter": 238.0,
                         "kfac.segments": 32.0, "kfac.state_elements": 2225},
        "adam-spirals": {"adjoint.state_elements": 866},
        "snopt-rank2-horizon": {"kfac.segments": 12.0, "kfac.state_elements": 2481},
    }
    exact = ("nfe_fwd_per_iter", "nfe_bwd_per_iter", "odesolve.fwd_accepted",
             "odesolve.fwd_rejected", "odesolve.bwd_accepted", "odesolve.bwd_rejected",
             "kfac.segments", "adjoint.state_elements", "kfac.state_elements",
             "kfac.factor_elements", "quality.train_loss_final")
    ok = True
    for name, workload in WORKLOADS.items():
        runs = []
        for _ in range(2):
            metrics, info = per_layer(workload, [0], 0.0, Tally())
            runs.append({**metrics, **info})
        for key in exact:
            same = runs[0][key] == runs[1][key]
            want = expected.get(name, {}).get(key)
            passed = same and (want is None or runs[0][key] == want)
            ok = ok and passed
            print(f"{'PASS' if passed else 'FAIL'} {name} {key} = {runs[0][key]!r}"
                  + ("" if same else f" then {runs[1][key]!r}")
                  + ("" if want is None else f" (expected {want!r})"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the deterministic counts repeat exactly")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    load_program()
    sys.path.insert(0, str(BENCH))
    if args.self_test:
        return self_test()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
