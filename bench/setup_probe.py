"""Set-up time of one fresh training process, printed as JSON.

Usage: python3 bench/setup_probe.py <workload> <config-seed>

Set-up is the package import (numpy included) plus ``train()``'s work
before the first iteration: (time of the first ``on_iteration`` callback
minus the time before the import) minus ``records[0].wall_clock_s``.
``run.py`` starts this script several times per run and reports the
median, because only a fresh interpreter pays the import.
"""

import time

t_call = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from snopt_kit import trainer  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main():
    workload, config_seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    first = []
    records = trainer.train(workload.config_for(config_seed, iterations=1),
                            on_iteration=lambda it, run: first.append(time.perf_counter()))
    print(json.dumps({"setup_s": first[0] - t_call - records[0].wall_clock_s}))


if __name__ == "__main__":
    main()
