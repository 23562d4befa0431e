"""Print one digest of the training records per benchmark workload.

For each workload of ``bench/workloads.py`` it trains the given config
seeds and prints one sha256 over ``repr`` of every ``TrainRecord`` field
except ``wall_clock_s``, so two checkouts whose records are bit-identical
print the same lines.  By default it covers config seeds 0-5 at each
workload's benchmark length.

Usage: python scripts/record_digest.py [--seeds 0-5] [--iterations N]

Run it in both checkouts and diff the output: a refactor that keeps the
arithmetic must leave every line unchanged.
"""

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from snopt_kit.trainer import TrainRecord, train  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIELDS = tuple(f.name for f in dataclasses.fields(TrainRecord) if f.name != "wall_clock_s")


def seed_range(text: str) -> list[int]:
    """``"0-5"`` or ``"3"`` as a list of config seeds."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def digest(workload, seeds: list[int], iterations: int | None) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for record in train(workload.config_for(seed, iterations)):
            h.update(repr(tuple(getattr(record, name) for name in FIELDS)).encode())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-5"),
                    help="config seeds, 'A-B' or one number (default 0-5)")
    ap.add_argument("--iterations", type=int, default=None,
                    help="iterations per run (default: the workload's benchmark length)")
    args = ap.parse_args(argv)
    for name, workload in WORKLOADS.items():
        print(name, digest(workload, args.seeds, args.iterations))


if __name__ == "__main__":
    main()
