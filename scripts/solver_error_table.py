"""Tabulate gradient and curvature errors of the backward sweep per solver.

Writes both CSV and markdown next to each other.

Usage: python scripts/solver_error_table.py --out error_study.csv
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from snopt_kit import vector_field as vf
from snopt_kit.loss import TerminalLoss
from snopt_kit.odesolve import SolverConfig
from snopt_kit.oracle import (error_study, format_error_study_markdown,
                              write_error_study_csv)

SOLVERS = [
    ("rk4 h=1e-1", SolverConfig(method="rk4", fixed_step=1e-1)),
    ("rk4 h=3e-2", SolverConfig(method="rk4", fixed_step=3e-2)),
    ("rk4 h=1e-2", SolverConfig(method="rk4", fixed_step=1e-2)),
    ("dopri5 rtol=1e-3", SolverConfig(method="dopri5", rtol=1e-3, atol=1e-3)),
    ("dopri5 rtol=1e-5", SolverConfig(method="dopri5", rtol=1e-5, atol=1e-5)),
    ("dopri5 rtol=1e-7", SolverConfig(method="dopri5", rtol=1e-7, atol=1e-7)),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="error_study.csv")
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args()

    spec = vf.MlpSpec(dims=(2, 3, 2), activations=("tanh", "identity"))
    theta = vf.init_params(spec, args.seed)
    lossfn = TerminalLoss(target=np.array([0.25, -0.5]))
    rows = error_study(spec, theta, np.array([[0.4, -0.2]]), lossfn, SOLVERS)

    write_error_study_csv(rows, args.out)
    md = format_error_study_markdown(rows)
    md_path = os.path.splitext(args.out)[0] + ".md"
    with open(md_path, "w") as fh:
        fh.write(md)
    print(md)
    print(f"wrote {args.out} and {md_path}")


if __name__ == "__main__":
    main()
