"""Deterministic synthetic datasets at desk scale: their config and one builder.

``DatasetConfig`` states the task, and everything else is read off it: the
input width, the class count (0 for regression targets), the sample count
and, in the trainer, the state width, the loss and the readout's width.
``build_dataset`` is the one way to draw a dataset.

All randomness comes from numpy's Philox generator, a named 64-bit
counter-based PRNG, so regenerating with the same seed is bit-identical
across platforms.  Draw order is fixed: class-0 noise, class-1 noise, ...,
then the split permutation (regression: the inputs, then the split).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "spirals"            # spirals | circles | regression
    n_per_class: int = 250
    noise_sd: float = 0.05
    radii: tuple[float, ...] = (0.5, 1.0)
    n: int = 400                     # regression sample count
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.kind not in ("spirals", "circles", "regression"):
            raise ValueError(f"unknown dataset kind {self.kind!r}; "
                             "expected one of spirals, circles, regression")
        # checked whatever the kind, so a grid may switch kinds in any order
        if self.n_per_class < 1 or self.n < 1:
            raise ValueError("need dataset n_per_class >= 1 and n >= 1")
        if not 0 <= self.noise_sd < np.inf:
            raise ValueError("need a finite dataset noise_sd >= 0")
        # one class would be a one-output softmax, whose loss, gradient and Hessian are 0
        if not (len(self.radii) >= 2 and np.all(np.isfinite(self.radii))):
            raise ValueError("need at least two dataset radii, all finite")
        if not 0 <= self.test_fraction < 1:
            raise ValueError("need 0 <= dataset test_fraction < 1")
        if round(self.n_samples * self.test_fraction) >= self.n_samples:
            raise ValueError(f"test_fraction {self.test_fraction} leaves no training "
                             f"sample of {self.n_samples}")

    @property
    def n_classes(self) -> int:
        """Number of label classes; 0 for regression targets."""
        return {"spirals": 2, "circles": len(self.radii)}.get(self.kind, 0)

    @property
    def input_dim(self) -> int:
        """Features per input: every kind here is planar."""
        return 2

    @property
    def n_samples(self) -> int:
        return self.n if self.kind == "regression" else self.n_per_class * self.n_classes


@dataclass
class Dataset:
    inputs: np.ndarray            # (N, m)
    labels: np.ndarray            # (N,) int64 classes, or (N, m) float vector targets
    train_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def n_train(self) -> int:
        return self.train_idx.size


def _split(rng: np.random.Generator, n: int, test_fraction: float):
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def _noiseless_classes(cfg: DatasetConfig) -> list[np.ndarray]:
    """Each class's (n_per_class, 2) points before noise, class by class.

    Spiral arm k sits at radius ``phi / 4pi`` for angles ``phi`` in [0, 4pi],
    rotated by ``k pi``, so arm 0 starts at the origin; circle k spaces its
    points evenly at ``radii[k]``.
    """
    if cfg.kind == "spirals":
        phi = np.linspace(0.0, 4 * np.pi, cfg.n_per_class)
        polar = [((phi / (4 * np.pi))[:, None], phi + np.pi * k) for k in range(cfg.n_classes)]
    else:
        ang = np.linspace(0.0, 2 * np.pi, cfg.n_per_class, endpoint=False)
        polar = [(radius, ang) for radius in cfg.radii]
    return [r * np.stack([np.cos(a), np.sin(a)], axis=1) for r, a in polar]


def regression_targets(inputs: np.ndarray) -> np.ndarray:
    """Smooth planar vector field used as the regression target."""
    x0, x1 = inputs[:, 0], inputs[:, 1]
    return 0.5 * np.stack([np.sin(np.pi * x0) * np.cos(np.pi * x1),
                           x0 ** 2 - x1 ** 2], axis=1)


def build_dataset(cfg: DatasetConfig, seed: int) -> Dataset:
    """The dataset ``cfg`` describes, drawn from the Philox stream ``seed``.

    Classes get Gaussian noise of sd ``noise_sd`` on their noiseless points
    and int64 labels, ``n_per_class`` of each in class order; regression
    draws uniform inputs in [-1, 1]^2 and takes ``regression_targets`` of
    them as float targets.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    if cfg.kind == "regression":
        inputs = rng.uniform(-1.0, 1.0, size=(cfg.n, cfg.input_dim))
        labels = regression_targets(inputs)
    else:
        inputs = np.concatenate([pts + rng.normal(0.0, 1.0, size=pts.shape) * cfg.noise_sd
                                 for pts in _noiseless_classes(cfg)])
        labels = np.repeat(np.arange(cfg.n_classes, dtype=np.int64), cfg.n_per_class)
    train_idx, test_idx = _split(rng, inputs.shape[0], cfg.test_fraction)
    return Dataset(inputs=inputs, labels=labels, train_idx=train_idx, test_idx=test_idx)
