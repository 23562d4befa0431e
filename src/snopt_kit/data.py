"""Deterministic synthetic datasets at desk scale.

All randomness comes from numpy's Philox generator, a named 64-bit
counter-based PRNG, so regenerating with the same seed is bit-identical
across platforms.  Draw order is fixed: class-0 noise, class-1 noise, ...,
then the split permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INPUT_DIM = 2                     # every dataset here is planar


@dataclass
class Dataset:
    inputs: np.ndarray            # (N, m)
    labels: np.ndarray            # (N,) int classes, or (N, m) vector targets
    train_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def n_train(self) -> int:
        return self.train_idx.size


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _split(rng: np.random.Generator, n: int, test_fraction: float):
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def make_spirals(n_per_class: int, noise_sd: float, seed: int,
                 test_fraction: float = 0.2) -> Dataset:
    """Two interleaved planar spirals, one per class.

    Points sit at radius ``phi / 4pi`` for angles ``phi`` in [0, 4pi], with
    class 1 rotated by pi, plus Gaussian noise.  The first class-0 point is
    the origin when noise_sd = 0.
    """
    if n_per_class < 1 or not noise_sd >= 0:
        raise ValueError("need n_per_class >= 1 and noise_sd >= 0")
    rng = _rng(seed)
    phi = np.linspace(0.0, 4 * np.pi, n_per_class)
    r = phi / (4 * np.pi)
    chunks, labels = [], []
    for cls in range(2):
        ang = phi + np.pi * cls
        pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
        pts = pts + rng.normal(0.0, 1.0, size=pts.shape) * noise_sd
        chunks.append(pts)
        labels.append(np.full(n_per_class, cls, dtype=np.int64))
    inputs = np.concatenate(chunks)
    labels = np.concatenate(labels)
    train_idx, test_idx = _split(rng, inputs.shape[0], test_fraction)
    return Dataset(inputs=inputs, labels=labels, train_idx=train_idx, test_idx=test_idx)


def make_circles(n_per_class: int, radii: tuple[float, ...], noise_sd: float,
                 seed: int, test_fraction: float = 0.2) -> Dataset:
    """Concentric circles, one radius per class."""
    if n_per_class < 1 or not noise_sd >= 0 or len(radii) < 1:
        raise ValueError("need n_per_class >= 1, noise_sd >= 0, and radii")
    rng = _rng(seed)
    ang = np.linspace(0.0, 2 * np.pi, n_per_class, endpoint=False)
    chunks, labels = [], []
    for cls, radius in enumerate(radii):
        pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts = pts + rng.normal(0.0, 1.0, size=pts.shape) * noise_sd
        chunks.append(pts)
        labels.append(np.full(n_per_class, cls, dtype=np.int64))
    inputs = np.concatenate(chunks)
    labels = np.concatenate(labels)
    train_idx, test_idx = _split(rng, inputs.shape[0], test_fraction)
    return Dataset(inputs=inputs, labels=labels, train_idx=train_idx, test_idx=test_idx)


def regression_targets(inputs: np.ndarray) -> np.ndarray:
    """Smooth planar vector field used as the regression target."""
    x0, x1 = inputs[:, 0], inputs[:, 1]
    return 0.5 * np.stack([np.sin(np.pi * x0) * np.cos(np.pi * x1),
                           x0 ** 2 - x1 ** 2], axis=1)


def make_regression(n: int, seed: int, test_fraction: float = 0.2) -> Dataset:
    """Uniform planar inputs with smooth vector targets."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = _rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(n, 2))
    targets = regression_targets(inputs)
    train_idx, test_idx = _split(rng, n, test_fraction)
    return Dataset(inputs=inputs, labels=targets, train_idx=train_idx, test_idx=test_idx)

