import hashlib

import numpy as np
import pytest

from snopt_kit import data as dm
from snopt_kit.data import DatasetConfig, build_dataset


def _sha256(a: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


# One small dataset per kind, pinned as generated: the little-endian bytes of
# the inputs and labels, the labels' dtype, and both splits.  A change to the
# draw order, the noiseless points or the split changes one of these.
PINNED = {
    "spirals": (
        DatasetConfig(kind="spirals", n_per_class=6, noise_sd=0.1), 3,
        "006aed79e4ee2daaff2ae592bdb9163db0ec022c832773930875948286de7c18",
        np.int64, "fabb5ef74cba3752ffd24955e8916ccae8342160d51ebef4b186dcd786e61e11",
        [0, 1, 2, 3, 5, 6, 8, 9, 10, 11], [4, 7]),
    "circles": (
        DatasetConfig(kind="circles", n_per_class=4, radii=(0.5, 1.0, 1.5), noise_sd=0.1), 5,
        "4e01b38f05f83861549f306d475fa4965c77b135b9e0f2662a836079e66e01f0",
        np.int64, "5664ee91a9289943f6b968bac7b7d35ad321fe7c6ff70cc91c8d20139c9c6afe",
        [0, 1, 2, 3, 4, 6, 7, 9, 10, 11], [5, 8]),
    "regression": (
        DatasetConfig(kind="regression", n=10), 7,
        "7773a12e82f750bb8f257f93f3ce9c107585d517e575ed3bf0513e3c8e451cff",
        np.float64, "4f8c7ebc0ac184bd76bc6badb189ae7b9de3b29e3166a843c0720befb4d234e0",
        [0, 1, 3, 4, 6, 7, 8, 9], [2, 5]),
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_pinned_draw(kind):
    cfg, seed, inputs_sha, label_dtype, labels_sha, train_idx, test_idx = PINNED[kind]
    ds = build_dataset(cfg, seed)
    assert ds.inputs.shape == (cfg.n_samples, cfg.input_dim)
    assert _sha256(ds.inputs, "<f8") == inputs_sha
    assert ds.labels.dtype == label_dtype
    assert _sha256(ds.labels, np.dtype(label_dtype).newbyteorder("<")) == labels_sha
    assert ds.train_idx.tolist() == train_idx
    assert ds.test_idx.tolist() == test_idx


def spirals(n_per_class, noise_sd, seed):
    return build_dataset(DatasetConfig(kind="spirals", n_per_class=n_per_class,
                                       noise_sd=noise_sd), seed)


def circles(n_per_class, radii, noise_sd, seed):
    return build_dataset(DatasetConfig(kind="circles", n_per_class=n_per_class, radii=radii,
                                       noise_sd=noise_sd), seed)


def regression(n, seed):
    return build_dataset(DatasetConfig(kind="regression", n=n), seed)


class TestSpirals:
    def test_origin_point_when_noiseless(self):
        ds = spirals(10, 0.0, 0)
        assert np.allclose(ds.inputs[0], [0.0, 0.0])
        assert ds.labels[0] == 0

    def test_noiseless_geometry(self):
        ds = spirals(50, 0.0, 3)
        phi = np.linspace(0, 4 * np.pi, 50)
        r = phi / (4 * np.pi)
        arm0 = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        assert np.allclose(ds.inputs[:50], arm0)
        # class 1 is the pi-rotated arm
        assert np.allclose(ds.inputs[50:], -arm0, atol=1e-12)

    def test_deterministic_given_seed(self):
        a = spirals(100, 0.05, 42)
        b = spirals(100, 0.05, 42)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_different_seed_differs(self):
        a = spirals(100, 0.05, 1)
        b = spirals(100, 0.05, 2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_label_balance_exact(self):
        ds = spirals(123, 0.1, 7)
        assert np.sum(ds.labels == 0) == np.sum(ds.labels == 1) == 123

    def test_splits_disjoint_and_cover(self):
        ds = spirals(100, 0.05, 5)
        assert np.intersect1d(ds.train_idx, ds.test_idx).size == 0
        assert np.union1d(ds.train_idx, ds.test_idx).size == 200

    def test_validation(self):
        with pytest.raises(ValueError, match="n_per_class >= 1"):
            DatasetConfig(kind="spirals", n_per_class=0)
        with pytest.raises(ValueError, match="noise_sd >= 0"):
            DatasetConfig(kind="spirals", noise_sd=-1.0)


class TestCircles:
    def test_noiseless_radii(self):
        ds = circles(40, (0.5, 1.0), 0.0, 2)
        radii = np.linalg.norm(ds.inputs, axis=1)
        assert np.allclose(radii[:40], 0.5)
        assert np.allclose(radii[40:], 1.0)

    def test_deterministic(self):
        a = circles(30, (0.5, 1.0), 0.05, 9)
        b = circles(30, (0.5, 1.0), 0.05, 9)
        assert np.array_equal(a.inputs, b.inputs)

    def test_three_classes(self):
        ds = circles(20, (0.3, 0.6, 0.9), 0.0, 1)
        assert set(np.unique(ds.labels)) == {0, 1, 2}


class TestRegression:
    def test_targets_follow_smooth_map(self):
        ds = regression(200, 11)
        assert np.allclose(ds.labels, dm.regression_targets(ds.inputs))

    def test_deterministic(self):
        a = regression(50, 4)
        b = regression(50, 4)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
