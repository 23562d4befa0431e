import numpy as np
import pytest

from snopt_kit import data as dm


class TestSpirals:
    def test_origin_point_when_noiseless(self):
        ds = dm.make_spirals(10, 0.0, 0)
        assert np.allclose(ds.inputs[0], [0.0, 0.0])
        assert ds.labels[0] == 0

    def test_noiseless_geometry(self):
        ds = dm.make_spirals(50, 0.0, 3)
        phi = np.linspace(0, 4 * np.pi, 50)
        r = phi / (4 * np.pi)
        arm0 = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        assert np.allclose(ds.inputs[:50], arm0)
        # class 1 is the pi-rotated arm
        assert np.allclose(ds.inputs[50:], -arm0, atol=1e-12)

    def test_deterministic_given_seed(self):
        a = dm.make_spirals(100, 0.05, 42)
        b = dm.make_spirals(100, 0.05, 42)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_different_seed_differs(self):
        a = dm.make_spirals(100, 0.05, 1)
        b = dm.make_spirals(100, 0.05, 2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_label_balance_exact(self):
        ds = dm.make_spirals(123, 0.1, 7)
        assert np.sum(ds.labels == 0) == np.sum(ds.labels == 1) == 123

    def test_splits_disjoint_and_cover(self):
        ds = dm.make_spirals(100, 0.05, 5)
        assert np.intersect1d(ds.train_idx, ds.test_idx).size == 0
        assert np.union1d(ds.train_idx, ds.test_idx).size == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            dm.make_spirals(0, 0.05, 1)
        with pytest.raises(ValueError):
            dm.make_spirals(10, -1.0, 1)


class TestCircles:
    def test_noiseless_radii(self):
        ds = dm.make_circles(40, (0.5, 1.0), 0.0, 2)
        radii = np.linalg.norm(ds.inputs, axis=1)
        assert np.allclose(radii[:40], 0.5)
        assert np.allclose(radii[40:], 1.0)

    def test_deterministic(self):
        a = dm.make_circles(30, (0.5, 1.0), 0.05, 9)
        b = dm.make_circles(30, (0.5, 1.0), 0.05, 9)
        assert np.array_equal(a.inputs, b.inputs)

    def test_three_classes(self):
        ds = dm.make_circles(20, (0.3, 0.6, 0.9), 0.0, 1)
        assert set(np.unique(ds.labels)) == {0, 1, 2}


class TestRegression:
    def test_targets_follow_smooth_map(self):
        ds = dm.make_regression(200, 11)
        assert np.allclose(ds.labels, dm.regression_targets(ds.inputs))

    def test_deterministic(self):
        a = dm.make_regression(50, 4)
        b = dm.make_regression(50, 4)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
