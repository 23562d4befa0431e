import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from snopt_kit import numerics as nm


def random_spd(rng, d):
    m = rng.normal(size=(d, d))
    return m @ m.T + 0.05 * np.eye(d)


class TestKron:
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_scalar(self):
        assert np.array_equal(np.kron([[2.0]], [[3.0]]), [[6.0]])

    def test_diagonal(self):
        # expanded by hand: diag(2,3) x diag(1,4) interleaves as (2*1, 2*4, 3*1, 3*4)
        out = np.kron(np.diag([2.0, 3.0]), np.diag([1.0, 4.0]))
        assert np.array_equal(out, np.diag([2.0, 8.0, 3.0, 12.0]))

    def test_mixed_product_identity(self):
        # (A x B)(C x D)^T = (A C^T) x (B D^T)
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, l = rng.integers(1, 5, size=2)
            a, c = rng.normal(size=(p, p)), rng.normal(size=(p, p))
            b, d = rng.normal(size=(l, l)), rng.normal(size=(l, l))
            lhs = np.kron(a, b) @ np.kron(c, d).T
            rhs = np.kron(a @ c.T, b @ d.T)
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestTriangle:
    def test_flat_indices_are_row_major(self):
        assert np.array_equal(nm.triu_flat(3), [0, 1, 2, 4, 5, 8])

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for side in (1, 2, 5):
            a = rng.normal(size=(side, side))
            m = a + a.T
            packed = m.ravel()[nm.triu_flat(side)]
            assert packed.size == side * (side + 1) // 2
            assert np.array_equal(nm.triu_unpack(packed, side), m)


class TestSymEigen:
    def test_diagonal(self):
        eig = nm.sym_eigen(np.diag([5.0, 1.0]))
        assert np.allclose(eig.values, [5.0, 1.0])
        assert np.allclose(np.abs(eig.vectors), np.eye(2))

    def test_two_by_two_hand_roots(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 -> l in {3, 1}
        eig = nm.sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eig.values, [3.0, 1.0])

    def test_zero_matrix(self):
        eig = nm.sym_eigen(np.zeros((3, 3)))
        assert np.allclose(eig.values, 0.0)

    def test_not_symmetric(self):
        with pytest.raises(nm.NotSymmetric):
            nm.sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 4, 7):
            m = random_spd(rng, d)
            eig = nm.sym_eigen(m)
            rel = np.linalg.norm(eig.vectors @ np.diag(eig.values) @ eig.vectors.T - m) / np.linalg.norm(m)
            assert rel < 1e-10
            assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(d))) < 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        eig = nm.sym_eigen(random_spd(rng, 6))
        assert np.all(np.diff(eig.values) <= 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_kron_transpose_property(dim, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim))
    assert np.max(np.abs(np.kron(a, b).T - np.kron(a.T, b.T))) < 1e-12
