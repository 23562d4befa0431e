"""Dense linear-algebra kernels shared by the rest of the package.

Matrices are plain ``numpy.ndarray`` objects.  Vectorisation is
column-major (Fortran order) everywhere: ``vec`` stacks columns, so the
identities the preconditioner relies on,

    (A ⊗ B) (C ⊗ D)^T = (A C^T) ⊗ (B D^T)
    (U_A ⊗ U_B)^T vec(G) = vec(U_B^T G U_A),

hold literally.  The second is the eigenbasis projection of
``optimizer.snopt_step``; ``snopt-kit verify`` checks that update against
the dense Kronecker assembly.  Mixing in a row-major ``reshape`` anywhere
silently breaks both, which is why :func:`vec` / :func:`unvec` are the
only sanctioned conversions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-10


class NotSymmetric(ValueError):
    """Input violates the symmetry tolerance of the eigensolver."""


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-major vectorisation of a matrix."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(w: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`; fails loudly on a size mismatch."""
    w = np.asarray(w)
    if w.size != rows * cols:
        raise ValueError(f"cannot unvec length {w.size} into {rows}x{cols}")
    return w.reshape(rows, cols, order="F")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (package-wide spelling of ``numpy.kron``)."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


@dataclass
class SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.vectors @ np.diag(self.values) @ self.vectors.T


def sym_eigen(mat: np.ndarray) -> SymEigen:
    """Eigendecomposition of a symmetric matrix via LAPACK ``eigh``.

    Raises :class:`NotSymmetric` when the asymmetry exceeds 1e-10 relative
    to the matrix scale.  Eigenvalues come back in descending order with
    eigenvectors as the matching columns.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("sym_eigen needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
    if np.max(np.abs(mat - mat.T)) > SYM_TOL * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    values, vectors = np.linalg.eigh(0.5 * (mat + mat.T))
    order = np.argsort(values)[::-1]
    return SymEigen(values=values[order], vectors=vectors[:, order])
