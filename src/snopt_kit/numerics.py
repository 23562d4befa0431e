"""Dense linear-algebra kernels shared by the rest of the package.

Matrices are plain ``numpy.ndarray`` objects.  Vectorisation is
column-major (Fortran order) everywhere: ``vec`` stacks columns, so the
identities the preconditioner relies on,

    (A ⊗ B) (C ⊗ D)^T = (A C^T) ⊗ (B D^T)
    (U_A ⊗ U_B)^T vec(G) = vec(U_B^T G U_A),

hold literally.  The layout is defined in one place, ``vector_field``,
which stores each layer's homogeneous ``Wbar = [W, b]`` as its
``order="F"`` flattening; the field and ``optimizer.snopt_step``'s
eigenbasis projection (the second identity) both read it through
``unpack_params``' column-major views, and ``snopt-kit verify`` checks
that update against the dense Kronecker assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SYM_TOL = 1e-10


class NotSymmetric(ValueError):
    """Input violates the symmetry tolerance of the eigensolver."""


@lru_cache(maxsize=None)
def triu_flat(side: int) -> np.ndarray:
    """Row-major flat indices of the upper triangle of a ``(side, side)``
    matrix, the one packed-triangle layout: ``mat.ravel()[triu_flat(side)]``."""
    rows, cols = np.triu_indices(side)
    flat = rows * side + cols
    flat.setflags(write=False)
    return flat


def triu_unpack(packed: np.ndarray, side: int) -> np.ndarray:
    """The symmetric matrix whose packed upper triangle is ``packed``."""
    rows, cols = np.divmod(triu_flat(side), side)
    mat = np.empty((side, side))
    mat[rows, cols] = packed
    mat[cols, rows] = packed
    return mat


@dataclass
class SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(mat: np.ndarray) -> SymEigen:
    """Eigendecomposition of a symmetric matrix via LAPACK ``eigh``.

    Raises :class:`NotSymmetric` when the asymmetry exceeds 1e-10 relative
    to the matrix scale, ``max(1, max |mat|)``.  LAPACK decomposes the
    symmetric part ``(mat + mat^T) / 2``.  Eigenvalues come back in
    descending order with eigenvectors as the matching columns.  The
    optimizer calls this six times per step at 2-16-16-2, so each
    temporary is built once and reused in place.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError("sym_eigen needs a nonempty square matrix")
    asym = mat - mat.T
    if np.abs(asym, out=asym).max() > SYM_TOL * max(1.0, np.abs(mat).max()):
        raise NotSymmetric("matrix is not symmetric within 1e-10")
    sym = np.add(mat, mat.T, out=asym)
    sym *= 0.5
    values, vectors = np.linalg.eigh(sym)
    order = values.argsort()[::-1]
    return SymEigen(values=values[order], vectors=vectors[:, order])
