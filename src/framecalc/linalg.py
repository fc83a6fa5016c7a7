"""Dense real linear algebra and spectral function calculus.

The one factorization comes from LAPACK through numpy: ``svd`` of a frame's
synthesis matrix, whose right singular vectors and squared singular values
are the eigenpairs of the frame operator ``V.T @ V``. Factoring ``V`` instead
of forming ``V.T @ V`` keeps the error of every spectral quantity near
``kappa(V) * eps`` rather than ``kappa(V)**2 * eps``. Eigenvalues come in
ascending order with sign-normalized, read-only eigenvectors, so results are
deterministic for a given numpy/BLAS build, and ``spectral_function`` turns
the decomposition into an operator.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "EigenDecomposition",
    "SVD",
    "spectral_function",
    "svd",
    "symmetrize",
]


class EigenDecomposition(NamedTuple):
    """Spectral factorization ``S = V @ diag(w) @ V.T`` of a symmetric matrix.

    ``eigenvalues`` are ascending and column ``k`` of ``eigenvectors`` pairs
    with ``eigenvalues[k]``. Each column is sign-normalized so that its first
    component of largest magnitude is non-negative.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class SVD(NamedTuple):
    """Factorization ``V = left @ diag(singular_values) @ right.T`` of a
    count x dim matrix, with ``right = spectrum.eigenvectors``.

    ``spectrum`` is the eigendecomposition of ``V.T @ V``: eigenvalues
    ``singular_values**2``, ascending, under the conventions of
    ``EigenDecomposition``. With fewer rows than columns the missing singular
    values are zeros, paired with zero columns of ``left``.
    """

    left: np.ndarray
    singular_values: np.ndarray
    spectrum: EigenDecomposition

    def power(self, exponent: float) -> SVD:
        """Factorization of ``left @ diag(singular_values**exponent) @ right.T``."""
        order = slice(None, None, -1) if exponent < 0.0 else slice(None)
        return _svd(
            self.left[:, order],
            self.singular_values[order] ** exponent,
            self.spectrum.eigenvectors[:, order],
        )


def symmetrize(matrix) -> np.ndarray:
    """Average a finite square matrix with its transpose.

    Entries (i, j) and (j, i) of the result come from the same floating-point
    expression, so the output is exactly symmetric. Each entry is halved before
    the sum, so no pair of finite entries overflows; halving is exact above the
    subnormal range.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return 0.5 * a + 0.5 * a.T


def _lead_signs(vectors: np.ndarray) -> np.ndarray:
    """Per column, the sign that makes its first largest-magnitude entry non-negative."""
    lead = np.argmax(np.abs(vectors), axis=0)
    return np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)


def _read_only(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    array.flags.writeable = False
    return array


def _svd(left: np.ndarray, singular_values: np.ndarray, right: np.ndarray) -> SVD:
    spectrum = EigenDecomposition(_read_only(singular_values**2), _read_only(right))
    return SVD(_read_only(left), _read_only(singular_values), spectrum)


def svd(matrix) -> SVD:
    """Singular value decomposition of a finite count x dim matrix, ascending."""
    a = np.asarray(matrix, dtype=float)
    count, dim = a.shape
    left, singular_values, right_t = np.linalg.svd(a, full_matrices=count < dim)
    if count < dim:
        left = np.hstack([left, np.zeros((count, dim - count))])
        singular_values = np.concatenate([singular_values, np.zeros(dim - count)])
    right = right_t[::-1].T
    signs = _lead_signs(right)
    return _svd(left[:, ::-1] * signs, singular_values[::-1], right * signs)


def _svd_error(count: int) -> float:
    """eps = u (u^(-1/8) + count), u = 2^-53, bounds to first order ``svd``'s backward error
    ||dV|| / ||V|| on a count-row V and each factor's distance from orthonormal: dbdsqr
    deflates at u^(-1/8) u and the reduction of V's columns adds count u."""
    return 2.0**-53 * (2.0 ** (53 / 8) + count)


def _refuse_first(lam: np.ndarray, values: np.ndarray, refused: np.ndarray, reason: Callable) -> None:
    """Refuse a spectral function at the first eigenvalue in ``lam`` that ``refused``
    marks: a ``ValueError`` names it and gives ``reason`` of its entry of ``values``."""
    k = refused.argmax()  # the first refused, else 0
    if refused[k]:
        raise ValueError(f"spectral function undefined at eigenvalue {float(lam[k])!r}: {reason(values[k])}")


def _real_values(lam: np.ndarray, func: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``func(lam)`` as reals in ``lam``'s shape; a ``ValueError`` names the first
    eigenvalue where it is not real."""
    values = np.broadcast_to(func(lam), lam.shape)
    _refuse_first(lam, values, np.imag(values) != 0.0, lambda v: f"got {v.item()!r}, which is not real")
    return np.real(values)


def spectral_function(decomp: EigenDecomposition, func: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The operator ``V @ diag(func(w)) @ V.T`` of a decomposition, exactly symmetric.

    ``func`` takes the ascending eigenvalue array under ``np.errstate(all="ignore")``
    and may return one value for all; a ``ValueError`` names the first where it is not real and finite.
    """
    lam = decomp.eigenvalues
    with np.errstate(all="ignore"):
        values = _real_values(lam, func)
    _refuse_first(lam, values, ~np.isfinite(values), lambda v: f"got {float(v)!r}")
    return symmetrize((decomp.eigenvectors * values) @ decomp.eigenvectors.T)
