import math
import re

import numpy as np
import pytest

from framecalc import (
    EigenDecomposition,
    spectral_function,
    symmetrize,
)
from framecalc.linalg import svd

HALF_MATRIX = np.array([[1.5, 0.5], [0.5, 1.5]])
# numpy's own eigendecomposition, in the form a spectral function reads.
HALF_SPECTRUM = EigenDecomposition(*np.linalg.eigh(HALF_MATRIX))


def test_svd_conventions_and_frame_operator_spectrum():
    rng = np.random.default_rng(31)
    for count, dim in [(9, 4), (4, 4), (2, 5)]:
        v = rng.standard_normal((count, dim))
        factors = svd(v)
        right = factors.spectrum.eigenvectors
        np.testing.assert_allclose((factors.left * factors.singular_values) @ right.T, v, atol=1e-12)
        np.testing.assert_allclose(right.T @ right, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(factors.spectrum.eigenvalues, np.linalg.eigvalsh(v.T @ v), atol=1e-12)
        assert np.all(np.diff(factors.singular_values) >= 0.0)
        assert np.count_nonzero(factors.singular_values) == min(count, dim)
        for k in range(dim):
            assert right[int(np.argmax(np.abs(right[:, k]))), k] >= 0.0
        assert not factors.left.flags.writeable and not right.flags.writeable


def test_spectral_function_inverse_2d():
    inverse = spectral_function(HALF_SPECTRUM, lambda lam: 1.0 / lam)
    expected = np.array([[3.0, -1.0], [-1.0, 3.0]]) / 4.0
    np.testing.assert_allclose(inverse, expected, atol=1e-12)
    np.testing.assert_allclose(inverse, np.linalg.inv(HALF_MATRIX), atol=1e-12)


def test_spectral_function_identity_function():
    rng = np.random.default_rng(11)
    s = symmetrize(rng.standard_normal((5, 5)))
    decomp = EigenDecomposition(*np.linalg.eigh(s))
    np.testing.assert_allclose(spectral_function(decomp, lambda lam: lam), s, atol=1e-12)


def test_spectral_function_inverse_sqrt_projectors():
    # E1 + E2/sqrt(2) with projectors onto (1, -1)/sqrt(2) and (1, 1)/sqrt(2).
    e1 = np.array([[0.5, -0.5], [-0.5, 0.5]])
    e2 = np.array([[0.5, 0.5], [0.5, 0.5]])
    expected = e1 + e2 / math.sqrt(2.0)
    found = spectral_function(HALF_SPECTRUM, lambda lam: lam**-0.5)
    np.testing.assert_allclose(found, expected, atol=1e-12)


def test_spectral_function_domain_errors_name_eigenvalue():
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="undefined at eigenvalue 0.0"):
        spectral_function(EigenDecomposition(*np.linalg.eigh(singular)), lambda lam: 1.0 / lam)
    with pytest.raises(ValueError, match="undefined at eigenvalue"):
        spectral_function(HALF_SPECTRUM, lambda lam: float("nan"))


def test_spectral_function_refuses_a_value_that_is_not_real():
    # The first non-real value is named, and a complex value with a zero
    # imaginary part is its real part.
    low, high = (re.escape(repr(float(lam))) for lam in HALF_SPECTRUM.eigenvalues)
    with pytest.raises(ValueError, match=rf"undefined at eigenvalue {low}: got \(1\+1j\), which is not real"):
        spectral_function(HALF_SPECTRUM, lambda lam: np.full_like(lam, 1 + 1j, complex))
    with pytest.raises(ValueError, match=rf"undefined at eigenvalue {high}: got \(2\+3j\), which is not real"):
        spectral_function(HALF_SPECTRUM, lambda lam: np.where(lam < 1.5, 1.0 + 0j, 2.0 + 3j))
    real = spectral_function(HALF_SPECTRUM, lambda lam: lam)
    np.testing.assert_array_equal(spectral_function(HALF_SPECTRUM, lambda lam: lam + 0j), real)


def test_spectral_power_semigroup():
    # Product of powers adds exponents; nested powers multiply them.
    rng = np.random.default_rng(19)
    for dim in (2, 4, 7):
        frame_like = rng.standard_normal((dim + 3, dim))
        s = symmetrize(frame_like.T @ frame_like) + 0.5 * np.eye(dim)
        decomp = EigenDecomposition(*np.linalg.eigh(s))
        for a, b in [(0.5, 0.5), (-1.0, 1.0), (-0.25, -0.5), (2.0, -0.75)]:
            power_a = spectral_function(decomp, lambda lam: lam**a)
            product = power_a @ spectral_function(decomp, lambda lam: lam**b)
            summed = spectral_function(decomp, lambda lam: lam ** (a + b))
            assert np.linalg.norm(product - summed) <= 1e-9 * max(1.0, np.linalg.norm(summed))
            nested = spectral_function(EigenDecomposition(*np.linalg.eigh(power_a)), lambda lam: lam**b)
            multiplied = spectral_function(decomp, lambda lam: lam ** (a * b))
            assert np.linalg.norm(nested - multiplied) <= 1e-9 * max(
                1.0, np.linalg.norm(multiplied)
            )


def test_spectral_inverse_identity():
    rng = np.random.default_rng(23)
    for dim in (2, 5, 8):
        frame_like = rng.standard_normal((dim + 2, dim))
        s = symmetrize(frame_like.T @ frame_like) + 0.1 * np.eye(dim)
        decomp = EigenDecomposition(*np.linalg.eigh(s))
        product = s @ spectral_function(decomp, lambda lam: 1.0 / lam)
        assert np.linalg.norm(product - np.eye(dim)) <= 1e-9


def test_symmetrize_is_exact():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    with pytest.raises(ValueError, match="finite"):
        symmetrize(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        symmetrize(np.ones((2, 3)))
