import math

import numpy as np
import pytest

from framecalc import (
    eigh,
    operator_norm,
    spectral_function,
    symmetrize,
)
from framecalc.linalg import svd

HALF_MATRIX = np.array([[1.5, 0.5], [0.5, 1.5]])
THIRDS_MATRIX = np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]) / 3.0


def test_eigh_2d_reference():
    decomp = eigh(HALF_MATRIX)
    np.testing.assert_allclose(decomp.eigenvalues, [1.0, 2.0], atol=1e-12)
    expected = np.column_stack([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    np.testing.assert_allclose(decomp.eigenvectors, expected, atol=1e-12)


def test_eigh_3d_degenerate_pair():
    decomp = eigh(THIRDS_MATRIX)
    np.testing.assert_allclose(decomp.eigenvalues, [1.0, 1.0, 2.0], atol=1e-12)
    top = decomp.eigenvectors[:, 2]
    np.testing.assert_allclose(top, np.full(3, 1.0 / math.sqrt(3.0)), atol=1e-12)
    # The degenerate eigenspace is only determined up to rotation; its
    # projector is not.
    pair = decomp.eigenvectors[:, :2]
    projector = pair @ pair.T
    np.testing.assert_allclose(projector, np.eye(3) - np.full((3, 3), 1.0 / 3.0), atol=1e-12)


def test_eigh_identity_any_dim():
    for dim in (1, 3, 6):
        decomp = eigh(np.eye(dim))
        np.testing.assert_array_equal(decomp.eigenvalues, np.ones(dim))
        np.testing.assert_array_equal(decomp.eigenvectors, np.eye(dim))


def test_eigh_zero_matrix():
    decomp = eigh(np.zeros((4, 4)))
    np.testing.assert_array_equal(decomp.eigenvalues, np.zeros(4))


def test_eigh_random_reconstruction_and_orthonormality():
    rng = np.random.default_rng(42)
    for dim in range(2, 9):
        for _ in range(5):
            s = symmetrize(rng.standard_normal((dim, dim)) * rng.uniform(0.1, 10.0))
            decomp = eigh(s)
            rebuilt = (decomp.eigenvectors * decomp.eigenvalues) @ decomp.eigenvectors.T
            scale = max(1.0, float(np.linalg.norm(s)))
            assert np.linalg.norm(rebuilt - s) <= 1e-10 * scale
            gram = decomp.eigenvectors.T @ decomp.eigenvectors
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(decomp.eigenvalues) >= 0.0)
            # Independent oracle for the spectrum.
            np.testing.assert_allclose(
                decomp.eigenvalues, np.linalg.eigvalsh(s), atol=1e-12 * scale
            )


def test_eigh_sign_convention():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = symmetrize(rng.standard_normal((5, 5)))
        decomp = eigh(s)
        for k in range(5):
            column = decomp.eigenvectors[:, k]
            lead = int(np.argmax(np.abs(column)))
            assert column[lead] >= 0.0


def test_eigh_deterministic():
    rng = np.random.default_rng(3)
    s = symmetrize(rng.standard_normal((6, 6)))
    first = eigh(s)
    second = eigh(s)
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


def test_eigh_rejects_asymmetric_and_nonfinite():
    with pytest.raises(ValueError, match="not symmetric"):
        eigh(np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        eigh(np.ones((2, 3)))
    with pytest.raises(ValueError, match="operator dimension must be at least 1"):
        eigh(np.empty((0, 0)))


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


def test_spectral_apply_inverse_2d():
    inverse = spectral_function(eigh(HALF_MATRIX), lambda lam: 1.0 / lam)
    expected = np.array([[3.0, -1.0], [-1.0, 3.0]]) / 4.0
    np.testing.assert_allclose(inverse, expected, atol=1e-12)
    np.testing.assert_allclose(inverse, np.linalg.inv(HALF_MATRIX), atol=1e-12)


def test_spectral_apply_identity_function():
    rng = np.random.default_rng(11)
    s = symmetrize(rng.standard_normal((5, 5)))
    np.testing.assert_allclose(spectral_function(eigh(s), lambda lam: lam), s, atol=1e-12)


def test_spectral_apply_inverse_sqrt_projectors():
    # E1 + E2/sqrt(2) with projectors onto (1, -1)/sqrt(2) and (1, 1)/sqrt(2).
    e1 = np.array([[0.5, -0.5], [-0.5, 0.5]])
    e2 = np.array([[0.5, 0.5], [0.5, 0.5]])
    expected = e1 + e2 / math.sqrt(2.0)
    found = spectral_function(eigh(HALF_MATRIX), lambda lam: lam**-0.5)
    np.testing.assert_allclose(found, expected, atol=1e-12)


def test_spectral_apply_domain_errors_name_eigenvalue():
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="undefined at eigenvalue 0.0"):
        spectral_function(eigh(singular), lambda lam: 1.0 / lam)
    with pytest.raises(ValueError, match="undefined at eigenvalue"):
        spectral_function(eigh(HALF_MATRIX), lambda lam: float("nan"))


def test_spectral_power_semigroup():
    # Product of powers adds exponents; nested powers multiply them.
    rng = np.random.default_rng(19)
    for dim in (2, 4, 7):
        frame_like = rng.standard_normal((dim + 3, dim))
        s = symmetrize(frame_like.T @ frame_like) + 0.5 * np.eye(dim)
        decomp = eigh(s)
        for a, b in [(0.5, 0.5), (-1.0, 1.0), (-0.25, -0.5), (2.0, -0.75)]:
            power_a = spectral_function(decomp, lambda lam: lam**a)
            product = power_a @ spectral_function(decomp, lambda lam: lam**b)
            summed = spectral_function(decomp, lambda lam: lam ** (a + b))
            assert np.linalg.norm(product - summed) <= 1e-9 * max(1.0, np.linalg.norm(summed))
            nested = spectral_function(eigh(power_a), lambda lam: lam**b)
            multiplied = spectral_function(decomp, lambda lam: lam ** (a * b))
            assert np.linalg.norm(nested - multiplied) <= 1e-9 * max(
                1.0, np.linalg.norm(multiplied)
            )


def test_spectral_inverse_identity():
    rng = np.random.default_rng(23)
    for dim in (2, 5, 8):
        frame_like = rng.standard_normal((dim + 2, dim))
        s = symmetrize(frame_like.T @ frame_like) + 0.1 * np.eye(dim)
        product = s @ spectral_function(eigh(s), lambda lam: 1.0 / lam)
        assert np.linalg.norm(product - np.eye(dim)) <= 1e-9


def test_operator_norm_examples():
    remainder = np.array([[0.0, -1.0 / 3.0], [-1.0 / 3.0, 0.0]])
    assert operator_norm(remainder) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(HALF_MATRIX) == pytest.approx(2.0, abs=1e-12)


def test_eigh_refuses_an_overflowing_spectrum():
    # Every entry is finite, but the top eigenvalue 2e308 is not; LAPACK
    # returned it as inf, with no warning.
    with pytest.raises(ValueError, match="spectrum overflows float64"):
        eigh(1e308 * THIRDS_MATRIX)
    with pytest.raises(ValueError, match="spectrum overflows float64"):
        operator_norm(1e308 * THIRDS_MATRIX)
    assert eigh(1e307 * THIRDS_MATRIX).eigenvalues[-1] == pytest.approx(2e307, rel=1e-12)


def test_symmetrize_is_exact():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    with pytest.raises(ValueError, match="finite"):
        symmetrize(np.array([[np.inf, 0.0], [0.0, 1.0]]))
