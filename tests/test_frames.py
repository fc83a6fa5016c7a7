import itertools
import json
import math

import numpy as np
import pytest
from conftest import random_frame, random_unit

from framecalc import (
    Frame,
    NotAFrameError,
    Scheme,
    alpha_frame,
    analysis,
    commuting_scale,
    demo_frame_2d,
    demo_frame_3d,
    diagnostics,
    dual_frame,
    eigh,
    frame_from_dict,
    frame_operator,
    frame_to_json,
    load_frame,
    operator_norm,
    optimal_bounds,
    proposition1_check,
    reconstruct,
    run_convergence,
    spectral_apply,
    symmetrize,
    synthesis,
)
from framecalc.reference import expected_power_family_2d, expected_tight_family_3d

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_frame_validation():
    with pytest.raises(ValueError, match="at least one vector"):
        Frame(2, np.empty((0, 2)))
    with pytest.raises(ValueError, match="declared dim"):
        Frame(3, np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        Frame(2, np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="0 < A <= B"):
        Frame(2, np.eye(2), (2.0, 1.0))
    with pytest.raises(ValueError, match="0 < A <= B"):
        Frame(2, np.eye(2), (-1.0, 1.0))
    with pytest.raises(ValueError, match="do not enclose"):
        Frame(2, np.eye(2), (1.5, 2.0))
    with pytest.raises(ValueError, match="overflows float64"):
        Frame(1, np.array([[1e160]]))


def test_one_factorization_per_frame(monkeypatch):
    calls = {"svd": 0, "eigh": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    rng = np.random.default_rng(83)
    frame = random_frame(rng, 5, 11, 1.0, 2.5, declared=True)
    alpha_frame(frame, 0.5)
    dual_frame(frame)
    reconstruct(frame, -1.0 / 3.0, rng.standard_normal(5))
    diagnostics(frame)
    proposition1_check(frame, -0.25, samples=8, seed=1)
    for scheme in Scheme:
        assert run_convergence(frame, scheme, 1.0, 2.5, 5, 8, 2).passed
    assert calls == {"svd": 1, "eigh": 0}


def test_frame_vectors_are_immutable():
    frame = demo_frame_2d()
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 5.0


def test_declared_bounds_need_not_be_optimal():
    frame = Frame(2, np.eye(2) * 2.0, (1.0, 10.0))
    assert frame.declared_bounds == (1.0, 10.0)
    assert optimal_bounds(frame) == pytest.approx((4.0, 4.0))


# ---------------------------------------------------------------------------
# Analysis, synthesis, frame operator
# ---------------------------------------------------------------------------


def test_analysis_reference_values():
    # Oracle: three dot products by hand.
    coeffs = analysis(demo_frame_2d(), np.array([1.0, 0.0]))
    np.testing.assert_allclose(coeffs, [1.0, 0.0, 1.0 / SQRT2], atol=1e-15)
    np.testing.assert_array_equal(analysis(demo_frame_2d(), np.zeros(2)), np.zeros(3))
    # Oracle: four dot products by hand.
    coeffs = analysis(demo_frame_3d(), np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(coeffs, [1.0, 1.0, 1.0, math.sqrt(3.0)], atol=1e-15)
    with pytest.raises(ValueError, match="dimension"):
        analysis(demo_frame_2d(), np.zeros(3))


def test_synthesis_reference_values():
    frame = demo_frame_2d()
    np.testing.assert_allclose(
        synthesis(frame, np.array([1.0, 0.0, 0.0])), [1.0, 0.0], atol=1e-15
    )
    # Oracle: direct sum of the three vectors.
    np.testing.assert_allclose(
        synthesis(frame, np.array([1.0, 1.0, SQRT2])), [2.0, 2.0], atol=1e-15
    )
    with pytest.raises(ValueError, match="coefficients"):
        synthesis(frame, np.zeros(4))


def test_analysis_synthesis_adjoint():
    rng = np.random.default_rng(101)
    for _ in range(5):
        dim = int(rng.integers(2, 7))
        frame = random_frame(rng, dim, dim + int(rng.integers(1, 8)), 0.5, 3.0)
        for _ in range(100):
            f = rng.standard_normal(dim)
            c = rng.standard_normal(frame.count)
            left = float(analysis(frame, f) @ c)
            right = float(f @ synthesis(frame, c))
            assert abs(left - right) <= 1e-10 * max(1.0, abs(left))


def test_frame_operator_reference_matrices():
    np.testing.assert_allclose(
        frame_operator(demo_frame_2d()),
        np.array([[1.5, 0.5], [0.5, 1.5]]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        frame_operator(demo_frame_3d()),
        np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]) / 3.0,
        atol=1e-15,
    )
    np.testing.assert_array_equal(frame_operator(Frame(4, np.eye(4))), np.eye(4))


def test_frame_operator_matches_synthesis_of_analysis():
    rng = np.random.default_rng(13)
    frame = random_frame(rng, 5, 12, 0.3, 4.0)
    op = frame_operator(frame)
    for _ in range(10):
        f = rng.standard_normal(5)
        direct = op @ f
        composed = synthesis(frame, analysis(frame, f))
        assert np.linalg.norm(direct - composed) <= 1e-10 * np.linalg.norm(direct)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_reference_frames():
    report = diagnostics(demo_frame_2d())
    assert report.is_frame and report.kernel_trivial
    assert report.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert report.lambda_max == pytest.approx(2.0, abs=1e-12)
    assert report.inverse_norm == pytest.approx(1.0, abs=1e-12)

    report = diagnostics(demo_frame_3d())
    assert report.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert report.lambda_max == pytest.approx(2.0, abs=1e-12)


def test_diagnostics_non_frame():
    report = diagnostics(Frame(2, np.array([[1.0, 0.0], [2.0, 0.0]])))
    assert not report.is_frame and not report.kernel_trivial
    assert report.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert report.inverse_norm is None


def test_diagnostics_inverse_norm_consistency():
    rng = np.random.default_rng(29)
    for _ in range(10):
        frame = random_frame(rng, int(rng.integers(2, 8)), 16, 0.2, 5.0)
        report = diagnostics(frame)
        assert abs(report.inverse_norm - 1.0 / report.lambda_min) <= 1e-9 * report.inverse_norm
        # Inverse boundedness implies the lower frame bound.
        assert 1.0 / report.inverse_norm <= report.lambda_min + 1e-9


# ---------------------------------------------------------------------------
# Power families
# ---------------------------------------------------------------------------


def test_alpha_frame_2d_reference_families():
    frame = demo_frame_2d()
    for alpha in (-1.0, -0.5, -1.0 / 3.0, -2.0 / 3.0):
        family = alpha_frame(frame, alpha)
        np.testing.assert_allclose(
            family.vectors, expected_power_family_2d(alpha), atol=1e-10
        )


def test_alpha_frame_dual_vectors_explicit():
    dual = dual_frame(demo_frame_2d())
    expected = np.array(
        [[0.75, -0.25], [-0.25, 0.75], [1.0 / (2.0 * SQRT2), 1.0 / (2.0 * SQRT2)]]
    )
    np.testing.assert_allclose(dual.vectors, expected, atol=1e-10)
    assert dual.declared_bounds == pytest.approx((0.5, 1.0), abs=1e-12)


def test_alpha_frame_zero_is_identity():
    frame = demo_frame_2d()
    family = alpha_frame(frame, 0.0)
    np.testing.assert_allclose(family.vectors, frame.vectors, atol=1e-12)
    assert family.declared_bounds == pytest.approx((1.0, 2.0), abs=1e-12)


def test_alpha_frame_3d_tight_family():
    family = alpha_frame(demo_frame_3d(), -0.5)
    np.testing.assert_allclose(family.vectors, expected_tight_family_3d(), atol=1e-9)
    assert family.declared_bounds == (1.0, 1.0)


def test_alpha_frame_bounds_stamp_follows_exponent_sign():
    rng = np.random.default_rng(37)
    frame = random_frame(rng, 4, 9, 0.5, 4.5)
    for alpha, expected in [
        (0.5, (0.5**2.0, 4.5**2.0)),
        (-0.25, (0.5**0.5, 4.5**0.5)),
        (-0.5, (1.0, 1.0)),
        (-1.0, (4.5**-1.0, 0.5**-1.0)),
        (-2.0, (4.5**-3.0, 0.5**-3.0)),
    ]:
        family = alpha_frame(frame, alpha)
        assert family.declared_bounds == pytest.approx(expected, rel=1e-9)


def test_alpha_frame_rejects_non_frame_for_negative_power():
    flat = Frame(2, np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(NotAFrameError, match="fractional negative power undefined"):
        alpha_frame(flat, -0.5)
    # Non-negative powers remain defined for spanning-deficient families.
    family = alpha_frame(flat, 0.5)
    assert family.declared_bounds is None


def test_dual_frame_special_cases():
    basis = Frame(3, np.eye(3))
    np.testing.assert_allclose(dual_frame(basis).vectors, np.eye(3), atol=1e-12)
    tight = Frame(2, np.array([[2.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(dual_frame(tight).vectors, tight.vectors / 4.0, atol=1e-12)


def test_dual_frame_involution_and_generalized_dual():
    rng = np.random.default_rng(41)
    for _ in range(8):
        dim = int(rng.integers(2, 8))
        frame = random_frame(rng, dim, dim + int(rng.integers(0, 9) + 1), 0.4, 3.0)
        again = dual_frame(dual_frame(frame))
        assert np.max(np.abs(again.vectors - frame.vectors)) <= 1e-9
        for alpha in (-1.5, -0.5, 0.25, 1.0):
            family = alpha_frame(frame, alpha)
            left = dual_frame(family)
            right = alpha_frame(frame, -1.0 - alpha)
            assert np.max(np.abs(left.vectors - right.vectors)) <= 1e-9


def test_reconstruct_reference_and_random():
    frame = demo_frame_2d()
    rng = np.random.default_rng(43)
    for alpha in (-2.0, -1.0, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 1.0):
        for _ in range(50):
            f = rng.standard_normal(2)
            rebuilt = reconstruct(frame, alpha, f)
            assert np.linalg.norm(rebuilt - f) <= 1e-9 * np.linalg.norm(f)


def test_reconstruct_random_frames():
    rng = np.random.default_rng(47)
    for _ in range(6):
        dim = int(rng.integers(2, 9))
        frame = random_frame(rng, dim, 5 * dim, 0.3, 6.0)
        for alpha in (-2.0, -1.0, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 1.0):
            f = random_unit(rng, dim)
            rebuilt = reconstruct(frame, alpha, f)
            assert np.linalg.norm(rebuilt - f) <= 1e-9


def test_tightness_at_minus_half_random_frames():
    rng = np.random.default_rng(53)
    for dim in range(2, 9):
        count = int(rng.integers(dim, 5 * dim + 1))
        frame = random_frame(rng, dim, count, 0.2, 7.0)
        tight = alpha_frame(frame, -0.5)
        assert operator_norm(symmetrize(frame_operator(tight) - np.eye(dim))) <= 1e-9
        total = float(np.sum(analysis(tight, random_unit(rng, dim)) ** 2))
        assert abs(total - 1.0) <= 1e-9


def test_operator_power_bounds():
    rng = np.random.default_rng(59)
    frame = random_frame(rng, 5, 11, 0.5, 4.0)
    op = frame_operator(frame)
    for gamma in (0.0, 0.5, 2.0):
        eigs = eigh(spectral_apply(op, lambda lam: lam**gamma)).eigenvalues
        assert eigs[0] == pytest.approx(0.5**gamma, rel=1e-9)
        assert eigs[-1] == pytest.approx(4.0**gamma, rel=1e-9)
    for gamma in (-0.5, -1.0, -2.0):
        eigs = eigh(spectral_apply(op, lambda lam: lam**gamma)).eigenvalues
        assert eigs[0] == pytest.approx(4.0**gamma, rel=1e-9)
        assert eigs[-1] == pytest.approx(0.5**gamma, rel=1e-9)


def test_analysis_factorization_through_power_operator():
    # Coefficients against the power family equal coefficients of the powered
    # vector against the original frame.
    rng = np.random.default_rng(61)
    frame = random_frame(rng, 4, 10, 0.6, 3.5)
    op = frame_operator(frame)
    for alpha in (-1.0, -0.5, 0.75):
        family = alpha_frame(frame, alpha)
        power = spectral_apply(op, lambda lam: lam**alpha)
        for _ in range(5):
            f = rng.standard_normal(4)
            left = analysis(family, f)
            right = analysis(frame, power @ f)
            assert np.max(np.abs(left - right)) <= 1e-9


# ---------------------------------------------------------------------------
# Bound sweeps
# ---------------------------------------------------------------------------


def test_proposition1_reference_bounds():
    frame = demo_frame_2d()
    cases = {
        -1.0: (0.5, 1.0),
        -1.0 / 3.0: (1.0, 2.0 ** (1.0 / 3.0)),
        -2.0 / 3.0: (2.0 ** (-1.0 / 3.0), 1.0),
    }
    for alpha, (lower, upper) in cases.items():
        report = proposition1_check(frame, alpha, samples=100, seed=5)
        assert report.passed
        assert report.lower == pytest.approx(lower, abs=1e-12)
        assert report.upper == pytest.approx(upper, abs=1e-12)
        assert report.samples == 102  # 100 random probes plus both eigenvectors


def test_proposition1_tight_for_any_frame():
    rng = np.random.default_rng(67)
    for _ in range(4):
        dim = int(rng.integers(2, 7))
        frame = random_frame(rng, dim, 3 * dim, 0.4, 5.0)
        report = proposition1_check(frame, -0.5, samples=25, seed=2)
        assert report.passed
        assert report.lower == report.upper == 1.0


def test_ill_conditioned_dual_and_bound_check():
    # 16 x 32 frames with a known spectrum; the error scales with
    # kappa(V) * eps = sqrt(kappa(S)) * eps because S is never formed.
    rng = np.random.default_rng(89)
    frame = random_frame(rng, 16, 32, 1.0, 1e11)
    probes = np.column_stack([random_unit(rng, 16) for _ in range(50)])
    rebuilt = dual_frame(frame).vectors.T @ (frame.vectors @ probes)
    assert float(np.max(np.linalg.norm(rebuilt - probes, axis=0))) <= 1e-10

    frame = random_frame(rng, 16, 32, 1.0, 1e9, declared=True)
    assert dual_frame(frame).declared_bounds == pytest.approx((1e-9, 1.0), rel=1e-6)
    assert proposition1_check(frame, -0.5, 32).passed


def test_proposition1_rejects_non_frame():
    with pytest.raises(NotAFrameError):
        proposition1_check(Frame(2, np.array([[1.0, 0.0]])), -0.5, samples=3)


# ---------------------------------------------------------------------------
# Commuting rescale
# ---------------------------------------------------------------------------


def test_commuting_scale_scalar_multiple():
    frame = demo_frame_2d()
    scaled = commuting_scale(frame, 4.0 * np.eye(2))
    np.testing.assert_allclose(scaled.vectors, 2.0 * frame.vectors, atol=1e-12)
    left = alpha_frame(scaled, -0.5)
    right = alpha_frame(frame, -0.5)
    assert np.max(np.abs(left.vectors - right.vectors)) <= 1e-9


def test_commuting_scale_frame_operator_itself():
    frame = demo_frame_2d()
    scaled = commuting_scale(frame, frame_operator(frame))
    half_power = alpha_frame(frame, 0.5)
    np.testing.assert_allclose(scaled.vectors, half_power.vectors, atol=1e-10)
    left = alpha_frame(scaled, -0.5)
    right = alpha_frame(frame, -0.5)
    assert np.max(np.abs(left.vectors - right.vectors)) <= 1e-9


def test_commuting_scale_identity_noop():
    frame = demo_frame_3d()
    scaled = commuting_scale(frame, np.eye(3))
    np.testing.assert_allclose(scaled.vectors, frame.vectors, atol=1e-12)


def test_commuting_scale_rejects_bad_operators():
    frame = demo_frame_2d()
    with pytest.raises(ValueError, match="commute"):
        commuting_scale(frame, np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        commuting_scale(frame, -np.eye(2))


# ---------------------------------------------------------------------------
# Non-uniqueness of the generating family
# ---------------------------------------------------------------------------


def test_sign_flips_leave_frame_operator_unchanged_exactly():
    rng = np.random.default_rng(71)
    frame = random_frame(rng, 3, 7, 0.5, 2.5)
    op = frame_operator(frame)
    for _ in range(5):
        signs = np.where(rng.random(frame.count) < 0.5, -1.0, 1.0)
        flipped = Frame(frame.dim, frame.vectors * signs[:, None])
        np.testing.assert_array_equal(frame_operator(flipped), op)


def test_distinct_frames_share_operator():
    # Rotating the coefficient space produces a second decomposition of the
    # same operator whose vectors are not sign flips of the originals.
    frame = demo_frame_2d()
    rng = np.random.default_rng(73)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    other = Frame(2, q @ frame.vectors)
    agreement = np.max(np.abs(frame_operator(other) - frame_operator(frame)))
    assert agreement <= 1e-12
    for permutation in itertools.permutations(range(3)):
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            candidate = np.array(
                [signs[i] * frame.vectors[permutation[i]] for i in range(3)]
            )
            assert np.max(np.abs(candidate - other.vectors)) > 1e-6


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------


def test_frame_json_round_trip(tmp_path):
    frame = demo_frame_2d()
    text = frame_to_json(frame)
    parsed = frame_from_dict(json.loads(text))
    np.testing.assert_array_equal(parsed.vectors, frame.vectors)
    assert parsed.declared_bounds == frame.declared_bounds

    path = tmp_path / "frame.json"
    path.write_text(text, encoding="utf-8")
    loaded = load_frame(path)
    np.testing.assert_array_equal(loaded.vectors, frame.vectors)


def test_frame_json_layout():
    # One key per line, each vector list inline, floats with 17 digits.
    assert frame_to_json(demo_frame_2d()) == (
        "{\n"
        '  "dim": 2,\n'
        '  "vectors": [[1, 0], [0, 1], [0.70710678118654746, 0.70710678118654746]],\n'
        '  "bounds": [1, 2]\n'
        "}\n"
    )


def test_frame_json_bounds_optional():
    frame = Frame(2, np.eye(2))
    text = frame_to_json(frame)
    assert "bounds" not in text
    parsed = frame_from_dict(json.loads(text))
    assert parsed.declared_bounds is None


def test_frame_from_dict_validation():
    with pytest.raises(ValueError, match="missing"):
        frame_from_dict({"dim": 2})
    with pytest.raises(ValueError, match="unknown"):
        frame_from_dict({"dim": 2, "vectors": [[1.0, 0.0]], "extra": 1})
    with pytest.raises(ValueError, match="positive integer"):
        frame_from_dict({"dim": 0, "vectors": [[]]})
    with pytest.raises(ValueError, match="list of 2"):
        frame_from_dict({"dim": 2, "vectors": [[1.0, 0.0, 3.0]]})
    with pytest.raises(ValueError, match="two-element"):
        frame_from_dict({"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "bounds": [1.0]})
