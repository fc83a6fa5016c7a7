import csv
import io
import math

import numpy as np
import pytest
from conftest import random_frame

from framecalc import (
    Frame,
    RegimeKind,
    Scheme,
    alpha_frame,
    binomial_bounds,
    binomial_half_coefficients,
    binomial_remainder_norm,
    binomial_tight,
    bound_satisfied,
    demo_frame_2d,
    dual_frame,
    frame_operator,
    log_bound,
    log_dual,
    log_exact_inverse,
    log_regime,
    log_remainder_norm,
    neumann_R,
    neumann_bound,
    neumann_dual,
    operator_norm,
    run_convergence,
    spectral_apply,
    symmetrize,
    write_csv,
    zn_bound,
)

ORTHONORMAL = Frame(3, np.eye(3))


def scaled_demo_frame(factor):
    """Demo frame with vectors scaled by sqrt(factor): spectrum [f, 2f]."""
    base = demo_frame_2d()
    return Frame(2, math.sqrt(factor) * base.vectors)


# ---------------------------------------------------------------------------
# Neumann scheme
# ---------------------------------------------------------------------------


def test_neumann_remainder_reference():
    remainder = neumann_R(demo_frame_2d(), 1.0, 2.0)
    # Oracle: I - (2/3) * [[3, 1], [1, 3]]/2 worked out by hand.
    np.testing.assert_allclose(
        remainder, np.array([[0.0, -1.0 / 3.0], [-1.0 / 3.0, 0.0]]), atol=1e-15
    )
    assert operator_norm(remainder) <= (2.0 - 1.0) / (2.0 + 1.0) + 1e-9


def test_neumann_remainder_tight_frames():
    np.testing.assert_array_equal(neumann_R(ORTHONORMAL, 1.0, 1.0), np.zeros((3, 3)))
    tight = Frame(2, 2.0 * np.eye(2))
    np.testing.assert_allclose(neumann_R(tight, 4.0, 4.0), np.zeros((2, 2)), atol=1e-15)


def test_neumann_remainder_rejects_invalid_bounds():
    with pytest.raises(ValueError, match="do not enclose"):
        neumann_R(demo_frame_2d(), 1.2, 2.0)
    with pytest.raises(ValueError, match="0 < A <= B"):
        neumann_R(demo_frame_2d(), 0.0, 2.0)


def test_neumann_bound_values():
    assert neumann_bound(1.0, 2.0, 0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert neumann_bound(3.0, 3.0, 4) == 0.0
    assert neumann_bound(1.0, 2.0, 5) == pytest.approx((1.0 / 3.0) ** 6, rel=1e-12)
    with pytest.raises(ValueError):
        neumann_bound(1.0, 2.0, -1)


def test_neumann_dual_zeroth_order_scaling():
    frame = demo_frame_2d()
    approx = neumann_dual(frame, 1.0, 2.0, 0)
    np.testing.assert_array_equal(approx.vectors, (2.0 / (1.0 + 2.0)) * frame.vectors)


def test_neumann_dual_tight_frame_is_exact_at_zero():
    tight = Frame(2, 2.0 * np.eye(2))
    approx = neumann_dual(tight, 4.0, 4.0, 0)
    np.testing.assert_allclose(approx.vectors, dual_frame(tight).vectors, atol=1e-14)


def test_neumann_dual_converges_to_dual():
    frame = demo_frame_2d()
    approx = neumann_dual(frame, 1.0, 2.0, 40)
    exact = dual_frame(frame)
    assert np.max(np.abs(approx.vectors - exact.vectors)) <= 1e-8
    np.testing.assert_allclose(approx.vectors[0], [0.75, -0.25], atol=1e-8)


# ---------------------------------------------------------------------------
# Binomial square-root scheme
# ---------------------------------------------------------------------------


def test_binomial_coefficients_against_closed_form():
    # Oracle: C(-1/2, k) = (-1/4)^k * C(2k, k), exact in binary arithmetic.
    coeffs = binomial_half_coefficients(20)
    for k in range(21):
        expected = (-0.25) ** k * math.comb(2 * k, k)
        assert coeffs[k] == pytest.approx(expected, rel=1e-14)


def test_binomial_tight_zeroth_order_scaling():
    frame = demo_frame_2d()
    approx = binomial_tight(frame, 1.0, 2.0, 0)
    np.testing.assert_array_equal(
        approx.vectors, math.sqrt(2.0 / (1.0 + 2.0)) * frame.vectors
    )


def test_binomial_tight_exact_for_tight_frames():
    tight = Frame(2, 2.0 * np.eye(2))
    approx = binomial_tight(tight, 4.0, 4.0, 0)
    np.testing.assert_allclose(approx.vectors, tight.vectors / 2.0, atol=1e-14)


def test_binomial_tight_converges_to_tight_family():
    frame = demo_frame_2d()
    approx = binomial_tight(frame, 1.0, 2.0, 40)
    exact = alpha_frame(frame, -0.5)
    assert np.max(np.abs(approx.vectors - exact.vectors)) <= 1e-8
    np.testing.assert_allclose(approx.vectors[2], [0.5, 0.5], atol=1e-8)


def test_binomial_bounds_values_and_flag():
    for order in range(6):
        bounds = binomial_bounds(1.0, 2.0, order)
        assert bounds.tn_bound == pytest.approx(
            0.5 ** (order + 1) * math.sqrt(1.5), rel=1e-12
        )
        stretch = math.sqrt(2.0)
        expected = stretch * 0.5 ** (order + 1) * (2.0 + stretch * 0.5 ** (order + 1))
        assert bounds.reconstruction_bound == pytest.approx(expected, rel=1e-12)
        assert bounds.convergent
    assert binomial_bounds(2.0, 2.0, 3).tn_bound == 0.0
    assert not binomial_bounds(1.0, 3.0, 3).convergent
    assert binomial_bounds(1.0, 2.99, 3).convergent


def test_binomial_truncation_norm_dominated():
    frame = demo_frame_2d()
    for order in range(11):
        empirical = binomial_remainder_norm(frame, 1.0, 2.0, order)
        assert empirical <= binomial_bounds(1.0, 2.0, order).tn_bound * (1 + 1e-12)
    rng = np.random.default_rng(83)
    other = random_frame(rng, 4, 9, 1.0, 2.5)
    for order in range(11):
        empirical = binomial_remainder_norm(other, 1.0, 2.5, order)
        assert empirical <= binomial_bounds(1.0, 2.5, order).tn_bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Logarithmic scheme
# ---------------------------------------------------------------------------


def test_log_regime_classification():
    regime = log_regime(2.0, 8.0)
    assert regime.kind is RegimeKind.BOUNDS_ABOVE_ONE
    assert regime.contraction == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert regime.log_scale == pytest.approx(math.log(8.0), rel=1e-12)
    assert (regime.shift, regime.base) == (1.0, 8.0)

    regime = log_regime(1.0 / 8.0, 0.5)
    assert regime.kind is RegimeKind.BOUNDS_BELOW_ONE
    assert regime.contraction == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert regime.log_scale == pytest.approx(abs(math.log(1.0 / 8.0)), rel=1e-12)
    assert (regime.shift, regime.base) == (1.0, 1.0 / 8.0)

    regime = log_regime(1.0, 2.0)
    assert regime.kind is RegimeKind.STRADDLING
    assert regime.contraction == pytest.approx(0.5, rel=1e-12)
    assert regime.log_scale == pytest.approx(math.log(4.0), rel=1e-12)
    assert (regime.shift, regime.base) == (2.0, 4.0)

    # Boundary values route to the straddling construction.
    assert log_regime(1.0, 1.0).kind is RegimeKind.STRADDLING
    assert log_regime(0.5, 1.0).kind is RegimeKind.STRADDLING
    assert log_regime(5.0, 5.0).contraction == 1.0


def test_log_exact_inverse_matches_spectral_inverse_in_all_regimes():
    cases = [
        (scaled_demo_frame(2.0), 2.0, 8.0),  # spectrum [2, 4] inside (A, B) above one
        (scaled_demo_frame(0.125), 0.125, 0.5),  # spectrum [1/8, 1/4] below one
        (demo_frame_2d(), 1.0, 2.0),  # straddling
    ]
    for frame, lower, upper in cases:
        found = log_exact_inverse(frame, lower, upper)
        exact = spectral_apply(frame_operator(frame), lambda lam: 1.0 / lam)
        assert operator_norm(symmetrize(found - exact)) <= 1e-9


def test_log_exact_inverse_reference_values():
    found = log_exact_inverse(demo_frame_2d(), 1.0, 2.0)
    np.testing.assert_allclose(
        found, np.array([[3.0, -1.0], [-1.0, 3.0]]) / 4.0, atol=1e-10
    )
    diagonal = Frame(2, np.array([[math.sqrt(2.0), 0.0], [0.0, math.sqrt(8.0)]]))
    found = log_exact_inverse(diagonal, 2.0, 8.0)
    np.testing.assert_allclose(found, np.diag([0.5, 0.125]), atol=1e-12)
    tight = Frame(2, 2.0 * np.eye(2))
    np.testing.assert_allclose(
        log_exact_inverse(tight, 4.0, 4.0), np.eye(2) / 4.0, atol=1e-12
    )


def test_log_dual_zeroth_order_geometric_mean():
    frame = demo_frame_2d()
    approx = log_dual(frame, 1.0, 2.0, 0)
    np.testing.assert_array_equal(
        approx.vectors, (1.0 / math.sqrt(1.0 * 2.0)) * frame.vectors
    )
    tight = Frame(2, 2.0 * np.eye(2))
    np.testing.assert_allclose(
        log_dual(tight, 4.0, 4.0, 0).vectors, dual_frame(tight).vectors, atol=1e-14
    )


def test_log_dual_converges_to_dual():
    frame = demo_frame_2d()
    approx = log_dual(frame, 1.0, 2.0, 40)
    exact = dual_frame(frame)
    assert np.max(np.abs(approx.vectors - exact.vectors)) <= 1e-9


def test_log_and_zn_bounds_never_raise():
    # (N+1)! overflows a float from N = 170; the bounds are summed in logs.
    assert log_bound(1.0, 2.0, 200) == 0.0
    assert zn_bound(1.0, 2.0, 200) == 0.0
    for order in (0, 170, 345, 10_000):
        for bound in (log_bound, zn_bound):
            assert bound(1e-150, 1e150, order) >= 0.0
    assert log_bound(1e-150, 1e150, 345) == math.inf


def test_neumann_and_binomial_bounds_never_raise():
    # 4.5^1001 overflows a float; the powers are summed in logs.
    assert binomial_bounds(1.0, 10.0, 1000) == (math.inf, math.inf, False)
    assert binomial_bounds(1.0, 2.0, 2000) == (0.0, 0.0, True)
    assert binomial_bounds(1.0, 3.0, 10**9).reconstruction_bound == pytest.approx(
        math.sqrt(3.0) * (2.0 + math.sqrt(3.0)), rel=1e-12
    )
    assert neumann_bound(1.0, 2.0, 2000) == 0.0
    assert neumann_bound(1e-150, 1e150, 10**6) == pytest.approx(1.0, rel=1e-12)
    for order in (0, 170, 345, 10_000):
        assert neumann_bound(1.0, 1e300, order) >= 0.0
        bounds = binomial_bounds(1e-150, 1e150, order)
        assert bounds.tn_bound == bounds.reconstruction_bound == math.inf


def test_log_bound_values_and_decay():
    for order in range(5):
        expected = 2.0 * (0.25 * math.log(4.0)) ** (order + 1) / math.factorial(order + 1)
        assert log_bound(1.0, 2.0, order) == pytest.approx(expected, rel=1e-12)
    assert log_bound(3.0, 3.0, 2) == 0.0
    # Factorial decay beats any geometric ratio.
    for order in range(10):
        ratio = log_bound(1.0, 50.0, order + 1) / log_bound(1.0, 50.0, order)
        regime = log_regime(1.0, 50.0)
        radius = (1.0 - regime.contraction) / 2.0 * regime.log_scale
        assert ratio == pytest.approx(radius / (order + 2), rel=1e-9)


def test_log_truncation_norm_dominated_in_all_regimes():
    cases = [
        (scaled_demo_frame(2.0), 2.0, 8.0),
        (scaled_demo_frame(0.125), 0.125, 0.5),
        (demo_frame_2d(), 1.0, 2.0),
    ]
    for frame, lower, upper in cases:
        for order in range(11):
            empirical = log_remainder_norm(frame, lower, upper, order)
            assert empirical <= zn_bound(lower, upper, order) * (1 + 1e-12) + 1e-13


# ---------------------------------------------------------------------------
# Convergence harness
# ---------------------------------------------------------------------------


def test_run_convergence_neumann_reference():
    report = run_convergence(demo_frame_2d(), Scheme.NEUMANN, 1.0, 2.0, 8, 16, 5)
    assert len(report.rows) == 9
    for row in report.rows:
        assert row.analytical_bound == pytest.approx((1.0 / 3.0) ** (row.order + 1), rel=1e-12)
        assert bound_satisfied(row.measured_error, row.analytical_bound)
    bounds = [row.analytical_bound for row in report.rows]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert report.passed


def test_run_convergence_binomial_reference():
    report = run_convergence(demo_frame_2d(), Scheme.BINOMIAL_HALF, 1.0, 2.0, 8, 16, 5)
    for row in report.rows:
        expected = binomial_bounds(1.0, 2.0, row.order).reconstruction_bound
        assert row.analytical_bound == pytest.approx(expected, rel=1e-12)
        assert bound_satisfied(row.measured_error, row.analytical_bound)


def test_run_convergence_logarithmic_reference():
    report = run_convergence(demo_frame_2d(), Scheme.LOGARITHMIC, 1.0, 2.0, 8, 16, 5)
    for row in report.rows:
        assert row.analytical_bound == pytest.approx(log_bound(1.0, 2.0, row.order), rel=1e-12)
        assert bound_satisfied(row.measured_error, row.analytical_bound)


def test_run_convergence_tight_frame_is_immediate():
    tight = Frame(3, 1.5 * np.eye(3))
    for scheme in Scheme:
        report = run_convergence(tight, scheme, 2.25, 2.25, 0, 8, 1)
        assert report.rows[0].measured_error <= 1e-9


def test_run_convergence_refuses_binomial_beyond_three_to_one():
    frame = random_frame(np.random.default_rng(89), 3, 7, 1.0, 3.0)
    with pytest.raises(ValueError, match="B < 3A"):
        run_convergence(frame, Scheme.BINOMIAL_HALF, 1.0, 3.0, 5, 8, 0)


def test_run_convergence_random_sweep_bound_dominance():
    rng = np.random.default_rng(97)
    for ratio in (1.5, 3.0, 10.0, 50.0):
        dim = int(rng.integers(2, 9))
        count = dim + int(rng.integers(2, 8))
        frame = random_frame(rng, dim, count, 1.0, ratio)
        schemes = [Scheme.NEUMANN, Scheme.LOGARITHMIC]
        if ratio < 3.0:
            schemes.append(Scheme.BINOMIAL_HALF)
        for scheme in schemes:
            report = run_convergence(frame, scheme, 1.0, ratio, 10, 24, 7)
            assert report.passed, (scheme, ratio, report.violations())


def test_scheme_agreement_in_the_limit():
    rng = np.random.default_rng(103)
    frame = random_frame(rng, 4, 11, 0.8, 2.0)
    exact_dual = dual_frame(frame)
    assert np.max(np.abs(neumann_dual(frame, 0.8, 2.0, 40).vectors - exact_dual.vectors)) <= 1e-8
    assert np.max(np.abs(log_dual(frame, 0.8, 2.0, 40).vectors - exact_dual.vectors)) <= 1e-8
    exact_tight = alpha_frame(frame, -0.5)
    assert np.max(np.abs(binomial_tight(frame, 0.8, 2.0, 40).vectors - exact_tight.vectors)) <= 1e-8


def test_rate_separation_for_wide_bounds():
    # Factorial versus geometric decay: for B/A = 50 the logarithmic bound
    # reaches 1e-6 at strictly smaller order than the Neumann bound.
    def first_order_below(bound_fn, target=1e-6, cap=2000):
        for order in range(cap):
            if bound_fn(order) <= target:
                return order
        raise AssertionError("bound never reached the target")

    for lower, upper in [(1.0, 50.0), (2.0, 100.0)]:
        n_log = first_order_below(lambda n: log_bound(lower, upper, n))
        n_neumann = first_order_below(lambda n: neumann_bound(lower, upper, n))
        assert n_log < n_neumann


def test_csv_serialization_round_trip():
    report = run_convergence(demo_frame_2d(), Scheme.NEUMANN, 1.0, 2.0, 3, 4, 9)
    buffer = io.StringIO()
    write_csv(report, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "scheme,A,B,N,measured_error,analytical_bound"
    parsed = list(csv.DictReader(io.StringIO(buffer.getvalue())))
    assert len(parsed) == 4
    for entry, row in zip(parsed, report.rows):
        assert entry["scheme"] == "Neumann"
        assert int(entry["N"]) == row.order
        # 17 significant digits round-trip doubles bit-faithfully.
        assert float(entry["measured_error"]) == row.measured_error
        assert float(entry["analytical_bound"]) == row.analytical_bound
