import csv
import io
import math
import sys

import numpy as np
import pytest
from conftest import random_frame

from framecalc import (
    EigenDecomposition,
    Frame,
    NotAFrameError,
    Scheme,
    alpha_frame,
    binomial_bounds,
    binomial_remainder_norm,
    binomial_tight,
    demo_frame_2d,
    demo_frame_3d,
    dual_frame,
    frame_operator,
    frame_spectrum,
    log_bound,
    log_dual,
    log_exact_inverse,
    log_remainder_norm,
    neumann_bound,
    neumann_dual,
    optimal_bounds,
    run_convergence,
    spectral_function,
    write_csv,
    zn_bound,
)
from framecalc.approx import _RULES, _floor, _inverse_geometric_mean, _log_generator, _neumann_generator

ORTHONORMAL = Frame(3, np.eye(3))


def scaled_demo_frame(factor):
    """Demo frame with vectors scaled by sqrt(factor): spectrum [f, 2f]."""
    base = demo_frame_2d()
    return Frame(2, math.sqrt(factor) * base.vectors)


# ---------------------------------------------------------------------------
# Neumann scheme
# ---------------------------------------------------------------------------


def neumann_remainder(frame, lower, upper):
    """R = I - (2/(A+B)) S, the operator whose powers the Neumann series sums."""
    return spectral_function(frame_spectrum(frame), _neumann_generator(lower, upper))


def test_neumann_remainder_reference():
    remainder = neumann_remainder(demo_frame_2d(), 1.0, 2.0)
    # Oracle: I - (2/3) * [[3, 1], [1, 3]]/2 worked out by hand.
    np.testing.assert_allclose(
        remainder, np.array([[0.0, -1.0 / 3.0], [-1.0 / 3.0, 0.0]]), atol=1e-15
    )
    assert np.linalg.norm(remainder, 2) <= (2.0 - 1.0) / (2.0 + 1.0) + 1e-9


def test_neumann_remainder_tight_frames():
    np.testing.assert_array_equal(neumann_remainder(ORTHONORMAL, 1.0, 1.0), np.zeros((3, 3)))
    tight = Frame(2, 2.0 * np.eye(2))
    np.testing.assert_allclose(neumann_remainder(tight, 4.0, 4.0), np.zeros((2, 2)), atol=1e-15)


# Every entry point of the approx layer that takes a frame and its bounds.
BOUNDED_ENTRY_POINTS = {
    "neumann_dual": lambda frame, a, b: neumann_dual(frame, a, b, 2),
    "binomial_tight": lambda frame, a, b: binomial_tight(frame, a, b, 2),
    "log_dual": lambda frame, a, b: log_dual(frame, a, b, 2),
    "run_convergence": lambda frame, a, b: run_convergence(frame, Scheme.NEUMANN, a, b, 2, 4, 0),
    "log_exact_inverse": log_exact_inverse,
    "binomial_remainder_norm": lambda frame, a, b: binomial_remainder_norm(frame, a, b, 2),
    "log_remainder_norm": lambda frame, a, b: log_remainder_norm(frame, a, b, 2),
}


@pytest.mark.parametrize("entry", BOUNDED_ENTRY_POINTS)
def test_every_bounded_entry_point_refuses_invalid_bounds(entry):
    call = BOUNDED_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="do not enclose"):
        call(demo_frame_2d(), 1.2, 2.0)
    # kappa(S) = 1e14: bounds that enclose the spectrum do not make it a frame.
    with pytest.raises(NotAFrameError, match="not a frame"):
        call(Frame(2, np.array([[1.0, 0.0], [0.0, 1e-7]])), 1e-14, 1.0)
    with pytest.raises(ValueError, match="0 < A <= B"):
        call(demo_frame_2d(), 0.0, 2.0)


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
    # The series sums (-1)^k C(-1/2, k) R^k, whose coefficients are the running
    # products of the rule's weights. Oracle: (-1)^k C(-1/2, k) = C(2k, k)/4^k.
    weight = _RULES[Scheme.BINOMIAL_HALF].weight
    coeff = 1.0
    for k in range(1, 21):
        coeff *= weight(k)
        assert coeff == pytest.approx(math.comb(2 * k, k) / 4.0**k, rel=1e-14)


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


def paper_log_construction(lower, upper):
    """The paper's three constructions of R_log, kept here as the reference.

    Returns (shift, base, s, L): logarithms are taken of shift * S to the base,
    s is the log to that base of the shifted bound nearest one, and L = |ln base|.
    Bounds on one route to the straddling construction.
    """
    if lower > 1.0:
        shift, base, near = 1.0, upper, lower
    elif upper < 1.0:
        shift, base, near = 1.0, lower, upper
    else:
        shift, base, near = 2.0 / lower, 2.0 * upper / lower, 2.0
    log_base = math.log(base)
    return shift, base, math.log(near) / log_base, abs(log_base)


def paper_radius(lower, upper):
    """(1-s) L / 2, the norm bound of the paper's generator."""
    _, _, contraction, log_scale = paper_log_construction(lower, upper)
    return (1.0 - contraction) / 2.0 * log_scale


def test_log_scheme_matches_the_paper_regimes():
    # Above, below and straddling one; both boundaries; a tight pair; a wide one.
    cases = [(2.0, 8.0), (0.125, 0.5), (1.0, 2.0), (1.0, 1.0), (0.5, 1.0), (5.0, 5.0), (1e-3, 1e5)]
    for lower, upper in cases:
        shift, base, contraction, log_scale = paper_log_construction(lower, upper)
        prefactor = math.log(base) * (1.0 + contraction) / 2.0
        generator = _log_generator(lower, upper)
        for lam in (lower, upper, math.sqrt(lower * upper)):
            expected = prefactor - math.log(shift * lam)
            # At sqrt(AB) both are 0 up to rounding, so a relative test needs a floor.
            assert math.isclose(generator(lam), expected, rel_tol=1e-12, abs_tol=1e-12), lam
        radius = paper_radius(lower, upper)
        for order in range(6):
            tail = radius ** (order + 1) / math.factorial(order + 1)
            assert log_bound(lower, upper, order) == pytest.approx(
                upper / lower * tail, rel=1e-12
            )
            assert zn_bound(lower, upper, order) == pytest.approx(
                math.sqrt(upper / lower) * tail, rel=1e-12
            )
    assert log_bound(5.0, 5.0, 0) == zn_bound(5.0, 5.0, 0) == 0.0


def test_log_scale_is_exact_and_never_overflows():
    # The order-0 factor 1/sqrt(AB) is bit for bit the naive one wherever A*B
    # is a normal float, and stays finite where A*B overflows or underflows.
    rng = np.random.default_rng(107)
    for lower, ratio in zip(np.exp(rng.uniform(-300, 300, 500)), np.exp(rng.uniform(0, 20, 500))):
        lower, upper = float(lower), float(lower * ratio)
        if sys.float_info.min <= lower * upper < math.inf:
            assert _inverse_geometric_mean(lower, upper) == 1.0 / math.sqrt(lower * upper)
    for factor in (1e100, 1e-100):
        frame = scaled_demo_frame(factor**2)  # spectrum [f^2, 2 f^2]
        lower, upper = factor**2, 2.0 * factor**2
        found = log_exact_inverse(frame, lower, upper)
        spectrum = EigenDecomposition(*np.linalg.eigh(frame_operator(frame)))
        exact = spectral_function(spectrum, lambda lam: 1.0 / lam)
        assert np.linalg.norm(found - exact, 2) <= 1e-12 * np.linalg.norm(exact, 2)


def test_midpoint_forms_are_bit_identical_to_the_sums():
    # (A+B)/2 replaces A+B and 2A: exact halving keeps every value bit for bit
    # wherever the direct forms do not overflow.
    rng = np.random.default_rng(109)
    for lower, ratio in zip(np.exp(rng.uniform(-690, 690, 500)), np.exp(rng.uniform(0, 2.5, 500))):
        lower, upper = float(lower), float(lower * ratio)
        if upper == lower or upper + lower == math.inf:
            continue
        lam = float(rng.uniform(lower, upper))
        assert _neumann_generator(lower, upper)(lam) == 1.0 - (2.0 / (lower + upper)) * lam
        assert _RULES[Scheme.NEUMANN].scale(lower, upper) == 2.0 / (lower + upper)
        assert _RULES[Scheme.BINOMIAL_HALF].scale(lower, upper) == math.sqrt(2.0 / (lower + upper))
        for order in (0, 3, 40):
            assert neumann_bound(lower, upper, order) == math.exp(
                (order + 1) * math.log((upper - lower) / (upper + lower))
            )
            log_power = (order + 1) * math.log((upper - lower) / (2.0 * lower))
            tn = math.exp(log_power + 0.5 * math.log((lower + upper) / (2.0 * lower)))
            head = math.exp(log_power + 0.5 * math.log(upper / lower))
            assert binomial_bounds(lower, upper, order)[:2] == (tn, head * (2.0 + head))


def test_log_exact_inverse_matches_spectral_inverse_in_all_regimes():
    cases = [
        (scaled_demo_frame(2.0), 2.0, 8.0),  # spectrum [2, 4] inside (A, B) above one
        (scaled_demo_frame(0.125), 0.125, 0.5),  # spectrum [1/8, 1/4] below one
        (demo_frame_2d(), 1.0, 2.0),  # straddling
    ]
    for frame, lower, upper in cases:
        found = log_exact_inverse(frame, lower, upper)
        spectrum = EigenDecomposition(*np.linalg.eigh(frame_operator(frame)))
        exact = spectral_function(spectrum, lambda lam: 1.0 / lam)
        assert np.linalg.norm(found - exact, 2) <= 1e-9


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


# Orders from 2^53, where floats stop holding every integer, to past the float range.
LARGE_ORDERS = (2**53, 3 * 10**305, 2**1024 - 1, 2**1024, 10**400)


def test_log_and_zn_bounds_never_raise():
    # (N+1)! overflows a float from N = 170; the bounds are summed in logs.
    assert log_bound(1.0, 2.0, 200) == 0.0
    assert zn_bound(1.0, 2.0, 200) == 0.0
    for order in (0, 170, 345, 10_000):
        for bound in (log_bound, zn_bound):
            assert bound(1e-150, 1e150, order) >= 0.0
    assert log_bound(1e-150, 1e150, 345) == math.inf
    # B/A past the float range still has a finite log, so a high order is 0.0.
    for lower, upper in ((1e-300, 1e300), (1e-160, 1e160)):
        for bound in (log_bound, zn_bound):
            assert bound(lower, upper, 10**6) == 0.0
    # Past the float range of N + 1 (and of lgamma, from N near 2.5e305) each
    # bound is its N -> inf value.
    for order in LARGE_ORDERS:
        for bound in (log_bound, zn_bound):
            assert bound(1.0, 2.0, order) == bound(1e-150, 1e150, order) == 0.0


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
    # N + 1 past 2^1024 is no float; the bounds still take their N -> inf
    # value: 0.0 below ratio one, inf above it and the constant at one.
    for order in LARGE_ORDERS:
        assert neumann_bound(1.0, 2.0, order) == 0.0
        assert neumann_bound(1e-150, 1e150, order) == pytest.approx(1.0, rel=1e-12)
        assert binomial_bounds(1.0, 2.0, order) == (0.0, 0.0, True)
        assert binomial_bounds(1.0, 10.0, order) == (math.inf, math.inf, False)
        assert binomial_bounds(1.0, 3.0, order) == binomial_bounds(1.0, 3.0, 10**9)


def test_log_bound_values_and_decay():
    for order in range(5):
        expected = 2.0 * (0.25 * math.log(4.0)) ** (order + 1) / math.factorial(order + 1)
        assert log_bound(1.0, 2.0, order) == pytest.approx(expected, rel=1e-12)
    assert log_bound(3.0, 3.0, 2) == 0.0
    # Factorial decay beats any geometric ratio.
    for order in range(10):
        ratio = log_bound(1.0, 50.0, order + 1) / log_bound(1.0, 50.0, order)
        radius = paper_radius(1.0, 50.0)
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
        assert row.measured_error <= row.analytical_bound + row.floor
    bounds = [row.analytical_bound for row in report.rows]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert report.passed


def test_run_convergence_binomial_reference():
    report = run_convergence(demo_frame_2d(), Scheme.BINOMIAL_HALF, 1.0, 2.0, 8, 16, 5)
    for row in report.rows:
        expected = binomial_bounds(1.0, 2.0, row.order).reconstruction_bound
        assert row.analytical_bound == pytest.approx(expected, rel=1e-12)
        assert row.measured_error <= row.analytical_bound + row.floor


def test_run_convergence_logarithmic_reference():
    report = run_convergence(demo_frame_2d(), Scheme.LOGARITHMIC, 1.0, 2.0, 8, 16, 5)
    for row in report.rows:
        assert row.analytical_bound == pytest.approx(log_bound(1.0, 2.0, row.order), rel=1e-12)
        assert row.measured_error <= row.analytical_bound + row.floor


def test_run_convergence_tight_frame_is_immediate():
    tight = Frame(3, 1.5 * np.eye(3))
    for scheme in Scheme:
        report = run_convergence(tight, scheme, 2.25, 2.25, 0, 8, 1)
        assert report.rows[0].measured_error <= 1e-9


def test_run_convergence_refuses_binomial_beyond_three_to_one():
    frame = random_frame(np.random.default_rng(89), 3, 7, 1.0, 3.0)
    with pytest.raises(ValueError, match="B < 3A"):
        run_convergence(frame, Scheme.BINOMIAL_HALF, 1.0, 3.0, 5, 8, 0)


@pytest.mark.parametrize("samples", [-1, 2.5, True, "3"])
def test_run_convergence_refuses_samples_that_are_not_a_non_negative_integer(samples):
    frame = random_frame(np.random.default_rng(89), 3, 7, 1.0, 2.0)
    with pytest.raises(ValueError, match="samples must be a non-negative integer"):
        run_convergence(frame, Scheme.NEUMANN, 1.0, 2.0, 5, samples, 0)


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


# ---------------------------------------------------------------------------
# Rounding floor of the convergence verdict
# ---------------------------------------------------------------------------


def test_demo_floors_stay_below_the_old_absolute_slack():
    # A verdict on the demo frames is no looser than the fixed 1e-13 it replaced.
    for frame in (demo_frame_2d(), demo_frame_3d()):
        for scheme in Scheme:
            report = run_convergence(frame, scheme, 1.0, 2.0, 10, 16, 5)
            assert all(0.0 < row.floor < 1e-13 for row in report.rows), (frame.dim, scheme)


def wide_frame(rng, ratio):
    """A frame with n in {4, 8, 16, 32} and 2n vectors whose frame-operator
    spectrum has ends 1 and ``ratio`` and random interior points, rotated by
    random orthonormal factors."""
    dim = int(rng.choice([4, 8, 16, 32]))
    spectrum = np.concatenate([[1.0, ratio], rng.uniform(1.0, ratio, dim - 2)])
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    analysis, _ = np.linalg.qr(rng.standard_normal((2 * dim, dim)))
    return Frame(dim, (analysis * np.sqrt(spectrum)) @ basis.T)


def test_wide_ratio_sweep_holds_on_bound_plus_floor():
    # Logarithmic rows reach the rounding floor of their measured error once
    # the bound falls below it, which wide B/A makes about (B/A) * eps; the
    # Neumann and BinomialHalf sweeps pin the rows that hold without it.
    rng = np.random.default_rng(11)
    sweeps = [(Scheme.LOGARITHMIC, 120, 120, lambda: 10.0 ** rng.uniform(0.5, 8.0))]
    sweeps.append((Scheme.NEUMANN, 40, 200, lambda: 10.0 ** rng.uniform(0.1, 3.0)))
    sweeps.append((Scheme.BINOMIAL_HALF, 40, 120, lambda: rng.uniform(1.05, 2.9)))
    for scheme, frames, n_max, draw_ratio in sweeps:
        failed, floored, worst = 0, 0, 0.0
        for _ in range(frames):
            frame = wide_frame(rng, draw_ratio())
            report = run_convergence(frame, scheme, *optimal_bounds(frame), n_max, 32, 11)
            failed += not report.passed
            for row in report.rows:
                floored += row.measured_error > row.analytical_bound
                worst = max(worst, (row.measured_error - row.analytical_bound) / row.floor)
        print(f"{scheme.value}: {failed} of {frames} reports fail; worst (measured - bound)/floor {worst:.3f}")
        assert failed == 0
        if scheme is Scheme.LOGARITHMIC:
            assert floored > 0


def binomial_half_coefficient(k):
    """(-1)^k C(-1/2, k), the k-th Taylor coefficient of (1 - x)^(-1/2)."""
    return (-1) ** k * math.prod(-0.5 - j for j in range(k)) / math.factorial(k)


# Each scheme's series coefficient c_k and scale s: its order-N family is
# s * sum_(k <= N) c_k G^k phi_i for its generator G, a function of S.
SERIES = {
    Scheme.NEUMANN: (lambda k: 1.0, lambda a, b: 2.0 / (a + b)),
    Scheme.BINOMIAL_HALF: (binomial_half_coefficient, lambda a, b: math.sqrt(2.0 / (a + b))),
    Scheme.LOGARITHMIC: (lambda k: 1.0 / math.factorial(k), lambda a, b: 1.0 / math.sqrt(a * b)),
}


def polynomial_errors(frame, scheme, lower, upper, n_max):
    """Per order N = 0..n_max, the worst reconstruction error and the truncation
    norm from the scheme's scalar series on the eigenvalues of S, with p_N the
    order-N series, g the generator and s the scale. The error is the largest
    |1 - s p_N(g) lam| for a dual, which pairs with the frame, and
    |1 - (s p_N(g))^2 lam| for the tight family, which pairs with itself; the
    norm is the largest |lam^power / s - p_N(g)|, power -1/2 for the tight family
    and -1 for a dual."""
    lam = frame_spectrum(frame).eigenvalues
    g = _RULES[scheme].generator(lower, upper)(lam)
    coefficient, scale = SERIES[scheme]
    power = -0.5 if scheme is Scheme.BINOMIAL_HALF else -1.0
    partial = np.zeros_like(lam)
    for order in range(n_max + 1):
        partial = partial + coefficient(order) * g**order
        family = scale(lower, upper) * partial
        gain = family**2 if scheme is Scheme.BINOMIAL_HALF else family
        truncation = lam**power / scale(lower, upper) - partial
        yield float(np.max(np.abs(1.0 - gain * lam))), float(np.max(np.abs(truncation)))


# The truncation norm of each scheme that reports one; every BinomialHalf frame
# below has B < 3A.
TRUNCATION_NORMS = {Scheme.BINOMIAL_HALF: binomial_remainder_norm, Scheme.LOGARITHMIC: log_remainder_norm}


def test_error_polynomials_on_the_spectrum_give_the_measured_errors():
    # The probes include every eigenvector, so the measured error is the
    # largest |1 - gain(lam)| on the spectrum, up to the rounding its row's
    # floor bounds. A truncation norm is the largest gap between lam^power / s
    # and the series on the spectrum, up to its floor with no product (count 0).
    rng = np.random.default_rng(11)
    ratios = {
        Scheme.NEUMANN: lambda: 10.0 ** rng.uniform(0.1, 3.0),
        Scheme.BINOMIAL_HALF: lambda: rng.uniform(1.05, 2.9),
        Scheme.LOGARITHMIC: lambda: 10.0 ** rng.uniform(0.5, 8.0),
    }
    for scheme, draw_ratio in ratios.items():
        for frame in [demo_frame_2d(), demo_frame_3d()] + [wide_frame(rng, draw_ratio()) for _ in range(8)]:
            lower, upper = optimal_bounds(frame)
            rows = run_convergence(frame, scheme, lower, upper, 40, 32, 11).rows
            for row, (error, gap) in zip(rows, polynomial_errors(frame, scheme, lower, upper, 40), strict=True):
                assert abs(row.measured_error - error) <= row.floor, (scheme, frame.dim, row.order)
                if scheme in TRUNCATION_NORMS:
                    norm = TRUNCATION_NORMS[scheme](frame, lower, upper, row.order)
                    floor = _floor(scheme, lower, upper, row.order, frame, 0)
                    assert abs(norm - gap) <= floor, (scheme, frame.dim, row.order)


DENSE_FAMILIES = {Scheme.NEUMANN: neumann_dual, Scheme.BINOMIAL_HALF: binomial_tight, Scheme.LOGARITHMIC: log_dual}


def dense_error(frame, scheme, lower, upper, order):
    """The worst reconstruction error of the scheme's dense order-N family on
    the eigenvectors of S: a dual pairs with the frame, the tight family with
    itself."""
    family = DENSE_FAMILIES[scheme](frame, lower, upper, order).vectors
    partner = family if scheme is Scheme.BINOMIAL_HALF else frame.vectors
    probes = frame_spectrum(frame).eigenvectors
    return float(np.max(np.linalg.norm(family.T @ (partner @ probes) - probes, axis=0)))


def test_dense_families_reconstruct_with_the_measured_errors():
    # run_convergence reads each order's error off the error polynomial on S's
    # spectrum; the families that neumann_dual, log_dual and binomial_tight build
    # are dense, and on S's eigenvectors they reconstruct with that error, up to
    # the row's floor. A defect in one row of a family shows here.
    rng = np.random.default_rng(13)
    ratios = {
        Scheme.NEUMANN: lambda: 10.0 ** rng.uniform(0.1, 3.0),
        Scheme.BINOMIAL_HALF: lambda: rng.uniform(1.05, 2.9),
        Scheme.LOGARITHMIC: lambda: 10.0 ** rng.uniform(0.5, 8.0),
    }
    for scheme, draw_ratio in ratios.items():
        worst = 0.0
        for frame in [demo_frame_2d(), demo_frame_3d()] + [wide_frame(rng, draw_ratio()) for _ in range(4)]:
            lower, upper = optimal_bounds(frame)
            for row in run_convergence(frame, scheme, lower, upper, 40, 32, 11).rows:
                gap = abs(dense_error(frame, scheme, lower, upper, row.order) - row.measured_error)
                assert gap <= row.floor, (scheme, frame.dim, row.order, gap / row.floor)
                worst = max(worst, gap / row.floor)
        print(f"{scheme.value}: worst |dense - measured| / floor {worst:.3f}")


def caught_orders(monkeypatch, frame, scheme, rule):
    """Orders at which a run with ``rule`` substituted for the scheme's measures
    past its bound plus its floor, and past its bound plus 100 times its floor."""
    with monkeypatch.context() as patch:
        patch.setitem(_RULES, scheme, rule)
        rows = run_convergence(frame, scheme, 1.0, 2.0, 10, 16, 5).rows
    return [{row.order for row in rows if row.measured_error > row.analytical_bound + scale * row.floor}
            for scale in (1.0, 100.0)]


# Orders at which one series weight, scaled by 1 + 1e-6 at k = 1 or 3, must be
# caught: Neumann's odd orders from k on, Logarithmic's orders from 6 (7 for k = 3).
NUDGED_WEIGHT_CAUGHT = {
    (Scheme.NEUMANN, 1): {1, 3, 5, 7, 9},
    (Scheme.NEUMANN, 3): {3, 5, 7, 9},
    (Scheme.LOGARITHMIC, 1): {6, 7, 8, 9, 10},
    (Scheme.LOGARITHMIC, 3): {7, 8, 9, 10},
}


def test_mutated_rules_are_caught_through_the_floor(monkeypatch):
    # A floor that swallowed real defects would hide these; they stay caught at
    # 100 times the floor. BinomialHalf's nudged weight is not caught on the
    # demo frames at any floor, because its h(2+h) bound is loose there.
    logarithmic = _RULES[Scheme.LOGARITHMIC]
    factorial = logarithmic._replace(bound=lambda a, b, n: log_bound(a, b, n) / (n + 2))
    for frame in (demo_frame_2d(), demo_frame_3d()):
        for caught in caught_orders(monkeypatch, frame, Scheme.LOGARITHMIC, factorial):
            assert {0, 1, 2, 3} <= caught, (frame.dim, sorted(caught))
        for (scheme, k), expected in NUDGED_WEIGHT_CAUGHT.items():
            weight = _RULES[scheme].weight
            nudged = _RULES[scheme]._replace(weight=lambda j: weight(j) * (1.0 + 1e-6 * (j == k)))
            for caught in caught_orders(monkeypatch, frame, scheme, nudged):
                assert expected <= caught, (frame.dim, scheme, k, sorted(caught))


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
