"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
results; any assertion failure marks the criterion FAILED.
"""

import itertools
import math
import time

import numpy as np
import pytest
from conftest import random_frame, random_unit

from framecalc import (
    EigenDecomposition,
    Frame,
    GaborParams,
    Scheme,
    alpha_frame,
    analysis,
    binomial_bounds,
    binomial_remainder_norm,
    demo_frame_2d,
    demo_frame_3d,
    demo_gabor_params,
    dual_frame,
    frame_operator,
    frame_spectrum,
    gabor_probe_signals,
    log_bound,
    log_dual,
    log_exact_inverse,
    neumann_bound,
    proposition1_check,
    reconstruct,
    run_convergence,
    sample_grid,
    spectral_function,
    tightness_check,
    window_g,
)
from framecalc.reference import expected_power_family

SQRT2 = math.sqrt(2.0)


def _report(name):
    print(f"PASS  {name}")


def test_criterion_1_reference_frame_reproduction():
    started = time.perf_counter()
    frame = demo_frame_2d()

    operator = frame_operator(frame)
    np.testing.assert_allclose(operator, np.array([[1.5, 0.5], [0.5, 1.5]]), atol=1e-10)

    decomp = frame_spectrum(frame)
    np.testing.assert_allclose(decomp.eigenvalues, [1.0, 2.0], atol=1e-10)
    expected_vectors = np.column_stack([[1.0, -1.0], [1.0, 1.0]]) / SQRT2
    np.testing.assert_allclose(decomp.eigenvectors, expected_vectors, atol=1e-10)

    for alpha in (-1.0, -0.5, -1.0 / 3.0, -2.0 / 3.0):
        family = alpha_frame(frame, alpha)
        np.testing.assert_allclose(
            family.vectors, expected_power_family(2, alpha), atol=1e-10
        )

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report("criterion 1: 2-d reference frame reproduced to 1e-10")


def test_criterion_2_reference_bound_inequalities():
    frame = demo_frame_2d()
    cases = {
        -1.0: (0.5, 1.0),
        -1.0 / 3.0: (1.0, 2.0 ** (1.0 / 3.0)),
        -2.0 / 3.0: (2.0 ** (-1.0 / 3.0), 1.0),
    }
    for alpha, (lower, upper) in cases.items():
        report = proposition1_check(frame, alpha, samples=100, seed=2024)
        assert report.lower == pytest.approx(lower, abs=1e-12)
        assert report.upper == pytest.approx(upper, abs=1e-12)
        assert report.samples == 102
        assert report.max_lower_violation <= 1e-9
        assert report.max_upper_violation <= 1e-9
        assert report.passed
    _report("criterion 2: 2-d frame-bound inequalities hold with 1e-9 slack")


def test_criterion_3_three_dimensional_reference_frame():
    frame = demo_frame_3d()
    np.testing.assert_allclose(
        frame_operator(frame),
        np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]) / 3.0,
        atol=1e-9,
    )
    decomp = frame_spectrum(frame)
    np.testing.assert_allclose(decomp.eigenvalues, [1.0, 1.0, 2.0], atol=1e-9)

    tight = alpha_frame(frame, -0.5)
    np.testing.assert_allclose(tight.vectors, expected_power_family(3, -0.5), atol=1e-9)
    np.testing.assert_allclose(
        tight.vectors[3], np.full(3, 1.0 / math.sqrt(6.0)), atol=1e-9
    )

    rng = np.random.default_rng(33)
    for _ in range(100):
        f = rng.standard_normal(3)
        total = float(np.sum(analysis(tight, f) ** 2))
        assert abs(total - float(f @ f)) <= 1e-9
    _report("criterion 3: 3-d reference frame and Parseval identity to 1e-9")


def test_criterion_4_power_family_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(4001)
    alphas = (-2.0, -1.0, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 0.5, 1.0)
    for index in range(50):
        dim = int(rng.integers(2, 9))
        count = int(rng.integers(dim, 5 * dim + 1))
        lam_min = float(rng.uniform(0.2, 1.5))
        lam_max = lam_min * float(rng.uniform(1.0, 12.0))
        frame = random_frame(rng, dim, count, lam_min, lam_max)
        assert lam_min > 1e-6

        probes = np.column_stack([random_unit(rng, dim) for _ in range(50)])
        for alpha in alphas:
            family = alpha_frame(frame, alpha)
            partner = alpha_frame(frame, -1.0 - alpha)
            rebuilt = partner.vectors.T @ (family.vectors @ probes)
            worst = float(np.max(np.linalg.norm(rebuilt - probes, axis=0)))
            assert worst <= 1e-9, (index, alpha, worst)

            if alpha == -0.5:
                residual = np.linalg.norm(frame_operator(family) - np.eye(dim), 2)
                assert residual <= 1e-9

            check = proposition1_check(frame, alpha, samples=10, seed=index)
            assert check.passed, (index, alpha, check)

        single = reconstruct(frame, -1.0 / 3.0, probes[:, 0])
        assert np.linalg.norm(single - probes[:, 0]) <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s"
    _report(f"criterion 4: 50-frame power-family suite in {elapsed:.1f}s")


def test_criterion_5_neumann_scheme():
    frame = demo_frame_2d()
    report = run_convergence(frame, Scheme.NEUMANN, 1.0, 2.0, 10, 50, 11)
    for row in report.rows:
        assert row.analytical_bound == pytest.approx(
            (1.0 / 3.0) ** (row.order + 1), rel=1e-12
        )
        assert row.measured_error <= row.analytical_bound + row.floor
    assert report.rows[10].measured_error <= 2e-5

    rng = np.random.default_rng(5002)
    for ratio in (1.5, 3.0, 10.0, 50.0):
        dim = int(rng.integers(2, 9))
        sweep = random_frame(rng, dim, dim + 4, 1.0, ratio)
        result = run_convergence(sweep, Scheme.NEUMANN, 1.0, ratio, 10, 24, 17)
        assert result.passed, (ratio, result.violations())
    _report("criterion 5: Neumann bounds dominate for N <= 10 at all ratios")


def test_criterion_6_binomial_scheme():
    frame = demo_frame_2d()
    report = run_convergence(frame, Scheme.BINOMIAL_HALF, 1.0, 2.0, 10, 50, 13)
    for row in report.rows:
        tail = SQRT2 * 0.5 ** (row.order + 1)
        expected = tail * (2.0 + tail)
        assert row.analytical_bound == pytest.approx(expected, rel=1e-12)
        assert row.measured_error <= row.analytical_bound + row.floor

    for order in range(11):
        empirical = binomial_remainder_norm(frame, 1.0, 2.0, order)
        expected = 0.5 ** (order + 1) * math.sqrt(1.5)
        assert empirical <= expected * (1.0 + 1e-12)
        assert binomial_bounds(1.0, 2.0, order).tn_bound == pytest.approx(
            expected, rel=1e-12
        )

    with pytest.raises(ValueError, match="B < 3A"):
        run_convergence(frame, Scheme.BINOMIAL_HALF, 0.5, 2.0, 5, 8, 0)
    _report("criterion 6: binomial bounds dominate and B >= 3A is refused")


def test_criterion_7_logarithmic_scheme():
    base = demo_frame_2d()
    regime_cases = [
        (Frame(2, SQRT2 * base.vectors), 2.0, 8.0),  # spectrum [2, 4], bounds above one
        (Frame(2, base.vectors / math.sqrt(8.0)), 1.0 / 8.0, 0.5),  # spectrum [1/8, 1/4]
        (base, 1.0, 2.0),  # straddling
    ]
    for frame, lower, upper in regime_cases:
        inverse = log_exact_inverse(frame, lower, upper)
        spectrum = EigenDecomposition(*np.linalg.eigh(frame_operator(frame)))
        exact = spectral_function(spectrum, lambda lam: 1.0 / lam)
        assert np.linalg.norm(inverse - exact, 2) <= 1e-9

        report = run_convergence(frame, Scheme.LOGARITHMIC, lower, upper, 10, 24, 19)
        assert report.passed, (lower, upper, report.violations())

        zeroth = log_dual(frame, lower, upper, 0)
        scale = 1.0 / math.sqrt(lower * upper)
        np.testing.assert_array_equal(zeroth.vectors, scale * frame.vectors)

    def first_order_below(bound_fn, target=1e-6, cap=2000):
        for order in range(cap):
            if bound_fn(order) <= target:
                return order
        raise AssertionError("bound never reached the target")

    n_log = first_order_below(lambda n: log_bound(1.0, 50.0, n))
    n_neumann = first_order_below(lambda n: neumann_bound(1.0, 50.0, n))
    assert n_log < n_neumann
    _report(
        "criterion 7: logarithmic scheme exact, dominated, and faster "
        f"(bound reaches 1e-6 at N={n_log} vs Neumann N={n_neumann})"
    )


def test_criterion_8_tight_window_demo():
    started = time.perf_counter()
    params = demo_gabor_params()

    edge = math.pi / params.p0
    outside = np.concatenate(
        [np.linspace(-4 * edge, -edge, 300), np.linspace(edge, 4 * edge, 300)]
    )
    np.testing.assert_array_equal(window_g(outside, params), np.zeros(600))

    xs = np.linspace(-5.0 * params.q0, 5.0 * params.q0, 10_000)
    partition = np.zeros_like(xs)
    for k in range(-8, 9):
        partition += window_g(xs - k * params.q0, params) ** 2
    assert np.max(np.abs(partition - 1.0 / params.q0)) <= 1e-10 * (1.0 / params.q0)

    target = 2.0 * math.pi / (params.p0 * params.q0)
    for signal in gabor_probe_signals(params, count=5, seed=88):
        report = tightness_check(signal, params)
        assert report.target == pytest.approx(target, rel=1e-15)
        assert report.relative_error <= 0.01
        assert not report.truncation_warning

    gain = math.sqrt(params.p0 * params.q0 / (2.0 * math.pi))
    rescaled = tightness_check(window_g(sample_grid(params), params), params, window_gain=gain)
    assert rescaled.ratio == pytest.approx(1.0, abs=1e-9)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.2f}s"
    _report(f"criterion 8: window support, partition, tightness in {elapsed:.1f}s")


def test_criterion_9_duality_involution_and_non_uniqueness():
    rng = np.random.default_rng(9003)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        frame = random_frame(rng, dim, dim + int(rng.integers(1, 9)), 0.4, 4.0)
        again = dual_frame(dual_frame(frame))
        assert np.max(np.abs(again.vectors - frame.vectors)) <= 1e-9

        operator = frame_operator(frame)
        signs = np.where(rng.random(frame.count) < 0.5, -1.0, 1.0)
        flipped = Frame(frame.dim, frame.vectors * signs[:, None])
        np.testing.assert_array_equal(frame_operator(flipped), operator)

    base = demo_frame_2d()
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    other = Frame(2, q @ base.vectors)
    assert np.max(np.abs(frame_operator(other) - frame_operator(base))) <= 1e-12
    for permutation in itertools.permutations(range(3)):
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            candidate = np.array(
                [signs[i] * base.vectors[permutation[i]] for i in range(3)]
            )
            assert np.max(np.abs(candidate - other.vectors)) > 1e-6
    _report("criterion 9: duality involution, sign-flip invariance, distinct pair")
