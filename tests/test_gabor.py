import math
import tracemalloc

import numpy as np
import pytest

from framecalc import (
    GaborParams,
    demo_gabor_params,
    gabor_probe_signals,
    sample_grid,
    smooth_nu,
    tightness_check,
    weyl_heisenberg_apply,
    window_g,
)
from framecalc.gabor import TAIL_FRACTION, TIGHTNESS_RTOL, TightnessReport


def test_smooth_nu_boundary_values():
    assert smooth_nu(-1.0) == 0.0
    assert smooth_nu(0.0) == 0.0
    assert smooth_nu(1.0) == 1.0
    assert smooth_nu(2.0) == 1.0
    assert smooth_nu(0.5) == pytest.approx(0.5, abs=1e-15)


def test_smooth_nu_monotone_and_bounded():
    xs = np.linspace(-0.5, 1.5, 4001)
    values = smooth_nu(xs)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) >= 0.0)


def test_params_validation():
    with pytest.raises(ValueError, match="no frame"):
        GaborParams(p0=1.0, q0=7.0)  # q0 >= 2*pi/p0
    with pytest.raises(ValueError, match="degenerate window"):
        GaborParams(p0=1.0, q0=2.0)  # q0 < pi/p0
    with pytest.raises(ValueError, match="positive"):
        GaborParams(p0=-1.0, q0=4.0)
    params = demo_gabor_params()
    assert params.grid_step == params.q0 / 64.0
    assert params.grid_halfwidth == 12.0 * params.q0
    assert params.transition_width == pytest.approx(2.0 * math.pi - 4.0)
    assert params.shift_order >= 12


def test_window_support_is_exact():
    params = demo_gabor_params()
    edge = math.pi / params.p0
    outside = np.array([-edge - 2.0, -edge, edge, edge + 0.5, 40.0])
    np.testing.assert_array_equal(window_g(outside, params), np.zeros(5))


def test_window_plateau_and_shape():
    params = demo_gabor_params()
    scale = 1.0 / math.sqrt(params.q0)
    assert window_g(0.0, params) == scale
    edge = math.pi / params.p0
    width = params.transition_width
    xs = np.linspace(-edge + width, edge - width, 101)
    np.testing.assert_array_equal(window_g(xs, params), np.full(101, scale))
    inside = np.linspace(-edge + 1e-6, edge - 1e-6, 2001)
    values = window_g(inside, params)
    assert np.all(values >= 0.0) and np.all(values <= scale + 1e-15)


def test_partition_of_unity():
    for p0, q0 in [(1.0, 4.0), (math.pi, 1.2), (2.0, 2.5)]:
        params = GaborParams(p0=p0, q0=q0)
        xs = np.linspace(-5.0 * q0, 5.0 * q0, 10_000)
        shifts = range(-9, 10)
        total = np.zeros_like(xs)
        for k in shifts:
            total += window_g(xs - k * q0, params) ** 2
        assert np.max(np.abs(total - 1.0 / q0)) <= 1e-10 / q0


def test_weyl_heisenberg_identity_and_shift():
    params = demo_gabor_params()
    grid = sample_grid(params)
    signal = window_g(grid, params)
    same = weyl_heisenberg_apply(signal, 0, 0, params)
    np.testing.assert_array_equal(same, signal.astype(complex))
    shifted = weyl_heisenberg_apply(signal, 0, 1, params)
    steps = int(round(params.q0 / params.grid_step))
    np.testing.assert_array_equal(shifted[steps:], signal[:-steps].astype(complex))
    np.testing.assert_array_equal(shifted[:steps], np.zeros(steps, dtype=complex))


def test_weyl_heisenberg_unitary_on_interior_support():
    params = demo_gabor_params()
    grid = sample_grid(params)
    signal = window_g(grid, params)
    norm_sq = np.sum(np.abs(signal) ** 2)
    for m, n in [(0, 0), (3, 0), (0, 2), (-5, -3), (17, 4)]:
        moved = weyl_heisenberg_apply(signal, m, n, params)
        assert np.sum(np.abs(moved) ** 2) == pytest.approx(norm_sq, rel=1e-12)


def test_weyl_heisenberg_rejects_off_grid_translation():
    params = GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 63.5)
    grid = sample_grid(params)
    with pytest.raises(ValueError, match="integer multiple"):
        weyl_heisenberg_apply(np.zeros_like(grid), 0, 1, params)


def test_tightness_on_window_and_probes():
    params = demo_gabor_params()
    target = 2.0 * math.pi / (params.p0 * params.q0)
    report = tightness_check(window_g(sample_grid(params), params), params)
    assert report.target == pytest.approx(target, rel=1e-15)
    assert report.relative_error <= 0.01
    assert not report.truncation_warning
    for signal in gabor_probe_signals(params, count=5, seed=3):
        report = tightness_check(signal, params)
        assert report.relative_error <= 0.01
        assert not report.truncation_warning


def test_tightness_canonical_rescale():
    params = demo_gabor_params()
    gain = math.sqrt(params.p0 * params.q0 / (2.0 * math.pi))
    report = tightness_check(window_g(sample_grid(params), params), params, window_gain=gain)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)
    assert report.target == pytest.approx(1.0, abs=1e-12)


def test_tightness_truncation_warning_for_tiny_mod_order():
    params = GaborParams(p0=1.0, q0=4.0, mod_order=1)
    grid = sample_grid(params)
    narrow = np.exp(-(grid**2) / (2.0 * 0.3**2))
    report = tightness_check(narrow, params)
    assert report.truncation_warning
    assert report.relative_error > 0.01


def test_tightness_report_passed_gate():
    assert TightnessReport(1.0, 1.0, TIGHTNESS_RTOL, False).passed
    assert not TightnessReport(1.0, 1.0, 1.5 * TIGHTNESS_RTOL, False).passed
    assert not TightnessReport(1.0, 1.0, 0.0, True).passed
    params = demo_gabor_params()
    assert tightness_check(window_g(sample_grid(params), params), params).passed


def test_tightness_negative_control_quadrature_floor():
    # The 1% gate is not vacuous: quadrature noise sits well above 1e-15,
    # so an ultra-tight tolerance would demonstrably fail.
    params = demo_gabor_params()
    report = tightness_check(window_g(sample_grid(params), params), params)
    assert report.relative_error > 1e-15
    assert report.relative_error <= 0.01


def test_tightness_rejects_zero_signal_and_bad_shape():
    params = demo_gabor_params()
    with pytest.raises(ValueError, match="positive energy"):
        tightness_check(np.zeros_like(sample_grid(params)), params)
    with pytest.raises(ValueError, match="samples"):
        tightness_check(np.zeros(7), params)


def _full_grid_tightness(signal, params, gain=1.0):
    """The full-grid form of the check: one (2M+1) x G product per translate."""
    grid = sample_grid(params)
    values = np.asarray(signal, dtype=complex)
    orders = np.arange(-params.mod_order, params.mod_order + 1)
    phases = np.exp(-1j * params.p0 * np.outer(orders, grid))
    total = tail = 0.0
    for n in range(-params.shift_order, params.shift_order + 1):
        window = gain * window_g(grid - n * params.q0, params)
        energies = np.abs(params.grid_step * (phases @ (window * values))) ** 2
        total += energies.sum()
        tail += energies[0] + energies[-1]
        if abs(n) == params.shift_order:
            tail += energies.sum()
    ratio = total / (params.grid_step * np.sum(np.abs(values) ** 2))
    return ratio, bool(tail > TAIL_FRACTION * total)


@pytest.mark.parametrize(
    "params, probe, gain, warns",
    [
        (demo_gabor_params(), "window", 1.0, False),
        # q0 off the grid
        (GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 63.5), "real", 1.0, False),
        (GaborParams(p0=math.pi, q0=1.2, grid_step=1.2 / 63.5), "complex", 1.0, False),
        (GaborParams(p0=1.0, q0=4.0, shift_order=0), "window", 1.0, True),
        (GaborParams(p0=1.0, q0=4.0, shift_order=5), "real", 1.0, False),
        (GaborParams(p0=1.0, q0=4.0, mod_order=0), "real", 1.0, True),
        (GaborParams(p0=1.0, q0=4.0, mod_order=1), "window", 1.0, True),
        # the window hangs past both grid edges
        (GaborParams(p0=1.0, q0=4.0, grid_halfwidth=2.0), "window", 1.0, True),
        (GaborParams(p0=2.0, q0=2.5, grid_halfwidth=0.5, mod_order=3), "complex", 1.0, True),
        (GaborParams(p0=2.0, q0=2.5, mod_order=30), "real", 0.37, False),
        (GaborParams(p0=0.5, q0=8.0, mod_order=40), "complex", 1.0, False),
    ],
)
def test_tightness_matches_full_grid_products(params, probe, gain, warns):
    grid = sample_grid(params)
    if probe == "window":
        signal = window_g(grid, params) + 0.1 * np.exp(-(grid**2))
    else:
        signals = gabor_probe_signals(params, count=5, seed=17)
        signal = signals[-1] if probe == "complex" else signals[0]
        assert np.any(signal.imag) == (probe == "complex")
    report = tightness_check(signal, params, window_gain=gain)
    ratio, warning = _full_grid_tightness(signal, params, gain)
    assert abs(report.ratio - ratio) <= 1e-12 * ratio
    assert report.truncation_warning == warning == warns


def test_tightness_memory_stays_on_the_window_support():
    # G = 12289 samples, 195 translates, 129 orders: a full-grid phase matrix
    # alone would take 25 MB.
    params = GaborParams(p0=1.0, q0=4.0, grid_halfwidth=96 * 4.0)
    signal = window_g(sample_grid(params), params)
    assert len(signal) == 12289
    tracemalloc.start()
    try:
        report = tightness_check(signal, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert report.relative_error <= 0.01 and not report.truncation_warning
