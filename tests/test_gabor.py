import math
import tracemalloc

import numpy as np
import pytest

import framecalc.gabor

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


def test_smooth_nu_is_silent_on_subnormal_inputs():
    # exp(-1/t) is 0.0 in float64 long before -1/t overflows; tier-1 turns the
    # overflow warning the plain formula raises into an error.
    xs = np.array([-5e-324, 0.0, 5e-324, 1e-310, 1.0 / 746.0, 1.0 / 745.0, 2e-3, 0.5, 1.0, np.inf])
    with np.errstate(over="ignore", divide="ignore"):
        bump = np.where(xs > 0.0, np.exp(-1.0 / xs), 0.0)
        rest = np.where(1.0 - xs > 0.0, np.exp(-1.0 / (1.0 - xs)), 0.0)
    np.testing.assert_array_equal(smooth_nu(xs), bump / (bump + rest))
    assert smooth_nu(5e-324) == 0.0


def test_smooth_nu_passes_nan_through_silently():
    # 0/0 would raise "invalid value", an error under tier-1's filterwarnings.
    assert math.isnan(smooth_nu(math.nan))
    values = smooth_nu(np.array([np.nan, 0.5, 2.0]))
    assert np.isnan(values[0]) and values[1] == pytest.approx(0.5, abs=1e-15) and values[2] == 1.0
    assert window_g(math.nan, demo_gabor_params()) == 0.0


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
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            GaborParams(p0=1.0, q0=4.0, grid_step=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            GaborParams(p0=1.0, q0=4.0, grid_halfwidth=bad)
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


def _four_piece_window(x, params):
    """The window written piece by piece: zero, rising sine, plateau, falling cosine."""
    arr = np.asarray(x, dtype=float)
    edge = math.pi / params.p0
    width = params.transition_width
    out = np.zeros_like(arr)
    inside = (arr > -edge) & (arr < edge)
    rising = inside & (arr < -edge + width)
    falling = inside & (arr > edge - width)
    plateau = inside & ~rising & ~falling
    out[rising] = np.sin(0.5 * math.pi * smooth_nu((arr[rising] + edge) / width))
    out[falling] = np.cos(0.5 * math.pi * smooth_nu((arr[falling] - (edge - width)) / width))
    out[plateau] = 1.0
    return out * (1.0 / math.sqrt(params.q0))


def test_window_is_symmetric_and_matches_the_four_pieces():
    for p0, q0 in [(1.0, 4.0), (math.pi, 1.2), (2.0, 2.5), (1.0, math.pi), (1.0, 2.0 * math.pi - 1e-3)]:
        params = GaborParams(p0=p0, q0=q0)
        edge = math.pi / p0
        xs = np.concatenate(
            [np.linspace(-1.5 * edge, 1.5 * edge, 20_001), [0.0, edge, -edge, np.inf, -np.inf, np.nan]]
        )
        values = window_g(xs, params)
        np.testing.assert_array_equal(window_g(-xs, params), values)
        ulp = np.spacing(1.0 / math.sqrt(q0))
        assert np.max(np.abs(values - _four_piece_window(xs, params))) <= 4 * ulp
        # The rising edge is the same formula, so it agrees bit for bit.
        rising = xs < -edge + params.transition_width
        np.testing.assert_array_equal(values[rising], _four_piece_window(xs[rising], params))


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
    assert not TightnessReport(1.0, 1.0, 0.0, False, True).passed
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


def _support_length(params):
    return math.ceil(2.0 * math.pi / (params.p0 * params.grid_step)) + 3


@pytest.mark.parametrize("params", [demo_gabor_params(), GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 128, grid_halfwidth=96.0)])
def test_probe_carrier_matches_the_direct_exponential(params):
    grid = sample_grid(params)
    # The one probe of count=1 is the first probe of count=2 times the carrier.
    bumps = gabor_probe_signals(params, count=2, seed=5)[0]
    modulated = gabor_probe_signals(params, count=1, seed=5)[0]
    assert bumps.dtype == np.float64 and modulated.dtype == np.complex128
    assert len(grid) in (1537, 6145)
    held = bumps > 1e-200
    carrier = modulated[held] / bumps[held]
    assert np.max(np.abs(carrier - np.exp(1j * 0.2 * grid[held]))) <= 1e-14


def _full_grid_tightness(signal, params, gain=1.0):
    """The full-grid form of the check: one (2M+1) x G product per translate."""
    grid = sample_grid(params)
    values = np.asarray(signal, dtype=complex)
    orders = np.arange(-params.mod_order, params.mod_order + 1)
    phases = np.exp(-1j * params.p0 * np.outer(orders, grid))
    past_nyquist = np.abs(orders) * params.p0 * params.grid_step > math.pi
    total = tail = aliased = 0.0
    for n in range(-params.shift_order, params.shift_order + 1):
        window = gain * window_g(grid - n * params.q0, params)
        energies = np.abs(params.grid_step * (phases @ (window * values))) ** 2
        total += energies.sum()
        tail += energies[0] + energies[-1]
        aliased += energies[past_nyquist].sum()
        if abs(n) == params.shift_order:
            tail += energies.sum()
    ratio = total / (params.grid_step * np.sum(np.abs(values) ** 2))
    return ratio, bool(tail > TAIL_FRACTION * total), bool(aliased > TAIL_FRACTION * total)


FULL_GRID_CASES = [
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
    # About 2.1x the Nyquist order (50, 53 and 58): the sum folds over the
    # spectrum twice, so the outermost orders alias onto low ones and both
    # warnings are raised. The folded segments span H = 52, 55 and 61
    # offsets, none of them a square.
    (GaborParams(p0=1.0, q0=4.0, mod_order=106), "real", 1.0, True),
    (GaborParams(p0=math.pi, q0=1.2, mod_order=112), "complex", 1.0, True),
    (GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 75, mod_order=124), "complex", 1.0, True),
    # q0/grid_step = 20*pi is irrational: every translate has its own
    # sub-sample offset, so its own window row.
    (GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / (20 * math.pi), mod_order=40), "complex", 1.0, False),
    (GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / (20 * math.pi), grid_halfwidth=2.0), "real", 0.37, True),
]


def test_full_grid_cases_fold_segments_of_both_parities():
    # An even support length folds onto half-integer offsets, an odd one puts
    # its middle sample in both halves.
    assert {_support_length(case[0]) % 2 for case in FULL_GRID_CASES} == {0, 1}


@pytest.mark.parametrize("params, probe, gain, warns", FULL_GRID_CASES)
def test_tightness_matches_full_grid_products(params, probe, gain, warns):
    grid = sample_grid(params)
    if probe == "window":
        signal = window_g(grid, params) + 0.1 * np.exp(-(grid**2))
    else:
        signals = gabor_probe_signals(params, count=5, seed=17)
        signal = signals[-1] if probe == "complex" else signals[0]
        assert signal.dtype == (np.complex128 if probe == "complex" else np.float64)
        assert np.any(signal.imag) == (probe == "complex")
    report = tightness_check(signal, params, window_gain=gain)
    ratio, warning, aliasing = _full_grid_tightness(signal, params, gain)
    assert abs(report.ratio - ratio) <= 1e-12 * ratio
    assert report.truncation_warning == warning == warns
    assert report.aliasing_warning == aliasing
    if params.mod_order > 2.0 * math.pi / (params.p0 * params.grid_step):
        assert aliasing


@pytest.mark.parametrize(
    "params",
    [
        demo_gabor_params(),  # L = 104
        GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 63.5),  # L = 103
        GaborParams(p0=math.pi, q0=1.2, mod_order=112),  # past Nyquist, both warnings
    ],
)
def test_reversal_and_conjugation_leave_the_report_unchanged(params):
    # The window is even and the grid, the orders and the translates are
    # symmetric, so f(-x) has coefficients c_{-m,-n} and conj(f) has
    # conj(c_{-m,n}): the same energy in every ring.
    for signal in gabor_probe_signals(params, count=2, seed=11):
        report = tightness_check(signal, params)
        variants = [signal[::-1]]
        if np.iscomplexobj(signal):
            variants += [signal.conj(), signal[::-1].conj()]
        for variant in variants:
            other = tightness_check(variant, params)
            assert abs(other.ratio - report.ratio) <= 1e-14 * report.ratio
            assert other.truncation_warning == report.truncation_warning
            assert other.aliasing_warning == report.aliasing_warning


def test_real_signal_as_real_or_complex_gives_the_same_report():
    for params in [demo_gabor_params(), GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 63.5, mod_order=106)]:
        signal = gabor_probe_signals(params, count=5, seed=17)[0].real
        real = tightness_check(signal, params)
        complex_ = tightness_check(signal.astype(np.complex128), params)
        assert abs(real.ratio - complex_.ratio) <= 1e-15 * real.ratio
        assert real.truncation_warning == complex_.truncation_warning
        assert real.aliasing_warning == complex_.aliasing_warning


@pytest.mark.parametrize("steps", [64.0, 63.5, 20 * math.pi])
def test_window_is_evaluated_once_per_sub_sample_offset(monkeypatch, steps):
    # Translate n samples the window at (offset_n + j)*grid_step, j < L, with
    # offset_n = start_n - n*q0/grid_step: one offset when q0 is a multiple of
    # the step, two at a half-integer ratio, one per translate otherwise.
    params = GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / steps)
    signal = window_g(sample_grid(params), params)
    samples = []

    def counting(x, p):
        samples.append(np.size(x))
        return window_g(x, p)

    monkeypatch.setattr(framecalc.gabor, "window_g", counting)
    report = tightness_check(signal, params)
    length = _support_length(params)
    rows = {64.0: 1, 63.5: 2}.get(steps, 2 * params.shift_order + 1)
    assert sum(samples) == rows * length
    assert report.passed


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
