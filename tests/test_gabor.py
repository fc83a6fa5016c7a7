import math
import tracemalloc
import warnings

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
    window_g,
)
from framecalc.gabor import TAIL_FRACTION, TIGHTNESS_RTOL, TightnessReport
from framecalc.reference import unit_powers


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
    for bad in (-1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match="q0 must be positive"):
            GaborParams(p0=1.0, q0=bad)
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            GaborParams(p0=1.0, q0=4.0, grid_step=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            GaborParams(p0=1.0, q0=4.0, grid_halfwidth=bad)
    # grid_halfwidth/grid_step infinite, or past 2^59 samples each side
    for step, halfwidth in ((5e-324, None), (None, 1e300), (1.0, 2.0**59)):
        with pytest.raises(ValueError, match="more samples than a numpy array can hold"):
            GaborParams(p0=1.0, q0=4.0, grid_step=step, grid_halfwidth=halfwidth)
    assert GaborParams(p0=1.0, q0=4.0, grid_step=1.0, grid_halfwidth=2.0**58).grid_halfwidth == 2.0**58
    params = demo_gabor_params()
    assert params.grid_step == params.q0 / 64.0
    assert params.grid_halfwidth == 12.0 * params.q0
    assert params.transition_width == pytest.approx(2.0 * math.pi - 4.0)
    # translate 12 meets the default grid
    assert 12 * params.q0 - math.pi / params.p0 < sample_grid(params)[-1]


@pytest.mark.parametrize(
    "params, order",
    [
        (demo_gabor_params(), 12),
        # translate 0's support covers the whole grid
        (GaborParams(p0=2.0, q0=2.5, grid_halfwidth=0.5), 0),
        # translate 13's support starts exactly at the grid's last sample
        (GaborParams(p0=math.pi / 2, q0=3.0, grid_step=1 / 16, grid_halfwidth=37.0), 12),
        # a grid of the one sample 0
        (GaborParams(p0=1.0, q0=2.0 * math.pi - 1e-3, grid_halfwidth=1e-3), 0),
    ],
)
def test_a_full_support_signal_transforms_every_translate_that_meets_the_grid(monkeypatch, params, order):
    # Translate n's support is |x - n*q0| < pi/p0: translate S reaches the
    # grid's last sample, translate S + 1 starts at or past it and is left out.
    edge = math.pi / params.p0
    last = sample_grid(params)[-1]
    assert order * params.q0 - edge < last <= (order + 1) * params.q0 - edge
    rows = _transformed_rows(monkeypatch, np.ones(len(sample_grid(params))), params)
    assert rows == 2 * order + 1 == 2 * math.ceil((last + edge) / params.q0) - 1


def _transformed_rows(monkeypatch, signal, params):
    """The rows, one per translate, that ``tightness_check`` hands to np.fft.fft."""
    fft, rows = np.fft.fft, []

    def counting(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return fft(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "fft", counting)
        tightness_check(signal, params)
    return sum(rows)


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


def _ramp_argument(x, params):
    return np.fmax((math.pi / params.p0 - np.abs(x)) / params.transition_width, 0.0)


def _plain_window(x, params):
    """The window's formula at every point, with no split at the transition band."""
    ramp = smooth_nu(_ramp_argument(np.asarray(x, dtype=float), params))
    return np.sin(0.5 * math.pi * ramp) * (1.0 / math.sqrt(params.q0))


def test_window_is_symmetric_and_matches_the_four_pieces():
    for p0, q0 in [(1.0, 4.0), (math.pi, 1.2), (2.0, 2.5), (1.0, math.pi), (1.0, 2.0 * math.pi - 1e-3)]:
        params = GaborParams(p0=p0, q0=q0)
        edge = math.pi / p0
        # Points a few ulps either side of the plateau's edge, where the ramp
        # argument rounds to exactly 1, and of the support's, where it is 0.
        bounds = (edge - params.transition_width, edge)
        near = np.concatenate([bound + np.arange(-4, 5) * np.spacing(bound) for bound in bounds])
        full = sample_grid(GaborParams(p0=p0, q0=q0, grid_step=q0 / 128, grid_halfwidth=24 * q0))
        assert len(full) == 6145
        specials = [0.0, edge, -edge, np.inf, -np.inf, np.nan, 5e-324]
        xs = np.concatenate([np.linspace(-1.5 * edge, 1.5 * edge, 20_001), specials, near, full])
        assert {0.0, 1.0} <= set(_ramp_argument(near, params))
        values = window_g(xs, params)
        # The band-only evaluation is the formula, bit for bit.
        np.testing.assert_array_equal(values, _plain_window(xs, params))
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


def test_tightness_refuses_non_finite_signals():
    params = demo_gabor_params()
    real = window_g(sample_grid(params), params)
    complex_ = gabor_probe_signals(params, count=1, seed=3)[0]
    assert complex_.dtype == np.complex128
    middle = len(real) // 2
    for signal in (real, complex_):
        for bad in (math.nan, math.inf, -math.inf):
            broken = signal.copy()
            broken[middle] = bad
            with pytest.raises(ValueError, match="signal must be finite"):
                tightness_check(broken, params)
    for bad in (complex(1.0, math.nan), complex(0.0, math.inf)):
        broken = complex_.copy()
        broken[middle] = bad
        with pytest.raises(ValueError, match="signal must be finite"):
            tightness_check(broken, params)
    # A NaN is a nonzero sample, so a signal that is NaN at its last sample
    # and zero elsewhere has that sample as its extent.
    lone = np.zeros_like(real)
    lone[-1] = math.nan
    with pytest.raises(ValueError, match="signal must be finite"):
        tightness_check(lone, params)


@pytest.mark.parametrize("gain", [0.0, 1e-200, 1e200, math.inf, math.nan, -1.0])
def test_tightness_refuses_a_gain_without_a_finite_positive_target(gain):
    # 0 and 1e-200 give a zero target and 1e200 an infinite one; inf, NaN and
    # -1 are no gain. None of them may warn on its way to the refusal.
    params = demo_gabor_params()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="window_gain"):
            tightness_check(window_g(sample_grid(params), params), params, window_gain=gain)


def test_scaling_by_a_power_of_two_leaves_the_report_unchanged():
    # Peaks near 1e-301 and 1e301: the energies are taken on a copy scaled
    # back by the power of two of the peak, so nothing over- or underflows.
    params = demo_gabor_params()
    window = window_g(sample_grid(params), params)
    probe = gabor_probe_signals(params, count=2, seed=3)[-1]
    assert probe.dtype == np.complex128
    for signal in (window, probe):
        report = tightness_check(signal, params)
        assert report.passed
        for k in (-1000, -500, 0, 500, 1000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert tightness_check(signal * 2.0**k, params) == report


def test_the_window_gain_is_factored_out_as_a_power_of_two():
    # The window takes the gain's mantissa, so a gain whose ratio and target
    # are subnormal reports the relative error of its mantissa bit for bit.
    params = demo_gabor_params()
    window = window_g(sample_grid(params), params)
    unit = tightness_check(window, params)
    tiny = tightness_check(window, params, window_gain=2.0**-531)
    assert tiny.relative_error == unit.relative_error
    assert tiny.ratio == math.ldexp(unit.ratio, -1062) and tiny.target == math.ldexp(unit.target, -1062)
    gain = 1e-160
    small = tightness_check(window, params, window_gain=gain)
    assert small.relative_error == tightness_check(window, params, window_gain=math.frexp(gain)[0]).relative_error


@pytest.mark.parametrize("integer, order, real", [(np.int8, 100, np.float16), (np.int16, 20000, np.float32), (np.int32, 2**30, np.float64)])
def test_numpy_scalars_give_the_report_of_their_python_values(integer, order, real):
    # The demo window's parameters and the gain are exact in float16, so the
    # numpy scalars carry the Python values; the params keep Python numbers,
    # and the report matches bit for bit, field types included.
    values = {"p0": 1.0, "q0": 4.0, "grid_step": 1 / 16, "grid_halfwidth": 48.0}
    expected_params = GaborParams(**values, mod_order=order)
    params = GaborParams(**{key: real(value) for key, value in values.items()}, mod_order=integer(order))
    assert [type(value) for value in vars(params).values()] == [float] * 4 + [int]
    assert params == expected_params
    report = tightness_check(window_g(sample_grid(params), params), params, window_gain=real(0.5))
    expected = tightness_check(window_g(sample_grid(expected_params), expected_params), expected_params, window_gain=0.5)
    assert report == expected
    assert [type(field) for field in report] == [type(field) for field in expected]


def _support_length(params):
    """L: ceil(2*pi/(p0*grid_step)) + 3 rounded up to even."""
    return (math.ceil(2.0 * math.pi / (params.p0 * params.grid_step)) + 4) // 2 * 2


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


def _looped_probes(params, count, seed):
    """The probes bump by bump: the reference for the broadcast form."""
    grid = sample_grid(params)
    rng = np.random.default_rng(seed)
    signals = []
    for _ in range(count):
        values = np.zeros_like(grid)
        for _ in range(2):
            center = rng.uniform(-2.0 * params.q0, 2.0 * params.q0)
            width = rng.uniform(0.6, 1.3) * params.q0
            amplitude = rng.uniform(0.5, 1.5)
            values += amplitude * np.exp(-((grid - center) ** 2) / (2.0 * width**2))
        signals.append(values)
    powers = unit_powers(0.2 * params.grid_step, len(grid) // 2 + 1)
    signals[-1] = signals[-1] * np.concatenate((powers[:0:-1].conj(), powers))
    return signals


@pytest.mark.parametrize("params", [demo_gabor_params(), GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 128, grid_halfwidth=96.0)])
@pytest.mark.parametrize("count", [1, 2, 5])
def test_probes_match_the_bump_by_bump_loop(params, count):
    assert len(sample_grid(params)) in (1537, 6145)
    # Seeds 1580 and 781 draw a width (q0 = 4) in the first and in the second
    # probe whose square rounds apart under pow and under multiplication.
    for seed in (0, 781, 1580):
        signals = gabor_probe_signals(params, count=count, seed=seed)
        expected = _looped_probes(params, count, seed)
        assert len(signals) == count
        for signal, reference in zip(signals, expected):
            assert signal.dtype == reference.dtype
            np.testing.assert_array_equal(signal, reference)


def _full_grid_tightness(signal, params, gain=1.0):
    """The full-grid form of the check: one (2M+1) x G product per translate.

    It runs over every translate whose support meets the grid, whatever the
    signal's extent, and two more each side, whose window is exactly zero on
    the grid.
    """
    grid = sample_grid(params)
    values = np.asarray(signal, dtype=complex)
    orders = np.arange(-params.mod_order, params.mod_order + 1)
    phases = np.exp(-1j * params.p0 * np.outer(orders, grid))
    # The library's rounding: order m is past Nyquist iff fl(|m|*theta) > pi
    # with theta = fl(p0*grid_step), not fl(fl(|m|*p0)*grid_step).
    theta = params.p0 * params.grid_step
    past_nyquist = np.abs(orders) * theta > math.pi
    total = tail = aliased = 0.0
    edge = math.pi / params.p0
    reach = math.ceil((grid[-1] + edge) / params.q0) + 1
    for n in range(-reach, reach + 1):
        window = gain * window_g(grid - n * params.q0, params)
        assert abs(n) * params.q0 - edge < grid[-1] or not window.any()
        energies = np.abs(params.grid_step * (phases @ (window * values))) ** 2
        total += energies.sum()
        tail += energies[0] + energies[-1]
        aliased += energies[past_nyquist].sum()
    ratio = total / (params.grid_step * np.sum(np.abs(values) ** 2))
    return ratio, bool(tail > TAIL_FRACTION * total), bool(aliased > TAIL_FRACTION * total)


# C*u in the bound |ratio - exact| <= C*u*max(ratio, target) that
# ``tightness_check`` states, C = 64 and u = 2^-53.
RATIO_ACCURACY = 64 * 2.0**-53


FULL_GRID_CASES = [
    (demo_gabor_params(), "window", 1.0, False),
    # q0 off the grid
    (GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 63.5), "real", 1.0, False),
    (GaborParams(p0=math.pi, q0=1.2, grid_step=1.2 / 63.5), "complex", 1.0, False),
    # (grid_halfwidth + pi/p0)/q0 is an integer, 1 and 13: translate S + 1's
    # support starts exactly at the grid's last sample, and it is left out.
    (GaborParams(p0=math.pi / 2, q0=3.0, grid_step=1 / 16, grid_halfwidth=1.0, mod_order=30), "window", 1.0, True),
    (GaborParams(p0=math.pi / 2, q0=3.0, grid_step=1 / 16, grid_halfwidth=37.0, mod_order=30), "real", 1.0, False),
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
    # a coarse grid: three samples per translation step, L = 8
    (GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 3, mod_order=1), "window", 1.0, True),
    # ... cut at M = 3, the first order past Nyquist (3*4/3 > pi): that order
    # alone raises the aliasing warning.
    (GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 3, mod_order=3), "window", 1.0, True),
    # 2*pi/(p0*grid_step) is an integer P, 25 and 24: lag P, where two samples
    # span the whole support, sits right at the cut. Each at the Nyquist order
    # P//2 and at 3P.
    (GaborParams(p0=2 * math.pi / 6.25, q0=4.0, grid_step=0.25, mod_order=12), "complex", 1.0, False),
    (GaborParams(p0=2 * math.pi / 6.25, q0=4.0, grid_step=0.25, mod_order=75), "window", 1.0, True),
    (GaborParams(p0=2 * math.pi / 6.0, q0=4.0, grid_step=0.25, mod_order=12), "real", 1.0, True),
    (GaborParams(p0=2 * math.pi / 6.0, q0=4.0, grid_step=0.25, mod_order=72), "complex", 1.0, True),
    # p0 3 ulps below P = 25: fl(25*theta) is below 2*pi, so lag 25 is
    # kept, with sin(theta*25/2) a few ulps above zero.
    (GaborParams(p0=2 * math.pi / 6.25 - 3 * math.ulp(2 * math.pi / 6.25), q0=4.0, grid_step=0.25, mod_order=75), "complex", 1.0, True),
    # A Gaussian carried at order M, on grids where M*theta rounds to pi
    # exactly (order 13 is the last within Nyquist) and one ulp above it
    # (order 65 alone aliases); floor(pi/theta) + 1 is not the first aliased
    # order on either grid.
    (GaborParams(p0=1.0, q0=4.0, grid_step=float.fromhex("0x1.eeebf2ca2ada8p-3"), mod_order=13), "carrier", 1.0, True),
    (GaborParams(p0=1.0, q0=4.0, grid_step=float.fromhex("0x1.8beff56e88aedp-5"), mod_order=65), "carrier", 1.0, True),
    # Signals nonzero at one sample: the first, the last (where translate
    # S + 1's support starts) and one off the middle, on the q0/grid_step =
    # 20*pi grid. The extent is one sample wide.
    (demo_gabor_params(), "first", 1.0, True),
    (GaborParams(p0=math.pi / 2, q0=3.0, grid_step=1 / 16, grid_halfwidth=37.0, mod_order=30), "last", 1.0, True),
    (GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / (20 * math.pi), mod_order=40), "interior", 0.37, True),
    # A Gaussian carried at order 79, where fl(79*theta) > pi but
    # fl(fl(79*p0)*grid_step) <= pi: order 79 lies past Nyquist under the
    # rounding theta = fl(p0*grid_step).
    (GaborParams(p0=1.3, q0=3.5, grid_step=0.030589996626969748, mod_order=79), "carrier", 1.0, True),
]


@pytest.mark.parametrize("params, probe, gain, warns", FULL_GRID_CASES)
def test_tightness_matches_full_grid_products(params, probe, gain, warns):
    grid = sample_grid(params)
    if probe == "window":
        signal = window_g(grid, params) + 0.1 * np.exp(-(grid**2))
    elif probe == "carrier":
        signal = np.exp(-((grid / 6.0) ** 2)) * np.exp(1j * params.mod_order * params.p0 * grid)
    elif probe in ("first", "last", "interior"):
        signal = np.zeros_like(grid)
        signal[{"first": 0, "last": -1, "interior": len(grid) // 3}[probe]] = 1.5
    else:
        signals = gabor_probe_signals(params, count=5, seed=17)
        signal = signals[-1] if probe == "complex" else signals[0]
        assert signal.dtype == (np.complex128 if probe == "complex" else np.float64)
        assert np.any(signal.imag) == (probe == "complex")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = tightness_check(signal, params, window_gain=gain)
    ratio, warning, aliasing = _full_grid_tightness(signal, params, gain)
    assert abs(report.ratio - ratio) <= 1e-12 * ratio
    assert abs(report.ratio - ratio) <= RATIO_ACCURACY * max(ratio, report.target)
    assert report.truncation_warning == warning == warns
    assert report.aliasing_warning == aliasing
    if params.mod_order > 2.0 * math.pi / (params.p0 * params.grid_step):
        assert aliasing


def test_a_lag_whose_rounded_phase_is_two_pi_is_left_out(monkeypatch):
    # theta = fl(2*pi/61) with fl(61*theta) = fl(2*pi), yet fl(2*pi)/theta >
    # 61: lag 61 lies on the cut, not below it, so the lags are 1..60 and the
    # first table handed to np.sin, theta*d/2 for each, has 60 entries.
    period = 61
    params = GaborParams(p0=1.0, q0=4.0, grid_step=2.0 * math.pi / period, mod_order=20)
    theta = params.p0 * params.grid_step
    assert period * theta == 2.0 * math.pi and 2.0 * math.pi / theta > period
    signal = window_g(sample_grid(params), params)
    sin, tables = np.sin, []

    def recording(x, *args, **kwargs):
        tables.append(np.array(x))
        return sin(x, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "sin", recording)
        report = tightness_check(signal, params)
    np.testing.assert_array_equal(tables[0], np.arange(1, period) * theta / 2.0)
    ratio, warning, aliasing = _full_grid_tightness(signal, params)
    assert abs(report.ratio - ratio) <= 1e-12 * ratio
    assert (report.truncation_warning, report.aliasing_warning) == (warning, aliasing)


def test_the_order_whose_rounded_phase_is_pi_lies_within_nyquist():
    # theta = fl(2*pi/126) with fl(63*theta) = fl(pi), while pi/theta < 63:
    # order 63 is the last within Nyquist. The probe carries energy at it,
    # (-1)^k = exp(63i*theta*k), and M = 63 takes no order past it.
    period = 126
    params = GaborParams(p0=1.0, q0=4.0, grid_step=2.0 * math.pi / period, mod_order=period // 2)
    theta = params.p0 * params.grid_step
    assert period // 2 * theta == math.pi and math.pi / theta < period // 2
    grid = sample_grid(params)
    signal = window_g(grid, params) * (1.0 + 0.5 * (-1.0) ** np.arange(len(grid)))
    report = tightness_check(signal, params)
    assert not report.aliasing_warning
    ratio, warning, aliasing = _full_grid_tightness(signal, params)
    assert abs(report.ratio - ratio) <= 1e-12 * ratio
    assert (report.truncation_warning, report.aliasing_warning) == (warning, aliasing)
    # ... and M = 64 takes order 64, past it, which the probe reaches too.
    assert tightness_check(signal, GaborParams(p0=1.0, q0=4.0, grid_step=params.grid_step, mod_order=64)).aliasing_warning


def test_a_smooth_probe_transforms_only_the_translates_its_energy_reaches(monkeypatch):
    # gabor-window's largest grid, G = 6145: the modulated Gaussian probe is
    # nonzero on the whole grid, which 49 translates meet, but its parts pass
    # the level tau under fewer than 20 of them.
    params = GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 128, grid_halfwidth=24 * 4.0, mod_order=80)
    signal = gabor_probe_signals(params, count=2, seed=7)[1]
    assert len(signal) == 6145 and np.all(signal != 0)
    assert _transformed_rows(monkeypatch, signal, params) <= 20
    report = tightness_check(signal, params)
    ratio, warning, aliasing = _full_grid_tightness(signal, params)
    assert abs(report.ratio - ratio) <= 1e-12 * ratio
    assert report.passed and not warning and not aliasing


@pytest.mark.parametrize("level, rows", [(0.9, 3), (1.1, 12)])
def test_a_sample_is_left_out_below_the_level_tau_and_taken_above_it(monkeypatch, level, rows):
    # The demo window at x = -20 meets translates -6..-4, and one more sample
    # at x = 20 stretches the nonzero extent to the S = 12 translates -6..5.
    # tau = sqrt(u*E/(2*S*(2M + 1)))/(w_max*L) with u = 2^-53, E =
    # target*sum|f|^2/grid_step and w_max = 1/sqrt(q0): that sample is left
    # out at 0.9*tau and, with the translates between, taken at 1.1*tau.
    params = demo_gabor_params()
    grid = sample_grid(params)
    signal = window_g(grid + 20.0, params)
    energy = params.tight_constant * np.vdot(signal, signal) / params.grid_step
    order, length = params.mod_order, _support_length(params)
    tau = math.sqrt(2.0**-53 * energy / (2 * 12 * (2 * order + 1))) * math.sqrt(params.q0) / length
    signal[np.searchsorted(grid, 20.0)] = level * tau
    assert _transformed_rows(monkeypatch, signal, params) == rows
    assert tightness_check(signal, params).passed


@pytest.mark.parametrize("in_band", [0.1, 1e-3, 1e-5])
def test_a_check_that_fails_by_far_transforms_the_loud_translates_once(monkeypatch, in_band):
    # A loud window at x = -5*q0, its energy mostly on a carrier between M and
    # the grid's Nyquist order and the rest in band, so ratio/target is 9.9e-3,
    # 1.0e-6 or 3.5e-8; and a faint copy at x = 5*q0, far below tau. The check
    # takes the 3 translates that meet the loud samples, once, and leaves out
    # 10 of the S = 13 that meet the nonzero extent. The closed form cancels
    # terms of the size of the target down to the ratio, so the ratio is only
    # within C*u*target of the full grid's, fewer digits the further it falls.
    params = GaborParams(p0=1.0, q0=4.0, grid_step=1 / 16, grid_halfwidth=48.0, mod_order=20)
    grid = sample_grid(params)
    loud = window_g(grid + 20.0, params) * (np.exp(35j * grid) + in_band)
    signal = loud + 1e-20 * window_g(grid - 20.0, params)
    assert _transformed_rows(monkeypatch, signal, params) == 3
    report = tightness_check(signal, params)
    assert report.ratio / report.target < 0.02
    ratio, warning, aliasing = _full_grid_tightness(signal, params)
    assert abs(report.ratio - ratio) <= RATIO_ACCURACY * max(ratio, report.target)
    if in_band == 0.1:
        assert 0.005 < report.ratio / report.target
        assert abs(report.ratio - ratio) <= 1e-12 * ratio
    assert report.truncation_warning == warning
    assert report.aliasing_warning == aliasing


@pytest.mark.parametrize(
    "params",
    [
        demo_gabor_params(),  # L = 104
        GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / 63.5),  # q0 off the grid, L = 104
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
        assert real == complex_


@pytest.mark.parametrize("steps", [64.0, 63.5, 20 * math.pi])
def test_window_is_evaluated_once_per_sub_sample_offset(monkeypatch, steps):
    # Translate n samples the window at (offset_n + j)*grid_step, j < L, with
    # offset_n = start_n - n*q0/grid_step: one offset when q0 is a multiple of
    # the step, two at a half-integer ratio, one per translate otherwise.
    # The probe's parts pass the level tau under every translate -S..S that
    # meets the grid, so each is taken: it falls to exp(-14), about 1e-6, at
    # the grid's ends, too little to raise a warning there. The window only
    # meets translates -1, 0 and 1.
    params = GaborParams(p0=1.0, q0=4.0, grid_step=4.0 / steps)
    grid = sample_grid(params)
    probe = np.exp(-14.0 * (grid / grid[-1]) ** 2 + 0.2j * grid)
    order = math.ceil((grid[-1] + math.pi / params.p0) / params.q0) - 1
    samples = []

    def counting(x, p):
        samples.append(np.size(x))
        return window_g(x, p)

    monkeypatch.setattr(framecalc.gabor, "window_g", counting)
    length = _support_length(params)
    for signal, translates in ((probe, 2 * order + 1), (window_g(grid, params), 3)):
        samples.clear()
        report = tightness_check(signal, params)
        rows = {64.0: 1, 63.5: 2}.get(steps, translates)
        assert sum(samples) == rows * length
        assert report.passed


def test_tightness_memory_stays_on_the_window_support(monkeypatch):
    # The demo window is nonzero on |x| < pi/p0 only, where translates -1, 0
    # and 1 meet it: the check transforms those 3 on a grid of 1537 samples,
    # which 25 translates meet, and on one of 12289, which 193 meet, and
    # copies no more of either.
    peaks = []
    for halfwidth in (12, 96):
        params = GaborParams(p0=1.0, q0=4.0, grid_halfwidth=halfwidth * 4.0)
        signal = window_g(sample_grid(params), params)
        assert len(signal) == 128 * halfwidth + 1
        assert _transformed_rows(monkeypatch, signal, params) == 3
        tracemalloc.start()
        try:
            report = tightness_check(signal, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        peaks.append(peak)
    assert max(peaks) <= 1.05 * min(peaks)


def test_tightness_memory_does_not_grow_with_the_order():
    # G = 6145, the complex probe, and M at 0.8, 2.1 and 5 times the Nyquist
    # order pi/(p0*grid_step): no array of the check has an order axis.
    grid = dict(p0=1.0, q0=4.0, grid_step=4.0 / 128, grid_halfwidth=24 * 4.0)
    peaks = []
    for factor in (0.8, 2.1, 5.0):
        params = GaborParams(**grid, mod_order=round(factor * math.pi / (grid["p0"] * grid["grid_step"])))
        signal = gabor_probe_signals(params, count=1, seed=3)[0]
        assert len(signal) == 6145 and signal.dtype == np.complex128
        tracemalloc.start()
        try:
            report = tightness_check(signal, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.aliasing_warning == (factor > 1.0)
        peaks.append(peak)
    assert max(peaks) <= 1.05 * min(peaks)
