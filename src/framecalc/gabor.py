"""A smooth compactly supported window generating a tight time-frequency
system, verified at desk scale on sampled signals.

The window g is supported on [-pi/p0, pi/p0], rises from 0 to a flat plateau
through a sine of a smooth ramp, and falls back through the matching cosine.
Adjacent translates by q0 overlap on a transition of width 2*pi/p0 - q0 where
sin^2 + cos^2 makes sum_k |g(x - k q0)|^2 = 1/q0 exact up to rounding. That
partition identity is what makes the modulated-translate family
{exp(i m p0 x) g(x - n q0)} tight with frame constant 2*pi/(p0*q0).

Inner products are trapezoidal sums on a uniform grid; with smooth, well
supported signals the quadrature noise sits far below the 1% acceptance gate
(``TIGHTNESS_RTOL``) of the tightness check. Each inner product only runs
over the L ~ 2*pi/(p0*grid_step) samples under its translate's support. The
window is sampled at L points once per distinct sub-sample offset of the
translates (once when q0 is a multiple of grid_step), and order -m takes the
conjugate phase of order m, so the check takes one L x (M+1) phase table
(16*(M+1)*L bytes), built from (M+1)*(F + ceil(L/F)) complex exponentials
with F = isqrt(L), and one real matrix product of the 2S+1 support segments
with its cosine and sine columns: 2(M+1)*L*(2S+1) real multiply-adds for a
real signal and twice that for a complex one, independent of the grid's half
width. Modulation orders past the grid's Nyquist frequency
(|m|*p0*grid_step > pi) alias onto orders within it and are counted again;
the report carries an aliasing warning when they hold more than
``TAIL_FRACTION`` of the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "GaborParams",
    "TightnessReport",
    "sample_grid",
    "smooth_nu",
    "tightness_check",
    "weyl_heisenberg_apply",
    "window_g",
]

# Fraction of total coefficient energy allowed in the outermost modulation
# and translation rings before a truncation warning is raised, and in the
# orders past the grid's Nyquist frequency before an aliasing warning is.
TAIL_FRACTION = 1e-6

# Largest relative error of the coefficient energy against the frame constant
# that the tightness check accepts.
TIGHTNESS_RTOL = 1e-2


@dataclass(frozen=True)
class GaborParams:
    """Parameters of the window and the sampling grid.

    p0 is the modulation step, q0 the translation step. The window exists as
    a tight generator only for q0 < 2*pi/p0, and its flat plateau is
    non-degenerate only for q0 >= pi/p0; both are enforced. The transition
    width is 2*pi/p0 - q0, exactly the overlap of adjacent translates.

    Grid defaults: grid_step = q0/64, grid_halfwidth = 12*q0. mod_order is
    the modulation truncation (indices -M..M); shift_order defaults to the
    smallest translation range whose windows cover the whole grid.
    """

    p0: float
    q0: float
    grid_step: float | None = None
    grid_halfwidth: float | None = None
    mod_order: int = 64
    shift_order: int | None = None

    def __post_init__(self) -> None:
        if not (self.p0 > 0.0 and math.isfinite(self.p0)):
            raise ValueError(f"p0 must be positive, got {self.p0}")
        if not (self.q0 > 0.0 and math.isfinite(self.q0)):
            raise ValueError(f"q0 must be positive, got {self.q0}")
        if not self.q0 < 2.0 * math.pi / self.p0:
            raise ValueError(
                f"no frame: q0 must be smaller than 2*pi/p0 = {2.0 * math.pi / self.p0}"
            )
        if self.q0 < math.pi / self.p0:
            raise ValueError(
                f"degenerate window: q0 must be at least pi/p0 = {math.pi / self.p0}"
            )
        if self.grid_step is None:
            object.__setattr__(self, "grid_step", self.q0 / 64.0)
        if self.grid_halfwidth is None:
            object.__setattr__(self, "grid_halfwidth", 12.0 * self.q0)
        if not (0.0 < self.grid_step < math.inf and 0.0 < self.grid_halfwidth < math.inf):
            raise ValueError("grid_step and grid_halfwidth must be finite and positive")
        if self.mod_order < 0:
            raise ValueError("mod_order must be non-negative")
        if self.shift_order is None:
            support = math.pi / self.p0
            cover = int(math.ceil((self.grid_halfwidth + support) / self.q0))
            object.__setattr__(self, "shift_order", cover)
        if self.shift_order < 0:
            raise ValueError("shift_order must be non-negative")

    @property
    def transition_width(self) -> float:
        """Width of the rising/falling edges: 2*pi/p0 - q0."""
        return 2.0 * math.pi / self.p0 - self.q0

    @property
    def tight_constant(self) -> float:
        """Frame constant of the modulated-translate family: 2*pi/(p0*q0)."""
        return 2.0 * math.pi / (self.p0 * self.q0)


@dataclass(frozen=True)
class TightnessReport:
    ratio: float
    target: float
    relative_error: float
    truncation_warning: bool
    aliasing_warning: bool = False

    @property
    def passed(self) -> bool:
        """Within ``TIGHTNESS_RTOL`` of the target, with neither warning."""
        return (
            self.relative_error <= TIGHTNESS_RTOL
            and not self.truncation_warning
            and not self.aliasing_warning
        )


def sample_grid(params: GaborParams) -> np.ndarray:
    """Uniform sampling grid, symmetric about zero."""
    half_count = int(round(params.grid_halfwidth / params.grid_step))
    return np.arange(-half_count, half_count + 1) * params.grid_step


def _bump(t: np.ndarray) -> np.ndarray:
    # exp(-1/t) is exactly 0.0 in float64 for t <= 1/746, so flooring t there
    # changes no value and keeps -1/t from overflowing on subnormal t; fmax
    # also sends NaN to the floor.
    return np.exp(-1.0 / np.fmax(t, 1.0 / 746.0))


def smooth_nu(x):
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1, monotone in between.

    Uses the bump quotient h(x) / (h(x) + h(1-x)) with h(t) = exp(-1/t) for
    t > 0 and 0 otherwise; nu(1/2) = 1/2 by symmetry. The quotient is exactly
    0 for x <= 0 and exactly 1 for x >= 1, where the other bump is at least
    e^-1, so it needs no case split.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    rising = _bump(arr)
    out = rising / (rising + _bump(1.0 - arr))
    return float(out[0]) if scalar else out


def window_g(x, params: GaborParams):
    """The window, scaled by q0^(-1/2): sin((pi/2) nu((pi/p0 - |x|)/w)).

    w is the transition width. The ramp nu is 0 for |x| >= pi/p0, where the
    window is exactly zero, and 1 on the plateau |x| <= pi/p0 - w, where it
    is exactly q0^(-1/2); in between lie the rising edge and its mirror
    image, sin((pi/2) nu(1 - t)) = cos((pi/2) nu(t)) for the matching t.
    """
    arr = np.asarray(x, dtype=float)
    # fmax sends a NaN argument to 0, where the ramp and the window are 0.
    ramp = smooth_nu(np.fmax((math.pi / params.p0 - np.abs(arr)) / params.transition_width, 0.0))
    out = np.sin(0.5 * math.pi * ramp) * (1.0 / math.sqrt(params.q0))
    return float(out) if arr.ndim == 0 else out


def weyl_heisenberg_apply(signal, m: int, n: int, params: GaborParams) -> np.ndarray:
    """Modulate by exp(i m p0 x) and translate by n q0 on the sampling grid.

    q0 must be an integer multiple of grid_step so the translation lands on
    grid points; samples shifted in from outside the grid are zero.
    """
    grid = sample_grid(params)
    values = np.asarray(signal)
    if values.shape != grid.shape:
        raise ValueError(
            f"signal has {values.shape} samples but the grid has {grid.shape}"
        )
    steps_exact = params.q0 / params.grid_step
    steps = int(round(steps_exact))
    if abs(steps_exact - steps) > 1e-9 * max(1.0, abs(steps_exact)):
        raise ValueError(
            f"q0 = {params.q0} is not an integer multiple of grid_step = {params.grid_step}"
        )
    shift = n * steps
    shifted = np.zeros(len(grid), dtype=complex)
    if shift == 0:
        shifted[:] = values
    elif 0 < shift < len(grid):
        shifted[shift:] = values[:-shift]
    elif -len(grid) < shift < 0:
        shifted[:shift] = values[-shift:]
    return np.exp(1j * m * params.p0 * grid) * shifted


def tightness_check(signal, params: GaborParams, window_gain: float = 1.0) -> TightnessReport:
    """Compare the truncated coefficient energy with the tight-frame constant.

    ratio = sum_{|m|<=M, |n|<=S} |<g_mn, f>|^2 / ||f||^2 with trapezoidal
    inner products; target = 2*pi/(p0*q0). ``window_gain`` rescales the
    window (gain sqrt(p0*q0/(2*pi)) yields the Parseval-normalized family).

    Each inner product runs over the L ~ 2*pi/(p0*grid_step) grid samples
    that cover the support of its translate, and the phase is taken relative
    to the segment's first sample, a unit-modulus factor that drops out of
    |c_mn|^2. The window is evaluated on L points once per distinct
    sub-sample offset of the translates: once when q0 is a multiple of
    grid_step, twice at a half-integer ratio. Each segment is a slice of the
    signal padded with zeros (so zero where it hangs past a grid edge), and a
    real signal stays real. The phases exp(-i p0 grid_step m j) for orders
    0..M factor over j = F*a + b with F = isqrt(L), so they take
    (M+1)*(F + ceil(L/F)) complex exponentials and (M+1)*L products; order
    -m takes the conjugate phase. Every coefficient comes from one real
    product of the segments (their real parts, then their imaginary parts
    when the signal has them) with the cosine and sine columns of the
    L x (M+1) phase table: 2(M+1)*L*(2S+1) real multiply-adds for a real
    signal and twice that for a complex one, whatever the grid's half width.

    Orders with |m|*p0*grid_step > pi lie past the grid's Nyquist frequency:
    on the grid their phases equal those of an order within it, so their
    energy is counted again and the ratio overshoots the target.

    A truncation warning is attached when the outermost modulation or
    translation ring carries more than ``TAIL_FRACTION`` of the total
    coefficient energy, which signals insufficient truncation or support; an
    aliasing warning when the orders past the Nyquist frequency do, which
    signals too high a truncation order for the grid.
    """
    grid = sample_grid(params)
    values = np.asarray(signal)
    values = values.astype(np.result_type(values.dtype, float), copy=False)
    if values.shape != grid.shape:
        raise ValueError(
            f"signal has {values.shape} samples but the grid has {grid.shape}"
        )
    step = params.grid_step
    norm_sq = step * float(np.sum(np.abs(values) ** 2))
    if norm_sq <= 0.0:
        raise ValueError("signal must have positive energy")

    # Grid index k (x = k*step, |k| <= half) of the first of the L samples
    # that the support (-edge, edge) of translate n can reach, with one sample
    # spare each side. Sample j sits at x - n*q0 = (offset_n + j)*step, so
    # translates with the same sub-sample offset share one window row.
    half = len(grid) // 2
    edge = math.pi / params.p0
    length = math.ceil(2.0 * edge / step) + 3
    shifts = np.arange(-params.shift_order, params.shift_order + 1)
    starts = np.floor((shifts * params.q0 - edge) / step).astype(np.int64) - 1
    offsets, row = np.unique(starts - shifts * (params.q0 / step), return_inverse=True)
    window = window_gain * window_g((offsets[:, None] + np.arange(length)) * step, params)
    # Segments are row slices of the signal padded by L zeros each side; one
    # that starts wholly off the grid is clamped onto the padding.
    padded = np.zeros(len(grid) + 2 * length, dtype=values.dtype)
    padded[length : length + len(grid)] = values
    first = np.clip(starts + half + length, 0, len(grid) + length)
    segments = window[row] * sliding_window_view(padded, length)[first]
    count = len(segments)
    if np.iscomplexobj(segments):
        segments = np.concatenate([segments.real, segments.imag])

    # Phase exp(-i theta m j) for orders 0..M, orders innermost, with
    # j = F*a + b: hi[a, m] * lo[b, m]. Viewed as reals, its columns are
    # cos(theta m j) and -sin(theta m j), so one real product gives, for the
    # real (x) and imaginary (y) parts of each segment, the sums xc, xd, yc,
    # yd against them; c_m = (xc - yd) + i(xd + yc), and order -m takes the
    # conjugate phase: c_-m = (xc + yd) + i(yc - xd). A real signal has y = 0.
    theta = params.p0 * step
    orders = np.arange(params.mod_order + 1)
    fine = math.isqrt(length)
    coarse = np.arange((length + fine - 1) // fine) * fine
    hi = np.exp(-1j * theta * np.outer(coarse, orders))
    lo = np.exp(-1j * theta * np.outer(np.arange(fine), orders))
    phases = (hi[:, None, :] * lo[None, :, :]).reshape(-1, len(orders))[:length]
    blocks = step * (segments @ phases.view(float))
    xc, xd = blocks[:count, 0::2], blocks[:count, 1::2]
    yc, yd = (blocks[count:, 0::2], blocks[count:, 1::2]) if len(blocks) > count else (0.0, 0.0)
    plus = (xc - yd) ** 2 + (xd + yc) ** 2
    minus = (xc + yd) ** 2 + (yc - xd) ** 2
    # Columns -M..M, one row per translate.
    energies = np.concatenate([minus[:, :0:-1], plus], axis=1)

    # Outermost rings: both modulation edges of every translate (the one
    # column twice when M = 0) and every order of the outermost translates
    # (the one row once when S = 0).
    outer_rows = [0, -1] if params.shift_order else [0]
    total = float(np.sum(energies))
    tail = float(np.sum(energies[:, [0, -1]]) + np.sum(energies[outer_rows]))
    # Both signs of every order past Nyquist; order 0 never is.
    past = orders * theta > math.pi
    aliased = float(np.sum(plus[:, past]) + np.sum(minus[:, past]))

    ratio = total / norm_sq
    target = params.tight_constant * window_gain**2
    return TightnessReport(
        ratio=ratio,
        target=target,
        relative_error=abs(ratio - target) / target,
        truncation_warning=bool(tail > TAIL_FRACTION * total),
        aliasing_warning=bool(aliased > TAIL_FRACTION * total),
    )
