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
over the L ~ 2*pi/(p0*grid_step) samples under its translate's support, so
the check takes one (2M+1) x L phase matrix and one matrix product against
the 2S+1 support segments: (2M+1)*L*(2S+1) multiply-adds and (2M+1)*L
complex phases, independent of the grid's half width. Modulation orders past the grid's
Nyquist frequency (|m|*p0*grid_step > pi) alias onto orders within it and
are counted again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# and translation rings before a truncation warning is raised.
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
        if not (self.grid_step > 0.0 and self.grid_halfwidth > 0.0):
            raise ValueError("grid_step and grid_halfwidth must be positive")
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

    @property
    def passed(self) -> bool:
        """Within ``TIGHTNESS_RTOL`` of the target, with no truncation warning."""
        return self.relative_error <= TIGHTNESS_RTOL and not self.truncation_warning


def sample_grid(params: GaborParams) -> np.ndarray:
    """Uniform sampling grid, symmetric about zero."""
    half_count = int(round(params.grid_halfwidth / params.grid_step))
    return np.arange(-half_count, half_count + 1) * params.grid_step


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    positive = t > 0.0
    out[positive] = np.exp(-1.0 / t[positive])
    return out


def smooth_nu(x):
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1, monotone in between.

    Uses the bump quotient h(x) / (h(x) + h(1-x)) with h(t) = exp(-1/t) for
    t > 0 and 0 otherwise; nu(1/2) = 1/2 by symmetry.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    rising = _bump(arr)
    falling = _bump(1.0 - arr)
    out = np.empty_like(arr)
    low = arr <= 0.0
    high = arr >= 1.0
    mid = ~(low | high)
    out[low] = 0.0
    out[high] = 1.0
    out[mid] = rising[mid] / (rising[mid] + falling[mid])
    return float(out[0]) if scalar else out


def window_g(x, params: GaborParams):
    """The four-piece window, scaled by q0^(-1/2).

    Exactly zero for |x| >= pi/p0; sin((pi/2) nu((x + pi/p0)/w)) on the rising
    edge of width w = transition_width; 1 on the plateau; the matching cosine
    on the falling edge.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    edge = math.pi / params.p0
    width = params.transition_width
    out = np.zeros_like(arr)

    inside = (arr > -edge) & (arr < edge)
    rising = inside & (arr < -edge + width)
    falling = inside & (arr > edge - width)
    plateau = inside & ~rising & ~falling
    out[rising] = np.sin(0.5 * math.pi * smooth_nu((arr[rising] + edge) / width))
    out[falling] = np.cos(
        0.5 * math.pi * smooth_nu((arr[falling] - (edge - width)) / width)
    )
    out[plateau] = 1.0
    out *= 1.0 / math.sqrt(params.q0)
    return float(out[0]) if scalar else out


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
    |c_mn|^2. All 2S+1 segments of window times signal are formed at once
    (zero where a segment hangs past a grid edge) and every coefficient comes
    from one product of the (2M+1) x L local phase matrix with them:
    (2M+1)*L*(2S+1) multiply-adds and (2M+1)*L complex numbers of phases,
    whatever the grid's half width.

    Orders with |m|*p0*grid_step > pi lie past the grid's Nyquist frequency:
    on the grid their phases equal those of an order within it, so their
    energy is counted again and the ratio overshoots the target.

    A warning is attached when the outermost modulation or translation ring
    carries more than ``TAIL_FRACTION`` of the total coefficient energy,
    which signals insufficient truncation or support.
    """
    grid = sample_grid(params)
    values = np.asarray(signal, dtype=complex)
    if values.shape != grid.shape:
        raise ValueError(
            f"signal has {values.shape} samples but the grid has {grid.shape}"
        )
    step = params.grid_step
    norm_sq = step * float(np.sum(np.abs(values) ** 2))
    if norm_sq <= 0.0:
        raise ValueError("signal must have positive energy")

    # Grid index k (x = k*step, |k| <= half) of every sample that the support
    # (-edge, edge) of translate n can reach, with one sample spare each side.
    half = len(grid) // 2
    edge = math.pi / params.p0
    length = math.ceil(2.0 * edge / step) + 3
    centers = np.arange(-params.shift_order, params.shift_order + 1) * params.q0
    starts = np.floor((centers - edge) / step).astype(np.int64) - 1
    indices = starts[:, None] + np.arange(length)
    on_grid = np.abs(indices) <= half
    samples = np.where(on_grid, values[np.clip(indices + half, 0, 2 * half)], 0.0)
    window = window_gain * window_g(indices * step - centers[:, None], params)
    segments = window * samples

    orders = np.arange(-params.mod_order, params.mod_order + 1)
    phases = np.exp(-1j * params.p0 * np.outer(orders, np.arange(length) * step))
    energies = np.abs(step * (phases @ segments.T)) ** 2

    # Outermost rings: both modulation edges of every translate (the one row
    # twice when M = 0) and every order of the outermost translates (the one
    # column once when S = 0).
    outer_columns = [0, -1] if params.shift_order else [0]
    total = float(np.sum(energies))
    tail = float(np.sum(energies[[0, -1]]) + np.sum(energies[:, outer_columns]))

    ratio = total / norm_sq
    target = params.tight_constant * window_gain**2
    return TightnessReport(
        ratio=ratio,
        target=target,
        relative_error=abs(ratio - target) / target,
        truncation_warning=bool(tail > TAIL_FRACTION * total),
    )
