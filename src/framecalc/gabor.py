"""A smooth compactly supported window generating a tight time-frequency
system, verified at desk scale on sampled signals.

The window g is supported on [-pi/p0, pi/p0], rises from 0 to a flat plateau
through a sine of a smooth ramp, and falls back through the matching cosine.
Adjacent translates by q0 overlap on a transition of width 2*pi/p0 - q0 where
sin^2 + cos^2 makes sum_k |g(x - k q0)|^2 = 1/q0 exact up to rounding. That
partition identity is what makes the modulated-translate family
{exp(i m p0 x) g(x - n q0)} tight with frame constant 2*pi/(p0*q0).

How the window is evaluated is in ``window_g``'s docstring; the quadrature,
the signal checks, the warnings and the cost of the tightness check are in
``tightness_check``'s.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contract import _check_count

__all__ = [
    "GaborParams",
    "TightnessReport",
    "sample_grid",
    "smooth_nu",
    "tightness_check",
    "window_g",
]

# Fraction of total coefficient energy allowed in the outermost modulation
# ring before a truncation warning is raised, and in the orders past the
# grid's Nyquist frequency before an aliasing warning is.
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
    the modulation truncation M (indices -M..M).
    """

    p0: float
    q0: float
    grid_step: float | None = None
    grid_halfwidth: float | None = None
    mod_order: int = 64

    def __post_init__(self) -> None:
        if not (self.p0 > 0.0 and math.isfinite(self.p0)):
            raise ValueError(f"p0 must be positive, got {self.p0}")
        if not (self.q0 > 0.0 and math.isfinite(self.q0)):
            raise ValueError(f"q0 must be positive, got {self.q0}")
        # Python floats from here on: a numpy scalar's precision reaches no check or report.
        object.__setattr__(self, "p0", float(self.p0))
        object.__setattr__(self, "q0", float(self.q0))
        if not self.q0 < 2.0 * math.pi / self.p0:
            raise ValueError(f"no frame: q0 must be smaller than 2*pi/p0 = {2.0 * math.pi / self.p0}")
        if self.q0 < math.pi / self.p0:
            raise ValueError(f"degenerate window: q0 must be at least pi/p0 = {math.pi / self.p0}")
        step = self.q0 / 64.0 if self.grid_step is None else self.grid_step
        halfwidth = 12.0 * self.q0 if self.grid_halfwidth is None else self.grid_halfwidth
        if not (0.0 < step < math.inf and 0.0 < halfwidth < math.inf):
            raise ValueError("grid_step and grid_halfwidth must be finite and positive")
        object.__setattr__(self, "grid_step", float(step))
        object.__setattr__(self, "grid_halfwidth", float(halfwidth))
        # sample_grid's float64 samples need a byte count that a Py_ssize_t holds.
        if not self.grid_halfwidth / self.grid_step < sys.maxsize / 16:
            grid = f"grid_halfwidth = {self.grid_halfwidth} over grid_step = {self.grid_step}"
            raise ValueError(f"{grid} gives more samples than a numpy array can hold")
        object.__setattr__(self, "mod_order", _check_count("mod_order", self.mod_order))

    @property
    def transition_width(self) -> float:
        """Width of the rising/falling edges: 2*pi/p0 - q0."""
        return 2.0 * math.pi / self.p0 - self.q0

    @property
    def tight_constant(self) -> float:
        """Frame constant of the modulated-translate family: 2*pi/(p0*q0)."""
        return 2.0 * math.pi / (self.p0 * self.q0)


class TightnessReport(NamedTuple):
    """Outcome of ``tightness_check``, whose docstring defines the ratio, the
    target and the two warnings; relative_error is |ratio - target|/target.
    The five fields are the keys that ``framecalc gabor`` prints."""

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


def _half_count(params: GaborParams) -> int:
    """Grid points on each side of zero: the grid has 2*half_count + 1."""
    return int(round(params.grid_halfwidth / params.grid_step))


def sample_grid(params: GaborParams) -> np.ndarray:
    """Uniform sampling grid, symmetric about zero."""
    half_count = _half_count(params)
    return np.arange(-half_count, half_count + 1) * params.grid_step


def _bump(t: np.ndarray) -> np.ndarray:
    # exp(-1/t) is exactly 0.0 in float64 for t <= 1/746, so flooring t there
    # changes no value and keeps -1/t from overflowing on subnormal t; maximum
    # passes NaN through, and NaN arithmetic raises no warning.
    return np.exp(-1.0 / np.maximum(t, 1.0 / 746.0))


def smooth_nu(x):
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1, monotone in between.

    Uses the bump quotient h(x) / (h(x) + h(1-x)) with h(t) = exp(-1/t) for
    t > 0 and 0 otherwise; nu(1/2) = 1/2 by symmetry. The quotient is exactly
    0 for x <= 0 and exactly 1 for x >= 1, where the other bump is at least
    e^-1, so it needs no case split.
    """
    arr = np.asarray(x, dtype=float)
    rising = _bump(arr)
    out = rising / (rising + _bump(1.0 - arr))
    return float(out) if arr.ndim == 0 else out


def window_g(x, params: GaborParams):
    """The window, scaled by q0^(-1/2): sin((pi/2) nu((pi/p0 - |x|)/w)).

    w is the transition width. The ramp argument t = (pi/p0 - |x|)/w is at
    most 0 for |x| >= pi/p0, where the window is exactly zero, and at least 1
    on the plateau |x| <= pi/p0 - w, where it is exactly q0^(-1/2); between
    them lie the rising edge and its mirror image, sin((pi/2) nu(1 - t)) =
    cos((pi/2) nu(t)) for the matching t. The ramp and the sine run only on
    that transition band 0 < t < 1: outside it nu is exactly 0 or 1 and
    sin(pi/2) rounds to 1, so the two constants are the formula's values.
    """
    arr = np.asarray(x, dtype=float)
    scale = 1.0 / math.sqrt(params.q0)
    ramp = (math.pi / params.p0 - np.abs(arr)) / params.transition_width
    # A NaN ramp compares false either way, so the window is 0 there.
    plateau = ramp >= 1.0
    out = np.where(plateau, scale, 0.0)
    band = (ramp > 0.0) ^ plateau  # 0 < ramp < 1
    out[band] = np.sin(0.5 * math.pi * smooth_nu(ramp[band])) * scale
    return float(out) if arr.ndim == 0 else out


def _extent(mask: np.ndarray, width: int) -> tuple[int, int]:
    """The first and one past the last sample with a set entry of ``mask``,
    ``width`` entries per sample; the first is -1 when none is set."""
    marks = mask.tobytes()
    return marks.find(1) // width, marks.rfind(1) // width + 1


def tightness_check(signal, params: GaborParams, window_gain: float = 1.0) -> TightnessReport:
    """Compare the truncated coefficient energy with the tight-frame constant.

    ratio = sum_{|m|<=M} sum_n |<g_mn, f>|^2 / ||f||^2 with trapezoidal inner
    products, whose noise on smooth, well supported signals sits far below
    ``TIGHTNESS_RTOL``; target = 2*pi/(p0*q0). ``window_gain`` rescales the
    window (gain sqrt(p0*q0/(2*pi)) yields the Parseval-normalized family).
    ``ValueError`` is raised unless the gain and its target are finite and
    positive floats, and for a signal that is zero or has a NaN or infinite
    sample. The window is scaled by the gain's mantissa and the ratio by its
    exact power of two, so relative_error does not depend on the gain's
    exponent.

    Each inner product runs over L grid samples, ceil(2*pi/(p0*grid_step)) + 3
    rounded up to even, that cover its translate's support with at least one
    to spare each side. The window is evaluated on L points once per distinct
    sub-sample offset of the translates: once when q0 is a multiple of
    grid_step, twice at a half-integer ratio. Each segment is a slice of the
    signal's nonzero extent, copied as complex for every signal and padded
    with zeros (so zero where it hangs past the extent), multiplied by its
    window row. That copy is scaled by the power of two of the signal's peak,
    an exact factor that the ratio cancels, and every energy and the level
    tau below are taken on it: none over- or underflows, and scaling the
    signal by 2^k changes no bit of the report as long as its peak and
    samples stay normal floats.

    The sum over n takes the translates that the signal's energy reaches.
    Every nonzero coefficient lies on the S translates whose support
    |x - n*q0| < pi/p0 meets the signal's nonzero samples, x_lo - pi/p0 <
    n*q0 < x_hi + pi/p0 for the first and last of them (all that meet the
    grid when both grid ends are nonzero). Energies here leave out the grid
    step, each coefficient being the plain sum over its segment, so a passing
    signal's coefficients carry E = target*sum_k |f_k|^2/grid_step. A
    translate under which both parts of every sample lie below a level tau
    has at most 2*(2M + 1)*(w_max*L*tau)^2 of it in its 2M + 1 coefficients,
    w_max = mantissa/sqrt(q0) being the window's peak, and tau sets that
    bound to u*E/S with u = 2^-53. The sum takes the K translates that meet
    the samples with a part at or above tau, once; the S - K left out move
    the ratio by at most (S - K)/S*u*target. The closed form below adds terms
    as large as (2M + 1)*R(0), which does not fall with the total, so its
    rounding is absolute as well: |ratio - exact| <= C*u*max(ratio, target),
    exact being the sum over all S and C = 64 a measured constant (README,
    Numerical notes). A ratio far below its target thus has fewer correct
    digits than the 17 that ``framecalc gabor`` prints, and a warning can
    flip only when its energy over ||f||^2 lies within that bound of
    TAIL_FRACTION*ratio.

    With theta = fl(p0*grid_step), c_mn is the segment's Fourier sum at
    m*theta, so the energy of any run of orders is the lag sums R(d) = sum
    over j and the translates of Re(seg[j + d] conj(seg[j])) against a
    closed-form kernel in theta*d: the Dirichlet kernel sin((M + 1/2) theta
    d) / sin(theta d/2) for all orders |m| <= M, and 2 cos(M theta d) for the
    outermost ring. Two samples d apart lie under the open support only when
    d*theta < 2*pi, so lag d < L enters iff fl(d*theta) < 2*pi. R
    comes from one complex transform per translate, zero-padded to nfft, the
    power of two that is at least L and exceeds twice the cut (256 for
    p0 = 1 and grid_step = 1/16), and one real transform of their summed
    power spectra. Past one scan of the G grid samples for nonzero ones (of
    the 2G float parts of a contiguous complex signal) and one of the E
    samples of the nonzero extent against tau, the cost is set by the K
    translates taken: K transforms of length nfft, K <= S < (E - 1)*grid_step/q0
    + 2*pi/(p0*q0) + 1, in blocks whose spectra hold at most 4096 values
    (64 KB), a padded copy of E + 2L values and O(L) sines and cosines; none
    of it grows with M or the grid's half width. A pair of Gaussian bumps of
    width about q0 is nonzero on the whole grid, yet reaches only 10 to 22 of
    the 49 translates that meet a grid of 24*q0 each side of zero.

    Order m lies past the grid's Nyquist frequency iff fl(|m|*theta) > pi:
    on the grid its phases equal those of an order within it, so its energy
    is counted again and the ratio overshoots the target. The aliasing
    warning is set when those orders carry more than ``TAIL_FRACTION`` of the
    coefficient energy, which signals too high a truncation order for the
    grid; the truncation warning when the outermost modulation ring does,
    which signals too low a truncation order. The aliased energy is its own
    closed form over the orders from the first past Nyquist to M, not the
    difference of two large sums.
    """
    values = np.asarray(signal)
    half = _half_count(params)
    if values.shape != (2 * half + 1,):
        raise ValueError(f"signal has {values.shape} samples but the grid has {(2 * half + 1,)}")
    # A gain of 2^512 or more has a square past the float range.
    gain = float(window_gain) if 0.0 < window_gain else math.nan
    target = params.tight_constant * gain**2 if gain < 2.0**512 else math.nan
    if not 0.0 < target < math.inf:
        raise ValueError(f"window_gain and its target must be finite and positive, got {window_gain}")
    mantissa, exponent = math.frexp(gain)
    step = params.grid_step
    edge = math.pi / params.p0
    length = (math.ceil(2.0 * edge / step) + 4) // 2 * 2

    # The signal's nonzero extent [lo, hi), NaN and inf included, padded by L
    # zeros each side; a contiguous complex signal is scanned as its float
    # parts, two per sample. The mask is dropped, so only the scan grows with G.
    parts = values.view(float) if values.dtype == complex and values.flags.c_contiguous else values
    lo, hi = _extent(parts != 0, len(parts) // len(values))
    if lo < 0:
        raise ValueError("signal must have positive energy")
    padded = np.zeros(hi - lo + 2 * length, complex)
    scaled = padded[length:-length]
    scaled[:] = values[lo:hi]
    flat = scaled.view(float)
    # max and min both return NaN when any part is NaN.
    peak = float(max(flat.max(), -flat.min()))
    if not math.isfinite(peak):
        raise ValueError("signal must be finite")
    np.ldexp(flat, -math.frexp(peak)[1], out=flat)
    # Sums of squares without the grid step: the signal's energy carries one
    # factor of it, each squared coefficient two.
    norm_sq = float(np.vdot(scaled, scaled).real)

    # The range of the translates n that meet grid samples k_lo..k_hi-1,
    # x_lo - pi/p0 < n*q0 < x_hi + pi/p0 (x = (k - half)*step): S of them for
    # the nonzero extent.
    def meeting(k_lo, k_hi):
        low, high = (k_lo - half) * step - edge, (k_hi - 1 - half) * step + edge
        return math.floor(low / params.q0) + 1, math.ceil(high / params.q0)

    met = len(range(*meeting(lo, hi)))
    order = params.mod_order
    scaled_target = params.tight_constant * mantissa**2
    # The level tau of the docstring, 2*(2M + 1)*(w_max*L*tau)^2 = u*E/S with
    # u = 2^-53 and E = target*norm_sq/step; 1/step is folded into
    # sqrt(step/q0) with w_max's 1/sqrt(q0), so nothing overflows. As L >=
    # 2*pi/(p0*step), tau^2 < u*G/4: the peak part, at least 1/2, passes it.
    tau = math.sqrt(2.0**-54 * scaled_target * norm_sq / (met * (2 * order + 1)))
    tau /= mantissa * length * math.sqrt(step / params.q0)
    loud = _extent(np.abs(flat) >= tau, 2)

    # The rounded phases fl(d*theta) of the lags d = 1..L-1, nondecreasing.
    # Two samples d apart lie under the open support only for d*theta < 2*pi,
    # so the lag sums R(d) vanish from the cut on; below it every
    # sin(theta*d/2) is positive. Both signs of the orders alias..M lie past
    # Nyquist, alias being the first order with fl(alias*theta) > pi (order 0
    # never is); every order with fl(m*theta) <= pi has m <= pi/theta < L.
    theta = params.p0 * step
    phases = np.arange(1, length) * theta
    cut = int(phases.searchsorted(2.0 * math.pi))
    alias = 1 + min(order, int(phases.searchsorted(math.pi, "right")))
    # fl(d*theta)/2 is fl(d*theta/2): halving is exact.
    half_phi = phases[:cut]
    half_phi *= 0.5
    sines = np.sin(half_phi)
    dirichlet = np.sin((2 * order + 1) * half_phi)
    # Zero-padded past the segment and past twice the cut, the circular
    # autocorrelation of each segment is its linear one on lags 0..cut.
    nfft = 1 << max(length - 1, 2 * cut).bit_length()
    # The segments go through the transform in blocks of at most 4096
    # spectrum values (64 KB). One block of all 2S+1 (400 KB for 49
    # translates at nfft = 512) is large enough that the C allocator hands it
    # back to the system after a call and the next call faults it in again.
    block = max(1, 4096 // nfft)
    # Segments are rows of a sliding view of the padded extent. Each
    # translate's support meets the extent, so each starts within the padding.
    windows = np.ndarray((len(padded) - length + 1, length), complex, padded, 0, (padded.itemsize,) * 2)
    # The grid index k (x = k*step) of the first of the L samples that
    # translate n can reach, with a sample or more to spare each side. Sample
    # j sits at x - n*q0 = (offset_n + j)*step, so translates with the same
    # sub-sample offset share one window row.
    shifts = np.arange(*meeting(lo + loud[0], lo + loud[1]))
    starts = np.floor((shifts * params.q0 - edge) / step) - 1
    offsets = {}
    row = [offsets.setdefault(x, len(offsets)) for x in (starts - shifts * (params.q0 / step)).tolist()]
    window = mantissa * window_g((np.array(list(offsets))[:, None] + np.arange(length)) * step, params)
    first = (starts + (half - lo + length)).astype(np.intp)
    power = 0.0
    for begin in range(0, len(first), block):
        rows = slice(begin, begin + block)
        spectra = np.fft.fft(windows[first[rows]] * window[row[rows]], nfft).view(float)
        power += np.square(spectra, out=spectra).sum(axis=0)
    # nfft*R(d); each energy below divides by nfft, an exact power of two.
    lag_sums = np.fft.rfft(power[0::2] + power[1::2]).real
    zero, lags = float(lag_sums[0]), lag_sums[1 : cut + 1]
    weighted = lags / sines
    # Every order |m| <= M: R against the Dirichlet kernel.
    total = ((2 * order + 1) * zero + 2.0 * float(weighted @ dirichlet)) / nfft
    ratio = step * total / norm_sq

    # The outermost modulation ring, both edges (order 0 twice when M = 0).
    tail = (2.0 * zero + 4.0 * float(lags @ np.cos(2 * order * half_phi))) / nfft
    count = order + 1 - alias
    aliased = 0.0
    if count:
        rings = np.sin(count * half_phi) * np.cos((order + alias) * half_phi)
        aliased = (2.0 * count * zero + 4.0 * float(weighted @ rings)) / nfft

    return TightnessReport(
        ratio=math.ldexp(ratio, 2 * exponent),
        target=target,
        relative_error=abs(ratio - scaled_target) / scaled_target,
        truncation_warning=bool(tail > TAIL_FRACTION * total),
        aliasing_warning=bool(aliased > TAIL_FRACTION * total),
    )
