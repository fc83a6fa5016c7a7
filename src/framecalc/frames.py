"""Finite frames over R^n.

A frame is an ordered family of vectors {phi_i} spanning the space, with
frame bounds 0 < A <= B such that A||f||^2 <= sum_i |<phi_i, f>|^2 <= B||f||^2
for every f. This module provides the analysis/synthesis operators, the frame
operator S = sum_i phi_i phi_i^T, spectral diagnostics, the full family of
fractional-power frames {S^alpha phi_i} (dual at alpha = -1, Parseval-tight at
alpha = -1/2) and the generalized reconstruction identities they satisfy. The
frame file format and ``NotAFrameError`` live in ``contract``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .contract import NotAFrameError, _check_count
from .linalg import SVD, EigenDecomposition, _real_values, _refuse_first, _svd_error, spectral_function
from .linalg import svd, symmetrize

__all__ = [
    "BoundCheckReport",
    "Frame",
    "FrameDiagnostics",
    "alpha_frame",
    "analysis",
    "commuting_scale",
    "diagnostics",
    "dual_frame",
    "frame_operator",
    "frame_spectrum",
    "optimal_bounds",
    "proposition1_check",
    "reconstruct",
    "synthesis",
]

# lambda_min must exceed this fraction of lambda_max for the family to count
# as a frame, i.e. kappa(S) <= 1e12 (an explicit numerical-rank decision that
# ``FrameDiagnostics.is_frame`` makes). The rule is a ratio, so scaling a
# family never changes its verdict.
FRAME_RANK_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class Frame:
    """An indexed family of vectors in R^dim, one per row of ``vectors``.

    ``declared_bounds`` are optional frame bounds (A, B); when present they
    are verified against the spectrum of the frame operator at construction.
    They need not be optimal. The family must have a frame operator that is
    representable in float64. The synthesis matrix is factored at most once,
    on first use, and every spectral query reads that factorization.
    Frames compare and hash by identity, as the record holds an array.
    """

    dim: int
    vectors: np.ndarray
    declared_bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.vectors, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"vectors must form a 2-d array, got shape {arr.shape}")
        count, dim = arr.shape
        if count < 1:
            raise ValueError("a frame needs at least one vector")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if int(self.dim) != dim:
            raise ValueError(f"declared dim {self.dim} != vector length {dim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("frame vectors must be finite")
        # trace(S) = ||V||_F^2 bounds every entry of S; scaled so numpy never overflows.
        # A nonzero family needs it finite and normal, or its spectrum is lost to rounding.
        peak = float(np.max(np.abs(arr)))
        trace = peak * peak * float(np.sum(np.square(arr / peak))) if peak > 0.0 else 0.0
        if not math.isfinite(trace):
            raise ValueError("frame vectors are too large: the frame operator overflows float64")
        if peak > 0.0 and trace < sys.float_info.min:
            raise ValueError("frame vectors are too small: the frame operator underflows float64")
        arr.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vectors", arr)
        if self.declared_bounds is not None:
            lower, upper = self.declared_bounds
            object.__setattr__(self, "declared_bounds", _checked_frame_bounds(self, lower, upper))

    @property
    def count(self) -> int:
        """Number of frame vectors (the size of the index set)."""
        return self.vectors.shape[0]

    @cached_property
    def _svd(self) -> SVD:
        return svd(self.vectors)


class FrameDiagnostics(NamedTuple):
    """Spectral health report for a vector family: the extreme eigenvalues of
    its frame operator, which are the optimal frame bounds when the family is
    a frame. Every verdict is derived from them."""

    lambda_min: float
    lambda_max: float

    @property
    def is_frame(self) -> bool:
        """The frame rule: lambda_min exceeds ``FRAME_RANK_TOLERANCE`` times
        lambda_max, i.e. kappa(S) <= 1e12."""
        return self.lambda_min > FRAME_RANK_TOLERANCE * self.lambda_max

    @property
    def kernel_trivial(self) -> bool:
        """Equals ``is_frame``: in finite dimension a trivial kernel of the
        analysis operator is the same thing as spanning, so the two conditions
        only come apart in infinite dimension."""
        return self.is_frame

    @property
    def inverse_norm(self) -> float | None:
        """Spectral norm of the inverse frame operator, defined only for a frame."""
        return 1.0 / self.lambda_min if self.is_frame else None


class BoundCheckReport(NamedTuple):
    """Result of an empirical frame-bound sweep for one power family, judged on
    the tolerance that ``proposition1_check`` derives."""

    lower: float
    upper: float
    samples: int
    max_lower_violation: float
    max_upper_violation: float
    max_identity_residual: float
    tolerance: float

    @property
    def worst_violation(self) -> float:
        return max(self.max_lower_violation, self.max_upper_violation, self.max_identity_residual)

    @property
    def passed(self) -> bool:
        """Every violation within the tolerance."""
        return self.worst_violation <= self.tolerance


def _checked_bounds(lower: float, upper: float) -> tuple[float, float]:
    lower = float(lower)
    upper = float(upper)
    if not (0.0 < lower <= upper) or not math.isfinite(upper):
        raise ValueError(f"bounds must satisfy 0 < A <= B, got ({lower}, {upper})")
    return lower, upper


def _checked_frame_bounds(frame: Frame, lower: float, upper: float) -> tuple[float, float]:
    """Valid bounds (A, B) of a frame, refused only where its factorization proves
    they miss the spectrum. ``svd`` is exact for some V + dV, ||dV|| <= eps ||V||
    with eps = ``linalg._svd_error(count)``; by Weyl, for computed l_min, l_max and
    r = sqrt(l_max / l_min), lambda_min <= l_min (1 + eps r)^2 and lambda_max >=
    l_max (1 - eps)^2, with 3 u for rounding l = s^2, 1 +- t and the product."""
    lower, upper = _checked_bounds(lower, upper)
    lam_min, lam_max = _frame_bounds(frame, "bounds are undefined")
    eps, u = _svd_error(frame.count), 2.0**-53
    spread = eps * math.sqrt(lam_max / lam_min)
    t_lo, t_hi = spread * (2.0 + spread) + 3 * u, eps * (2.0 - eps) + 3 * u
    if lower > lam_min * (1.0 + t_lo) or upper < lam_max * (1.0 - t_hi):
        raise ValueError(
            f"declared bounds ({lower}, {upper}) do not enclose the "
            f"frame-operator spectrum [{lam_min}, {lam_max}]"
        )
    return lower, upper


def _frame_bounds(frame: Frame, reason: str) -> tuple[float, float]:
    """The optimal bounds of a frame; ``NotAFrameError`` citing ``reason`` otherwise."""
    report = diagnostics(frame)
    if not report.is_frame:
        raise NotAFrameError(f"not a frame: {reason}")
    return report.lambda_min, report.lambda_max


def analysis(frame: Frame, f) -> np.ndarray:
    """Coefficient sequence (<phi_i, f>)_i of a vector against the frame."""
    vec = np.asarray(f, dtype=float)
    if vec.shape != (frame.dim,):
        raise ValueError(f"expected a vector of dimension {frame.dim}, got shape {vec.shape}")
    return frame.vectors @ vec


def synthesis(frame: Frame, coefficients) -> np.ndarray:
    """Weighted superposition sum_i c_i phi_i; the adjoint of analysis."""
    coef = np.asarray(coefficients, dtype=float)
    if coef.shape != (frame.count,):
        raise ValueError(f"expected {frame.count} coefficients, got shape {coef.shape}")
    return frame.vectors.T @ coef


def frame_operator(frame: Frame) -> np.ndarray:
    """The positive symmetric operator S with S f = sum_i <phi_i, f> phi_i."""
    return symmetrize(frame.vectors.T @ frame.vectors)


def frame_spectrum(frame: Frame) -> EigenDecomposition:
    """Eigendecomposition of the frame operator, read from the frame's SVD."""
    return frame._svd.spectrum


def optimal_bounds(frame: Frame) -> tuple[float, float]:
    """Extreme eigenvalues of the frame operator (the tightest valid bounds)."""
    eigenvalues = frame_spectrum(frame).eigenvalues
    return float(eigenvalues[0]), float(eigenvalues[-1])


def diagnostics(frame: Frame) -> FrameDiagnostics:
    """Spectral frame test; non-frames are reported, not rejected."""
    return FrameDiagnostics(*optimal_bounds(frame))


def alpha_frame(frame: Frame, alpha: float) -> Frame:
    """The power family {S^alpha phi_i} for the frame operator S.

    With ``V = U diag(s) W^T`` the family is ``U diag(s^(2a+1)) W^T`` and
    keeps that factorization. For a frame with optimal bounds (A, B) the
    result is stamped with the bounds it provably satisfies, the extreme
    eigenvalues of its own frame operator: (A^(2a+1), B^(2a+1)) for
    a > -1/2, exactly (1, 1) at a = -1/2, and (B^(2a+1), A^(2a+1)) for
    a < -1/2. Negative powers require the family to actually be a frame.
    A ``ValueError``, raised once the powers are formed but before the family
    is, refuses an exponent that takes an extreme eigenvalue of the family's
    frame operator (the largest only for a non-frame) outside the positive
    normal floats.
    """
    alpha = float(alpha)
    if alpha < 0.0:
        _frame_bounds(frame, "fractional negative power undefined")
    is_frame = diagnostics(frame).is_frame
    exponent = 2.0 * alpha + 1.0
    source = frame._svd
    with np.errstate(over="ignore", under="ignore"):
        factors = source.power(exponent)
    # The powers are monotone, reversed in order for a negative exponent;
    # a non-frame's smallest singular values are rounding noise.
    for k in [0, -1] if is_frame else [-1]:
        formed = float(factors.spectrum.eigenvalues[-1 - k if exponent < 0.0 else k])
        if source.singular_values[k] > 0.0 and not sys.float_info.min <= formed <= sys.float_info.max:
            moved = f"the frame-operator eigenvalue {float(source.spectrum.eigenvalues[k])!r} to {formed!r}"
            raise ValueError(f"alpha = {alpha!r} takes {moved}, outside the positive normal floats")
    right = factors.spectrum.eigenvectors
    family = Frame(frame.dim, (factors.left * factors.singular_values) @ right.T)
    # The family keeps its factorization, and its bounds are proved, not re-validated.
    family.__dict__["_svd"] = factors
    if is_frame:
        object.__setattr__(family, "declared_bounds", optimal_bounds(family))
    return family


def dual_frame(frame: Frame) -> Frame:
    """The canonical dual {S^(-1) phi_i}; pairs with the frame in reconstruction."""
    return alpha_frame(frame, -1.0)


def reconstruct(frame: Frame, alpha: float, f) -> np.ndarray:
    """Expand f against the power-alpha family and resum with its dual partner.

    Computes sum_i <phi_i^(alpha), f> phi_i^(-1-alpha), which equals f for
    every real alpha; alpha = 0 is the classical frame expansion.
    """
    family = alpha_frame(frame, alpha)
    partner = alpha_frame(frame, -1.0 - float(alpha))
    return synthesis(partner, analysis(family, f))


def proposition1_check(
    frame: Frame, alpha: float, samples: int, seed: int = 0
) -> BoundCheckReport:
    """Empirically verify the stamped bounds of a power family.

    Checks A'||f||^2 <= sum_i |<phi_i^(alpha), f>|^2 <= B'||f||^2 on ``samples``
    seeded unit vectors plus every eigenvector of the frame operator, along
    with the identity sum_i |<phi_i^(alpha), f>|^2 = <S^(2a+1) f, f>.
    Violations beyond the tolerance are reported, not raised. It bounds, to
    first order in u = 2^-53, what rounding adds to any violation, in units of
    B' max ||f||^2: the family U diag(s^g) W^T (g = 2a + 1) and S^g share one
    SVD, whose U and W are each within eps = ``linalg._svd_error(count)`` of
    orthonormal, so kappa does not enter. That gives 4 eps to the bounds (2 eps
    to the identity); charging k u to each length-k product, the family's sums
    add 4 dim + 2 + count, S^g (fl(s^2)^g against fl(s^g)^2, its forming and
    pairing) 3 dim + |g| + 5 and ||f||^2 with the stamp dim + 2. Both sums are
    at most 4 eps + (7 dim + count + |g| + 7) u.
    """
    _frame_bounds(frame, "bounds are undefined")

    family = alpha_frame(frame, alpha)
    lower, upper = family.declared_bounds
    power_op = spectral_function(frame_spectrum(frame), lambda lam: lam ** (2.0 * alpha + 1.0))

    probes = _probes(frame, samples, seed)
    norm_sq = np.sum(probes * probes, axis=0)
    totals = np.sum((family.vectors @ probes) ** 2, axis=0)
    quadratic = np.sum(probes * (power_op @ probes), axis=0)
    max_lower = max(0.0, float(np.max(lower * norm_sq - totals)))
    max_upper = max(0.0, float(np.max(totals - upper * norm_sq)))
    max_identity = float(np.max(np.abs(totals - quadratic)))
    slack = 4 * _svd_error(frame.count) + (7 * frame.dim + frame.count + abs(2 * alpha + 1) + 7) * 2.0**-53
    return BoundCheckReport(
        lower=lower,
        upper=upper,
        samples=probes.shape[1],
        max_lower_violation=max_lower,
        max_upper_violation=max_upper,
        max_identity_residual=max_identity,
        tolerance=upper * float(np.max(norm_sq)) * slack,
    )


def commuting_scale(frame: Frame, scale: Callable[[np.ndarray], np.ndarray]) -> Frame:
    """Rescale the frame by T^(1/2) for the positive operator T = scale(S).

    A function of the frame operator S commutes with it by construction, and
    its root is sqrt(scale) on S's own spectrum, so nothing but the frame is
    factored. ``scale`` takes the eigenvalue array of S, as in ``spectral_function``,
    and must be real, finite and positive on it; otherwise a ``ValueError`` names
    the first eigenvalue where it is not. The new family {T^(1/2) phi_i} need not be
    a frame; when it is, it shares its Parseval-tight family with the original frame.
    """

    def root(lam: np.ndarray) -> np.ndarray:
        t = _real_values(lam, scale)
        _refuse_first(lam, t, ~(t > 0.0) | (t == np.inf), lambda v: (
            "T = scale(S) has a spectrum that overflows float64" if v == np.inf
            else f"T = scale(S) must be positive definite, got scale = {float(v)!r}"))
        return np.sqrt(t)

    return Frame(frame.dim, frame.vectors @ spectral_function(frame_spectrum(frame), root))


def _probes(frame: Frame, samples: int, seed: int) -> np.ndarray:
    """Probe vectors as columns: ``samples`` seeded unit vectors, then every
    eigenvector of the frame operator."""
    samples = _check_count("samples", samples)
    rng = np.random.default_rng(_check_count("seed", seed))
    rows = np.empty((0, frame.dim))
    while len(rows) < samples:
        # A block continues the stream of single draws; rejected rows are redrawn from it.
        block = rng.standard_normal((samples - len(rows), frame.dim))
        norms = np.sqrt(block[:, None, :] @ block[:, :, None])[:, 0]
        keep = norms[:, 0] > 1e-12
        rows = np.vstack([rows, block[keep] / norms[keep]])
    return np.column_stack([rows.T, frame_spectrum(frame).eigenvectors])
