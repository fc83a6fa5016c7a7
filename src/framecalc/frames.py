"""Finite frames over R^n.

A frame is an ordered family of vectors {phi_i} spanning the space, with
frame bounds 0 < A <= B such that A||f||^2 <= sum_i |<phi_i, f>|^2 <= B||f||^2
for every f. This module provides the analysis/synthesis operators, the frame
operator S = sum_i phi_i phi_i^T, spectral diagnostics, the full family of
fractional-power frames {S^alpha phi_i} (dual at alpha = -1, Parseval-tight at
alpha = -1/2), the generalized reconstruction identities they satisfy, and the
JSON file format used by the command-line tools.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SVD, EigenDecomposition, eigh, spectral_function, svd, symmetrize

__all__ = [
    "BoundCheckReport",
    "Frame",
    "FrameDiagnostics",
    "NotAFrameError",
    "alpha_frame",
    "analysis",
    "commuting_scale",
    "diagnostics",
    "dual_frame",
    "frame_from_dict",
    "frame_operator",
    "frame_spectrum",
    "frame_to_json",
    "load_frame",
    "optimal_bounds",
    "proposition1_check",
    "reconstruct",
    "synthesis",
]

# lambda_min must exceed this fraction of max(1, lambda_max) for the family
# to count as a frame (an explicit numerical-rank decision).
FRAME_RANK_TOLERANCE = 1e-12

# Relative slack when validating declared bounds against the spectrum.
BOUNDS_RTOL = 1e-9


class NotAFrameError(ValueError):
    """The vector family does not span, or spans too marginally to invert."""


@dataclass(frozen=True)
class Frame:
    """An indexed family of vectors in R^dim, one per row of ``vectors``.

    ``declared_bounds`` are optional frame bounds (A, B); when present they
    are verified against the spectrum of the frame operator at construction.
    They need not be optimal. The family must have a frame operator that is
    representable in float64. The synthesis matrix is factored at most once,
    on first use, and every spectral query reads that factorization.
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
        peak = float(np.max(np.abs(arr)))
        if peak > 0.0 and not math.isfinite(peak * peak * float(np.sum(np.square(arr / peak)))):
            raise ValueError("frame vectors are too large: the frame operator overflows float64")
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


@dataclass(frozen=True)
class FrameDiagnostics:
    """Spectral health report for a vector family.

    ``lambda_min``/``lambda_max`` are the optimal frame bounds when the family
    is a frame. ``kernel_trivial`` equals ``is_frame``: in finite dimension a
    trivial kernel of the analysis operator is the same thing as spanning,
    so the two conditions only come apart in infinite dimension.
    ``inverse_norm`` is the spectral norm of the inverse frame operator,
    defined only when ``is_frame``.
    """

    lambda_min: float
    lambda_max: float
    is_frame: bool
    kernel_trivial: bool
    inverse_norm: float | None


@dataclass(frozen=True)
class BoundCheckReport:
    """Result of an empirical frame-bound sweep for one power family."""

    alpha: float
    lower: float
    upper: float
    samples: int
    max_lower_violation: float
    max_upper_violation: float
    max_identity_residual: float
    tolerance: float
    passed: bool


def _checked_bounds(lower: float, upper: float) -> tuple[float, float]:
    lower = float(lower)
    upper = float(upper)
    if not (0.0 < lower <= upper) or not math.isfinite(upper):
        raise ValueError(f"bounds must satisfy 0 < A <= B, got ({lower}, {upper})")
    return lower, upper


def _checked_frame_bounds(frame: Frame, lower: float, upper: float) -> tuple[float, float]:
    """Valid bounds (A, B) that enclose the frame-operator spectrum, up to BOUNDS_RTOL."""
    lower, upper = _checked_bounds(lower, upper)
    lam_min, lam_max = optimal_bounds(frame)
    slack = BOUNDS_RTOL * max(1.0, abs(lam_max))
    if lower > lam_min + slack or lam_max > upper + slack:
        raise ValueError(
            f"declared bounds ({lower}, {upper}) do not enclose the "
            f"frame-operator spectrum [{lam_min}, {lam_max}]"
        )
    return lower, upper


def _is_frame_spectrum(lam_min: float, lam_max: float) -> bool:
    return lam_min > FRAME_RANK_TOLERANCE * max(1.0, abs(lam_max))


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
    lam_min, lam_max = optimal_bounds(frame)
    is_frame = _is_frame_spectrum(lam_min, lam_max)
    return FrameDiagnostics(
        lambda_min=lam_min,
        lambda_max=lam_max,
        is_frame=is_frame,
        kernel_trivial=is_frame,
        inverse_norm=1.0 / lam_min if is_frame else None,
    )


def alpha_frame(frame: Frame, alpha: float) -> Frame:
    """The power family {S^alpha phi_i} for the frame operator S.

    With ``V = U diag(s) W^T`` the family is ``U diag(s^(2a+1)) W^T`` and
    keeps that factorization. For a frame with optimal bounds (A, B) the
    result is stamped with the bounds it provably satisfies, the extreme
    eigenvalues of its own frame operator: (A^(2a+1), B^(2a+1)) for
    a > -1/2, exactly (1, 1) at a = -1/2, and (B^(2a+1), A^(2a+1)) for
    a < -1/2. Negative powers require the family to actually be a frame.
    """
    alpha = float(alpha)
    lam_min, lam_max = optimal_bounds(frame)
    frame_like = _is_frame_spectrum(lam_min, lam_max)
    if alpha < 0.0 and not frame_like:
        raise NotAFrameError("not a frame: fractional negative power undefined")
    factors = frame._svd.power(2.0 * alpha + 1.0)
    right = factors.spectrum.eigenvectors
    family = Frame(frame.dim, (factors.left * factors.singular_values) @ right.T)
    # The family keeps its factorization, and its bounds are proved, not re-validated.
    family.__dict__["_svd"] = factors
    if frame_like:
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
    Violations beyond the tolerance are reported, not raised.
    """
    if not _is_frame_spectrum(*optimal_bounds(frame)):
        raise NotAFrameError("not a frame: bounds are undefined")

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
    tolerance = 1e-9 * max(1.0, upper * float(np.max(norm_sq)))
    passed = max(max_lower, max_upper, max_identity) <= tolerance
    return BoundCheckReport(
        alpha=float(alpha),
        lower=lower,
        upper=upper,
        samples=probes.shape[1],
        max_lower_violation=max_lower,
        max_upper_violation=max_upper,
        max_identity_residual=max_identity,
        tolerance=tolerance,
        passed=passed,
    )


def commuting_scale(frame: Frame, scale_op) -> Frame:
    """Rescale the frame by the square root of a commuting positive operator.

    The new family {scale_op^(1/2) phi_i} shares its Parseval-tight family
    with the original frame. ``scale_op`` must be exactly symmetric, positive
    definite, and commute with the frame operator (Frobenius norm of the
    commutator within 1e-9 of ||scale_op|| * ||S||).
    """
    decomp = eigh(scale_op)
    scale = np.asarray(scale_op, dtype=float)
    lam_min = float(decomp.eigenvalues[0])
    lam_max = float(decomp.eigenvalues[-1])
    if not _is_frame_spectrum(lam_min, lam_max):
        raise ValueError("scaling operator must be positive definite")
    operator = frame_operator(frame)
    commutator = scale @ operator - operator @ scale
    limit = 1e-9 * lam_max * optimal_bounds(frame)[1]
    if float(np.linalg.norm(commutator)) > limit:
        raise ValueError("scaling operator must commute with the frame operator")
    root = spectral_function(decomp, math.sqrt)
    return Frame(frame.dim, frame.vectors @ root)


def _probes(frame: Frame, samples: int, seed: int) -> np.ndarray:
    """Probe vectors as columns: ``samples`` seeded unit vectors, then every
    eigenvector of the frame operator."""
    rng = np.random.default_rng(seed)
    columns = []
    while len(columns) < samples:
        v = rng.standard_normal(frame.dim)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            columns.append(v / norm)
    return np.column_stack(columns + [frame_spectrum(frame).eigenvectors])


# ---------------------------------------------------------------------------
# Frame file format: {"dim": n, "vectors": [[...], ...], "bounds": [A, B]}
# with "bounds" optional. Floats are emitted with 17 significant digits so
# files round-trip bit-faithfully.
# ---------------------------------------------------------------------------


def frame_from_dict(data) -> Frame:
    """Build a frame from a parsed JSON object, validating the schema."""
    if not isinstance(data, dict):
        raise ValueError("frame file must contain a JSON object")
    missing = {"dim", "vectors"} - set(data)
    if missing:
        raise ValueError(f"frame file is missing fields: {sorted(missing)}")
    unknown = set(data) - {"dim", "vectors", "bounds"}
    if unknown:
        raise ValueError(f"frame file has unknown fields: {sorted(unknown)}")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    vectors = data["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise ValueError("'vectors' must be a non-empty list of vectors")
    for row in vectors:
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"every vector must be a list of {dim} numbers")
    bounds = None
    if "bounds" in data and data["bounds"] is not None:
        raw = data["bounds"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ValueError("'bounds' must be a two-element list [A, B]")
        bounds = (float(raw[0]), float(raw[1]))
    return Frame(dim, np.array(vectors, dtype=float), bounds)


def load_frame(path) -> Frame:
    """Read a frame from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return frame_from_dict(data)


def _format_float(x: float) -> str:
    """17 significant digits: enough for every float64 to round-trip."""
    return format(float(x), ".17g")


def _json_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, float):
        return _format_float(value)
    return json.dumps(value)


def _json_object(pairs) -> str:
    """A JSON object with one ``key: value`` pair per line; floats carry 17
    significant digits and lists stay on their key's line."""
    body = ",\n".join(f'  "{key}": {_json_value(value)}' for key, value in pairs)
    return "{\n" + body + "\n}\n"


def frame_to_json(frame: Frame) -> str:
    """Serialize a frame to the JSON file format (17 significant digits)."""
    pairs = [("dim", frame.dim), ("vectors", frame.vectors.tolist())]
    if frame.declared_bounds is not None:
        pairs.append(("bounds", frame.declared_bounds))
    return _json_object(pairs)
