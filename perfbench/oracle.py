"""Ground truth for the benchmark's correctness checks.

Nothing here imports framecalc. Every expected value comes from the spectral
data the generator chose (an orthogonal basis ``q`` and eigenvalues ``lam``
with ``S = q diag(lam) q^T``), from numpy's least squares, or from the closed
forms of the paper: the three series as scalar functions of an eigenvalue,
their analytical bounds, and the tight-window constant ``2*pi/(p0*q0)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

EPS = 2.0**-52

# An exact answer is accepted when its relative error is at most this many
# units of kappa*eps. Jacobi stops at an off-diagonal mass of 1e-13*||S||_F,
# which is ~4e3 kappa*eps at n=64; a wrong formula is off by O(1).
RTOL_PER_KAPPA_EPS = 1e4

# Measured series errors must match the spectral prediction this closely.
SERIES_RTOL = 1e-6
SERIES_ATOL = 1e-9

# The tightness check is a quadrature; the library's own gate is 1%.
GABOR_RTOL = 1e-2


class Truth(NamedTuple):
    """A generated frame: ``vectors = u diag(sqrt(lam)) q^T`` (count x n)."""

    vectors: np.ndarray
    q: np.ndarray
    lam: np.ndarray

    @property
    def kappa(self) -> float:
        return float(self.lam[-1] / self.lam[0])


def orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def spectrum(rng: np.random.Generator, n: int, lam_min: float, lam_max: float) -> np.ndarray:
    """Ascending eigenvalues hitting both ends, log-uniform in between (n >= 2)."""
    inner = np.exp(rng.uniform(math.log(lam_min), math.log(lam_max), n - 2))
    return np.sort(np.concatenate([[lam_min], inner, [lam_max]]))


def make_frame(rng: np.random.Generator, count: int, lam: np.ndarray) -> Truth:
    n = len(lam)
    q = orthonormal(rng, n, n)
    u = orthonormal(rng, count, n)
    return Truth((u * np.sqrt(lam)) @ q.T, q, lam)


def family(truth: Truth, multiplier: np.ndarray) -> np.ndarray:
    """Vectors of the family ``g(S) phi_i`` for per-eigenvalue values ``g(lam)``."""
    return truth.vectors @ ((truth.q * multiplier) @ truth.q.T)


def lstsq_dual(vectors: np.ndarray) -> np.ndarray:
    """Canonical dual as the least-squares pseudo-inverse of the synthesis matrix."""
    pinv = np.linalg.lstsq(vectors, np.eye(vectors.shape[0]), rcond=None)[0]
    return pinv.T


def rel_err(found, expected) -> float:
    found = np.asarray(found, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if found.shape != expected.shape:
        return math.inf
    scale = float(np.linalg.norm(expected))
    return float(np.linalg.norm(found - expected)) / (scale if scale > 0.0 else 1.0)


def accepted(error: float, kappa: float) -> bool:
    return error <= RTOL_PER_KAPPA_EPS * kappa * EPS


def stamped_bounds(lam_min: float, lam_max: float, alpha: float) -> tuple[float, float]:
    k = 2.0 * alpha + 1.0
    if alpha > -0.5:
        return lam_min**k, lam_max**k
    if alpha == -0.5:
        return 1.0, 1.0
    return lam_max**k, lam_min**k


# ---------------------------------------------------------------------------
# The three series as scalar functions of one eigenvalue
# ---------------------------------------------------------------------------

NEUMANN = "Neumann"
BINOMIAL = "BinomialHalf"
LOGARITHMIC = "Logarithmic"
SCHEMES = (NEUMANN, BINOMIAL, LOGARITHMIC)


def series_multipliers(scheme: str, lam: np.ndarray, lower: float, upper: float, n_max: int):
    """Per-eigenvalue multiplier of the order-N family, for N = 0..n_max.

    Returns an (n_max + 1, n) array ``g`` with family_N = phi g_N(S).
    Neumann: (2/(A+B)) sum r^k with r = 1 - 2 lam/(A+B). BinomialHalf:
    sqrt(2/(A+B)) sum C(-1/2, k) (-r)^k. Logarithmic: e_N(x)/sqrt(AB) with
    x = ln(sqrt(AB)/lam), since c R_log = ln(sqrt(AB) S^-1) in every regime.
    """
    lam = np.asarray(lam, dtype=float)
    if scheme == LOGARITHMIC:
        x = np.log(math.sqrt(lower * upper) / lam)
        step = lambda k, term: term * x / k  # noqa: E731
        scale = 1.0 / math.sqrt(lower * upper)
    else:
        c = 2.0 / (lower + upper)
        r = 1.0 - c * lam
        if scheme == NEUMANN:
            step = lambda k, term: term * r  # noqa: E731
            scale = c
        else:
            step = lambda k, term: term * (-r) * (0.5 - k) / k  # noqa: E731
            scale = math.sqrt(c)
    out = np.empty((n_max + 1, len(lam)))
    term = np.ones_like(lam)
    acc = term.copy()
    out[0] = acc
    for k in range(1, n_max + 1):
        term = step(k, term)
        acc = acc + term
        out[k] = acc
    return scale * out


def predicted_errors(scheme: str, lam: np.ndarray, lower: float, upper: float, n_max: int) -> np.ndarray:
    """Worst relative reconstruction error per order, as the convergence
    harness measures it: the error operator is symmetric and its eigenvectors
    are among the probes, so the worst error is its largest eigenvalue."""
    lam = np.asarray(lam, dtype=float)
    if scheme == NEUMANN:
        r = np.abs(1.0 - 2.0 * lam / (lower + upper))
        return np.array([float(np.max(r ** (k + 1))) for k in range(n_max + 1)])
    g = series_multipliers(scheme, lam, lower, upper, n_max)
    gain = g * g * lam if scheme == BINOMIAL else g * lam
    return np.max(np.abs(1.0 - gain), axis=1)


def _log_regime(lower: float, upper: float) -> tuple[float, float]:
    if lower > 1.0:
        return math.log(lower) / math.log(upper), math.log(upper)
    if upper < 1.0:
        return math.log(upper) / math.log(lower), abs(math.log(lower))
    base = 2.0 * upper / lower
    return math.log(2.0) / math.log(base), math.log(base)


def analytical_bound(scheme: str, lower: float, upper: float, order: int) -> float:
    """The paper's reconstruction bounds, the logarithmic one through lgamma."""
    if scheme == NEUMANN:
        return ((upper - lower) / (upper + lower)) ** (order + 1)
    if scheme == BINOMIAL:
        ratio = (upper - lower) / (2.0 * lower)
        stretch = math.sqrt(upper / lower)
        head = stretch * ratio ** (order + 1)
        return head * (2.0 + head)
    s, scale = _log_regime(lower, upper)
    radius = (1.0 - s) / 2.0 * scale
    if radius == 0.0:
        return 0.0
    return math.exp(
        math.log(upper / lower) + (order + 1) * math.log(radius) - math.lgamma(order + 2)
    )


def library_bound_holds(measured: float, bound: float) -> bool:
    """framecalc's own dominance test: 1e-12 relative and 1e-13 absolute slack."""
    return measured <= bound * (1.0 + 1e-12) + 1e-13


def rounding_floor(lower: float, upper: float) -> float:
    """Level below which a measured series error is rounding noise: the
    logarithmic series cancels terms up to sqrt(B/A) down to sqrt(A/B)."""
    return RTOL_PER_KAPPA_EPS * (upper / lower) * EPS


def bounds_close(found: float, expected: float) -> bool:
    return abs(found - expected) <= 1e-9 * abs(expected) + 1e-300


def gabor_target(p0: float, q0: float, gain: float) -> float:
    return 2.0 * math.pi / (p0 * q0) * gain**2
