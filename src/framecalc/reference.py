"""Built-in demonstration frames and the numeric claims they satisfy.

Two small overcomplete frames (standard basis plus a normalized diagonal
vector, in R^2 and R^3) have closed-form frame operators, eigenpairs, and
power families, which makes them exact regression anchors. The checks here
regenerate every claimed value and identity, including the tight window's
partition and frame constants, and are what the ``examples`` subcommand of
the command line runs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .approx import (ConvergenceRow, _floor, binomial_bounds, binomial_remainder_norm,
                     log_exact_inverse, log_remainder_norm, zn_bound)
from .contract import Scheme, _check_count
from .frames import (Frame, alpha_frame, commuting_scale, frame_operator, frame_spectrum,
                     proposition1_check)
from .gabor import TIGHTNESS_RTOL, GaborParams, sample_grid, tightness_check, window_g

__all__ = [
    "CheckResult",
    "builtin_checks",
    "demo_frame_2d",
    "demo_frame_3d",
    "demo_gabor_params",
    "expected_power_family",
    "gabor_probe_signals",
]

SQRT2 = math.sqrt(2.0)

# The seed of every random probe that ``builtin_checks`` draws.
SEED = 20240801


def demo_frame_2d() -> Frame:
    """Three vectors in R^2: the standard basis plus (1, 1)/sqrt(2).

    A (1, 2)-frame; its frame operator is [[3, 1], [1, 3]]/2 with eigenvalues
    1 and 2.
    """
    return _basis_plus_diagonal(2)


def demo_frame_3d() -> Frame:
    """Four vectors in R^3: the standard basis plus (1, 1, 1)/sqrt(3).

    A (1, 2)-frame; its frame operator is [[4, 1, 1], [1, 4, 1], [1, 1, 4]]/3
    with eigenvalues (1, 1, 2).
    """
    return _basis_plus_diagonal(3)


def _basis_plus_diagonal(dim: int) -> Frame:
    """The standard basis of R^dim plus the unit diagonal: S = I + 11^T/dim,
    with eigenvalues 1 and 2 in every dimension."""
    diagonal = np.full((1, dim), 1.0 / math.sqrt(dim))
    return Frame(dim, np.vstack([np.eye(dim), diagonal]), (1.0, 2.0))


def _power_operator(dim: int, alpha: float) -> np.ndarray:
    """S^alpha of the basis-plus-diagonal frame in closed form: 11^T/dim
    projects onto the eigenvalue 2 and its complement onto 1, so
    S^alpha = I + (2^alpha - 1) 11^T/dim."""
    return np.eye(dim) + (2.0**alpha - 1.0) / dim


def expected_power_family(dim: int, alpha: float) -> np.ndarray:
    """Closed-form power-family vectors {S^alpha phi_i} of the dim-dimensional
    demo frame (``demo_frame_2d`` and ``demo_frame_3d`` at dim 2 and 3); at
    alpha = -1/2 the Parseval-tight family."""
    return _basis_plus_diagonal(dim).vectors @ _power_operator(dim, alpha)


def demo_gabor_params() -> GaborParams:
    """Default window parameters: p0 = 1, q0 = 4 (so pi <= q0 < 2*pi)."""
    return GaborParams(p0=1.0, q0=4.0)


def gabor_probe_signals(params: GaborParams, count: int = 5, seed: int = 7):
    """Seeded smooth test signals, well supported inside the grid.

    Each is a real pair of Gaussian bumps with centers within 2*q0 of the
    origin; the last carries a slow complex modulation exp(0.2i*x) for
    coverage, taken as the G//2 + 1 powers of exp(0.2i*grid_step) that
    ``unit_powers`` builds from about sqrt(2*G) complex exponentials on a grid
    of G points. All 2*count bumps are one broadcast over a (2*count, G) array.
    ``count`` and ``seed`` must be non-negative integers (a bool is neither).
    """
    count = _check_count("count", count)
    grid = sample_grid(params)
    # Center, width and amplitude of each bump in turn, each drawn as
    # Generator.uniform draws it: low + (high - low) * a standard uniform.
    low = np.array([-2.0 * params.q0, 0.6, 0.5])
    high = np.array([2.0 * params.q0, 1.3, 1.5])
    draws = low + (high - low) * np.random.default_rng(_check_count("seed", seed)).random((2 * count, 3))
    center, amplitude = draws[:, 0, None], draws[:, 2, None]
    # Squared as Python floats: pow can round apart from numpy's square, and
    # the seeded probes are fixed reference signals.
    spread = np.array([2.0 * (width * params.q0) ** 2 for width in draws[:, 1].tolist()])[:, None]
    # In place, and freed once paired: one (2*count, G) array at a time.
    bumps = grid - center
    np.square(bumps, out=bumps)
    bumps /= -spread
    np.exp(bumps, out=bumps)
    bumps *= amplitude
    bumps = bumps[0::2] + bumps[1::2]
    signals = list(bumps)
    if signals:
        # Powers k = 0..half of exp(0.2i*grid_step), mirrored as their
        # conjugates onto the negative half of the symmetric grid.
        powers = unit_powers(0.2 * params.grid_step, len(grid) // 2 + 1)
        signals[-1] = signals[-1] * np.concatenate((powers[:0:-1].conj(), powers))
    return signals


def unit_powers(theta: float, count: int) -> np.ndarray:
    """exp(i*theta*m) for m < count.

    The index factors, m = F*c + d with F = isqrt(count), so the powers take
    F + ceil(count/F) complex exponentials and one complex product each. Every
    angle is theta times an integer, rounded once.
    """
    fine = math.isqrt(count)
    ms = np.concatenate((np.arange(0, count, fine), np.arange(fine)))
    exps = np.exp(1j * theta * ms)
    return (exps[:-fine, None] * exps[None, -fine:]).reshape(-1)[:count]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _max_deviation(found: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(found - expected)))


def builtin_checks() -> list[CheckResult]:
    """Regenerate every built-in numeric claim; deterministic, with every
    random probe drawn from ``SEED``."""
    results: list[CheckResult] = []

    def record(name: str, deviation: float, tol: float) -> None:
        results.append(
            CheckResult(name, deviation <= tol, f"max deviation {deviation:.3e} (tol {tol:.0e})")
        )

    frame2 = demo_frame_2d()
    record("2d-frame-operator", _max_deviation(frame_operator(frame2), _power_operator(2, 1.0)), 1e-10)

    decomp = frame_spectrum(frame2)
    eig_dev = _max_deviation(decomp.eigenvalues, np.array([1.0, 2.0]))
    expected_vectors = np.array([[1.0, 1.0], [-1.0, 1.0]]) / SQRT2
    vec_dev = _max_deviation(decomp.eigenvectors, expected_vectors)
    record("2d-eigenpairs", max(eig_dev, vec_dev), 1e-10)

    for alpha in (-1.0, -0.5, -1.0 / 3.0, -2.0 / 3.0):
        found = alpha_frame(frame2, alpha).vectors
        record(
            f"2d-power-family-alpha={alpha:g}",
            _max_deviation(found, expected_power_family(2, alpha)),
            1e-10,
        )

    for alpha in (-1.0, -1.0 / 3.0, -2.0 / 3.0):
        # The family's frame operator is S^(2 alpha + 1), with eigenvalues 1 and 2^(2 alpha + 1).
        lower, upper = sorted((1.0, 2.0 ** (2.0 * alpha + 1.0)))
        report = proposition1_check(frame2, alpha, samples=100, seed=SEED)
        stamped_dev = max(abs(report.lower - lower), abs(report.upper - upper))
        ok = report.passed and stamped_dev <= 1e-12
        results.append(
            CheckResult(
                f"2d-bound-sweep-alpha={alpha:g}",
                ok,
                f"bounds ({report.lower:.12g}, {report.upper:.12g}), "
                f"worst violation {report.worst_violation:.3e}",
            )
        )

    # The paper's operator-level claims at the declared bounds: S^(-1) equals
    # exp(c R_log)/sqrt(A B), and each truncation operator is within its bound
    # plus its rounding floor.
    lower, upper = frame2.declared_bounds
    inverse_dev = _max_deviation(log_exact_inverse(frame2, lower, upper), _power_operator(2, -1.0))
    record("2d-log-exact-inverse", inverse_dev, 1e-10)
    for name, scheme, norm, bound in (
        ("2d-binomial-truncation-norm", Scheme.BINOMIAL_HALF, binomial_remainder_norm,
         lambda n: binomial_bounds(lower, upper, n).tn_bound),
        ("2d-log-truncation-norm", Scheme.LOGARITHMIC, log_remainder_norm,
         lambda n: zn_bound(lower, upper, n)),
    ):
        floors = [_floor(scheme, lower, upper, n, frame2) for n in range(11)]
        rows = [ConvergenceRow(n, norm(frame2, lower, upper, n), bound(n), floors[n]) for n in range(11)]
        worst = max(row.measured_error / row.analytical_bound for row in rows)
        ok = all(row.passed for row in rows)
        results.append(CheckResult(name, ok, f"worst norm/bound {worst:.3e} over N = 0..10"))

    frame3 = demo_frame_3d()
    record("3d-frame-operator", _max_deviation(frame_operator(frame3), _power_operator(3, 1.0)), 1e-9)

    decomp3 = frame_spectrum(frame3)
    eig_dev = _max_deviation(decomp3.eigenvalues, np.array([1.0, 1.0, 2.0]))
    top = decomp3.eigenvectors[:, 2]
    top_dev = _max_deviation(top, np.full(3, 1.0 / math.sqrt(3.0)))
    record("3d-eigenvalues", max(eig_dev, top_dev), 1e-9)

    tight3 = expected_power_family(3, -0.5)
    record("3d-tight-family", _max_deviation(alpha_frame(frame3, -0.5).vectors, tight3), 1e-9)

    # At alpha = -1/2 the identity residual is each probe's Parseval defect.
    parseval = proposition1_check(frame3, -0.5, samples=100, seed=SEED)
    record("3d-parseval-identity", parseval.worst_violation, parseval.tolerance)

    # T = S gives the power family at 1/2; the tight family alone matches any commuting T.
    scaled3 = commuting_scale(frame3, lambda lam: lam)
    half_dev = _max_deviation(scaled3.vectors, expected_power_family(3, 0.5))
    tight_dev = _max_deviation(alpha_frame(scaled3, -0.5).vectors, tight3)
    record("3d-commuting-rescale", max(half_dev, tight_dev), 1e-9)

    params = demo_gabor_params()
    edge = math.pi / params.p0
    outside = np.concatenate(
        [np.linspace(-3.0 * edge, -edge, 200), np.linspace(edge, 3.0 * edge, 200)]
    )
    support_dev = float(np.max(np.abs(window_g(outside, params))))
    record("window-support", support_dev, 0.0)

    xs = np.linspace(-5.0 * params.q0, 5.0 * params.q0, 10_000)
    shifts = np.arange(-7, 8)
    partition = np.zeros_like(xs)
    for k in shifts:
        partition += window_g(xs - k * params.q0, params) ** 2
    partition_dev = float(np.max(np.abs(partition - 1.0 / params.q0)))
    record("window-partition-identity", partition_dev, 1e-10 / params.q0)

    reports = [tightness_check(signal, params) for signal in gabor_probe_signals(params, seed=SEED)]
    worst_ratio_err = max(report.relative_error for report in reports)
    results.append(
        CheckResult(
            "window-tightness",
            all(report.passed for report in reports),
            f"worst relative error {worst_ratio_err:.3e} (tol {TIGHTNESS_RTOL:.0e})",
        )
    )

    gain = math.sqrt(1.0 / params.tight_constant)
    rescaled = tightness_check(window_g(sample_grid(params), params), params, window_gain=gain)
    ok = rescaled.passed and abs(rescaled.target - 1.0) <= 1e-12
    results.append(
        CheckResult(
            "window-parseval-rescale",
            ok,
            f"ratio {rescaled.ratio:.12g} against target 1",
        )
    )

    return results
