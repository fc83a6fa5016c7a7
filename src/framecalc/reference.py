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
from dataclasses import dataclass

import numpy as np

from .frames import Frame, alpha_frame, analysis, frame_operator, frame_spectrum, proposition1_check
from .gabor import TIGHTNESS_RTOL, GaborParams, sample_grid, tightness_check, unit_powers, window_g

__all__ = [
    "CheckResult",
    "builtin_checks",
    "demo_frame_2d",
    "demo_frame_3d",
    "demo_gabor_params",
    "expected_power_family_2d",
    "gabor_probe_signals",
]

SQRT2 = math.sqrt(2.0)


def demo_frame_2d() -> Frame:
    """Three vectors in R^2: the standard basis plus (1, 1)/sqrt(2).

    A (1, 2)-frame; its frame operator is [[3, 1], [1, 3]]/2 with eigenvalues
    1 and 2.
    """
    return Frame(
        2,
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0 / SQRT2, 1.0 / SQRT2]]),
        (1.0, 2.0),
    )


def demo_frame_3d() -> Frame:
    """Four vectors in R^3: the standard basis plus (1, 1, 1)/sqrt(3).

    A (1, 2)-frame; its frame operator is [[4, 1, 1], [1, 4, 1], [1, 1, 4]]/3
    with eigenvalues (1, 1, 2).
    """
    s3 = math.sqrt(3.0)
    return Frame(
        3,
        np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [1.0 / s3, 1.0 / s3, 1.0 / s3],
            ]
        ),
        (1.0, 2.0),
    )


OPERATOR_2D = np.array([[1.5, 0.5], [0.5, 1.5]])
OPERATOR_3D = np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]) / 3.0


def expected_power_family_2d(alpha: float) -> np.ndarray:
    """Closed-form power-family vectors of the 2-d demo frame.

    With eigenprojectors onto (1, -1)/sqrt(2) and (1, 1)/sqrt(2) at
    eigenvalues 1 and 2, the power operator is E1 + 2^alpha E2, giving
    (1 +/- 2^alpha)/2 patterns for the basis vectors and 2^(alpha - 1/2)
    times (1, 1) for the diagonal one.
    """
    p = 2.0**alpha
    return np.array(
        [
            [(1.0 + p) / 2.0, (-1.0 + p) / 2.0],
            [(-1.0 + p) / 2.0, (1.0 + p) / 2.0],
            [p / SQRT2, p / SQRT2],
        ]
    )


def expected_tight_family_3d() -> np.ndarray:
    """Closed-form Parseval-tight family of the 3-d demo frame."""
    r = 1.0 / SQRT2
    third = 1.0 / 3.0
    s6 = 1.0 / math.sqrt(6.0)
    return np.array(
        [
            [third * (2.0 + r), third * (-1.0 + r), third * (-1.0 + r)],
            [third * (-1.0 + r), third * (2.0 + r), third * (-1.0 + r)],
            [third * (-1.0 + r), third * (-1.0 + r), third * (2.0 + r)],
            [s6, s6, s6],
        ]
    )


def demo_gabor_params() -> GaborParams:
    """Default window parameters: p0 = 1, q0 = 4 (so pi <= q0 < 2*pi)."""
    return GaborParams(p0=1.0, q0=4.0)


def gabor_probe_signals(params: GaborParams, count: int = 5, seed: int = 7):
    """Seeded smooth test signals, well supported inside the grid.

    Each is a real pair of Gaussian bumps with centers within 2*q0 of the
    origin; the last carries a slow complex modulation exp(0.2i*x) for
    coverage, taken as powers of exp(0.2i*grid_step) from about 3*sqrt(G)
    complex exponentials on a grid of G points.
    """
    grid = sample_grid(params)
    rng = np.random.default_rng(seed)
    signals = []
    for index in range(count):
        values = np.zeros_like(grid)
        for _ in range(2):
            center = rng.uniform(-2.0 * params.q0, 2.0 * params.q0)
            width = rng.uniform(0.6, 1.3) * params.q0
            amplitude = rng.uniform(0.5, 1.5)
            values += amplitude * np.exp(-((grid - center) ** 2) / (2.0 * width**2))
        if index == count - 1:
            # Powers k = 0..half of exp(0.2i*grid_step), mirrored as their
            # conjugates onto the negative half of the symmetric grid.
            powers = unit_powers(0.2 * params.grid_step, 1, len(grid) // 2 + 1, start=1)[0]
            values = values * np.concatenate((powers[:0:-1].conj(), powers))
        signals.append(values)
    return signals


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _max_deviation(found: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(found - expected)))


def builtin_checks(seed: int = 20240801) -> list[CheckResult]:
    """Regenerate every built-in numeric claim; deterministic for a fixed seed."""
    results: list[CheckResult] = []

    def record(name: str, deviation: float, tol: float) -> None:
        results.append(
            CheckResult(name, deviation <= tol, f"max deviation {deviation:.3e} (tol {tol:.0e})")
        )

    frame2 = demo_frame_2d()
    record("2d-frame-operator", _max_deviation(frame_operator(frame2), OPERATOR_2D), 1e-10)

    decomp = frame_spectrum(frame2)
    eig_dev = _max_deviation(decomp.eigenvalues, np.array([1.0, 2.0]))
    expected_vectors = np.array([[1.0, 1.0], [-1.0, 1.0]]) / SQRT2
    vec_dev = _max_deviation(decomp.eigenvectors, expected_vectors)
    record("2d-eigenpairs", max(eig_dev, vec_dev), 1e-10)

    for alpha in (-1.0, -0.5, -1.0 / 3.0, -2.0 / 3.0):
        found = alpha_frame(frame2, alpha).vectors
        record(
            f"2d-power-family-alpha={alpha:g}",
            _max_deviation(found, expected_power_family_2d(alpha)),
            1e-10,
        )

    expected_bounds = {
        -1.0: (0.5, 1.0),
        -1.0 / 3.0: (1.0, 2.0 ** (1.0 / 3.0)),
        -2.0 / 3.0: (2.0 ** (-1.0 / 3.0), 1.0),
    }
    for alpha, (lower, upper) in expected_bounds.items():
        report = proposition1_check(frame2, alpha, samples=100, seed=seed)
        stamped_dev = max(abs(report.lower - lower), abs(report.upper - upper))
        worst = max(
            report.max_lower_violation,
            report.max_upper_violation,
            report.max_identity_residual,
        )
        ok = report.passed and stamped_dev <= 1e-12
        results.append(
            CheckResult(
                f"2d-bound-sweep-alpha={alpha:g}",
                ok,
                f"bounds ({report.lower:.12g}, {report.upper:.12g}), "
                f"worst violation {worst:.3e}",
            )
        )

    frame3 = demo_frame_3d()
    record("3d-frame-operator", _max_deviation(frame_operator(frame3), OPERATOR_3D), 1e-9)

    decomp3 = frame_spectrum(frame3)
    eig_dev = _max_deviation(decomp3.eigenvalues, np.array([1.0, 1.0, 2.0]))
    top = decomp3.eigenvectors[:, 2]
    top_dev = _max_deviation(top, np.full(3, 1.0 / math.sqrt(3.0)))
    record("3d-eigenvalues", max(eig_dev, top_dev), 1e-9)

    tight3 = alpha_frame(frame3, -0.5)
    record(
        "3d-tight-family",
        _max_deviation(tight3.vectors, expected_tight_family_3d()),
        1e-9,
    )

    rng = np.random.default_rng(seed)
    parseval_dev = 0.0
    for _ in range(100):
        f = rng.standard_normal(3)
        total = float(np.sum(analysis(tight3, f) ** 2))
        parseval_dev = max(parseval_dev, abs(total - float(f @ f)))
    record("3d-parseval-identity", parseval_dev, 1e-9)

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

    reports = [tightness_check(signal, params) for signal in gabor_probe_signals(params, seed=seed)]
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
    ok = abs(rescaled.ratio - 1.0) <= 0.01 and abs(rescaled.target - 1.0) <= 1e-12
    results.append(
        CheckResult(
            "window-parseval-rescale",
            ok,
            f"ratio {rescaled.ratio:.12g} against target 1",
        )
    )

    return results
