"""Perturbative approximation of dual and tight frames, with error bounds.

Three truncated-series schemes approximate the inverse (or inverse square
root) of the frame operator S given declared bounds A <= B:

* Neumann: with R = I - (2/(A+B)) S, the dual vectors are the geometric
  series (2/(A+B)) sum_k R^k phi_i; the reconstruction error after N terms
  is at most ((B-A)/(B+A))^(N+1).
* BinomialHalf: the tight-family vectors come from the binomial series of
  (I - R)^(-1/2); the error bound converges only when B < 3A.
* Logarithmic: S^(-1) = exp(c R_log)/sqrt(A B) for a base-dependent
  logarithmic remainder R_log; truncating the exponential series gives
  factorially convergent bounds, which is what makes large B/A tractable.

Every scheme is paired with its analytical bound and with a convergence
harness that measures the worst reconstruction error over seeded probes and
checks it against the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .frames import (
    Frame,
    _checked_bounds,
    _checked_frame_bounds,
    _format_float,
    _probes,
    frame_operator,
    frame_spectrum,
)
from .linalg import operator_norm, spectral_function, symmetrize

__all__ = [
    "BOUND_ABS_SLACK",
    "BOUND_REL_SLACK",
    "BinomialBounds",
    "ConvergenceReport",
    "ConvergenceRow",
    "LogRegime",
    "RegimeKind",
    "Scheme",
    "binomial_bounds",
    "binomial_half_coefficients",
    "binomial_remainder_norm",
    "binomial_tight",
    "bound_satisfied",
    "log_bound",
    "log_dual",
    "log_exact_inverse",
    "log_regime",
    "log_remainder_norm",
    "neumann_R",
    "neumann_bound",
    "neumann_dual",
    "run_convergence",
    "write_csv",
    "zn_bound",
]

# With optimal declared bounds the Neumann error attains its bound exactly on
# extreme eigenvectors, so a strict float comparison would be a coin flip at a
# few ulps. These slacks sit orders of magnitude below every stated tolerance.
BOUND_REL_SLACK = 1e-12
BOUND_ABS_SLACK = 1e-13


class Scheme(Enum):
    NEUMANN = "Neumann"
    BINOMIAL_HALF = "BinomialHalf"
    LOGARITHMIC = "Logarithmic"


class RegimeKind(Enum):
    BOUNDS_ABOVE_ONE = "BoundsAboveOne"
    BOUNDS_BELOW_ONE = "BoundsBelowOne"
    STRADDLING = "Straddling"


@dataclass(frozen=True)
class LogRegime:
    """Dispatch data for the logarithmic scheme.

    The scheme takes logarithms of ``shift * S`` to the base ``base``: shift 1
    and base B above one, shift 1 and base A below one, shift 2/A and base
    b = 2B/A when the bounds straddle one. ``contraction`` is the derived
    constant in (0, 1], the log to that base of the shifted bound nearest one
    (log_B A, log_A B or log_b 2), and ``log_scale`` is |ln base|.
    """

    kind: RegimeKind
    lower: float
    upper: float
    contraction: float
    log_scale: float
    shift: float
    base: float


class BinomialBounds(NamedTuple):
    """Truncation-operator bound, reconstruction bound, and convergence flag."""

    tn_bound: float
    reconstruction_bound: float
    convergent: bool


@dataclass(frozen=True)
class ConvergenceRow:
    order: int
    measured_error: float
    analytical_bound: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured worst reconstruction error versus analytical bound, per order.

    ``samples`` and ``seed`` record how the probe vectors were drawn so runs
    are reproducible.
    """

    scheme: Scheme
    lower: float
    upper: float
    rows: tuple[ConvergenceRow, ...]
    samples: int
    seed: int

    def violations(self) -> list[ConvergenceRow]:
        return [
            row
            for row in self.rows
            if not bound_satisfied(row.measured_error, row.analytical_bound)
        ]

    @property
    def passed(self) -> bool:
        return not self.violations()


def bound_satisfied(measured: float, bound: float) -> bool:
    """Dominance check with floating-point slack for equality-tight rows."""
    return measured <= bound * (1.0 + BOUND_REL_SLACK) + BOUND_ABS_SLACK


def _log(value: float) -> float:
    """Natural log that maps 0.0 to -inf, so a zero base gives a zero bound."""
    return math.log(value) if value > 0.0 else -math.inf


def _exp(log_value: float) -> float:
    """exp of a bound summed in logs: inf on overflow, 0.0 on underflow."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _check_order(order: int) -> int:
    order = int(order)
    if order < 0:
        raise ValueError(f"series order must be non-negative, got {order}")
    return order


# ---------------------------------------------------------------------------
# Neumann scheme
# ---------------------------------------------------------------------------


def neumann_R(frame: Frame, lower: float, upper: float) -> np.ndarray:
    """The remainder operator R = I - (2/(A+B)) S; ||R|| <= (B-A)/(B+A)."""
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    operator = frame_operator(frame)
    return symmetrize(np.eye(frame.dim) - (2.0 / (lower + upper)) * operator)


def neumann_dual(frame: Frame, lower: float, upper: float, order: int) -> Frame:
    """Order-N geometric-series approximation of the canonical dual."""
    return _family(frame, Scheme.NEUMANN, lower, upper, order)


def neumann_bound(lower: float, upper: float, order: int) -> float:
    """Worst relative reconstruction error of the order-N Neumann dual:
    ((B-A)/(B+A))^(N+1), summed in logs like every bound here."""
    lower, upper = _checked_bounds(lower, upper)
    order = _check_order(order)
    return _exp((order + 1) * _log((upper - lower) / (upper + lower)))


# ---------------------------------------------------------------------------
# Binomial square-root scheme
# ---------------------------------------------------------------------------


def binomial_half_coefficients(order: int) -> np.ndarray:
    """Binomial coefficients C(-1/2, k) for k = 0..order via the recurrence
    C(-1/2, 0) = 1, C(-1/2, k) = C(-1/2, k-1) * (-1/2 - k + 1) / k."""
    order = _check_order(order)
    coeffs = np.empty(order + 1)
    coeffs[0] = 1.0
    for k in range(1, order + 1):
        coeffs[k] = coeffs[k - 1] * (-0.5 - k + 1.0) / k
    return coeffs


def binomial_tight(frame: Frame, lower: float, upper: float, order: int) -> Frame:
    """Order-N binomial-series approximation of the Parseval-tight family.

    Truncates sqrt(2/(A+B)) * (I - R)^(-1/2) phi_i; the series itself
    converges for any valid bounds, but the analytical error bound only
    converges when B < 3A.
    """
    return _family(frame, Scheme.BINOMIAL_HALF, lower, upper, order)


def binomial_bounds(lower: float, upper: float, order: int) -> BinomialBounds:
    """Truncation and reconstruction bounds for the binomial scheme.

    With q = (B-A)/(2A): tn = q^(N+1) sqrt((A+B)/(2A)) and, with
    h = sqrt(B/A) q^(N+1), reconstruction = h (2 + h). The powers are summed
    in logs, so past B = 3A a high order gives inf instead of raising.
    ``convergent`` is False when B >= 3A, where the bound ratio q reaches one
    and the estimates no longer shrink with N.
    """
    lower, upper = _checked_bounds(lower, upper)
    order = _check_order(order)
    log_power = (order + 1) * _log((upper - lower) / (2.0 * lower))
    tn = _exp(log_power + 0.5 * math.log((lower + upper) / (2.0 * lower)))
    head = _exp(log_power + 0.5 * math.log(upper / lower))
    return BinomialBounds(tn, head * (2.0 + head), upper < 3.0 * lower)


def binomial_remainder_norm(frame: Frame, lower: float, upper: float, order: int) -> float:
    """Spectral norm of (I-R)^(-1/2) minus its order-N binomial truncation."""
    return _truncation_norm(frame, Scheme.BINOMIAL_HALF, lower, upper, order)


# ---------------------------------------------------------------------------
# Logarithmic scheme
# ---------------------------------------------------------------------------


def log_regime(lower: float, upper: float) -> LogRegime:
    """Classify declared bounds for the logarithmic scheme.

    Boundary values (A = 1 or B = 1) route to the straddling construction,
    which is valid there, so the dispatch is total.
    """
    lower, upper = _checked_bounds(lower, upper)
    # near: the shifted bound nearest one, whose log to the base is the contraction.
    if lower > 1.0:
        kind, shift, base, near = RegimeKind.BOUNDS_ABOVE_ONE, 1.0, upper, lower
    elif upper < 1.0:
        kind, shift, base, near = RegimeKind.BOUNDS_BELOW_ONE, 1.0, lower, upper
    else:
        kind, shift, base, near = RegimeKind.STRADDLING, 2.0 / lower, 2.0 * upper / lower, 2.0
    log_base = math.log(base)
    return LogRegime(kind, lower, upper, math.log(near) / log_base, abs(log_base), shift, base)


def _log_generator(lower: float, upper: float) -> Callable[[float], float]:
    """The generator c R_log as a scalar function of S: S^(-1) = exp(c R_log)/sqrt(A B).
    With R_log = I - (2/(1+s)) log_base(shift S) for the regime's base and
    shift, and c = log(base) (1+s)/2, the generator is c - log(shift S)."""
    regime = log_regime(lower, upper)
    prefactor = math.log(regime.base) * (1.0 + regime.contraction) / 2.0
    return lambda lam: prefactor - math.log(regime.shift * lam)


def log_exact_inverse(frame: Frame, lower: float, upper: float) -> np.ndarray:
    """Inverse frame operator written as exp(c R_log)/sqrt(A B).

    Exponential and logarithm are evaluated exactly through the spectrum, so
    the result matches the spectral inverse of S in every regime.
    """
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    generator = _log_generator(lower, upper)
    exponential = spectral_function(frame_spectrum(frame), lambda lam: math.exp(generator(lam)))
    return exponential / math.sqrt(lower * upper)


def log_dual(frame: Frame, lower: float, upper: float, order: int) -> Frame:
    """Order-N exponential-series approximation of the canonical dual.

    The zeroth order is phi_i / sqrt(A B): the geometric mean of the bounds
    replaces the arithmetic mean of the Neumann scheme.
    """
    return _family(frame, Scheme.LOGARITHMIC, lower, upper, order)


def _exponential_tail(lower: float, upper: float, order: int, ratio_power: float) -> float:
    """(B/A)^ratio_power * ((1-s) L / 2)^(N+1) / (N+1)!, summed in logs so that
    it underflows to 0.0 and overflows to inf instead of raising."""
    regime = log_regime(lower, upper)
    order = _check_order(order)
    radius = (1.0 - regime.contraction) / 2.0 * regime.log_scale
    return _exp(
        ratio_power * math.log(upper / lower)
        + (order + 1) * _log(radius)
        - math.lgamma(order + 2)
    )


def log_bound(lower: float, upper: float, order: int) -> float:
    """Worst relative reconstruction error of the order-N logarithmic dual:
    (B/A) * ((1-s) L / 2)^(N+1) / (N+1)! with regime constants (s, L)."""
    return _exponential_tail(lower, upper, order, 1.0)


def zn_bound(lower: float, upper: float, order: int) -> float:
    """Bound on the exponential-series truncation operator:
    sqrt(B/A) * ((1-s) L / 2)^(N+1) / (N+1)!."""
    return _exponential_tail(lower, upper, order, 0.5)


def log_remainder_norm(frame: Frame, lower: float, upper: float, order: int) -> float:
    """Spectral norm of exp(c R_log) minus its order-N Taylor truncation."""
    return _truncation_norm(frame, Scheme.LOGARITHMIC, lower, upper, order)


# ---------------------------------------------------------------------------
# Series engine and convergence harness
# ---------------------------------------------------------------------------


def _log_operator(frame: Frame, lower: float, upper: float) -> np.ndarray:
    """The generator c R_log as a matrix, read from the frame's spectrum."""
    return spectral_function(frame_spectrum(frame), _log_generator(lower, upper))


class _Rule(NamedTuple):
    """Everything that sets a scheme apart. Its series sums t_k = t_(k-1) @ op
    * weight(k) with op = operator(frame, A, B), and scale * series
    approximates S^power phi_i, with reconstruction error at most bound(A, B, N)."""

    operator: Callable[[Frame, float, float], np.ndarray]
    weight: Callable[[int], float]
    scale: Callable[[float, float], float]
    bound: Callable[[float, float, int], float]
    power: float


# Weights are the ratios of consecutive series coefficients: geometric,
# (-1)^k C(-1/2, k), and 1/k! for the exponential.
_RULES = {
    Scheme.NEUMANN: _Rule(
        neumann_R, lambda k: 1.0, lambda a, b: 2.0 / (a + b), neumann_bound, -1.0
    ),
    Scheme.BINOMIAL_HALF: _Rule(
        neumann_R,
        lambda k: (k - 0.5) / k,
        lambda a, b: math.sqrt(2.0 / (a + b)),
        lambda a, b, n: binomial_bounds(a, b, n).reconstruction_bound,
        -0.5,
    ),
    Scheme.LOGARITHMIC: _Rule(
        _log_operator, lambda k: 1.0 / k, lambda a, b: 1.0 / math.sqrt(a * b), log_bound, -1.0
    ),
}


def _series(
    frame: Frame, scheme: Scheme, lower: float, upper: float, start: np.ndarray, order: int
) -> Iterator[np.ndarray]:
    """Yield the partial sums t_0 + ... + t_N for N = 0..order, where t_0 = start
    and t_k = t_(k-1) @ op * weight(k); one matrix product per order."""
    rule = _RULES[scheme]
    op = rule.operator(frame, lower, upper)
    term = acc = start
    yield acc
    for k in range(1, order + 1):
        term = (term @ op) * rule.weight(k)
        acc = acc + term
        yield acc


def _partial_sum(
    frame: Frame, scheme: Scheme, lower: float, upper: float, start: np.ndarray, order: int
) -> tuple[np.ndarray, float]:
    """The order-N partial sum of a scheme's series from ``start``, and the
    scheme's scale, after checking the order and the bounds."""
    order = _check_order(order)
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    for acc in _series(frame, scheme, lower, upper, start, order):
        pass
    return acc, _RULES[scheme].scale(lower, upper)


def _family(frame: Frame, scheme: Scheme, lower: float, upper: float, order: int) -> Frame:
    """The scheme's order-N approximate family (dual, or tight for BinomialHalf)."""
    acc, scale = _partial_sum(frame, scheme, lower, upper, frame.vectors, order)
    return Frame(frame.dim, scale * acc)


def _truncation_norm(frame: Frame, scheme: Scheme, lower: float, upper: float, order: int) -> float:
    """Spectral norm of the operator a scheme's series sums to, S^power / scale,
    minus its order-N truncation on the identity."""
    acc, scale = _partial_sum(frame, scheme, lower, upper, np.eye(frame.dim), order)
    power = _RULES[scheme].power
    exact = spectral_function(frame_spectrum(frame), lambda lam: lam**power / scale)
    return operator_norm(symmetrize(exact - acc))


def run_convergence(
    frame: Frame,
    scheme: Scheme,
    lower: float,
    upper: float,
    n_max: int,
    samples: int,
    seed: int,
) -> ConvergenceReport:
    """Measure worst reconstruction error against the analytical bound.

    Probes are ``samples`` seeded unit vectors plus every eigenvector of the
    frame operator. Neumann and Logarithmic reconstruct with exact analysis
    coefficients and approximate duals; BinomialHalf uses the approximate
    tight family on both sides. BinomialHalf refuses bounds with B >= 3A,
    where its error bound does not converge.
    """
    scheme = Scheme(scheme)
    rule = _RULES[scheme]
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    n_max = _check_order(n_max)
    if samples < 0:
        raise ValueError("samples must be non-negative")
    if scheme is Scheme.BINOMIAL_HALF and not upper < 3.0 * lower:
        raise ValueError(
            f"BinomialHalf requires B < 3A: bounds ({lower}, {upper}) violate "
            "the convergence condition of its error bound"
        )

    probes = _probes(frame, samples, seed)
    probe_norms = np.linalg.norm(probes, axis=0)
    exact_coeffs = frame.vectors @ probes
    scale = rule.scale(lower, upper)
    rows = []
    for order, acc in enumerate(_series(frame, scheme, lower, upper, frame.vectors, n_max)):
        family = scale * acc
        # The tight family S^(-1/2) phi_i is its own partner; a dual pairs with the frame.
        coeffs = family @ probes if rule.power == -0.5 else exact_coeffs
        errors = np.linalg.norm(family.T @ coeffs - probes, axis=0) / probe_norms
        rows.append(ConvergenceRow(order, float(np.max(errors)), rule.bound(lower, upper, order)))

    return ConvergenceReport(
        scheme=scheme,
        lower=lower,
        upper=upper,
        rows=tuple(rows),
        samples=samples,
        seed=seed,
    )


def write_csv(report: ConvergenceReport, stream) -> None:
    """Serialize a convergence report; floats use 17 significant digits."""
    stream.write("scheme,A,B,N,measured_error,analytical_bound\n")
    head = f"{report.scheme.value},{_format_float(report.lower)},{_format_float(report.upper)}"
    for row in report.rows:
        stream.write(
            f"{head},{row.order},{_format_float(row.measured_error)},"
            f"{_format_float(row.analytical_bound)}\n"
        )
