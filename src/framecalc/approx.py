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

    ``contraction`` is the derived constant in (0, 1] (log_B A above one,
    log_A B below one, log_b 2 with b = 2B/A when the bounds straddle one)
    and ``log_scale`` is the matching natural-log magnitude (ln B, |ln A|,
    or ln b).
    """

    kind: RegimeKind
    lower: float
    upper: float
    contraction: float
    log_scale: float


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
    """Worst relative reconstruction error of the order-N Neumann dual."""
    lower, upper = _checked_bounds(lower, upper)
    order = _check_order(order)
    return ((upper - lower) / (upper + lower)) ** (order + 1)


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

    ``convergent`` is False when B >= 3A, where the bound ratio (B-A)/(2A)
    reaches one and the estimates no longer shrink with N.
    """
    lower, upper = _checked_bounds(lower, upper)
    order = _check_order(order)
    ratio = (upper - lower) / (2.0 * lower)
    stretch = math.sqrt(upper / lower)
    tn = ratio ** (order + 1) * math.sqrt((lower + upper) / (2.0 * lower))
    reconstruction = stretch * ratio ** (order + 1) * (
        2.0 + stretch * ratio ** (order + 1)
    )
    return BinomialBounds(tn, reconstruction, upper < 3.0 * lower)


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
    if lower > 1.0:
        return LogRegime(
            RegimeKind.BOUNDS_ABOVE_ONE,
            lower,
            upper,
            contraction=math.log(lower) / math.log(upper),
            log_scale=math.log(upper),
        )
    if upper < 1.0:
        return LogRegime(
            RegimeKind.BOUNDS_BELOW_ONE,
            lower,
            upper,
            contraction=math.log(upper) / math.log(lower),
            log_scale=abs(math.log(lower)),
        )
    base = 2.0 * upper / lower
    return LogRegime(
        RegimeKind.STRADDLING,
        lower,
        upper,
        contraction=math.log(2.0) / math.log(base),
        log_scale=math.log(base),
    )


def _log_generator(lower: float, upper: float) -> Callable[[float], float]:
    """The generator c R_log as a scalar function of S: S^(-1) = exp(c R_log)/sqrt(A B).
    With R_log = I - (2/(1+s)) log_base(shift S) for the regime's base and
    shift, and c = log(base) (1+s)/2, the generator is c - log(shift S)."""
    regime = log_regime(lower, upper)
    if regime.kind is RegimeKind.BOUNDS_ABOVE_ONE:
        shift, base = 1.0, upper
    elif regime.kind is RegimeKind.BOUNDS_BELOW_ONE:
        shift, base = 1.0, lower
    else:
        shift, base = 2.0 / lower, 2.0 * upper / lower
    prefactor = math.log(base) * (1.0 + regime.contraction) / 2.0
    return lambda lam: prefactor - math.log(shift * lam)


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
    if radius == 0.0:
        return 0.0
    log_value = (
        ratio_power * math.log(upper / lower)
        + (order + 1) * math.log(radius)
        - math.lgamma(order + 2)
    )
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


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


# Ratio t_k / t_(k-1) of consecutive series coefficients: geometric, (-1)^k C(-1/2, k),
# and 1/k! for the exponential.
_STEP_WEIGHT = {
    Scheme.NEUMANN: lambda k: 1.0,
    Scheme.BINOMIAL_HALF: lambda k: (k - 0.5) / k,
    Scheme.LOGARITHMIC: lambda k: 1.0 / k,
}


def _series(
    frame: Frame, scheme: Scheme, lower: float, upper: float, start: np.ndarray, order: int
) -> Iterator[np.ndarray]:
    """Yield the partial sums t_0 + ... + t_N for N = 0..order, where t_0 = start
    and t_k = t_(k-1) @ op * weight(k), with op = R (Neumann, BinomialHalf)
    or the generator c R_log (Logarithmic); one matrix product per order."""
    if scheme is Scheme.LOGARITHMIC:
        op = spectral_function(frame_spectrum(frame), _log_generator(lower, upper))
    else:
        op = neumann_R(frame, lower, upper)
    weight = _STEP_WEIGHT[scheme]
    term = acc = start
    yield acc
    for k in range(1, order + 1):
        term = (term @ op) * weight(k)
        acc = acc + term
        yield acc


def _scale(scheme: Scheme, lower: float, upper: float) -> float:
    """Factor turning a scheme's series into its approximate family."""
    if scheme is Scheme.NEUMANN:
        return 2.0 / (lower + upper)
    if scheme is Scheme.BINOMIAL_HALF:
        return math.sqrt(2.0 / (lower + upper))
    return 1.0 / math.sqrt(lower * upper)


def _family(frame: Frame, scheme: Scheme, lower: float, upper: float, order: int) -> Frame:
    """The scheme's order-N approximate family (dual, or tight for BinomialHalf)."""
    order = _check_order(order)
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    for acc in _series(frame, scheme, lower, upper, frame.vectors, order):
        pass
    return Frame(frame.dim, _scale(scheme, lower, upper) * acc)


def _truncation_norm(frame: Frame, scheme: Scheme, lower: float, upper: float, order: int) -> float:
    """Spectral norm of the operator a scheme's series sums to, S^p / scale with
    p = -1/2 (BinomialHalf) or -1, minus its order-N truncation on the identity."""
    order = _check_order(order)
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    for acc in _series(frame, scheme, lower, upper, np.eye(frame.dim), order):
        pass
    power = -0.5 if scheme is Scheme.BINOMIAL_HALF else -1.0
    scale = _scale(scheme, lower, upper)
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
    scale = _scale(scheme, lower, upper)
    rows = []
    for order, acc in enumerate(_series(frame, scheme, lower, upper, frame.vectors, n_max)):
        family = scale * acc

        if scheme is Scheme.BINOMIAL_HALF:
            reconstruction = family.T @ (family @ probes)
        else:
            reconstruction = family.T @ exact_coeffs
        errors = np.linalg.norm(reconstruction - probes, axis=0) / probe_norms
        measured = float(np.max(errors))

        if scheme is Scheme.NEUMANN:
            bound = neumann_bound(lower, upper, order)
        elif scheme is Scheme.BINOMIAL_HALF:
            bound = binomial_bounds(lower, upper, order).reconstruction_bound
        else:
            bound = log_bound(lower, upper, order)
        rows.append(ConvergenceRow(order, measured, bound))

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
