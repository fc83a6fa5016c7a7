"""Perturbative approximation of dual and tight frames, with error bounds.

Three truncated-series schemes approximate the inverse (or inverse square
root) of the frame operator S given declared bounds A <= B:

* Neumann: with R = I - (2/(A+B)) S, the dual vectors are the geometric
  series (2/(A+B)) sum_k R^k phi_i; the reconstruction error after N terms
  is at most ((B-A)/(B+A))^(N+1).
* BinomialHalf: the tight-family vectors come from the binomial series of
  (I - R)^(-1/2); the error bound converges only when B < 3A.
* Logarithmic: S^(-1) = exp(c R_log)/sqrt(A B) with generator
  c R_log = ln(sqrt(A B) S^(-1)), whose norm is at most ln(B/A)/2; truncating
  the exponential series gives factorially convergent bounds, which is what
  makes large B/A tractable.

Every scheme is paired with its analytical bound and with a convergence
harness that measures the worst reconstruction error over seeded probes,
through the scheme's error polynomial on the spectrum of S, and checks it
against the bound.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .contract import Scheme, _check_count, _format_float
from .frames import Frame, _checked_bounds, _checked_frame_bounds, _probes, frame_spectrum
from .linalg import _svd_error, spectral_function

__all__ = [
    "BinomialBounds",
    "ConvergenceReport",
    "ConvergenceRow",
    "binomial_bounds",
    "binomial_remainder_norm",
    "binomial_tight",
    "log_bound",
    "log_dual",
    "log_exact_inverse",
    "log_remainder_norm",
    "neumann_bound",
    "neumann_dual",
    "run_convergence",
    "write_csv",
    "zn_bound",
]


class BinomialBounds(NamedTuple):
    """Truncation-operator bound, reconstruction bound, and convergence flag."""

    tn_bound: float
    reconstruction_bound: float
    convergent: bool


class ConvergenceRow(NamedTuple):
    """One order's measured error, analytical bound and rounding floor."""

    order: int
    measured_error: float
    analytical_bound: float
    floor: float

    @property
    def passed(self) -> bool:
        """The row holds when its error is within its bound plus its floor."""
        return self.measured_error <= self.analytical_bound + self.floor


class ConvergenceReport(NamedTuple):
    """Measured worst reconstruction error versus analytical bound, per order.
    ``violations`` lists the rows that have not ``passed``."""

    scheme: Scheme
    lower: float
    upper: float
    rows: tuple[ConvergenceRow, ...]

    def violations(self) -> list[ConvergenceRow]:
        return [row for row in self.rows if not row.passed]

    @property
    def passed(self) -> bool:
        return not self.violations()


def _log(value: float) -> float:
    """Natural log that maps 0.0 to -inf, so a zero base gives a zero bound."""
    return math.log(value) if value > 0.0 else -math.inf


def _exp(log_value: float) -> float:
    """exp of a bound summed in logs: inf on overflow, 0.0 on underflow."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _terms(order: int) -> int | float:
    """N + 1 for an order N, capped at 1e300, where every bound here has its
    N -> inf value (0.0, inf, or its constant at ratio one); the cap keeps a
    larger order from raising in float arithmetic and leaves a smaller one as is."""
    return min(_check_count("order", order) + 1, 1e300)


# ---------------------------------------------------------------------------
# Neumann scheme
# ---------------------------------------------------------------------------


def _midpoint(lower: float, upper: float) -> float:
    """(A+B)/2 without forming A+B, which overflows for bounds past about 9e307.
    Halving is exact for normal floats, so every ratio built on it is bit for
    bit the one built on A+B or 2A wherever those do not overflow."""
    return 0.5 * lower + 0.5 * upper


def _neumann_generator(lower: float, upper: float) -> Callable[[np.ndarray], np.ndarray]:
    """R = I - (2/(A+B)) S on the eigenvalues of S; ||R|| <= (B-A)/(B+A)."""
    scale = 1.0 / _midpoint(lower, upper)
    return lambda lam: 1.0 - scale * lam


def neumann_dual(frame: Frame, lower: float, upper: float, order: int) -> Frame:
    """Order-N geometric-series approximation of the canonical dual."""
    return _family(frame, Scheme.NEUMANN, lower, upper, order)


def neumann_bound(lower: float, upper: float, order: int) -> float:
    """Worst relative reconstruction error of the order-N Neumann dual:
    ((B-A)/(B+A))^(N+1), summed in logs like every bound here, so no order
    raises: past 1e300 an order gives the N -> inf value."""
    lower, upper = _checked_bounds(lower, upper)
    return _exp(_terms(order) * _log(0.5 * (upper - lower) / _midpoint(lower, upper)))


# ---------------------------------------------------------------------------
# Binomial square-root scheme
# ---------------------------------------------------------------------------


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
    in logs, so no order raises: a high one gives 0.0 below B = 3A and inf
    past it, and past 1e300 an order gives the N -> inf value.
    ``convergent`` is False when B >= 3A, where the bound ratio q reaches one
    and the estimates no longer shrink with N.
    """
    lower, upper = _checked_bounds(lower, upper)
    log_power = _terms(order) * _log(0.5 * (upper - lower) / lower)
    tn = _exp(log_power + 0.5 * math.log(_midpoint(lower, upper) / lower))
    head = _exp(log_power + 0.5 * math.log(upper / lower))
    return BinomialBounds(tn, head * (2.0 + head), upper < 3.0 * lower)


def binomial_remainder_norm(frame: Frame, lower: float, upper: float, order: int) -> float:
    """Spectral norm of (I-R)^(-1/2) minus its order-N binomial truncation."""
    return _truncation_norm(frame, Scheme.BINOMIAL_HALF, lower, upper, order)


# ---------------------------------------------------------------------------
# Logarithmic scheme
# ---------------------------------------------------------------------------


def _log_generator(lower: float, upper: float) -> Callable[[np.ndarray], np.ndarray]:
    """The generator c R_log = ln(sqrt(A B)/S) on the eigenvalues of S, so that
    S^(-1) = exp(c R_log)/sqrt(A B). The paper builds R_log with a base and a
    shift for bounds above, below or straddling one; each construction gives
    this operator. The logs are taken of A/lam and B/lam, so A B is never formed."""
    return lambda lam: 0.5 * (np.log(lower / lam) + np.log(upper / lam))


def _inverse_geometric_mean(lower: float, upper: float) -> float:
    """1/sqrt(A B), with A B split into a mantissa product and an exact power of
    two so that it neither overflows nor underflows. Bit for bit equal to
    1/math.sqrt(A * B) whenever A * B is a normal float."""
    (m_a, e_a), (m_b, e_b) = math.frexp(lower), math.frexp(upper)
    half, odd = divmod(e_a + e_b, 2)
    return math.ldexp(1.0 / math.sqrt(math.ldexp(m_a * m_b, odd)), -half)


def log_exact_inverse(frame: Frame, lower: float, upper: float) -> np.ndarray:
    """Inverse frame operator written as exp(c R_log)/sqrt(A B).

    Exponential and logarithm are evaluated exactly through the spectrum, so
    the result matches the spectral inverse of S at any scale of the bounds.
    """
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    generator = _log_generator(lower, upper)
    exponential = spectral_function(frame_spectrum(frame), lambda lam: np.exp(generator(lam)))
    return exponential * _inverse_geometric_mean(lower, upper)


def log_dual(frame: Frame, lower: float, upper: float, order: int) -> Frame:
    """Order-N exponential-series approximation of the canonical dual.

    The zeroth order is phi_i / sqrt(A B): the geometric mean of the bounds
    replaces the arithmetic mean of the Neumann scheme.
    """
    return _family(frame, Scheme.LOGARITHMIC, lower, upper, order)


def _exponential_tail(lower: float, upper: float, order: int, ratio_power: float) -> float:
    """(B/A)^ratio_power * r^(N+1) / (N+1)! with r = ln(B/A)/2, the norm bound of
    the generator, summed in logs so that it underflows to 0.0 and overflows
    to inf instead of raising; past 1e300 an order gives the N -> inf value."""
    lower, upper = _checked_bounds(lower, upper)
    ratio, terms = upper / lower, _terms(order)
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(upper) - math.log(lower)
    return _exp(ratio_power * log_ratio + terms * _log(0.5 * log_ratio) - math.lgamma(terms + 1))


def log_bound(lower: float, upper: float, order: int) -> float:
    """Worst relative reconstruction error of the order-N logarithmic dual:
    (B/A) * (ln(B/A)/2)^(N+1) / (N+1)!."""
    return _exponential_tail(lower, upper, order, 1.0)


def zn_bound(lower: float, upper: float, order: int) -> float:
    """Bound on the exponential-series truncation operator:
    sqrt(B/A) * (ln(B/A)/2)^(N+1) / (N+1)!."""
    return _exponential_tail(lower, upper, order, 0.5)


def log_remainder_norm(frame: Frame, lower: float, upper: float, order: int) -> float:
    """Spectral norm of exp(c R_log) minus its order-N Taylor truncation."""
    return _truncation_norm(frame, Scheme.LOGARITHMIC, lower, upper, order)


# ---------------------------------------------------------------------------
# Series engine and convergence harness
# ---------------------------------------------------------------------------


class _Rule(NamedTuple):
    """Everything that sets a scheme apart. Its series sums t_k = t_(k-1) @ op
    * weight(k) with op = generator(A, B) applied to the frame operator S, and
    scale * series approximates S^power phi_i, with reconstruction error at
    most bound(A, B, N)."""

    generator: Callable[[float, float], Callable[[np.ndarray], np.ndarray]]
    weight: Callable[[int], float]
    scale: Callable[[float, float], float]
    bound: Callable[[float, float, int], float]
    power: float


# Weights are the ratios of consecutive series coefficients: geometric,
# (-1)^k C(-1/2, k), and 1/k! for the exponential.
_RULES = {
    Scheme.NEUMANN: _Rule(
        _neumann_generator, lambda k: 1.0, lambda a, b: 1.0 / _midpoint(a, b), neumann_bound, -1.0
    ),
    Scheme.BINOMIAL_HALF: _Rule(
        _neumann_generator,
        lambda k: (k - 0.5) / k,
        lambda a, b: math.sqrt(1.0 / _midpoint(a, b)),
        lambda a, b, n: binomial_bounds(a, b, n).reconstruction_bound,
        -0.5,
    ),
    Scheme.LOGARITHMIC: _Rule(
        _log_generator, lambda k: 1.0 / k, _inverse_geometric_mean, log_bound, -1.0
    ),
}


def _floor(scheme: Scheme, lower: float, upper: float, order: int, frame: Frame, count: int) -> float:
    """How far rounding can move a measured order-N reconstruction error of
    ``frame``, to first order in u = 2^-53, charging gamma_k = k u/(1 - k u) in
    norm to each length-k inner product (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3). ``count = 0`` drops the product for a truncation operator.
    It was derived for the dense family and product; the series on S's eigenvalues
    rounds less, so its terms, the dim and count ones included, still bound the
    spectral measurement until they are re-derived for it.

    The family is s P(G) V, P the series in the generator G and ||V||^2 <= B.
    P's majorant M = sum |c_k| ||G||^k is (1-q)^power for the Neumann generator
    (q = (B-A)/(B+A)) and e^r for the logarithmic one (r = ln(B/A)/2), so s M
    is 1/A, or 1/sqrt(A) for BinomialHalf, whose family pairs with itself. An
    error e relative to s M ||V|| moves the reconstruction by at most 2 (B/A) e:
    - term k holds k generators Q diag(g) Q^T (dim, 3 in g, 1 to scale Q, 1 to
      symmetrize) and k products term @ op (dim, and 2 for the weight), so the
      sum holds 2 dim + 7 times M's mean order, -power q/(1-q) or r, at most N;
    - adding the N terms, gamma_N; the scale, 3 roundings to form and 1 to apply.
    A relative backward error in S moves it by at most B/A: the SVD's, twice
    ``linalg._svd_error`` of the frame's rows, and g's 3 roundings of lambda. So
    do the coefficients (dim), the product over count terms (count) and the
    residual's norm over the probe's (2 dim + 4 roundings of at most
    B/A + 1 <= 2 B/A).
    """
    ratio, power, dim, u = upper / lower, _RULES[scheme].power, frame.dim, 2.0**-53
    mean = 0.5 * math.log(ratio) if scheme is Scheme.LOGARITHMIC else power * (1.0 - ratio) / 2.0
    family = 2 * ((2 * dim + 7) * min(order, mean) + order + 4)
    backward = 2 * (_svd_error(frame.count) / u) + 3
    return ratio * u * (family + backward + (dim + count) + 2 * (2 * dim + 4))


def _series(
    op: np.ndarray, weight: Callable[[int], float], start: np.ndarray, order: int
) -> Iterator[np.ndarray]:
    """Yield the partial sums t_0 + ... + t_N for N = 0..order, where t_0 = start
    and t_k = t_(k-1) @ op * weight(k); one matrix product per order."""
    term = acc = start
    yield acc
    for k in range(1, order + 1):
        term = (term @ op) * weight(k)
        acc = acc + term
        yield acc


def _family(frame: Frame, scheme: Scheme, lower: float, upper: float, order: int) -> Frame:
    """The scheme's order-N approximate family (dual, or tight for BinomialHalf)."""
    order = _check_count("order", order)
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    rule = _RULES[scheme]
    op = spectral_function(frame_spectrum(frame), rule.generator(lower, upper))
    for acc in _series(op, rule.weight, frame.vectors, order):
        pass
    return Frame(frame.dim, rule.scale(lower, upper) * acc)


def _spectral_series(rule: _Rule, lower: float, upper: float, lam: np.ndarray, order: int) -> Iterator[np.ndarray]:
    """The partial sums P_N of a rule's series on the eigenvalues ``lam`` of S,
    for N = 0..order."""
    return _series(np.diag(rule.generator(lower, upper)(lam)), rule.weight, np.ones_like(lam), order)


def _truncation_norm(frame: Frame, scheme: Scheme, lower: float, upper: float, order: int) -> float:
    """Spectral norm of the operator a scheme's series sums to, S^power / scale,
    minus its order-N truncation. Both are functions of S, so this is their
    largest gap on S's eigenvalues, where the series runs on a diagonal."""
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    rule, lam = _RULES[scheme], frame_spectrum(frame).eigenvalues
    for acc in _spectral_series(rule, lower, upper, lam, _check_count("order", order)):
        pass
    return float(np.max(np.abs(lam**rule.power / rule.scale(lower, upper) - acc)))


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

    Each order is measured through its error polynomial in S's eigenbasis,
    not by building the family: the order-N family is s P_N(S) phi_i, so its
    reconstruction error operator is E_N(S), and a probe's error is the norm of
    E_N(lam) times its coordinates in S's eigenvectors. The probes are
    ``samples`` seeded unit vectors plus every eigenvector of the frame
    operator. Neumann and Logarithmic pair the approximate dual with the frame;
    BinomialHalf pairs the approximate tight family with itself. BinomialHalf
    refuses bounds with B >= 3A, where its error bound does not converge.
    """
    scheme = Scheme(scheme)
    rule = _RULES[scheme]
    lower, upper = _checked_frame_bounds(frame, lower, upper)
    n_max = _check_count("n_max", n_max)
    if scheme is Scheme.BINOMIAL_HALF and not binomial_bounds(lower, upper, n_max).convergent:
        raise ValueError(
            f"BinomialHalf requires B < 3A: bounds ({lower}, {upper}) violate "
            "the convergence condition of its error bound"
        )

    probes = _probes(frame, samples, seed)
    spectrum, pairing, rows = frame_spectrum(frame), -1.0 / rule.power, []
    coords = spectrum.eigenvectors.T @ (probes / np.linalg.norm(probes, axis=0))
    # s P_N(S) approximates S^power, so a dual pairs with the frame (k = 1) and
    # the tight family with itself (k = 2): k = -1/power, and
    # E_N(lam) = 1 - lam s^k P_N(lam)^k. lam s^k is about lam / mean(A, B),
    # which neither overflows nor underflows where s alone would.
    gain = spectrum.eigenvalues * rule.scale(lower, upper) ** pairing
    for order, acc in enumerate(_spectral_series(rule, lower, upper, spectrum.eigenvalues, n_max)):
        errors = np.linalg.norm((1.0 - gain * acc**pairing)[:, None] * coords, axis=0)
        floor = _floor(scheme, lower, upper, order, frame, frame.count)
        rows.append(ConvergenceRow(order, float(np.max(errors)), rule.bound(lower, upper, order), floor))

    return ConvergenceReport(scheme=scheme, lower=lower, upper=upper, rows=tuple(rows))


def write_csv(report: ConvergenceReport, stream) -> None:
    """Serialize a convergence report; floats use 17 significant digits."""
    stream.write("scheme,A,B,N,measured_error,analytical_bound\n")
    head = f"{report.scheme.value},{_format_float(report.lower)},{_format_float(report.upper)}"
    for row in report.rows:
        stream.write(
            f"{head},{row.order},{_format_float(row.measured_error)},"
            f"{_format_float(row.analytical_bound)}\n"
        )
