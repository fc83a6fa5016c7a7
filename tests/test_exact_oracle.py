"""Exact-arithmetic oracle for the rounding model (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3).

Each frame's float vectors are taken as exact. At 60 digits, S = V^T V and its
eigenpairs (mpmath's ``eigsy``) give every scheme's error polynomial
E_N = 1 - lam s^k P_N(lam)^k and the form <S^g f, f> exactly, from closed forms
written here and not from the library's rules. So each float result is held
against the value it rounds: the exact error against the paper's bound, and
the rounding against the floor or tolerance that the library derives for it.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from conftest import random_frame
from mpmath import mp

from framecalc import (
    Frame,
    Scheme,
    alpha_frame,
    binomial_bounds,
    binomial_remainder_norm,
    demo_frame_2d,
    demo_frame_3d,
    frame_spectrum,
    log_remainder_norm,
    optimal_bounds,
    proposition1_check,
    run_convergence,
    zn_bound,
)
from framecalc.approx import _RULES, _floor
from framecalc.frames import _probes

DIGITS = 60
ORDERS = 40
SAMPLES, SEED = 2, 3
# Bounds widened by this much relative enclose the exact spectrum, which the
# float bounds miss by rounding.
WIDEN = 1e-10
# The truncation norm and its bound, for each scheme that reports one.
TRUNCATION = {
    Scheme.BINOMIAL_HALF: (binomial_remainder_norm, lambda a, b, n: binomial_bounds(a, b, n).tn_bound),
    Scheme.LOGARITHMIC: (log_remainder_norm, zn_bound),
}


class ExactOrder(NamedTuple):
    """One order's exact values: the largest |E_N| on the spectrum, the largest
    probe error ||E_N(S) f|| / ||f||, and the largest |lam^power / s - P_N|."""

    error: object
    probe: object
    gap: object


class Case(NamedTuple):
    """A frame, its float bounds, its exact eigenvalues, each probe's exact
    projections on the exact eigenvectors, and each scheme's exact orders."""

    name: str
    frame: Frame
    lower: float
    upper: float
    lam: list
    projections: list
    orders: dict


def frames():
    """The demo frames, then seeded frames with dim 2-8 and B/A from 1.1 to about 300."""
    rng = np.random.default_rng(14)
    named = [("demo-2d", demo_frame_2d()), ("demo-3d", demo_frame_3d())]
    for index in range(8):
        dim = int(rng.integers(2, 9))
        ratio = 10.0 ** rng.uniform(0.04, 2.5) if index % 2 else rng.uniform(1.1, 2.9)
        count = dim + int(rng.integers(0, dim + 1))
        named.append((f"seeded-{index}", random_frame(rng, dim, count, 1.0, ratio)))
    return named


def exact_scheme(scheme, lower, upper):
    """A scheme's generator g, weights w_j (so c_j = w_1 ... w_j), scale s, power
    and pairing k, in mpmath, with the float bounds taken as exact."""
    a, b = mp.mpf(lower), mp.mpf(upper)
    mean = (a + b) / 2
    if scheme is Scheme.LOGARITHMIC:
        center = (mp.log(a) + mp.log(b)) / 2
        return lambda lam: center - mp.log(lam), lambda j: 1 / mp.mpf(j), 1 / mp.sqrt(a * b), -1, 1
    if scheme is Scheme.NEUMANN:
        return lambda lam: 1 - lam / mean, lambda j: mp.mpf(1), 1 / mean, -1, 1
    return lambda lam: 1 - lam / mean, lambda j: (j - mp.mpf(0.5)) / j, 1 / mp.sqrt(mean), mp.mpf(-0.5), 2


def exact_orders(scheme, lower, upper, lam, weights):
    """The ``ExactOrder`` of N = 0..ORDERS on the exact spectrum ``lam``, for
    probes whose squared coordinates in the eigenvectors are ``weights``."""
    # E_N cancels down to its own size, so the series carries DIGITS more digits
    # than the smallest bound it is held against.
    smallest = _RULES[scheme].bound(lower, upper, ORDERS) / 10.0
    with mp.workdps(DIGITS + max(0, -math.floor(math.log10(smallest)))):
        generator, weight, scale, power, pairing = exact_scheme(scheme, lower, upper)
        g = [generator(x) for x in lam]
        term, partial, orders = [mp.mpf(1)] * len(lam), [mp.mpf(1)] * len(lam), []
        for order in range(ORDERS + 1):
            if order:
                term = [t * gk * weight(order) for t, gk in zip(term, g)]
                partial = [p + t for p, t in zip(partial, term)]
            errors = [1 - x * (scale * p) ** pairing for x, p in zip(lam, partial)]
            probe = mp.sqrt(max(mp.fdot([e * e for e in errors], w) for w in weights))
            gap = max(abs(x**power / scale - p) for x, p in zip(lam, partial))
            orders.append(ExactOrder(max(abs(e) for e in errors), probe, gap))
    return orders


def excess(measured, exact):
    """|measured - exact| as a float, with the difference taken exactly."""
    with mp.workdps(DIGITS):
        return float(abs(mp.mpf(measured) - exact))


@pytest.fixture(scope="module")
def cases():
    cases = []
    with mp.workdps(DIGITS):
        for name, frame in frames():
            vectors = mp.matrix(frame.vectors.tolist())
            lam, basis = mp.eigsy(vectors.T * vectors)
            lam = [lam[k] for k in range(frame.dim)]
            projections, weights = [], []
            for column in _probes(frame, SAMPLES, SEED).T:
                f = [mp.mpf(x) for x in column]
                projections.append([mp.fdot(basis.column(k), f) for k in range(frame.dim)])
                weights.append([c * c / mp.fdot(f, f) for c in projections[-1]])
            lower, upper = optimal_bounds(frame)
            # BinomialHalf runs only where its bound converges, B < 3A.
            schemes = [s for s in Scheme if s is not Scheme.BINOMIAL_HALF or upper < 3.0 * lower]
            orders = {s: exact_orders(s, lower, upper, lam, weights) for s in schemes}
            cases.append(Case(name, frame, lower, upper, lam, projections, orders))
    return cases


def test_exact_errors_lie_within_the_bounds(cases):
    # The truncation claim on its own: each order's exact error norm, and each
    # truncation operator's exact norm, is at most the paper's bound on bounds
    # widened to enclose the exact spectrum.
    for case in cases:
        wide = (case.lower * (1.0 - WIDEN), case.upper * (1.0 + WIDEN))
        assert wide[0] <= min(case.lam) and max(case.lam) <= wide[1], case.name
        for scheme, orders in case.orders.items():
            for order, exact in enumerate(orders):
                assert exact.error <= _RULES[scheme].bound(*wide, order), (case.name, scheme, order)
                if scheme in TRUNCATION:
                    assert exact.gap <= TRUNCATION[scheme][1](*wide, order), (case.name, scheme, order)


def test_measured_errors_lie_within_the_floor_of_the_exact(cases):
    # The rounding claim on its own: each run_convergence row and each
    # truncation norm is within its floor of the exact value it rounds.
    worst = dict.fromkeys(Scheme, 0.0)
    for case in cases:
        for scheme, orders in case.orders.items():
            report = run_convergence(case.frame, scheme, case.lower, case.upper, ORDERS, SAMPLES, SEED)
            for row, exact in zip(report.rows, orders, strict=True):
                moved = [excess(row.measured_error, exact.probe) / row.floor]
                if scheme in TRUNCATION:
                    norm = TRUNCATION[scheme][0](case.frame, case.lower, case.upper, row.order)
                    floor = _floor(scheme, case.lower, case.upper, row.order, case.frame)
                    moved.append(excess(norm, exact.gap) / floor)
                assert max(moved) <= 1.0, (case.name, scheme, row.order, moved)
                worst[scheme] = max(worst[scheme], *moved)
    print("worst |measured - exact| / floor: " + ", ".join(f"{s.value} {r:.3f}" for s, r in worst.items()))


def test_proposition1_sums_lie_within_the_tolerance_of_the_exact_form(cases):
    # Both sides of the identity, the family's sum of squares and the form read
    # off S's spectrum, formed as proposition1_check forms them (their largest
    # gap is the report's), are each within its tolerance of the exact <S^g f, f>.
    worst = 0.0
    for case in cases:
        lam, right = frame_spectrum(case.frame)
        probes = _probes(case.frame, SAMPLES, SEED)
        for alpha in (-1.0, -0.5, -0.25, 0.5):
            report = proposition1_check(case.frame, alpha, SAMPLES, SEED)
            totals = np.sum((alpha_frame(case.frame, alpha).vectors @ probes) ** 2, axis=0)
            quadratic = lam ** (2.0 * alpha + 1.0) @ np.square(right.T @ probes)
            assert float(np.max(np.abs(totals - quadratic))) == report.max_identity_residual
            with mp.workdps(DIGITS):
                power = 2 * mp.mpf(alpha) + 1
                forms = [mp.fsum(x**power * c * c for x, c in zip(case.lam, p)) for p in case.projections]
            for total, form, exact in zip(totals, quadratic, forms, strict=True):
                moved = max(excess(total, exact), excess(form, exact)) / report.tolerance
                assert moved <= 1.0, (case.name, alpha, moved)
                worst = max(worst, moved)
    print(f"proposition1_check: worst |sum - exact| / tolerance {worst:.3f}")


def test_nudged_rules_move_the_measured_errors_past_the_floor(cases, monkeypatch):
    # A weight (at k = 1 or 3) or a scale multiplied by 1 + 1e-6 moves some row
    # of each demo frame more than its floor from the exact error. That holds
    # for BinomialHalf too, whose loose h(2+h) bound catches no nudged weight there.
    for case in cases[:2]:
        for scheme, orders in case.orders.items():
            rule = _RULES[scheme]
            nudges = {
                f"weight at k = {k}": rule._replace(weight=lambda j, k=k, w=rule.weight: w(j) * (1.0 + 1e-6 * (j == k)))
                for k in (1, 3)
            }
            nudges["scale"] = rule._replace(scale=lambda a, b, s=rule.scale: s(a, b) * (1.0 + 1e-6))
            for nudge, nudged in nudges.items():
                with monkeypatch.context() as patch:
                    patch.setitem(_RULES, scheme, nudged)
                    rows = run_convergence(case.frame, scheme, case.lower, case.upper, ORDERS, SAMPLES, SEED).rows
                moved = [excess(row.measured_error, exact.probe) / row.floor for row, exact in zip(rows, orders)]
                assert max(moved) > 1.0, (case.name, scheme, nudge)
