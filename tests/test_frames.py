import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import random_frame, random_unit

from framecalc import (
    BoundCheckReport,
    EigenDecomposition,
    Frame,
    FrameDiagnostics,
    GaborParams,
    NotAFrameError,
    SVD,
    Scheme,
    alpha_frame,
    analysis,
    binomial_bounds,
    binomial_remainder_norm,
    binomial_tight,
    commuting_scale,
    demo_frame_2d,
    demo_frame_3d,
    demo_gabor_params,
    diagnostics,
    dual_frame,
    frame_from_dict,
    frame_operator,
    frame_spectrum,
    frame_to_json,
    gabor_probe_signals,
    load_frame,
    log_bound,
    log_dual,
    log_exact_inverse,
    log_remainder_norm,
    neumann_bound,
    neumann_dual,
    optimal_bounds,
    proposition1_check,
    reconstruct,
    run_convergence,
    spectral_function,
    svd,
    synthesis,
)
from framecalc.contract import _check_count
from framecalc.frames import _probes
from framecalc.linalg import _svd_error
from framecalc.reference import _basis_plus_diagonal, _power_operator, expected_power_family

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_frame_validation():
    with pytest.raises(ValueError, match="at least one vector"):
        Frame(2, np.empty((0, 2)))
    with pytest.raises(ValueError, match=re.escape("2-d array, got shape (2,)")):
        Frame(2, [1.0, 0.0])
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        Frame(0, [[]])
    with pytest.raises(ValueError, match="declared dim"):
        Frame(3, np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        Frame(2, np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="0 < A <= B"):
        Frame(2, np.eye(2), (2.0, 1.0))
    with pytest.raises(ValueError, match="0 < A <= B"):
        Frame(2, np.eye(2), (-1.0, 1.0))
    with pytest.raises(ValueError, match="do not enclose"):
        Frame(2, np.eye(2), (1.5, 2.0))
    # Enclosure is relative at each end, so it holds at any scale.
    with pytest.raises(ValueError, match="do not enclose"):
        Frame(2, 1e-100 * demo_frame_2d().vectors, (1e-12, 1e-11))
    with pytest.raises(NotAFrameError, match="not a frame"):
        Frame(2, np.array([[1.0, 0.0], [2.0, 0.0]]), (1e-20, 5.0))
    with pytest.raises(ValueError, match="overflows float64"):
        Frame(1, np.array([[1e160]]))


@pytest.fixture
def factorizations(monkeypatch):
    """Counts of the calls into numpy's ``svd`` and ``eigh`` from here on."""
    calls = {"svd": 0, "eigh": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def test_one_factorization_per_frame(factorizations):
    calls = factorizations
    rng = np.random.default_rng(83)
    frame = random_frame(rng, 5, 11, 1.0, 2.5, declared=True)
    alpha_frame(frame, 0.5)
    dual_frame(frame)
    reconstruct(frame, -1.0 / 3.0, rng.standard_normal(5))
    diagnostics(frame)
    proposition1_check(frame, -0.25, samples=8, seed=1)
    for scheme in Scheme:
        assert run_convergence(frame, scheme, 1.0, 2.5, 5, 8, 2).passed
    assert calls == {"svd": 1, "eigh": 0}


# The SVDs each public call makes on a fresh frame f with exact bounds (a, b): one
# per frame on first spectral use, and none for a family built from a factorization
# (``alpha_frame``'s). A truncation norm reads S's eigenvalues, so it takes no
# second. Every case is a single call on f, or the named call on its result.
SVDS_PER_CALL = {
    "construct": (0, lambda f, a, b: None),
    "diagnostics": (1, lambda f, a, b: diagnostics(f)),
    "optimal_bounds": (1, lambda f, a, b: optimal_bounds(f)),
    "alpha_frame": (1, lambda f, a, b: alpha_frame(f, 0.5)),
    "dual_frame": (1, lambda f, a, b: dual_frame(f)),
    "reconstruct": (1, lambda f, a, b: reconstruct(f, -0.25, np.ones(f.dim))),
    "proposition1_check": (1, lambda f, a, b: proposition1_check(f, 0.5, samples=8)),
    "run_convergence": (1, lambda f, a, b: run_convergence(f, Scheme.NEUMANN, a, b, 5, 8, 0)),
    "neumann_dual": (1, lambda f, a, b: neumann_dual(f, a, b, 3)),
    "log_dual": (1, lambda f, a, b: log_dual(f, a, b, 3)),
    "binomial_tight": (1, lambda f, a, b: binomial_tight(f, a, b, 3)),
    "log_exact_inverse": (1, lambda f, a, b: log_exact_inverse(f, a, b)),
    "commuting_scale": (1, lambda f, a, b: commuting_scale(f, lambda lam: lam + 1.0)),
    "diagnostics_of_alpha_frame": (1, lambda f, a, b: diagnostics(alpha_frame(f, 0.5))),
    "diagnostics_of_commuting_scale": (2, lambda f, a, b: diagnostics(commuting_scale(f, lambda lam: lam + 1.0))),
    "log_remainder_norm": (1, lambda f, a, b: log_remainder_norm(f, a, b, 3)),
    "binomial_remainder_norm": (1, lambda f, a, b: binomial_remainder_norm(f, a, b, 3)),
}


@pytest.mark.parametrize("call", SVDS_PER_CALL)
def test_factorizations_per_public_call_on_a_fresh_frame(call, factorizations):
    expected, run = SVDS_PER_CALL[call]
    vectors = np.random.default_rng(89).standard_normal((8, 4))
    lower, upper = optimal_bounds(Frame(4, vectors))
    factorizations["svd"] = 0
    run(Frame(4, vectors), lower, upper)
    assert factorizations == {"svd": expected, "eigh": 0}


def test_frame_vectors_are_immutable():
    frame = demo_frame_2d()
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 5.0


def test_declared_bounds_need_not_be_optimal():
    frame = Frame(2, np.eye(2) * 2.0, (1.0, 10.0))
    assert frame.declared_bounds == (1.0, 10.0)
    assert optimal_bounds(frame) == pytest.approx((4.0, 4.0))


@pytest.mark.parametrize("bounds", [[1.0000000005, 2.0], [1.0, 1.9999999995]])
def test_bounds_just_inside_the_spectrum_do_not_load(bounds, tmp_path):
    # One end of the 2-d demo's spectrum [1, 2] moved 5e-10 inward is not a
    # frame bound, and the factorization proves it.
    path = tmp_path / "inward.json"
    path.write_text(json.dumps({"dim": 2, "vectors": demo_frame_2d().vectors.tolist(), "bounds": bounds}))
    with pytest.raises(ValueError, match="do not enclose"):
        load_frame(path)


def test_bound_rule_slack_is_the_factorization_error():
    # On the 2-d demo the SVD's error puts the slack near 3e-14 for A and
    # 2e-14 for B, so 1e-12 inside the computed spectrum is refused.
    vectors = demo_frame_2d().vectors
    lam_min, lam_max = optimal_bounds(demo_frame_2d())
    for bounds in [(lam_min * (1.0 + 1e-12), 2.0), (1.0, lam_max * (1.0 - 1e-12))]:
        with pytest.raises(ValueError, match="do not enclose"):
            Frame(2, vectors, bounds)
    assert Frame(2, vectors, (1.0, 2.0)).declared_bounds == (1.0, 2.0)


def test_power_families_reload_through_the_bound_rule():
    # Every family alpha_frame stamps reads back, up to kappa = 1e12; the worst
    # gap at each end is printed as a share of that end's slack. As perturb does
    # with an alpha or dual output, every scheme whose bound converges on the
    # stamped bounds then runs on the reloaded family, and holds its bound.
    rng = np.random.default_rng(131)
    u, worst = 2.0**-53, [0.0, 0.0]
    for _ in range(120):
        dim = int(rng.choice([4, 8, 16, 32]))
        frame = random_frame(rng, dim, 2 * dim, 1.0, 10.0 ** rng.uniform(6.0, 12.0))
        family = alpha_frame(frame, float(rng.choice([-1.0, -0.25, 0.0])))
        if not diagnostics(family).is_frame:
            continue
        reloaded = frame_from_dict(json.loads(frame_to_json(family)))
        lower, upper = reloaded.declared_bounds
        for scheme in Scheme:
            if scheme is not Scheme.BINOMIAL_HALF or binomial_bounds(lower, upper, 0).convergent:
                assert run_convergence(reloaded, scheme, lower, upper, 40, 32, 0).passed
        lam_min, lam_max = optimal_bounds(Frame(dim, family.vectors))
        eps = _svd_error(2 * dim)
        spread = eps * math.sqrt(lam_max / lam_min)
        worst[0] = max(worst[0], (lower / lam_min - 1.0) / (spread * (2.0 + spread) + 3 * u))
        worst[1] = max(worst[1], (1.0 - upper / lam_max) / (eps * (2.0 - eps) + 3 * u))
    print(f"worst gap/slack: A {worst[0]:.3f}, B {worst[1]:.3f}")


# ---------------------------------------------------------------------------
# Analysis, synthesis, frame operator
# ---------------------------------------------------------------------------


def test_analysis_reference_values():
    # Oracle: three dot products by hand.
    coeffs = analysis(demo_frame_2d(), np.array([1.0, 0.0]))
    np.testing.assert_allclose(coeffs, [1.0, 0.0, 1.0 / SQRT2], atol=1e-15)
    np.testing.assert_array_equal(analysis(demo_frame_2d(), np.zeros(2)), np.zeros(3))
    # Oracle: four dot products by hand.
    coeffs = analysis(demo_frame_3d(), np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(coeffs, [1.0, 1.0, 1.0, math.sqrt(3.0)], atol=1e-15)
    with pytest.raises(ValueError, match="dimension"):
        analysis(demo_frame_2d(), np.zeros(3))


def test_synthesis_reference_values():
    frame = demo_frame_2d()
    np.testing.assert_allclose(
        synthesis(frame, np.array([1.0, 0.0, 0.0])), [1.0, 0.0], atol=1e-15
    )
    # Oracle: direct sum of the three vectors.
    np.testing.assert_allclose(
        synthesis(frame, np.array([1.0, 1.0, SQRT2])), [2.0, 2.0], atol=1e-15
    )
    with pytest.raises(ValueError, match="coefficients"):
        synthesis(frame, np.zeros(4))


def test_analysis_synthesis_adjoint():
    rng = np.random.default_rng(101)
    for _ in range(5):
        dim = int(rng.integers(2, 7))
        frame = random_frame(rng, dim, dim + int(rng.integers(1, 8)), 0.5, 3.0)
        for _ in range(100):
            f = rng.standard_normal(dim)
            c = rng.standard_normal(frame.count)
            left = float(analysis(frame, f) @ c)
            right = float(f @ synthesis(frame, c))
            assert abs(left - right) <= 1e-10 * max(1.0, abs(left))


def test_frame_operator_reference_matrices():
    np.testing.assert_allclose(
        frame_operator(demo_frame_2d()),
        np.array([[1.5, 0.5], [0.5, 1.5]]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        frame_operator(demo_frame_3d()),
        np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]) / 3.0,
        atol=1e-15,
    )
    np.testing.assert_array_equal(frame_operator(Frame(4, np.eye(4))), np.eye(4))


def test_frame_operator_matches_synthesis_of_analysis():
    rng = np.random.default_rng(13)
    frame = random_frame(rng, 5, 12, 0.3, 4.0)
    op = frame_operator(frame)
    for _ in range(10):
        f = rng.standard_normal(5)
        direct = op @ f
        composed = synthesis(frame, analysis(frame, f))
        assert np.linalg.norm(direct - composed) <= 1e-10 * np.linalg.norm(direct)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_reference_frames():
    report = diagnostics(demo_frame_2d())
    assert report.is_frame and report.kernel_trivial
    assert report.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert report.lambda_max == pytest.approx(2.0, abs=1e-12)
    assert report.inverse_norm == pytest.approx(1.0, abs=1e-12)

    report = diagnostics(demo_frame_3d())
    assert report.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert report.lambda_max == pytest.approx(2.0, abs=1e-12)


def test_diagnostics_non_frame():
    report = diagnostics(Frame(2, np.array([[1.0, 0.0], [2.0, 0.0]])))
    assert not report.is_frame and not report.kernel_trivial
    assert report.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert report.inverse_norm is None


def test_frame_refuses_a_frame_operator_that_underflows():
    # Scaling never changes a verdict, so a family whose trace(S) = ||V||_F^2
    # is not a normal float is refused rather than judged on rounded eigenvalues.
    for scale in (1e-154, 1e-162, 1e-170):
        with pytest.raises(ValueError, match="too small: the frame operator underflows float64"):
            Frame(2, scale * np.eye(2))
    report = diagnostics(Frame(2, 1e-150 * np.eye(2)))
    assert report.is_frame and report.lambda_min == report.lambda_max == pytest.approx(1e-300, rel=1e-12)
    # The zero family has no scale to lose: it stays a reported non-frame.
    assert diagnostics(Frame(2, np.zeros((2, 2)))) == (0.0, 0.0)


def test_diagnostics_inverse_norm_consistency():
    rng = np.random.default_rng(29)
    for _ in range(10):
        frame = random_frame(rng, int(rng.integers(2, 8)), 16, 0.2, 5.0)
        report = diagnostics(frame)
        assert abs(report.inverse_norm - 1.0 / report.lambda_min) <= 1e-9 * report.inverse_norm
        # Inverse boundedness implies the lower frame bound.
        assert 1.0 / report.inverse_norm <= report.lambda_min + 1e-9


def test_diagnostics_derive_every_verdict_from_the_two_eigenvalues():
    assert FrameDiagnostics._fields == ("lambda_min", "lambda_max")
    # kappa = 1e13 is past the frame rule: no verdict reads as a frame.
    report = FrameDiagnostics(1e-13, 1.0)
    assert not report.is_frame and not report.kernel_trivial
    assert report.inverse_norm is None
    report = FrameDiagnostics(0.5, 2.0)
    assert report.is_frame and report.kernel_trivial and report.inverse_norm == 2.0


# ---------------------------------------------------------------------------
# Power families
# ---------------------------------------------------------------------------


def test_alpha_frame_2d_reference_families():
    frame = demo_frame_2d()
    for alpha in (-1.0, -0.5, -1.0 / 3.0, -2.0 / 3.0):
        family = alpha_frame(frame, alpha)
        np.testing.assert_allclose(
            family.vectors, expected_power_family(2, alpha), atol=1e-10
        )


def test_alpha_frame_dual_vectors_explicit():
    dual = dual_frame(demo_frame_2d())
    expected = np.array(
        [[0.75, -0.25], [-0.25, 0.75], [1.0 / (2.0 * SQRT2), 1.0 / (2.0 * SQRT2)]]
    )
    np.testing.assert_allclose(dual.vectors, expected, atol=1e-10)
    assert dual.declared_bounds == pytest.approx((0.5, 1.0), abs=1e-12)


def test_alpha_frame_zero_is_identity():
    frame = demo_frame_2d()
    family = alpha_frame(frame, 0.0)
    np.testing.assert_allclose(family.vectors, frame.vectors, atol=1e-12)
    assert family.declared_bounds == pytest.approx((1.0, 2.0), abs=1e-12)


def test_alpha_frame_3d_tight_family():
    family = alpha_frame(demo_frame_3d(), -0.5)
    np.testing.assert_allclose(family.vectors, expected_power_family(3, -0.5), atol=1e-9)
    assert family.declared_bounds == (1.0, 1.0)


@pytest.mark.parametrize("dim", range(1, 9))
def test_demo_frame_closed_form_in_every_dimension(dim):
    # S = I + 11^T/dim, so S^alpha = I + (2^alpha - 1) 11^T/dim.
    frame = _basis_plus_diagonal(dim)
    np.testing.assert_allclose(frame_operator(frame), _power_operator(dim, 1.0), rtol=0, atol=1e-13)
    for alpha in (-1.0, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 0.5, 1.0):
        np.testing.assert_allclose(
            alpha_frame(frame, alpha).vectors, expected_power_family(dim, alpha), rtol=0, atol=1e-13
        )
    assert np.array_equal(_power_operator(dim, 0.0), np.eye(dim))


def test_alpha_frame_bounds_stamp_follows_exponent_sign():
    rng = np.random.default_rng(37)
    frame = random_frame(rng, 4, 9, 0.5, 4.5)
    for alpha, expected in [
        (0.5, (0.5**2.0, 4.5**2.0)),
        (-0.25, (0.5**0.5, 4.5**0.5)),
        (-0.5, (1.0, 1.0)),
        (-1.0, (4.5**-1.0, 0.5**-1.0)),
        (-2.0, (4.5**-3.0, 0.5**-3.0)),
    ]:
        family = alpha_frame(frame, alpha)
        assert family.declared_bounds == pytest.approx(expected, rel=1e-9)


def test_alpha_frame_rejects_non_frame_for_negative_power():
    flat = Frame(2, np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(NotAFrameError, match="fractional negative power undefined"):
        alpha_frame(flat, -0.5)
    # Non-negative powers remain defined for spanning-deficient families.
    family = alpha_frame(flat, 0.5)
    assert family.declared_bounds is None


@pytest.mark.parametrize(
    "make_frame, alpha",
    [
        (demo_frame_3d, 1000.0),
        (demo_frame_3d, -100000.0),
        (lambda: random_frame(np.random.default_rng(47), 6, 14, 0.3, 30.0), 1e308),
        (lambda: Frame(2, np.array([[1.0, 0.0], [2.0, 0.0]])), 600.0),
        (demo_frame_3d, math.nan),
    ],
    ids=["overflow", "underflow", "infinite-power", "non-frame-overflow", "nan"],
)
def test_alpha_frame_refuses_an_exponent_the_floats_cannot_hold(make_frame, alpha):
    # The family's frame-operator eigenvalues lambda^(2 alpha + 1) leave the
    # positive normal floats: refused before any array arithmetic can warn.
    frame = make_frame()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside the positive normal floats") as caught:
            alpha_frame(frame, alpha)
    # The message quotes an eigenvalue of the spectrum that SVD.power forms.
    with np.errstate(over="ignore", under="ignore"):
        formed = svd(frame.vectors).power(2.0 * alpha + 1.0).spectrum.eigenvalues
    quoted = re.search(r" to (\S+), outside", str(caught.value)).group(1)
    assert quoted in {repr(float(value)) for value in formed}


def test_alpha_frame_keeps_a_wide_but_representable_family():
    # kappa(S) = 1e10 gives a family of kappa 1e20 at alpha = 1/2: past the
    # frame rule, but every eigenvalue is a normal float, so it is returned.
    frame = random_frame(np.random.default_rng(53), 6, 12, 1.0, 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        family = alpha_frame(frame, 0.5)
        small = alpha_frame(Frame(1, np.array([[1e-50]])), 1.0)
    assert family.declared_bounds == pytest.approx((1.0, 1e20), rel=1e-6)
    assert small.declared_bounds == pytest.approx((1e-300, 1e-300), rel=1e-12)


def test_dual_frame_special_cases():
    basis = Frame(3, np.eye(3))
    np.testing.assert_allclose(dual_frame(basis).vectors, np.eye(3), atol=1e-12)
    tight = Frame(2, np.array([[2.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(dual_frame(tight).vectors, tight.vectors / 4.0, atol=1e-12)


def test_dual_frame_involution_and_generalized_dual():
    rng = np.random.default_rng(41)
    for _ in range(8):
        dim = int(rng.integers(2, 8))
        frame = random_frame(rng, dim, dim + int(rng.integers(0, 9) + 1), 0.4, 3.0)
        again = dual_frame(dual_frame(frame))
        assert np.max(np.abs(again.vectors - frame.vectors)) <= 1e-9
        for alpha in (-1.5, -0.5, 0.25, 1.0):
            family = alpha_frame(frame, alpha)
            left = dual_frame(family)
            right = alpha_frame(frame, -1.0 - alpha)
            assert np.max(np.abs(left.vectors - right.vectors)) <= 1e-9


def test_reconstruct_reference_and_random():
    frame = demo_frame_2d()
    rng = np.random.default_rng(43)
    for alpha in (-2.0, -1.0, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 1.0):
        for _ in range(50):
            f = rng.standard_normal(2)
            rebuilt = reconstruct(frame, alpha, f)
            assert np.linalg.norm(rebuilt - f) <= 1e-9 * np.linalg.norm(f)


def test_reconstruct_random_frames():
    rng = np.random.default_rng(47)
    for _ in range(6):
        dim = int(rng.integers(2, 9))
        frame = random_frame(rng, dim, 5 * dim, 0.3, 6.0)
        for alpha in (-2.0, -1.0, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 1.0):
            f = random_unit(rng, dim)
            rebuilt = reconstruct(frame, alpha, f)
            assert np.linalg.norm(rebuilt - f) <= 1e-9


def test_tightness_at_minus_half_random_frames():
    rng = np.random.default_rng(53)
    for dim in range(2, 9):
        count = int(rng.integers(dim, 5 * dim + 1))
        frame = random_frame(rng, dim, count, 0.2, 7.0)
        tight = alpha_frame(frame, -0.5)
        assert np.linalg.norm(frame_operator(tight) - np.eye(dim), 2) <= 1e-9
        total = float(np.sum(analysis(tight, random_unit(rng, dim)) ** 2))
        assert abs(total - 1.0) <= 1e-9


def test_operator_power_bounds():
    rng = np.random.default_rng(59)
    frame = random_frame(rng, 5, 11, 0.5, 4.0)
    spectrum = EigenDecomposition(*np.linalg.eigh(frame_operator(frame)))
    for gamma in (0.0, 0.5, 2.0):
        eigs = np.linalg.eigvalsh(spectral_function(spectrum, lambda lam: lam**gamma))
        assert eigs[0] == pytest.approx(0.5**gamma, rel=1e-9)
        assert eigs[-1] == pytest.approx(4.0**gamma, rel=1e-9)
    for gamma in (-0.5, -1.0, -2.0):
        eigs = np.linalg.eigvalsh(spectral_function(spectrum, lambda lam: lam**gamma))
        assert eigs[0] == pytest.approx(4.0**gamma, rel=1e-9)
        assert eigs[-1] == pytest.approx(0.5**gamma, rel=1e-9)


def test_analysis_factorization_through_power_operator():
    # Coefficients against the power family equal coefficients of the powered
    # vector against the original frame.
    rng = np.random.default_rng(61)
    frame = random_frame(rng, 4, 10, 0.6, 3.5)
    spectrum = EigenDecomposition(*np.linalg.eigh(frame_operator(frame)))
    for alpha in (-1.0, -0.5, 0.75):
        family = alpha_frame(frame, alpha)
        power = spectral_function(spectrum, lambda lam: lam**alpha)
        for _ in range(5):
            f = rng.standard_normal(4)
            left = analysis(family, f)
            right = analysis(frame, power @ f)
            assert np.max(np.abs(left - right)) <= 1e-9


# ---------------------------------------------------------------------------
# Bound sweeps
# ---------------------------------------------------------------------------


def test_proposition1_reference_bounds():
    frame = demo_frame_2d()
    cases = {
        -1.0: (0.5, 1.0),
        -1.0 / 3.0: (1.0, 2.0 ** (1.0 / 3.0)),
        -2.0 / 3.0: (2.0 ** (-1.0 / 3.0), 1.0),
    }
    for alpha, (lower, upper) in cases.items():
        report = proposition1_check(frame, alpha, samples=100, seed=5)
        assert report.passed
        assert report.lower == pytest.approx(lower, abs=1e-12)
        assert report.upper == pytest.approx(upper, abs=1e-12)
        assert report.samples == 102  # 100 random probes plus both eigenvectors


def test_proposition1_tight_for_any_frame():
    rng = np.random.default_rng(67)
    for _ in range(4):
        dim = int(rng.integers(2, 7))
        frame = random_frame(rng, dim, 3 * dim, 0.4, 5.0)
        report = proposition1_check(frame, -0.5, samples=25, seed=2)
        assert report.passed
        assert report.lower == report.upper == 1.0


@pytest.mark.parametrize("alpha", [-1.0, -2.0 / 3.0, -1.0 / 3.0, 0.5])
def test_proposition1_catches_an_exponent_off_by_one_part_in_1e9(alpha, monkeypatch):
    # The family then misses S^(2 alpha + 1) by 1.8e-10 to 1.4e-9 B', which is
    # thousands of times what rounding can contribute on the demo frames.
    frames = (demo_frame_2d(), demo_frame_3d())
    assert all(proposition1_check(frame, alpha, samples=100, seed=5).passed for frame in frames)
    power = SVD.power
    monkeypatch.setattr(SVD, "power", lambda self, exponent: power(self, exponent * (1.0 + 1e-9)))
    for frame in frames:
        report = proposition1_check(frame, alpha, samples=100, seed=5)
        assert not report.passed, (frame.dim, report.max_identity_residual, report.tolerance)


def test_ill_conditioned_dual_and_bound_check():
    # 16 x 32 frames with a known spectrum; the error scales with
    # kappa(V) * eps = sqrt(kappa(S)) * eps because S is never formed.
    rng = np.random.default_rng(89)
    frame = random_frame(rng, 16, 32, 1.0, 1e11)
    probes = np.column_stack([random_unit(rng, 16) for _ in range(50)])
    rebuilt = dual_frame(frame).vectors.T @ (frame.vectors @ probes)
    assert float(np.max(np.linalg.norm(rebuilt - probes, axis=0))) <= 1e-10

    frame = random_frame(rng, 16, 32, 1.0, 1e9, declared=True)
    assert dual_frame(frame).declared_bounds == pytest.approx((1e-9, 1.0), rel=1e-6)
    assert proposition1_check(frame, -0.5, 32).passed


@pytest.mark.parametrize("samples", [-3, 2.5, True, "3"])
def test_proposition1_refuses_samples_that_are_not_a_non_negative_integer(samples):
    # Before the check, -3 ran silently with no random probe at all.
    frame = Frame(2, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="samples must be a non-negative integer"):
        proposition1_check(frame, -0.5, samples=samples)
    assert proposition1_check(frame, -0.5, samples=np.int64(3)).samples == 5


def _assert_positive_multiples(columns, expected):
    """Each column is its expected column times one positive factor, to the one
    rounding of each entry's division plus one of measuring the ratio; a zero
    entry stays zero."""
    zero = expected == 0.0
    assert np.all(columns[zero] == 0.0)
    ratio = np.where(zero, np.nan, columns / np.where(zero, 1.0, expected))
    low, high = np.nanmin(ratio, axis=0), np.nanmax(ratio, axis=0)
    assert np.all(low > 0.0)
    assert np.all(high <= low * (1.0 + 5 * 2.0**-53))


def test_probes_are_the_seeded_draws_then_the_eigenvectors_each_normalized_once():
    u = 2.0**-53
    for dim in range(1, 65):
        frame = Frame(dim, np.random.default_rng(dim).standard_normal((dim + 2, dim)))
        eigenvectors = frame_spectrum(frame).eigenvectors
        # The normalization's dim + 2 roundings and the dim + 1 of measuring its result.
        tolerance = (2 * dim + 3) * u / (1.0 - (2 * dim + 3) * u)
        for seed in range(4):
            probes = _probes(frame, 32, seed)
            assert probes.shape == (dim, 32 + dim)
            assert np.max(np.abs(np.linalg.norm(probes, axis=0) - 1.0)) <= tolerance, (dim, seed)
            draws = np.random.default_rng(seed).standard_normal((32, dim))
            _assert_positive_multiples(probes[:, :32], draws.T)
            _assert_positive_multiples(probes[:, 32:], eigenvectors)
            assert np.array_equal(_probes(frame, 32, seed), probes)
            alone = _probes(frame, 0, seed)
            assert np.array_equal(alone, probes[:, 32:])


# Every count that an entry point takes, with the name its refusal gives.
COUNT_ENTRY_POINTS = {
    "run_convergence-n_max": ("n_max", lambda n: run_convergence(demo_frame_2d(), Scheme.NEUMANN, 1.0, 2.0, n, 4, 0)),
    "run_convergence-samples": ("samples", lambda n: run_convergence(demo_frame_2d(), Scheme.NEUMANN, 1.0, 2.0, 2, n, 0)),
    "run_convergence-seed": ("seed", lambda n: run_convergence(demo_frame_2d(), Scheme.NEUMANN, 1.0, 2.0, 2, 4, n)),
    "neumann_dual": ("order", lambda n: neumann_dual(demo_frame_2d(), 1.0, 2.0, n)),
    "log_dual": ("order", lambda n: log_dual(demo_frame_2d(), 1.0, 2.0, n)),
    "binomial_tight": ("order", lambda n: binomial_tight(demo_frame_2d(), 1.0, 2.0, n)),
    "neumann_bound": ("order", lambda n: neumann_bound(1.0, 2.0, n)),
    "binomial_bounds": ("order", lambda n: binomial_bounds(1.0, 2.0, n)),
    "log_bound": ("order", lambda n: log_bound(1.0, 2.0, n)),
    "proposition1_check": ("samples", lambda n: proposition1_check(demo_frame_2d(), -0.5, n)),
    "proposition1_check-seed": ("seed", lambda n: proposition1_check(demo_frame_2d(), -0.5, 4, n)),
    "GaborParams": ("mod_order", lambda n: GaborParams(p0=1.0, q0=4.0, mod_order=n)),
    "gabor_probe_signals": ("count", lambda n: gabor_probe_signals(demo_gabor_params(), count=n)),
    "gabor_probe_signals-seed": ("seed", lambda n: gabor_probe_signals(demo_gabor_params(), seed=n)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_count_is_a_non_negative_integer(entry):
    # A float was truncated or rounded and a bool read as 1; each is now
    # refused, as a negative count always was.
    name, call = COUNT_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (2.5, 1.9, True, -1, "3"):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be a non-negative integer, got {bad!r}")):
                call(bad)
        call(np.int64(3))


def test_bound_check_report_passes_up_to_its_tolerance():
    assert "passed" not in BoundCheckReport._fields
    tolerance = 3e-9

    def report(identity_residual):
        return BoundCheckReport(0.5, 1.0, 10, 1e-12, 2e-12, identity_residual, tolerance)

    at_tolerance = report(tolerance)
    assert at_tolerance.worst_violation == tolerance and at_tolerance.passed
    above = report(math.nextafter(tolerance, math.inf))
    assert above.worst_violation > tolerance and not above.passed


def test_proposition1_rejects_non_frame():
    with pytest.raises(NotAFrameError):
        proposition1_check(Frame(2, np.array([[1.0, 0.0]])), -0.5, samples=3)


# ---------------------------------------------------------------------------
# Commuting rescale
# ---------------------------------------------------------------------------


def test_commuting_scale_scalar_multiple():
    frame = demo_frame_2d()
    scaled = commuting_scale(frame, lambda lam: 4.0)
    np.testing.assert_allclose(scaled.vectors, 2.0 * frame.vectors, atol=1e-12)
    left = alpha_frame(scaled, -0.5)
    right = alpha_frame(frame, -0.5)
    assert np.max(np.abs(left.vectors - right.vectors)) <= 1e-9


def test_commuting_scale_frame_operator_itself():
    frame = demo_frame_2d()
    scaled = commuting_scale(frame, lambda lam: lam)
    half_power = alpha_frame(frame, 0.5)
    np.testing.assert_allclose(scaled.vectors, half_power.vectors, atol=1e-10)
    left = alpha_frame(scaled, -0.5)
    right = alpha_frame(frame, -0.5)
    assert np.max(np.abs(left.vectors - right.vectors)) <= 1e-9


def test_commuting_scale_identity_noop():
    frame = demo_frame_3d()
    scaled = commuting_scale(frame, lambda lam: 1.0)
    np.testing.assert_allclose(scaled.vectors, frame.vectors, atol=1e-12)


def test_commuting_scale_rejects_bad_operators():
    frame = demo_frame_2d()
    with pytest.raises(ValueError, match="positive definite"):
        commuting_scale(frame, lambda lam: -1.0)


def test_commuting_scale_tests_positivity_not_the_frame_rule():
    frame = demo_frame_2d()
    # Positive definite with kappa(T) = 1e13: accepted, and the rescaled
    # family, with kappa = 2e13, is judged like any other family.
    scaled = commuting_scale(frame, lambda lam: np.where(lam < 1.5, 1e-13, 1.0))
    report = diagnostics(scaled)
    assert not report.is_frame
    assert report.lambda_max / report.lambda_min == pytest.approx(2e13, rel=1e-3)
    bottom = repr(float(frame_spectrum(frame).eigenvalues[0]))
    for low in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match=f"eigenvalue {re.escape(bottom)}: .*positive definite"):
            commuting_scale(frame, lambda lam: np.where(lam < 1.5, low, 1.0))


def test_commuting_scale_names_the_first_refused_eigenvalue():
    # Eigenvalues 1 and 2, one refused for its sign and one for overflow: the
    # lower one is named, whichever rule refuses it.
    frame = demo_frame_2d()
    with pytest.raises(ValueError, match="eigenvalue 1.0: .*positive definite, got scale = -1.0"):
        commuting_scale(frame, lambda lam: np.where(lam < 1.5, -1.0, np.inf))
    with pytest.raises(ValueError, match="eigenvalue 1.0: .*spectrum that overflows float64"):
        commuting_scale(frame, lambda lam: np.where(lam < 1.5, np.inf, -1.0))


def test_commuting_scale_refuses_a_scale_that_is_not_real():
    frame = demo_frame_2d()
    with pytest.raises(ValueError, match=r"eigenvalue 1.0: got \(1\+1j\), which is not real"):
        commuting_scale(frame, lambda lam: lam * (1 + 1j))
    real = commuting_scale(frame, lambda lam: lam)
    np.testing.assert_array_equal(commuting_scale(frame, lambda lam: lam + 0j).vectors, real.vectors)


def test_commuting_scale_names_an_overflowing_spectrum():
    # T = 1e308 * S has a top eigenvalue of 2e308, which is not a float.
    frame = demo_frame_3d()
    top = repr(float(frame_spectrum(frame).eigenvalues[-1]))
    with pytest.raises(ValueError, match=f"eigenvalue {re.escape(top)}: .*spectrum that overflows float64"):
        commuting_scale(frame, lambda lam: 1e308 * lam)


# ---------------------------------------------------------------------------
# Non-uniqueness of the generating family
# ---------------------------------------------------------------------------


def test_sign_flips_leave_frame_operator_unchanged_exactly():
    rng = np.random.default_rng(71)
    frame = random_frame(rng, 3, 7, 0.5, 2.5)
    op = frame_operator(frame)
    for _ in range(5):
        signs = np.where(rng.random(frame.count) < 0.5, -1.0, 1.0)
        flipped = Frame(frame.dim, frame.vectors * signs[:, None])
        np.testing.assert_array_equal(frame_operator(flipped), op)


def test_distinct_frames_share_operator():
    # Rotating the coefficient space produces a second decomposition of the
    # same operator whose vectors are not sign flips of the originals.
    frame = demo_frame_2d()
    rng = np.random.default_rng(73)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    other = Frame(2, q @ frame.vectors)
    agreement = np.max(np.abs(frame_operator(other) - frame_operator(frame)))
    assert agreement <= 1e-12
    for permutation in itertools.permutations(range(3)):
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            candidate = np.array(
                [signs[i] * frame.vectors[permutation[i]] for i in range(3)]
            )
            assert np.max(np.abs(candidate - other.vectors)) > 1e-6


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------


def test_frame_json_round_trip(tmp_path):
    frame = demo_frame_2d()
    text = frame_to_json(frame)
    parsed = frame_from_dict(json.loads(text))
    np.testing.assert_array_equal(parsed.vectors, frame.vectors)
    assert parsed.declared_bounds == frame.declared_bounds

    path = tmp_path / "frame.json"
    path.write_text(text, encoding="utf-8")
    loaded = load_frame(path)
    np.testing.assert_array_equal(loaded.vectors, frame.vectors)


def test_frame_json_layout():
    # One key per line, each vector list inline, floats with 17 digits.
    assert frame_to_json(demo_frame_2d()) == (
        "{\n"
        '  "dim": 2,\n'
        '  "vectors": [[1, 0], [0, 1], [0.70710678118654746, 0.70710678118654746]],\n'
        '  "bounds": [1, 2]\n'
        "}\n"
    )


def test_frame_json_bounds_optional():
    frame = Frame(2, np.eye(2))
    text = frame_to_json(frame)
    assert "bounds" not in text
    parsed = frame_from_dict(json.loads(text))
    assert parsed.declared_bounds is None


def test_frame_json_round_trips_signed_zeros():
    frame = Frame(2, np.array([[-0.0, 1.0], [0.0, -0.0], [1.0, 1.0]]))
    text = frame_to_json(frame)
    assert '"vectors": [[-0.0, 1], [0, -0.0], [1, 1]]' in text
    parsed = frame_from_dict(json.loads(text))
    assert parsed.vectors.tobytes() == frame.vectors.tobytes()


def test_frames_compare_and_hash_by_identity():
    frame = demo_frame_2d()
    twin = Frame(frame.dim, frame.vectors)
    assert frame == frame and frame != twin
    assert hash(frame) == hash(frame)
    assert {frame: 1, twin: 2}[twin] == 2


def test_count_rule_accepts_exactly_python_and_numpy_integers():
    # numbers.Integral holds what (int, np.integer) holds, bools aside.
    for value in (0, 3, np.int64(3), np.uint8(3), np.intp(0)):
        assert _check_count("n", value) == int(value) and type(_check_count("n", value)) is int
    for value in (True, np.bool_(True), 2.0, np.float64(2.0), -1, np.int64(-1), "3", None):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            _check_count("n", value)


def test_frame_from_dict_validation():
    with pytest.raises(ValueError, match="must contain a JSON object"):
        frame_from_dict([1, 2])
    with pytest.raises(ValueError, match="'vectors' must be a non-empty list"):
        frame_from_dict({"dim": 2, "vectors": []})
    with pytest.raises(ValueError, match="missing"):
        frame_from_dict({"dim": 2})
    with pytest.raises(ValueError, match="unknown"):
        frame_from_dict({"dim": 2, "vectors": [[1.0, 0.0]], "extra": 1})
    with pytest.raises(ValueError, match="positive integer"):
        frame_from_dict({"dim": 0, "vectors": [[]]})
    with pytest.raises(ValueError, match="list of 2"):
        frame_from_dict({"dim": 2, "vectors": [[1.0, 0.0, 3.0]]})
    with pytest.raises(ValueError, match="two-element"):
        frame_from_dict({"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "bounds": [1.0]})
    # Entries must be JSON numbers: strings and booleans are not read as floats.
    for row in (["1", 0], [0, True], [None, 1.0], [[1.0], 0.0]):
        with pytest.raises(ValueError, match="list of 2 numbers"):
            frame_from_dict({"dim": 2, "vectors": [row, [0.0, 1.0]]})
    for bounds in ([True, "1"], [1.0, "2"], [False, 2.0]):
        with pytest.raises(ValueError, match="two-element list of numbers"):
            frame_from_dict({"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "bounds": bounds})
    frame = frame_from_dict({"dim": 2, "vectors": [[1, 0], [0, 2.5]], "bounds": [1, 6.25]})
    assert frame.declared_bounds == (1.0, 6.25)
