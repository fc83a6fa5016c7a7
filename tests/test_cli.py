import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_frame

import framecalc
import framecalc.cli as cli
import framecalc.reference as reference
from framecalc import (
    Frame,
    demo_frame_2d,
    demo_frame_3d,
    frame_spectrum,
    frame_to_json,
    load_frame,
    optimal_bounds,
    spectral_function,
)
from framecalc.approx import ConvergenceReport, ConvergenceRow
from framecalc.contract import Scheme
from framecalc.reference import expected_power_family


# The ``--scheme`` names: each ``Scheme`` value in lower case.
SCHEME_NAMES = sorted(scheme.value.lower() for scheme in Scheme)


@pytest.fixture
def frame_file(tmp_path):
    path = tmp_path / "frame.json"
    path.write_text(frame_to_json(demo_frame_2d()), encoding="utf-8")
    return str(path)


@pytest.fixture
def rank_deficient_file(tmp_path):
    path = tmp_path / "flat.json"
    flat = Frame(2, np.array([[1.0, 0.0], [2.0, 0.0]]))
    path.write_text(frame_to_json(flat), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_frame(frame_file, capsys):
    code, out, _ = run_cli(capsys, ["analyze", frame_file])
    assert code == 0
    report = json.loads(out)
    keys = ["dim", "num_vectors", "lambda_min", "lambda_max", "is_frame", "inverse_norm", "eigenvalues"]
    assert list(report) == keys
    assert report["dim"] == 2
    assert report["num_vectors"] == 3
    assert report["is_frame"] is True
    assert report["lambda_min"] == pytest.approx(1.0, abs=1e-12)
    assert report["lambda_max"] == pytest.approx(2.0, abs=1e-12)
    assert report["eigenvalues"] == pytest.approx([1.0, 2.0], abs=1e-12)


def test_analyze_non_frame_exits_one(rank_deficient_file, capsys):
    code, out, _ = run_cli(capsys, ["analyze", rank_deficient_file])
    assert code == 1
    report = json.loads(out)
    assert report["is_frame"] is False
    assert report["inverse_norm"] is None


def test_analyze_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,,}', encoding="utf-8")
    code, _, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert "line" in err and "column" in err


def test_analyze_underflowing_frame_operator_exits_two(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text('{"dim": 2, "vectors": [[1e-162, 0.0], [0.0, 1e-162]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert err == "error: frame vectors are too small: the frame operator underflows float64\n"


def test_analyze_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error" in err


def test_alpha_emits_power_family(frame_file, capsys):
    code, out, _ = run_cli(capsys, ["alpha", frame_file, "--alpha", "-0.5"])
    assert code == 0
    emitted = json.loads(out)
    np.testing.assert_allclose(
        np.array(emitted["vectors"]), expected_power_family(2, -0.5), atol=1e-10
    )
    assert emitted["bounds"] == [1.0, 1.0]


def test_alpha_zero_echoes_frame(frame_file, capsys):
    code, out, _ = run_cli(capsys, ["alpha", frame_file, "--alpha", "0"])
    assert code == 0
    emitted = json.loads(out)
    np.testing.assert_allclose(
        np.array(emitted["vectors"]), demo_frame_2d().vectors, atol=1e-12
    )


@pytest.mark.parametrize("alpha", ["-1e-3", "-1E+2", "-1.5e0"])
def test_alpha_takes_negative_values_in_exponent_notation(alpha, frame_file, capsys):
    joined = run_cli(capsys, ["alpha", frame_file, f"--alpha={alpha}"])
    assert joined[0] == 0
    assert run_cli(capsys, ["alpha", frame_file, "--alpha", alpha]) == joined


def test_alpha_on_non_frame_exits_one(rank_deficient_file, capsys):
    code, _, err = run_cli(capsys, ["alpha", rank_deficient_file, "--alpha", "-1"])
    assert code == 1
    assert "not a frame" in err


def test_dual_matches_alpha_minus_one(frame_file, capsys):
    code, dual_out, _ = run_cli(capsys, ["dual", frame_file])
    assert code == 0
    code, alpha_out, _ = run_cli(capsys, ["alpha", frame_file, "--alpha", "-1"])
    assert code == 0
    assert dual_out == alpha_out


def test_alpha_file_round_trips(frame_file, tmp_path, capsys):
    # Dual of the dual through files reproduces the original vectors.
    first = tmp_path / "dual.json"
    code, out, _ = run_cli(capsys, ["dual", frame_file])
    assert code == 0
    first.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["dual", str(first)])
    assert code == 0
    rebuilt = np.array(json.loads(out)["vectors"])
    assert np.max(np.abs(rebuilt - demo_frame_2d().vectors)) <= 1e-8

    # Power a followed by the matching exponent -a/(2a+1) of the emitted
    # frame also returns the originals: the emitted family's operator is
    # S^(2a+1), so the second application contributes S^(-a).
    a = -1.0 / 3.0
    second = tmp_path / "third.json"
    code, out, _ = run_cli(capsys, ["alpha", frame_file, "--alpha", str(a)])
    assert code == 0
    second.write_text(out, encoding="utf-8")
    undo = -a / (2.0 * a + 1.0)
    code, out, _ = run_cli(capsys, ["alpha", str(second), "--alpha", str(undo)])
    assert code == 0
    rebuilt = np.array(json.loads(out)["vectors"])
    assert np.max(np.abs(rebuilt - demo_frame_2d().vectors)) <= 1e-8


def test_perturb_writes_reference_csv(frame_file, capsys):
    code, out, _ = run_cli(capsys, ["perturb", frame_file, "--scheme", "neumann", "--N-max", "8", "--seed", "3"])
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 9
    # The CSV carries no floor; the library's report of the same run, on the
    # CLI's 32 probes, does.
    report = framecalc.run_convergence(load_frame(frame_file), Scheme.NEUMANN, 1.0, 2.0, 8, 32, 3)
    for n, (row, reported) in enumerate(zip(rows, report.rows)):
        # The fixture declares bounds (1, 2), and the table runs on them.
        assert (row["scheme"], row["A"], row["B"]) == ("Neumann", "1", "2")
        assert int(row["N"]) == n
        assert float(row["analytical_bound"]) == pytest.approx((1 / 3) ** (n + 1), rel=1e-12)
        assert float(row["measured_error"]) == reported.measured_error
        assert float(row["measured_error"]) <= float(row["analytical_bound"]) + reported.floor


def test_perturb_defaults_to_optimal_bounds(tmp_path, capsys):
    path = tmp_path / "undeclared.json"
    path.write_text(frame_to_json(random_frame(np.random.default_rng(29), 3, 5, 0.7, 2.9)), encoding="utf-8")
    assert "bounds" not in json.loads(path.read_text(encoding="utf-8"))
    code, out, _ = run_cli(
        capsys, ["perturb", str(path), "--scheme", "logarithmic", "--N-max", "2"]
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    lam_min, lam_max = optimal_bounds(load_frame(str(path)))
    assert len(rows) == 3
    assert all((float(row["A"]), float(row["B"])) == (lam_min, lam_max) for row in rows)


def test_perturb_binomial_refusal_exits_two(tmp_path, capsys):
    wide = Frame(2, np.array([[1.0, 0.0], [0.0, 2.0]]), (1.0, 4.0))
    path = tmp_path / "wide.json"
    path.write_text(frame_to_json(wide), encoding="utf-8")
    code, _, err = run_cli(capsys, ["perturb", str(path), "--scheme", "binomialhalf"])
    assert code == 2
    assert "B < 3A" in err


def test_perturb_runs_on_the_bounds_the_file_declares(tmp_path, capsys):
    # Loose bounds (0.5, 4) around the 2-d demo's spectrum [1, 2].
    path = tmp_path / "loose.json"
    path.write_text(frame_to_json(Frame(2, demo_frame_2d().vectors, (0.5, 4.0))), encoding="utf-8")
    code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", "neumann"])
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 11
    assert {(row["A"], row["B"]) for row in rows} == {("0.5", "4")}
    code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", "binomialhalf"])
    assert code == 2 and out == ""
    assert err.startswith("error: BinomialHalf requires B < 3A") and err.count("\n") == 1


def test_perturb_bound_violation_exits_one(frame_file, capsys, monkeypatch):
    def doctored(*args, **kwargs):
        return ConvergenceReport(
            scheme=Scheme.NEUMANN,
            lower=1.0,
            upper=2.0,
            rows=(ConvergenceRow(0, 1.0, 0.5, 0.25), ConvergenceRow(1, 0.75, 0.5, 0.25)),
        )

    monkeypatch.setattr(framecalc.approx, "run_convergence", doctored)
    code, _, err = run_cli(capsys, ["perturb", frame_file, "--scheme", "neumann"])
    assert code == 1
    # Only the row past its bound plus its floor is reported.
    assert err == "bound violated at N=0: measured 1 > bound 0.5 + floor 0.25\n"


def test_leftover_arithmetic_error_exits_two(frame_file, capsys, monkeypatch):
    def overflowing(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(framecalc.approx, "run_convergence", overflowing)
    code, out, err = run_cli(capsys, ["perturb", frame_file, "--scheme", "neumann"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Every claim of ``examples``, in the order it prints them.
EXAMPLE_CLAIMS = [
    "2d-frame-operator",
    "2d-eigenpairs",
    "2d-power-family-alpha=-1",
    "2d-power-family-alpha=-0.5",
    "2d-power-family-alpha=-0.333333",
    "2d-power-family-alpha=-0.666667",
    "2d-bound-sweep-alpha=-1",
    "2d-bound-sweep-alpha=-0.333333",
    "2d-bound-sweep-alpha=-0.666667",
    "2d-log-exact-inverse",
    "2d-binomial-truncation-norm",
    "2d-log-truncation-norm",
    "3d-frame-operator",
    "3d-eigenvalues",
    "3d-tight-family",
    "3d-parseval-identity",
    "3d-commuting-rescale",
    "window-support",
    "window-partition-identity",
    "window-tightness",
    "window-parseval-rescale",
]


def test_examples_all_pass(capsys):
    code, out, _ = run_cli(capsys, ["examples"])
    assert code == 0
    *claims, summary = out.splitlines()
    assert [line.split()[:2] for line in claims] == [["PASS", name] for name in EXAMPLE_CLAIMS]
    assert summary == "21/21 checks passed"
    # Deterministic across repeats.
    code, again, _ = run_cli(capsys, ["examples"])
    assert code == 0
    assert again == out


# Each operator-level claim of ``examples``, with a wrong version of a name it checks.
OPERATOR_CLAIM_MUTANTS = {
    "2d-log-exact-inverse": ("log_exact_inverse", lambda real: lambda *args: 2.0 * real(*args)),
    "2d-binomial-truncation-norm": (
        "binomial_bounds",
        lambda real: lambda a, b, n: real(a, b, n)._replace(tn_bound=real(a, b, n).tn_bound / 4.0),
    ),
    "2d-log-truncation-norm": ("zn_bound", lambda real: lambda a, b, n: real(a, b, n) / (n + 2)),
    # T instead of T^(1/2): the tight family alone would not tell them apart.
    "3d-commuting-rescale": (
        "commuting_scale",
        lambda real: lambda frame, scale: Frame(
            frame.dim, frame.vectors @ spectral_function(frame_spectrum(frame), scale)
        ),
    ),
    # A warning on the rescaled window alone: the claim must read the report's verdict.
    "window-parseval-rescale": (
        "tightness_check",
        lambda real: lambda signal, params, window_gain=1.0: real(signal, params, window_gain)._replace(
            aliasing_warning=window_gain != 1.0
        ),
    ),
}


@pytest.mark.parametrize("claim", OPERATOR_CLAIM_MUTANTS)
def test_each_operator_claim_fails_under_its_mutant(claim, monkeypatch, capsys):
    name, mutate = OPERATOR_CLAIM_MUTANTS[claim]
    monkeypatch.setattr(reference, name, mutate(getattr(reference, name)))
    code, out, _ = run_cli(capsys, ["examples"])
    assert code == 1
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == [claim]


def test_closed_form_mutant_fails_exactly_its_claims(monkeypatch, capsys):
    # 2^alpha off by one part in a million in S^alpha = I + (2^alpha - 1) 11^T/d.
    monkeypatch.setattr(
        reference, "_power_operator", lambda dim, alpha: np.eye(dim) + (2.0**alpha * (1 + 1e-6) - 1.0) / dim
    )
    code, out, _ = run_cli(capsys, ["examples"])
    assert code == 1
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == [
        "2d-frame-operator",
        "2d-power-family-alpha=-1",
        "2d-power-family-alpha=-0.5",
        "2d-power-family-alpha=-0.333333",
        "2d-power-family-alpha=-0.666667",
        "2d-log-exact-inverse",
        "3d-frame-operator",
        "3d-tight-family",
        "3d-commuting-rescale",
    ]


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["alpha", "--alpha", "0.5"], ["dual"], ["perturb", "--scheme", "neumann"]],
)
def test_near_overflow_entries_exit_two(argv, tmp_path, capsys):
    # Entries of 1e155 square past the largest float, as 1e308 ones do.
    for scale in (1e308, 1e155):
        path = tmp_path / "huge.json"
        rows = np.random.default_rng(97).uniform(0.5, 1.0, (4, 3)) * scale
        path.write_text(json.dumps({"dim": 3, "vectors": rows.tolist()}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, [argv[0], str(path)] + argv[1:])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows float64" in err


def test_entries_near_the_underflow_edge_form_a_frame(tmp_path, capsys):
    # Entries of 1e-154 square to about the smallest normal float, and the
    # frame operator's trace stays normal: the file is a frame.
    path = tmp_path / "tiny.json"
    rows = np.random.default_rng(97).uniform(0.5, 1.0, (4, 3)) * 1e-154
    path.write_text(json.dumps({"dim": 3, "vectors": rows.tolist()}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["analyze", str(path)])
        assert (code, err) == (0, "") and '"is_frame": true' in out
        code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", "neumann"])
        assert (code, err) == (0, "") and len(list(csv.DictReader(out.splitlines()))) == 11


@pytest.mark.parametrize("alpha", ["1000", "-100000", "1e308", "inf", "nan", "-inf"])
def test_alpha_out_of_float_range_exits_two(alpha, tmp_path, capsys):
    # The family's largest eigenvalue overflows, its smallest underflows to 0
    # (which would stamp it with bounds [0, B]), the power 2 alpha + 1 is
    # infinite, or it is nan.
    path = tmp_path / "demo3.json"
    path.write_text(frame_to_json(demo_frame_3d()), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["alpha", str(path), "--alpha", alpha])
    assert code == 2 and out == ""
    assert err.startswith("error: alpha = ") and err.count("\n") == 1
    assert err.endswith("outside the positive normal floats\n")
    child = _framecalc_child("alpha", str(path), "--alpha", alpha)
    assert (child.returncode, child.stdout, child.stderr) == (2, "", err)


def test_perturb_logarithmic_high_order(frame_file, capsys):
    code, out, err = run_cli(
        capsys, ["perturb", frame_file, "--scheme", "logarithmic", "--N-max", "200"]
    )
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 201
    assert float(rows[-1]["analytical_bound"]) == 0.0


def test_non_numeric_entries_exit_two(tmp_path, capsys):
    path = tmp_path / "strings.json"
    path.write_text('{"dim": 2, "vectors": [["1", 0], [0, true]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert err == "error: every vector must be a list of 2 numbers\n"


@pytest.mark.parametrize("argv", [["analyze"], ["dual"], ["perturb", "--scheme", "neumann"]], ids=lambda a: a[0])
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 2, "vectors": [[1.0, NaN], [0.0, 1.0]]}', "frame vectors must be finite"),
        (
            '{"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "bounds": [1.0, Infinity]}',
            "bounds must satisfy 0 < A <= B, got (1.0, inf)",
        ),
        ('{"dim": 2, "vectors": [["1", 0.0], [0.0, 1.0]]}', "every vector must be a list of 2 numbers"),
        ('{"dim": 2, "vectors": [[[1.0], 0.0], [0.0, 1.0]]}', "every vector must be a list of 2 numbers"),
        ('{"dim": 2, "vectors": [[true, 0.0], [0.0, 1.0]]}', "every vector must be a list of 2 numbers"),
        ('{"dim": 2, "vectors": [[1' + "0" * 400 + ', 0], [0, 1]]}', "int too large to convert to float"),
        (
            '{"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]], "bounds": [1.0]}',
            "'bounds' must be a two-element list of numbers [A, B]",
        ),
        ('{"dim": 2, "vectors": [[]]}', "every vector must be a list of 2 numbers"),
        ('[{"dim": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}]', "frame file must contain a JSON object"),
    ],
    ids=[
        "nan-vector", "infinite-bound", "string-entry", "nested-list", "bool-entry", "integer-1e400",
        "one-bound", "empty-vector", "top-level-list",
    ],  # fmt: skip
)
def test_json_nan_and_infinity_literals_exit_two(text, message, argv, tmp_path, capsys):
    # Python's json module reads the literals NaN and Infinity as floats; the
    # rest of the table is file content that the schema or the float range refuses.
    path = tmp_path / "literal.json"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [argv[0], str(path)] + argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_perturb_logarithmic_at_large_scale(tmp_path, capsys):
    # S = 1e200 [[3, 1], [1, 3]]/2, so A*B overflows a float.
    path = tmp_path / "scaled.json"
    path.write_text(frame_to_json(Frame(2, 1e100 * demo_frame_2d().vectors)), encoding="utf-8")
    code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", "logarithmic"])
    assert code == 0 and err == ""
    assert len(list(csv.DictReader(out.splitlines()))) == 11


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_perturb_near_the_largest_float(scheme, tmp_path, capsys):
    # S = 1.5e308, so A + B and 2A overflow a float while (A+B)/2 does not.
    path = tmp_path / "top.json"
    path.write_text('{"dim": 1, "vectors": [[1.224744871391589e154]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", scheme])
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 11
    assert all(float(row["measured_error"]) <= 1e-15 for row in rows)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_perturb_refuses_a_non_frame(scheme, rank_deficient_file, tmp_path, capsys):
    # kappa(S) = 1e14 is past the documented 1e12 limit, whatever the bounds.
    # A singular S is refused by the same rule, not for its lambda_min = 0.
    path = tmp_path / "ill.json"
    path.write_text(frame_to_json(Frame(2, np.array([[1.0, 0.0], [0.0, 1e-7]]))), encoding="utf-8")
    for frame_file in (str(path), rank_deficient_file):
        code, out, err = run_cli(capsys, ["perturb", frame_file, "--scheme", scheme])
        assert code == 1 and out == ""
        assert err == "error: not a frame: bounds are undefined\n"


def test_declared_bounds_are_checked_relative_to_the_spectrum(tmp_path, capsys):
    # Spectrum [1e-200, 2e-200]: bounds (1e-12, 1e-11) miss it by 11 orders.
    path = tmp_path / "tiny.json"
    vectors = (1e-100 * demo_frame_2d().vectors).tolist()
    path.write_text(json.dumps({"dim": 2, "vectors": vectors, "bounds": [1e-12, 1e-11]}))
    code, out, err = run_cli(capsys, ["analyze", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: declared bounds") and "do not enclose" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("bounds", [[1.0000000005, 2.0], [1.0, 1.9999999995]])
def test_perturb_refuses_bounds_just_inside_the_spectrum(bounds, tmp_path, capsys):
    # One end of the 2-d demo's spectrum [1, 2] moved 5e-10 inward: the
    # schemes would hold a bound built on it, so the file is refused.
    path = tmp_path / "inward.json"
    path.write_text(json.dumps({"dim": 2, "vectors": demo_frame_2d().vectors.tolist(), "bounds": bounds}))
    code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", "neumann"])
    assert code == 2 and out == ""
    assert err.startswith("error: declared bounds") and "do not enclose" in err
    assert err.count("\n") == 1


SCALE_EXPONENTS = (-160, -40, 0, 40, 160)


def _times(value, factor):
    if isinstance(value, list):
        return [_times(item, factor) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value * factor
    return value


def _unscaled(command, alpha, out, k):
    """The numbers a command prints for a frame scaled by 2^k, with that scale
    divided out: S scales by 4^k and the power-alpha family by 2^(k(2 alpha+1))."""
    if command == "perturb":
        rows = list(csv.reader(out.splitlines()))
        return rows[:1] + [
            [scheme, float(a) / 4.0**k, float(b) / 4.0**k, *map(float, rest)]
            for scheme, a, b, *rest in rows[1:]
        ]
    if command == "analyze":
        powers = dict.fromkeys(["lambda_min", "lambda_max", "eigenvalues"], 2)
        powers["inverse_norm"] = -2
    else:
        powers = {"vectors": 2 * alpha + 1, "bounds": 4 * alpha + 2}
    report = json.loads(out) if out else {}
    return {key: _times(value, 2.0 ** (-powers.get(key, 0) * k)) for key, value in report.items()}


@pytest.mark.parametrize(
    "make_frame",
    [
        demo_frame_2d,
        demo_frame_3d,
        lambda: random_frame(np.random.default_rng(5), 5, 9, 1.0, 2.5),
        lambda: random_frame(np.random.default_rng(6), 6, 12, 1.0, 1e10),
    ],
    ids=["demo-2d", "demo-3d", "random", "random-kappa-1e10"],
)
def test_verdicts_and_numbers_are_invariant_under_scaling(make_frame, tmp_path, capsys):
    # Scaling the vectors by 2^k is exact in float64, and every rule here is a
    # ratio, so exit codes, stderr verdicts and the unscaled numbers must all
    # be identical. Where 2 alpha + 1 is dyadic, that holds bit for bit.
    frame = make_frame()
    commands = [("analyze", None, []), ("dual", -1.0, [])]
    commands += [("alpha", alpha, ["--alpha", str(alpha)]) for alpha in (-0.5, -0.25)]
    commands += [("perturb", None, ["--scheme", scheme]) for scheme in SCHEME_NAMES]
    outcomes = {}
    for k in SCALE_EXPONENTS:
        path = tmp_path / f"scaled{k}.json"
        path.write_text(frame_to_json(Frame(frame.dim, frame.vectors * 2.0**k)), encoding="utf-8")
        for command, alpha, options in commands:
            code, out, err = run_cli(capsys, [command, str(path)] + options)
            # Only the bounds that the BinomialHalf refusal quotes carry the scale.
            verdict = re.sub(r"\([^)]*\)", "(A, B)", err)
            outcomes[k, command, alpha, *options] = (code, verdict, _unscaled(command, alpha, out, k))
    for (k, *call), outcome in outcomes.items():
        assert outcome == outcomes[(0, *call)], (k, call)


def test_gabor_defaults(capsys):
    code, out, _ = run_cli(capsys, ["gabor"])
    assert code == 0
    report = json.loads(out)
    assert report["target"] == pytest.approx(2.0 * math.pi / 4.0, rel=1e-15)
    assert report["relative_error"] <= 0.01
    assert report["truncation_warning"] is False
    assert report["aliasing_warning"] is False


def test_gabor_aliasing_exits_one(capsys):
    # The grid's Nyquist order is 50: orders up to 140 fold back and are
    # counted again, a ratio of 3x the target that no ring warning catches.
    code, out, err = run_cli(capsys, ["gabor", "--p0", "1", "--q0", "4", "--M", "140"])
    assert code == 1
    report = json.loads(out)
    assert report["ratio"] == pytest.approx(3.0 * report["target"], rel=1e-9)
    assert report["truncation_warning"] is False and report["aliasing_warning"] is True
    assert err.startswith("tightness failed: ") and err.count("\n") == 1
    assert "aliasing" in err and "truncation" not in err


def test_gabor_failed_tightness_exits_one(capsys):
    # A grid of half width 3 is narrower than the window's support (pi): the
    # report is printed as usual, and the failed claim is the exit code plus
    # one stderr line.
    code, out, err = run_cli(capsys, ["gabor", "--M", "200", "--halfwidth", "3"])
    assert code == 1
    report = json.loads(out)
    assert report["relative_error"] > 0.01 and report["truncation_warning"] is True
    assert err.startswith("tightness failed: ") and err.count("\n") == 1


def _child(*args):
    # A fresh interpreter with every warning an error, importing the package
    # under test.
    source = str(Path(framecalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error", *args]
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


def _framecalc_child(*argv, flags=()):
    # As `python -W error -m framecalc` runs for a user; ``flags`` are further
    # interpreter options.
    return _child(*flags, "-m", "framecalc", *argv)


def test_gabor_child_process_exit_codes():
    passed = _framecalc_child("gabor")
    assert passed.returncode == 0 and passed.stderr == ""
    assert json.loads(passed.stdout)["relative_error"] <= 0.01
    aliased = _framecalc_child("gabor", "--M", "140")
    assert aliased.returncode == 1 and json.loads(aliased.stdout)["aliasing_warning"] is True
    assert aliased.stderr.startswith("tightness failed: ") and aliased.stderr.count("\n") == 1


EDGE = {"framecalc", "framecalc.cli", "framecalc.contract"}
LIGHT = EDGE | {"framecalc.frames", "framecalc.linalg"}


def _loaded_modules(stderr, package="framecalc"):
    """The modules of ``package`` that ``-X importtime`` reports on stderr."""
    lines = [line for line in stderr.splitlines() if line.startswith("import time:")]
    names = {line.rsplit("|", 1)[-1].strip() for line in lines}
    return {name for name in names if name.split(".")[0] == package}


def _deep_frame_file(tmp_path):
    """A frame file whose vectors nest 1,000 lists deep: past the JSON parser's
    recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 1, "vectors": ' + "[" * 1000 + "]" * 1000 + "}", encoding="utf-8")
    return path


def _importtime_child(argv, frame_file, tmp_path):
    # A child under ``-X importtime``, with FRAME, MALFORMED, BOOL_DIM, DEEP,
    # ARRAY and NO_VECTORS in ``argv`` standing for a valid, a malformed, a
    # bool-``dim``, a too deeply nested, a non-object and a vector-less frame file.
    contents = {
        "MALFORMED": '{"dim": 2,,}',
        "BOOL_DIM": '{"dim": true, "vectors": [[1.0], [0.5]]}',
        "ARRAY": "[1, 2]",
        "NO_VECTORS": '{"dim": 2, "vectors": []}',
    }
    files = {"FRAME": frame_file, "DEEP": str(_deep_frame_file(tmp_path))}
    for name, text in contents.items():
        files[name] = str(tmp_path / f"{name.lower()}.json")
        Path(files[name]).write_text(text, encoding="utf-8")
    return _framecalc_child(*[files.get(arg, arg) for arg in argv], flags=("-X", "importtime"))


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["analyze", "FRAME"], LIGHT),
        (["alpha", "FRAME", "--alpha", "-0.5"], LIGHT),
        (["dual", "FRAME"], LIGHT),
        (["analyze", "MALFORMED"], EDGE),
        (["perturb", "FRAME", "--scheme", "neumann"], LIGHT | {"framecalc.approx"}),
        (["gabor"], EDGE | {"framecalc.gabor"}),
        (["examples"], LIGHT | {"framecalc.approx", "framecalc.gabor", "framecalc.reference"}),
    ],
    ids=["analyze", "alpha", "dual", "malformed", "perturb", "gabor", "examples"],
)
def test_each_subcommand_imports_only_the_layers_it_runs(argv, modules, frame_file, tmp_path):
    child = _importtime_child(argv, frame_file, tmp_path)
    assert child.returncode == (2 if "MALFORMED" in argv else 0)
    assert _loaded_modules(child.stderr) == modules


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "MALFORMED"],
        ["dual", "BOOL_DIM"],
        ["alpha", "DEEP", "--alpha", "0.5"],
        ["analyze", "ARRAY"],
        ["perturb", "NO_VECTORS", "--scheme", "neumann"],
        ["perturb", "FRAME", "--scheme", "bogus"],
        ["perturb", "FRAME", "--scheme", "neumann", "--N-max", str(cli.N_MAX_CEILING + 1)],
        ["perturb", "FRAME", "--scheme", "neumann", "--N-max", str(10**400)],
    ],
    ids=["malformed", "bool-dim", "deep", "array", "no-vectors", "usage", "n-max-past-ceiling", "n-max-1e400"],
)
def test_refused_input_loads_no_layer_and_not_numpy(argv, frame_file, tmp_path):
    child = _importtime_child(argv, frame_file, tmp_path)
    assert child.returncode == 2 and child.stdout == ""
    assert _loaded_modules(child.stderr) == EDGE
    assert _loaded_modules(child.stderr, "numpy") == set()


@pytest.mark.parametrize("n_max", [cli.N_MAX_CEILING + 1, 10**400], ids=["ceiling+1", "1e400"])
def test_perturb_refuses_an_order_past_the_ceiling(n_max, frame_file, capsys):
    # One row per order: past the ceiling the table would run until killed.
    code, out, err = run_cli(capsys, ["perturb", frame_file, "--scheme", "neumann", "--N-max", str(n_max)])
    assert (code, out, err) == (2, "", f"error: --N-max must be at most 100000, got {n_max}\n")


def test_importing_the_package_loads_no_layer_and_not_numpy():
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] in ('framecalc', 'numpy'))"
    child = _child("-c", f"import sys, framecalc; print({loaded})")
    assert child.returncode == 0 and child.stderr == ""
    assert child.stdout == "['framecalc']\n"


def test_child_process_input_and_usage_errors_exit_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,,}', encoding="utf-8")
    malformed = _framecalc_child("analyze", str(path))
    assert malformed.returncode == 2 and malformed.stdout == ""
    assert malformed.stderr.startswith("error: malformed JSON: ") and malformed.stderr.count("\n") == 1
    deep = _framecalc_child("dual", str(_deep_frame_file(tmp_path)))
    assert deep.returncode == 2 and deep.stdout == ""
    assert deep.stderr.startswith("error: malformed JSON: ") and deep.stderr.count("\n") == 1
    bogus = _framecalc_child("perturb", str(path), "--scheme", "bogus")
    assert bogus.returncode == 2 and bogus.stdout == ""
    assert "invalid choice: 'bogus'" in bogus.stderr


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda scheme: scheme.value)
def test_each_scheme_value_selects_its_scheme_in_any_case(scheme, frame_file, capsys):
    for name in (scheme.value, scheme.value.upper(), scheme.value.lower()):
        code, out, _ = run_cli(capsys, ["perturb", frame_file, "--scheme", name, "--N-max", "1"])
        assert code == 0
        assert {row["scheme"] for row in csv.DictReader(out.splitlines())} == {scheme.value}


def test_main_never_freezes_the_collector(frame_file, capsys):
    frozen = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, ["analyze", frame_file])
    assert code == 0
    assert gc.get_freeze_count() == frozen


def test_run_freezes_the_collector_then_exits_with_the_code(frame_file, monkeypatch):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(None))
    monkeypatch.setattr(sys, "argv", ["framecalc", "analyze", frame_file])
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert excinfo.value.code == 0 and len(freezes) == 1
    # A usage error leaves before the freeze.
    monkeypatch.setattr(sys, "argv", ["framecalc", "analyze"])
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert excinfo.value.code == 2 and len(freezes) == 1


def test_gabor_unallocatable_grid_exits_two(capsys):
    # 9.6e16 grid samples (682 PiB of int64) exceed every address space, so
    # numpy refuses the allocation up front instead of committing memory.
    code, out, err = run_cli(capsys, ["gabor", "--grid-step", "1e-15"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gabor_invalid_params_exit_two(capsys):
    code, _, err = run_cli(capsys, ["gabor", "--p0", "1", "--q0", "7"])
    assert code == 2
    assert "no frame" in err
    code, out, err = run_cli(capsys, ["gabor", "--q0", "-1"])
    assert code == 2 and out == ""
    assert err == "error: q0 must be positive, got -1.0\n"


@pytest.mark.parametrize("flag", ["--grid-step", "--halfwidth"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_gabor_non_finite_grid_exits_two(flag, value, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["gabor", flag, value])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite and positive" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        # 48/5e-324 is infinite, and 1e300/0.0625 samples are no count either.
        ("--grid-step", "5e-324", "grid_halfwidth = 48.0 over grid_step = 5e-324"),
        ("--halfwidth", "1e300", "grid_halfwidth = 1e+300 over grid_step = 0.0625"),
    ],
)
def test_gabor_grid_past_any_sample_count_exits_two(flag, value, message, capsys):
    code, out, err = run_cli(capsys, ["gabor", flag, value])
    assert code == 2 and out == ""
    assert err == f"error: {message} gives more samples than a numpy array can hold\n"


def test_usage_errors_exit_two(frame_file, capsys):
    assert run_cli(capsys, ["perturb", frame_file, "--scheme", "neumann", "--seed", "-1"]) == (
        2, "", "error: seed must be a non-negative integer, got -1\n"
    )
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["unknown-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["alpha", frame_file, "--alpha", "-1", "--bogus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["perturb", frame_file, "--scheme", "unknown"])
    assert excinfo.value.code == 2
    # A frame file declares its bounds: no option sets them.
    for flag in ("--A", "--B"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["perturb", frame_file, "--scheme", "neumann", flag, "1"])
        assert excinfo.value.code == 2
    # Every result goes to stdout, on 32 probes: no option names a file or a count.
    for argv in (
        ["alpha", frame_file, "--alpha", "-1", "--out", "x.json"],
        ["dual", frame_file, "--out", "x.json"],
        ["perturb", frame_file, "--scheme", "neumann", "--out", "x.csv"],
        ["perturb", frame_file, "--scheme", "neumann", "--samples", "8"],
        # Each option has one spelling: argparse's unique prefixes are refused.
        ["alpha", frame_file, "--al", "-1e-3"],
        ["alpha", frame_file, "--al=-1e-3"],
        ["perturb", frame_file, "--scheme", "neumann", "--N", "2"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["perturb", "--help"])
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out
    assert "--N-max" in usage and "--A" not in usage and "--B" not in usage
    assert "--out" not in usage and "--samples" not in usage
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["alpha", "--help"])
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out
    assert "--alpha" in usage and "--out" not in usage and "--samples" not in usage
