import csv
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
from framecalc import Frame, bound_satisfied, demo_frame_2d, demo_frame_3d, frame_to_json
from framecalc.approx import ConvergenceReport, ConvergenceRow, Scheme
from framecalc.reference import expected_power_family_2d


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
    assert report["dim"] == 2
    assert report["num_vectors"] == 3
    assert report["is_frame"] is True
    assert report["lambda_min"] == pytest.approx(1.0, abs=1e-12)
    assert report["lambda_max"] == pytest.approx(2.0, abs=1e-12)
    assert report["optimal_bounds"] == pytest.approx([1.0, 2.0], abs=1e-12)
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


def test_analyze_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error" in err


def test_alpha_emits_power_family(frame_file, capsys):
    code, out, _ = run_cli(capsys, ["alpha", frame_file, "--alpha", "-0.5"])
    assert code == 0
    emitted = json.loads(out)
    np.testing.assert_allclose(
        np.array(emitted["vectors"]), expected_power_family_2d(-0.5), atol=1e-10
    )
    assert emitted["bounds"] == [1.0, 1.0]


def test_alpha_zero_echoes_frame(frame_file, capsys):
    code, out, _ = run_cli(capsys, ["alpha", frame_file, "--alpha", "0"])
    assert code == 0
    emitted = json.loads(out)
    np.testing.assert_allclose(
        np.array(emitted["vectors"]), demo_frame_2d().vectors, atol=1e-12
    )


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
    code, _, _ = run_cli(capsys, ["dual", frame_file, "--out", str(first)])
    assert code == 0
    code, out, _ = run_cli(capsys, ["dual", str(first)])
    assert code == 0
    rebuilt = np.array(json.loads(out)["vectors"])
    assert np.max(np.abs(rebuilt - demo_frame_2d().vectors)) <= 1e-8

    # Power a followed by the matching exponent -a/(2a+1) of the emitted
    # frame also returns the originals: the emitted family's operator is
    # S^(2a+1), so the second application contributes S^(-a).
    a = -1.0 / 3.0
    second = tmp_path / "third.json"
    code, _, _ = run_cli(capsys, ["alpha", frame_file, "--alpha", str(a), "--out", str(second)])
    assert code == 0
    undo = -a / (2.0 * a + 1.0)
    code, out, _ = run_cli(capsys, ["alpha", str(second), "--alpha", str(undo)])
    assert code == 0
    rebuilt = np.array(json.loads(out)["vectors"])
    assert np.max(np.abs(rebuilt - demo_frame_2d().vectors)) <= 1e-8


def test_perturb_writes_reference_csv(frame_file, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        [
            "perturb",
            frame_file,
            "--scheme",
            "neumann",
            "--A",
            "1",
            "--B",
            "2",
            "--N-max",
            "8",
            "--samples",
            "16",
            "--seed",
            "3",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    with out_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 9
    for n, row in enumerate(rows):
        assert row["scheme"] == "Neumann"
        assert int(row["N"]) == n
        assert float(row["analytical_bound"]) == pytest.approx((1 / 3) ** (n + 1), rel=1e-12)
        assert bound_satisfied(float(row["measured_error"]), float(row["analytical_bound"]))


def test_perturb_defaults_to_optimal_bounds(frame_file, capsys):
    code, out, _ = run_cli(
        capsys, ["perturb", frame_file, "--scheme", "logarithmic", "--N-max", "2"]
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert float(rows[0]["A"]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[0]["B"]) == pytest.approx(2.0, abs=1e-12)


def test_perturb_binomial_refusal_exits_two(tmp_path, capsys):
    wide = Frame(2, np.array([[1.0, 0.0], [0.0, 2.0]]))
    path = tmp_path / "wide.json"
    path.write_text(frame_to_json(wide), encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        ["perturb", str(path), "--scheme", "binomialhalf", "--A", "1", "--B", "4"],
    )
    assert code == 2
    assert "B < 3A" in err


def test_perturb_bound_violation_exits_one(frame_file, capsys, monkeypatch):
    def doctored(*args, **kwargs):
        return ConvergenceReport(
            scheme=Scheme.NEUMANN,
            lower=1.0,
            upper=2.0,
            rows=(ConvergenceRow(0, 1.0, 0.5),),
            samples=1,
            seed=0,
        )

    monkeypatch.setattr(cli, "run_convergence", doctored)
    code, _, err = run_cli(capsys, ["perturb", frame_file, "--scheme", "neumann"])
    assert code == 1
    assert "bound violated" in err


def test_leftover_arithmetic_error_exits_two(frame_file, capsys, monkeypatch):
    def overflowing(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli, "run_convergence", overflowing)
    code, out, err = run_cli(capsys, ["perturb", frame_file, "--scheme", "neumann"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_examples_all_pass(capsys):
    code, out, _ = run_cli(capsys, ["examples"])
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 15
    # Deterministic across repeats.
    code, again, _ = run_cli(capsys, ["examples"])
    assert code == 0
    assert again == out


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["alpha", "--alpha", "0.5"], ["dual"], ["perturb", "--scheme", "neumann"]],
)
def test_near_overflow_entries_exit_two(argv, tmp_path, capsys):
    path = tmp_path / "huge.json"
    rows = np.random.default_rng(97).uniform(0.5, 1.0, (4, 3)) * 1e308
    path.write_text(json.dumps({"dim": 3, "vectors": rows.tolist()}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, [argv[0], str(path)] + argv[1:])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows float64" in err


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


def test_perturb_logarithmic_at_large_scale(tmp_path, capsys):
    # S = 1e200 [[3, 1], [1, 3]]/2, so A*B overflows a float.
    path = tmp_path / "scaled.json"
    path.write_text(frame_to_json(Frame(2, 1e100 * demo_frame_2d().vectors)), encoding="utf-8")
    code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", "logarithmic"])
    assert code == 0 and err == ""
    assert len(list(csv.DictReader(out.splitlines()))) == 11


@pytest.mark.parametrize("scheme", sorted(cli.SCHEMES))
def test_perturb_near_the_largest_float(scheme, tmp_path, capsys):
    # S = 1.5e308, so A + B and 2A overflow a float while (A+B)/2 does not.
    path = tmp_path / "top.json"
    path.write_text('{"dim": 1, "vectors": [[1.224744871391589e154]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", scheme])
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 11
    assert all(float(row["measured_error"]) <= 1e-15 for row in rows)


@pytest.mark.parametrize("scheme", sorted(cli.SCHEMES))
def test_perturb_refuses_a_non_frame(scheme, tmp_path, capsys):
    # kappa(S) = 1e14 is past the documented 1e12 limit, whatever the bounds.
    path = tmp_path / "ill.json"
    path.write_text(frame_to_json(Frame(2, np.array([[1.0, 0.0], [0.0, 1e-7]]))), encoding="utf-8")
    code, out, err = run_cli(capsys, ["perturb", str(path), "--scheme", scheme])
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
        powers = dict.fromkeys(["lambda_min", "lambda_max", "optimal_bounds", "eigenvalues"], 2)
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
    commands += [("perturb", None, ["--scheme", scheme]) for scheme in sorted(cli.SCHEMES)]
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


def _framecalc_child(*argv):
    # A fresh interpreter with every warning an error, as `python -W error -m
    # framecalc` runs for a user, importing the package under test.
    source = str(Path(framecalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error", "-m", "framecalc", *argv]
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


def test_gabor_child_process_exit_codes():
    passed = _framecalc_child("gabor")
    assert passed.returncode == 0 and passed.stderr == ""
    assert json.loads(passed.stdout)["relative_error"] <= 0.01
    aliased = _framecalc_child("gabor", "--M", "140")
    assert aliased.returncode == 1 and json.loads(aliased.stdout)["aliasing_warning"] is True
    assert aliased.stderr.startswith("tightness failed: ") and aliased.stderr.count("\n") == 1


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


@pytest.mark.parametrize("flag", ["--grid-step", "--halfwidth"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_gabor_non_finite_grid_exits_two(flag, value, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["gabor", flag, value])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite and positive" in err


def test_usage_errors_exit_two(frame_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["unknown-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["alpha", frame_file, "--alpha", "-1", "--bogus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["perturb", frame_file, "--scheme", "unknown"])
    assert excinfo.value.code == 2
