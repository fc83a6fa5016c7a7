"""Command-line surface.

Subcommands: ``analyze`` (spectral diagnostics of a frame file), ``alpha``
and ``dual`` (emit power families as frame JSON), ``perturb`` (convergence
table of an approximation scheme as CSV), ``examples`` (regenerate the
built-in numeric claims), and ``gabor`` (tight-window report as JSON).

Exit codes: 0 on success, 1 on a mathematical failure (not a frame, a bound
violated, a claim failed), 2 on usage or input errors. Floats in JSON and
CSV output carry 17 significant digits so they round-trip bit-faithfully.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .approx import Scheme, run_convergence, write_csv
from .frames import (
    NotAFrameError,
    _format_float,
    alpha_frame,
    diagnostics,
    frame_spectrum,
    frame_to_json,
    load_frame,
    optimal_bounds,
)
from .gabor import GaborParams, sample_grid, tightness_check, window_g
from .reference import builtin_checks

__all__ = ["main"]

SCHEMES = {
    "neumann": Scheme.NEUMANN,
    "binomialhalf": Scheme.BINOMIAL_HALF,
    "logarithmic": Scheme.LOGARITHMIC,
}


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    return json.dumps(value)


def _print_json(pairs, stream) -> None:
    body = ",\n".join(f'  "{key}": {_json_value(value)}' for key, value in pairs)
    stream.write("{\n" + body + "\n}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecalc",
        description="Finite-frame analysis: duals, power families, "
        "perturbative approximations, and the tight window demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="spectral diagnostics of a frame file")
    analyze.add_argument("frame", help="path to a frame JSON file")

    alpha = sub.add_parser("alpha", help="emit the power-alpha family as frame JSON")
    alpha.add_argument("frame", help="path to a frame JSON file")
    alpha.add_argument("--alpha", type=float, required=True, help="power exponent")
    alpha.add_argument("--out", help="output path (default: stdout)")

    dual = sub.add_parser("dual", help="emit the canonical dual frame (alpha = -1)")
    dual.add_argument("frame", help="path to a frame JSON file")
    dual.add_argument("--out", help="output path (default: stdout)")

    perturb = sub.add_parser("perturb", help="convergence table for a scheme, as CSV")
    perturb.add_argument("frame", help="path to a frame JSON file")
    perturb.add_argument(
        "--scheme",
        required=True,
        choices=sorted(SCHEMES),
        type=str.lower,
        help="approximation scheme",
    )
    perturb.add_argument("--A", type=float, default=None, help="declared lower bound (default: optimal)")
    perturb.add_argument("--B", type=float, default=None, help="declared upper bound (default: optimal)")
    perturb.add_argument("--N-max", type=int, default=10, help="largest series order")
    perturb.add_argument("--samples", type=int, default=32, help="number of random probe vectors")
    perturb.add_argument("--seed", type=int, default=0, help="probe generator seed")
    perturb.add_argument("--out", help="output CSV path (default: stdout)")

    sub.add_parser("examples", help="regenerate the built-in numeric claims")

    gabor = sub.add_parser("gabor", help="tight-window report as JSON")
    gabor.add_argument("--p0", type=float, default=1.0, help="modulation step")
    gabor.add_argument("--q0", type=float, default=4.0, help="translation step")
    gabor.add_argument("--grid-step", type=float, default=None, help="grid spacing (default: q0/64)")
    gabor.add_argument("--halfwidth", type=float, default=None, help="grid half width (default: 12*q0)")
    gabor.add_argument("--M", type=int, default=64, help="modulation truncation order")

    return parser


def _cmd_analyze(args) -> int:
    frame = load_frame(args.frame)
    report = diagnostics(frame)
    _print_json(
        [
            ("dim", frame.dim),
            ("num_vectors", frame.count),
            ("lambda_min", report.lambda_min),
            ("lambda_max", report.lambda_max),
            ("optimal_bounds", [report.lambda_min, report.lambda_max]),
            ("is_frame", report.is_frame),
            ("kernel_trivial", report.kernel_trivial),
            ("inverse_norm", report.inverse_norm),
            ("eigenvalues", list(frame_spectrum(frame).eigenvalues)),
        ],
        sys.stdout,
    )
    return 0 if report.is_frame else 1


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_alpha(args, exponent: float) -> int:
    frame = load_frame(args.frame)
    _emit(frame_to_json(alpha_frame(frame, exponent)), args.out)
    return 0


def _cmd_perturb(args) -> int:
    frame = load_frame(args.frame)
    lower, upper = args.A, args.B
    if lower is None or upper is None:
        lam_min, lam_max = optimal_bounds(frame)
        lower = lam_min if lower is None else lower
        upper = lam_max if upper is None else upper
    report = run_convergence(
        frame,
        SCHEMES[args.scheme],
        lower,
        upper,
        n_max=args.N_max,
        samples=args.samples,
        seed=args.seed,
    )
    buffer = io.StringIO()
    write_csv(report, buffer)
    _emit(buffer.getvalue(), args.out)
    violations = report.violations()
    for row in violations:
        print(
            f"bound violated at N={row.order}: measured {_format_float(row.measured_error)} "
            f"> bound {_format_float(row.analytical_bound)}",
            file=sys.stderr,
        )
    return 1 if violations else 0


def _cmd_examples() -> int:
    results = builtin_checks()
    width = max(len(result.name) for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:<{width}}  {result.detail}")
    failed = sum(not result.passed for result in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_gabor(args) -> int:
    params = GaborParams(
        p0=args.p0,
        q0=args.q0,
        grid_step=args.grid_step,
        grid_halfwidth=args.halfwidth,
        mod_order=args.M,
    )
    probe = window_g(sample_grid(params), params)
    report = tightness_check(probe, params)
    _print_json(
        [
            ("ratio", report.ratio),
            ("target", report.target),
            ("relative_error", report.relative_error),
            ("truncation_warning", report.truncation_warning),
        ],
        sys.stdout,
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "alpha":
            return _cmd_alpha(args, args.alpha)
        if args.command == "dual":
            return _cmd_alpha(args, -1.0)
        if args.command == "perturb":
            return _cmd_perturb(args)
        if args.command == "examples":
            return _cmd_examples()
        if args.command == "gabor":
            return _cmd_gabor(args)
        parser.error(f"unknown command {args.command!r}")
    except NotAFrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
