"""Command-line surface.

Each subcommand is declared once, in ``_build_parser``: its options, its help
line (``framecalc --help`` lists them) and its handler. Every result goes to
stdout, every diagnostic to stderr; redirect stdout to keep a result in a
file. Each option has one spelling, its full name: no prefix of it is
accepted. ``perturb`` measures each order through the scheme's error
polynomial in the eigenbasis of the frame operator, on 32 seeded random
probes plus every eigenvector; its ``--N-max`` is at most ``N_MAX_CEILING``.

Exit codes: 0 on success, 1 on a mathematical failure (not a frame, a bound
violated, a claim failed, a window outside the 1% tightness gate), 2 on
usage or input errors, an arithmetic or memory error that the inputs provoke
included.
Floats in JSON and CSV output carry 17 significant digits so they round-trip
bit-faithfully.

Only ``contract`` is imported up front. Each subcommand imports the layers it
runs once its input has been read and checked, so a malformed file, a bad
schema or a usage error exits 2 without loading numpy or any layer.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .contract import NotAFrameError, Scheme, _format_float, _json_object, frame_to_json, load_frame

__all__ = ["main", "run"]

# The largest ``perturb --N-max``. The CSV has one row per order, so an order
# far past any bound's convergence only writes rows until the process is killed;
# 100,000 orders of a 64 x 32 frame take a few seconds.
N_MAX_CEILING = 100_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecalc",
        allow_abbrev=False,
        description="Finite-frame analysis: duals, power families, "
        "perturbative approximations, and the tight window demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", allow_abbrev=False, help="spectral diagnostics of a frame file")
    analyze.add_argument("frame", help="path to a frame JSON file")
    analyze.set_defaults(run=_cmd_analyze)

    alpha = sub.add_parser("alpha", allow_abbrev=False, help="emit the power-alpha family as frame JSON")
    alpha.add_argument("frame", help="path to a frame JSON file")
    alpha.add_argument("--alpha", type=float, required=True, help="power exponent")
    alpha.set_defaults(run=_cmd_alpha)

    dual = sub.add_parser("dual", allow_abbrev=False, help="emit the canonical dual frame (alpha = -1)")
    dual.add_argument("frame", help="path to a frame JSON file")
    dual.set_defaults(run=_cmd_alpha, alpha=-1.0)

    perturb = sub.add_parser("perturb", allow_abbrev=False, help="convergence table for a scheme, as CSV")
    perturb.add_argument("frame", help="path to a frame JSON file")
    perturb.add_argument(
        "--scheme",
        required=True,
        choices=sorted(scheme.value.lower() for scheme in Scheme),
        type=str.lower,
        help="approximation scheme",
    )
    perturb.add_argument("--N-max", type=int, default=10, help=f"largest series order, at most {N_MAX_CEILING}")
    perturb.add_argument("--seed", type=int, default=0, help="probe generator seed")
    perturb.set_defaults(run=_cmd_perturb)

    examples = sub.add_parser("examples", allow_abbrev=False, help="regenerate the built-in numeric claims")
    examples.set_defaults(run=_cmd_examples)

    gabor = sub.add_parser("gabor", allow_abbrev=False, help="tight-window report as JSON")
    gabor.add_argument("--p0", type=float, default=1.0, help="modulation step")
    gabor.add_argument("--q0", type=float, default=4.0, help="translation step")
    gabor.add_argument("--grid-step", type=float, default=None, help="grid spacing (default: q0/64)")
    gabor.add_argument("--halfwidth", type=float, default=None, help="grid half width (default: 12*q0)")
    gabor.add_argument("--M", type=int, default=64, help="modulation truncation order")
    gabor.set_defaults(run=_cmd_gabor)

    return parser


def _cmd_analyze(args) -> int:
    frame = load_frame(args.frame)
    from .frames import diagnostics, frame_spectrum

    report = diagnostics(frame)
    pairs = [
        ("dim", frame.dim),
        ("num_vectors", frame.count),
        ("lambda_min", report.lambda_min),
        ("lambda_max", report.lambda_max),
        ("is_frame", report.is_frame),
        ("inverse_norm", report.inverse_norm),
        ("eigenvalues", frame_spectrum(frame).eigenvalues.tolist()),
    ]
    sys.stdout.write(_json_object(pairs))
    return 0 if report.is_frame else 1


def _cmd_alpha(args) -> int:
    frame = load_frame(args.frame)
    from .frames import alpha_frame

    sys.stdout.write(frame_to_json(alpha_frame(frame, args.alpha)))
    return 0


def _cmd_perturb(args) -> int:
    if args.N_max > N_MAX_CEILING:
        raise ValueError(f"--N-max must be at most {N_MAX_CEILING}, got {args.N_max}")
    frame = load_frame(args.frame)
    from .approx import run_convergence, write_csv
    from .frames import _frame_bounds

    lower, upper = frame.declared_bounds or _frame_bounds(frame, "bounds are undefined")
    report = run_convergence(
        frame,
        next(scheme for scheme in Scheme if scheme.value.lower() == args.scheme),
        lower,
        upper,
        n_max=args.N_max,
        samples=32,
        seed=args.seed,
    )
    write_csv(report, sys.stdout)
    violations = report.violations()
    for row in violations:
        print(
            f"bound violated at N={row.order}: measured {_format_float(row.measured_error)} "
            f"> bound {_format_float(row.analytical_bound)} + floor {_format_float(row.floor)}",
            file=sys.stderr,
        )
    return 1 if violations else 0


def _cmd_examples(args) -> int:
    from .reference import builtin_checks

    results = builtin_checks()
    width = max(len(result.name) for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:<{width}}  {result.detail}")
    failed = sum(not result.passed for result in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_gabor(args) -> int:
    from .gabor import TIGHTNESS_RTOL, GaborParams, sample_grid, tightness_check, window_g

    params = GaborParams(
        p0=args.p0,
        q0=args.q0,
        grid_step=args.grid_step,
        grid_halfwidth=args.halfwidth,
        mod_order=args.M,
    )
    probe = window_g(sample_grid(params), params)
    report = tightness_check(probe, params)
    sys.stdout.write(_json_object(report._asdict().items()))
    if not report.passed:
        # Truncation and aliasing have opposite remedies, so each is named.
        causes = [f"relative error {_format_float(report.relative_error)} (tol {TIGHTNESS_RTOL:g})"]
        if report.truncation_warning:
            causes.append("truncation: the outermost rings carry energy (raise --M or --halfwidth)")
        if report.aliasing_warning:
            causes.append(
                "aliasing: orders past the grid's Nyquist frequency carry energy "
                "(lower --M or --grid-step)"
            )
        print("tightness failed: " + "; ".join(causes), file=sys.stderr)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--alpha" in argv[:-1]:  # argparse takes a lone "-1e-3" for an option
        k = argv.index("--alpha")
        argv[k : k + 2] = [f"--alpha={argv[k + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NotAFrameError) else 2


def run() -> None:
    """Process entry point (``python -m framecalc`` and the console script):
    run ``main`` and exit with its code.

    The process is ending, so the collector is frozen first: its final
    collections then skip every object alive at that point, numpy's included,
    instead of walking them, and the operating system reclaims the memory.
    Usage errors and unexpected exceptions leave ``main`` before the freeze.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
