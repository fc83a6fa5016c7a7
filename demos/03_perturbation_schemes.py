"""Approximating the dual frame without inverting the frame operator.

Three truncated-series schemes, each with an analytical error bound that the
convergence harness verifies empirically:

* Neumann (geometric series): fast when B/A is close to 1, painfully slow
  when it is not.
* BinomialHalf: same remainder operator, but approximates the tight family;
  its bound needs B < 3A.
* Logarithmic (exponential series): factorial convergence regardless of
  B/A, which is the point of the construction.
"""

import io
import math
import sys

from framecalc import (
    Frame,
    Scheme,
    alpha_frame,
    binomial_tight,
    demo_frame_2d,
    dual_frame,
    log_bound,
    log_dual,
    neumann_bound,
    neumann_dual,
    run_convergence,
    write_csv,
)


def show(report):
    print(f"{report.scheme.value}: bounds ({report.lower:g}, {report.upper:g})")
    print("   N   measured          bound")
    for row in report.rows:
        print(f"  {row.order:2d}   {row.measured_error:.6e}    {row.analytical_bound:.6e}")
    # A row holds when its measured error is at most its bound plus its floor,
    # the most that rounding can add to the measurement.
    worst = max(row.measured_error / (row.analytical_bound + row.floor) for row in report.rows)
    print(f"  every row within bound + floor: {report.passed}, worst measured/(bound + floor) {worst:.3f}")


def main():
    frame = demo_frame_2d()
    for scheme in (Scheme.NEUMANN, Scheme.BINOMIAL_HALF, Scheme.LOGARITHMIC):
        report = run_convergence(frame, scheme, 1.0, 2.0, n_max=8, samples=32, seed=0)
        show(report)
        print()

    print("approximate families against the exact ones: max deviation at order N")
    dual, tight = dual_frame(frame).vectors, alpha_frame(frame, -0.5).vectors
    for order in (0, 4, 8):
        neumann = abs(neumann_dual(frame, 1.0, 2.0, order).vectors - dual).max()
        binomial = abs(binomial_tight(frame, 1.0, 2.0, order).vectors - tight).max()
        logarithmic = abs(log_dual(frame, 1.0, 2.0, order).vectors - dual).max()
        print(
            f"  N = {order}: Neumann dual {neumann:.3e}, BinomialHalf tight {binomial:.3e}, "
            f"logarithmic dual {logarithmic:.3e}"
        )
    print()

    print("why the logarithmic scheme exists: orders needed for a 1e-6 bound")
    for ratio in (2.0, 10.0, 50.0):
        n_geo = next(n for n in range(10_000) if neumann_bound(1.0, ratio, n) <= 1e-6)
        n_log = next(n for n in range(10_000) if log_bound(1.0, ratio, n) <= 1e-6)
        print(f"  B/A = {ratio:5.1f}: Neumann N = {n_geo:4d}, logarithmic N = {n_log:3d}")

    # An ill-conditioned frame: diagonal with spectrum {1, 50}.
    wide = Frame(2, [[1.0, 0.0], [0.0, math.sqrt(50.0)]])
    report = run_convergence(wide, Scheme.LOGARITHMIC, 1.0, 50.0, n_max=12, samples=16, seed=0)
    print("\nlogarithmic scheme on a (1, 50)-frame:")
    show(report)

    print("\nCSV form of the last report:")
    buffer = io.StringIO()
    write_csv(report, buffer)
    sys.stdout.write(buffer.getvalue())


if __name__ == "__main__":
    main()
