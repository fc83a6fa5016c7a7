"""Frames, analysis/synthesis, and spectral diagnostics.

Builds a small overcomplete frame in R^2 (the standard basis plus a
normalized diagonal vector), expands vectors against it, and inspects the
frame operator's spectrum.
"""

import numpy as np

from framecalc import (
    analysis,
    demo_frame_2d,
    diagnostics,
    frame_operator,
    frame_spectrum,
    frame_to_json,
    synthesis,
)


def main():
    frame = demo_frame_2d()
    print("frame vectors (rows):")
    print(frame.vectors)
    print("declared bounds:", frame.declared_bounds)

    f = np.array([0.8, -0.3])
    coeffs = analysis(frame, f)
    print("\nanalysis coefficients of", f, "->", coeffs)
    print("synthesis of those coefficients:", synthesis(frame, coeffs))
    print("(synthesis . analysis equals the frame operator acting on f)")

    print("\nframe operator:")
    print(frame_operator(frame))
    # Read from one SVD of the synthesis matrix; S itself is never factored.
    decomp = frame_spectrum(frame)
    print("eigenvalues:", decomp.eigenvalues)
    print("eigenvectors (columns):")
    print(decomp.eigenvectors)

    # The report holds the two extreme eigenvalues; each verdict is derived from them.
    report = diagnostics(frame)
    print("\ndiagnostics:", report)
    print("optimal bounds are the extreme eigenvalues:",
          (report.lambda_min, report.lambda_max))
    print("is_frame:", report.is_frame)
    print("kernel_trivial:", report.kernel_trivial)
    print("inverse_norm:", report.inverse_norm)

    print("\nframe JSON (the CLI file format):")
    print(frame_to_json(frame))


if __name__ == "__main__":
    main()
