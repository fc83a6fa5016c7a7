"""Finite-frame numerical analysis.

Construct frames in R^n, compute exact duals and the full fractional-power
family of reconstruction systems through spectral calculus on the frame
operator, approximate duals with three perturbative schemes whose analytical
error bounds are verified empirically, and reproduce a smooth tight window
for modulated-translate systems.

See the demos/ directory for narrative walkthroughs and the ``framecalc``
command line for file-based workflows.
"""

from . import approx, frames, gabor, linalg, reference
from .approx import *  # noqa: F403
from .frames import *  # noqa: F403
from .gabor import *  # noqa: F403
from .linalg import *  # noqa: F403
from .reference import *  # noqa: F403

__version__ = "0.1.0"

# A name is public exactly when its module lists it.
__all__ = [
    *linalg.__all__,
    *frames.__all__,
    *approx.__all__,
    *gabor.__all__,
    *reference.__all__,
]
