"""Distribution-free a posteriori certificates for convex scenario programs.

Certificates combine two observable quantities: the number of support
constraints of the solved scenario program and the number of violations
seen on held-out validation samples.  The package computes the resulting
two-indexed bound grids, the classic one-indexed bounds they generalize,
fundamental lower limits, LP-based coefficient refinement, and a Monte
Carlo harness that audits every guarantee on analytically solvable toy
problems.

A name is public when its module's ``__all__`` lists it; the package
re-exports each of those lists and declares no name of its own but
``__version__``.
"""

from . import binom_tail, classic_bounds, lower_limits, posterior_bounds
from . import refinement, scenario_lab, simplex
from .binom_tail import *  # noqa: F403
from .classic_bounds import *  # noqa: F403
from .lower_limits import *  # noqa: F403
from .posterior_bounds import *  # noqa: F403
from .refinement import *  # noqa: F403
from .scenario_lab import *  # noqa: F403
from .simplex import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *binom_tail.__all__,
    *classic_bounds.__all__,
    *posterior_bounds.__all__,
    *lower_limits.__all__,
    *simplex.__all__,
    *refinement.__all__,
    *scenario_lab.__all__,
]
