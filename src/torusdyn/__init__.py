"""torusdyn: lattice discretization and entropy diagnostics for torus maps.

The library discretizes area-preserving integer-matrix dynamics on the
2-torus onto an N x N lattice through cell-average (coherent-state style)
coarse-graining, and measures how long and how faithfully the finite
dynamics tracks the continuous one: image diameters and growth scales,
kernel localization and orbit shadowing, observable-evolution defects, and
lattice-vs-classical entropy production with its logarithmic-in-N breaking
times.
"""
from . import discretize, entropy, lattice, maps, rectangles
from .discretize import *  # noqa: F401,F403
from .entropy import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .maps import *  # noqa: F401,F403
from .rectangles import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each public name is listed once, in its own module's __all__.
__all__ = [
    "__version__",
    *maps.__all__,
    *lattice.__all__,
    *rectangles.__all__,
    *discretize.__all__,
    *entropy.__all__,
]
