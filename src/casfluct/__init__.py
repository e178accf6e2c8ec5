"""Casimir force curves with distance-fluctuation systematics.

A numpy toolkit for finite-temperature dispersion forces between
metallic surfaces (perfect conductor, plasma, Drude, tabulated
permittivity), electrostatic calibration backgrounds, the apparent-force
and scatter corrections caused by a fluctuating plate separation,
chi-squared model comparison against binned measurements, and an
independent Monte Carlo time-averaging check of the corrections.
The package exports the ``__all__`` of each layer module below.
"""

from .analysis import *  # noqa: F403
from .background import *  # noqa: F403
from .corrections import *  # noqa: F403
from .dataset import *  # noqa: F403
from .lifshitz import *  # noqa: F403
from .oracle import *  # noqa: F403
from .permittivity import *  # noqa: F403
from .provenance import TOOL_VERSION as __version__
from .units import DomainError, ExperimentGeometry
