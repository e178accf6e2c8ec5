"""Casimir force curves with distance-fluctuation systematics.

A numpy toolkit for finite-temperature dispersion forces between
metallic surfaces (perfect conductor, plasma, Drude, tabulated
permittivity), electrostatic calibration backgrounds, the apparent-force
and scatter corrections caused by a fluctuating plate separation,
chi-squared model comparison against binned measurements, and an
independent Monte Carlo time-averaging check of the corrections.
The package exports the ``__all__`` of each layer in ``_LAYERS``; a layer
loads when one of its names is first looked up, and numpy with the first,
so ``import casfluct``, ``casfluct --version`` and ``--help`` load no numpy.
"""

import importlib.util

from .provenance import TOOL_VERSION as __version__

_KINDS = ("white", "one-over-f")  # oracle.ProcessSpec's noise kinds, here for the CLI option table
# layer -> the names the package exports from it (None: its __all__), in lookup order
_LAYERS = dict.fromkeys("analysis background corrections dataset lifshitz oracle permittivity".split())
_LAYERS["units"] = ("DomainError", "ExperimentGeometry")


def _exports():
    for layer, names in _LAYERS.items():
        module = importlib.import_module(f"{__name__}.{layer}")
        yield module, names or module.__all__


def __getattr__(name):
    if name == "__all__":  # for ``from casfluct import *``
        return [n for _, names in _exports() for n in names]
    if importlib.util.find_spec(f"{__name__}.{name}") is None:  # a submodule is the import system's
        for module, names in _exports():
            if name in names:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
