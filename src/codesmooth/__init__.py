"""Smoothing of codes on the binary Hamming cube.

Noise kernels acting on code distributions, Renyi divergences to uniform,
threshold-rate curves, erasure-channel bounds, wiretap coset schemes,
list-decoding error bounds, random-ensemble moments, and exact
perfect-smoothing certificates.

`import codesmooth` loads this file only.  Each submodule, and each name
re-exported here, loads on first access (`codesmooth.smoothing`, `from
codesmooth import Kernel`), so a run pays start-up only for the modules it
calls.  mpmath loads at the first exact recheck (`reports.check_bound`).
"""

import sys

_SUBMODULES = frozenset({"codes", "decoding", "erasure", "hypercube", "kernels",
                         "random_coding", "reports", "smoothing", "wiretap"})
_NAMES = {"Code": "codes", "ExplicitCode": "codes", "LinearCode": "codes",
          "Kernel": "kernels", "BoundReport": "reports", "SmoothnessReport": "smoothing"}

__all__ = [
    "codes", "decoding", "erasure", "hypercube", "kernels",
    "random_coding", "smoothing", "wiretap",
    "Code", "ExplicitCode", "LinearCode", "Kernel", "BoundReport", "SmoothnessReport",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Load a submodule or a re-exported name on its first access."""
    if name in _SUBMODULES:
        # `__import__`, unlike `importlib.import_module`, shows in
        # `python -X importtime`; the import binds the submodule here
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_NAMES[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
