"""Smoothing of codes on the binary Hamming cube.

Noise kernels acting on code distributions, Renyi divergences to uniform,
threshold-rate curves, erasure-channel bounds, wiretap coset schemes,
list-decoding error bounds, random-ensemble moments, and exact
perfect-smoothing certificates.
"""

from . import codes, decoding, erasure, hypercube, kernels, random_coding, smoothing, wiretap
from .codes import Code, ExplicitCode, LinearCode
from .kernels import Kernel
from .reports import BoundReport
from .smoothing import SmoothnessReport

__all__ = [
    "codes", "decoding", "erasure", "hypercube", "kernels",
    "random_coding", "smoothing", "wiretap",
    "Code", "ExplicitCode", "LinearCode", "Kernel", "BoundReport", "SmoothnessReport",
]

__version__ = "0.1.0"
