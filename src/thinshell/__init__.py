"""Desk-scale numerical laboratory for unconditional convex bodies: thin-shell
concentration, smoothed central-limit errors, transport duality and Neumann
spectra."""

__version__ = "0.1.0"

from .bodies import BodySpec, isotropic_scale
from .estimators import EstimateWithCI, WeightVector
from .sampler import RNG_ID, SampleMatrix, sample_exact

__all__ = [
    "__version__", "BodySpec", "isotropic_scale", "EstimateWithCI",
    "WeightVector", "RNG_ID", "SampleMatrix", "sample_exact",
]
