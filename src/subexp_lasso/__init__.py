"""Constrained least squares under heavy-tailed data.

Library layout:

- distributions: input laws, tail profiles, Orlicz-norm proxies, diagnostics
- geometry:      hypothesis sets, projections, support functions, skeletons
- models:        observation models, datasets, mismatch parameters
- solver:        projected gradient descent (vector and lifted matrix forms)
- complexity:    widths, small-ball quantities, complexity surrogates, bounds
- harness:       seeded experiments, decay fits, certificates, CLI plumbing
"""

from . import complexity, distributions, geometry, harness, models, solver
from .errors import ConfigurationError

__all__ = [
    "complexity", "distributions", "geometry", "harness", "models", "solver",
    "ConfigurationError",
]

__version__ = "0.1.0"
