"""Geometry-aware generative modeling for articulated human motion.

Motion frames live on product manifolds built from Euclidean translation,
unit-quaternion joint rotations, and Kendall pre-shape factors; a flow
matching model is trained and sampled entirely on the manifold, so every
generated pose satisfies the geometric constraints by construction.
"""

from . import errors, flow, manifold, metrics, motion, net

__all__ = ["cli", "errors", "flow", "manifold", "metrics", "motion", "net"]

__version__ = "0.1.0"
