"""Duplicate-free enumeration of triangulations of closed surfaces.

Triangulations are triangle lists with contiguous vertex labels.  The
package validates and classifies them, computes mixed-lexicographic
canonical forms, reduces to roots by inverse vertex-adding moves, and lists
all triangulations up to a vertex budget both by the decomposition pipeline
(discs, genus-surfaces, gluings) and by an independent brute-force oracle.
"""

from .canon import canonical_form
from .core import SurfaceClass, Triangulation, classify, validate
from .listing import SearchConfig, enumerate_all
from .moves import compute_root
from .oracle import brute_force_enumerate, cross_validate

__all__ = [
    "SearchConfig",
    "SurfaceClass",
    "Triangulation",
    "brute_force_enumerate",
    "canonical_form",
    "classify",
    "compute_root",
    "cross_validate",
    "enumerate_all",
    "validate",
]
__version__ = "0.1.0"
