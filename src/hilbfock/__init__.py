"""hilbfock: exact operator calculus on Hilbert schemes of surface points.

The Fock space of a projective surface carries transfer (Heisenberg)
operators, a Virasoro algebra, Chern character operators of tautological
sheaves and a full W-algebra of generators J^p_n.  A vector of the Fock
space is a {state: coeff} dict.  Everything here is exact rational
arithmetic, without truncation; the verify module checks the algebra
relations and closed formulas instance by instance.
"""

__version__ = "0.1.0"

from .ring import SURFACE_NAMES, SurfaceRing, builtin_ring, load_ring
from .fock import basis_states, combine, pairing, vacuum

__all__ = [
    "SURFACE_NAMES",
    "SurfaceRing",
    "builtin_ring",
    "load_ring",
    "basis_states",
    "combine",
    "pairing",
    "vacuum",
    "__version__",
]
