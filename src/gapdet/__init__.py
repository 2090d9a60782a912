"""gapdet: multi-time gap probabilities of the Airy and Pearcey processes.

Gap probabilities are computed as Fredholm determinants in two
independent representations -- the physical matrix kernel restricted to
intervals, and an integrable-kernel form on complex contours -- and the
associated determinant identities (jump algebra, log-derivative
formulas, the two-time third-order PDE) are verifiable numerically.
"""

from .contour import (
    ContourComponent,
    ContourSystem,
    QuadratureGrid,
    build_airy_system,
    build_pearcey_system,
)
from .fredholm import DetResult, DiscreteOperator, det, det2
from .gap import (
    airy_gap_probability,
    equivalence_report,
    pearcey_gap_probability,
)
from .tracy_widom import airy_ai, gap_probability

__all__ = [
    "ContourComponent",
    "ContourSystem",
    "QuadratureGrid",
    "build_airy_system",
    "build_pearcey_system",
    "DetResult",
    "DiscreteOperator",
    "det",
    "det2",
    "airy_gap_probability",
    "pearcey_gap_probability",
    "equivalence_report",
    "airy_ai",
    "gap_probability",
]

__version__ = "0.1.0"
