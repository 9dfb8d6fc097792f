"""Former home of the operator-splitting solver, which the interior-point
method of :mod:`centroidal_bcd.qp.ipm` replaced; ``AdmmSolver`` names that
class for code that still imports it from here."""

from .ipm import InteriorPointSolver

AdmmSolver = InteriorPointSolver
