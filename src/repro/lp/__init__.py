"""Sparse linear-programming substrate.

The paper solves its routing-design LPs with ILOG CPLEX (Section 5); this
package is the stand-in solver layer, built on the HiGHS solver SciPy
bundles (``scipy.optimize._highspy``, SciPy >= 1.15).  It provides

* :class:`~repro.lp.model.LinearModel` — an incremental model builder with
  named variable blocks and vectorized (COO triplet) constraint assembly,
  sized for the :math:`O(CN)`-variable problems of Section 4.  Each model
  keeps its HiGHS instance: the first solve is bit-identical to
  ``scipy.optimize.linprog``, and a re-solve after appended ``<=`` rows or
  a new objective or bounds pushes only the change, so simplex restarts
  from the previous basis (column generation's restricted masters).  A
  formulation may declare column permutations its model is invariant
  under (:meth:`~repro.lp.model.LinearModel.declare_symmetry`): the model
  is then checked and solved on its orbit quotient
  (:mod:`repro.lp.quotient`), and the solution, duals and certificates are
  lifted back to the full model;
* :class:`~repro.lp.model.VariableBlock` — an index handle for an
  n-dimensional block of decision variables;
* :class:`~repro.lp.solve.LPSolution` — solved values, objective, duals;
* :class:`~repro.lp.solve.LPError` — raised on infeasible/unbounded/failed
  solves, carrying the solver status.

Both the bulk array API (used by the optimization core) and a small
expression sugar layer (used by tests and examples) are supported.
"""

from repro.lp.model import LinearModel, VariableBlock, set_solve_observer
from repro.lp.solve import LPError, LPSolution

__all__ = [
    "LinearModel",
    "VariableBlock",
    "LPError",
    "LPSolution",
    "set_solve_observer",
]
