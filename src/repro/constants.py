"""Centralized numerical tolerances (the `repro.core` constants).

Every ``1e-6``/``1e-9``-style threshold used to live inline at its call
site, which let the value checked by the code silently drift away from
the value asserted by the tests.  This module is the single source of
truth; it is deliberately import-free so any layer (``routing``,
``sim``, ``traffic``, ``deadlock``, ``verify``) can use it without
cycles, and it is re-exported from :mod:`repro.core` for the
design-layer callers.

Three regimes, ordered loose to tight:

* ``DISTRIBUTION_ATOL`` (1e-6) — checks on *accumulated* floating-point
  sums (path-probability totals, doubly-stochastic row/column sums of
  simulator inputs) where thousands of additions stack rounding error.
* ``FEASIBILITY_ATOL`` (1e-9) — per-constraint feasibility of exact
  constructions and LP solutions: flow conservation residuals,
  nonnegativity, path-recovery pruning.
* ``SOLVER_DUST`` (1e-12) — magnitudes treated as exact zero: the
  ~1e-12 dust LP vertex solutions carry on inactive variables.

Certification thresholds:

* ``DUALITY_GAP_TOL`` (1e-7) — maximum relative primal/dual objective
  gap (and scaled KKT residual) for an LP solution to be certified
  optimal (see :mod:`repro.verify.certificates`).
* ``LEXICOGRAPHIC_SLACK`` (1e-7) — relative slack when freezing a
  stage-1 optimum for a lexicographic stage-2 solve; loose enough for
  solver tolerances, far below any metric of interest.
* ``GOLDEN_RTOL`` (1e-6) — relative tolerance of the golden-data
  regression comparator (:func:`repro.verify.harness.compare_golden`).
"""

from __future__ import annotations

#: Tolerance on accumulated sums: probability totals, row/column sums.
DISTRIBUTION_ATOL = 1e-6

#: Per-constraint feasibility tolerance: conservation, nonnegativity.
FEASIBILITY_ATOL = 1e-9

#: Below this magnitude a value is solver dust and treated as zero.
SOLVER_DUST = 1e-12

#: Maximum relative duality gap / KKT residual for LP certification.
DUALITY_GAP_TOL = 1e-7

#: Relative slack when pinning a stage-1 LP optimum in stage 2.
LEXICOGRAPHIC_SLACK = 1e-7

#: Relative tolerance of golden-data regression comparisons.
GOLDEN_RTOL = 1e-6

#: Column generation (lazy worst-case rows, ``method="colgen"``):
#: a separated permutation row is "violated" when its Hungarian load
#: exceeds the master bound ``w`` by more than this, relative to
#: ``max(1, w)``.  Tighter than ``FEASIBILITY_ATOL`` because the master
#: is solved with simplex (vertex-exact) and the oracle is exact, so
#: convergence lands at rounding noise — and the differential suite
#: demands ``<= 1e-9`` agreement of the resulting throughput with the
#: full LP.
COLGEN_VIOLATION_TOL = 1e-10

#: Separation tolerance of the *general-topology* lazy worst-case LP
#: (:func:`repro.core.general.design_general_worst_case` with
#: ``method="colgen"``).  Its masters carry per-channel matching-dual
#: blocks and are solved with interior point (dual simplex is an order
#: of magnitude slower on the CN^2-variable models), whose iterates are
#: feasible only to ~1e-9 relative — a threshold below that would
#: re-flag already-covered channels forever.  Still within the 1e-9
#: agreement the differential suite demands.
COLGEN_GENERAL_VIOLATION_TOL = 1e-9

#: Extra duality-gap allowance for cached column-generation docs whose
#: lexicographic stage 2 ran (``stage2_iterations > 0``): with ``w`` at
#: its slack cap, HiGHS left primal residuals up to its ~1e-7
#: feasibility tolerance on the binding blocks.  Column generation no
#: longer runs a stage 2, so only rechecks of such older docs use it
#: (:func:`repro.verify.colgen.certify_colgen_design` with
#: ``lexicographic=True``).
COLGEN_STAGE2_DUST = 1e-6

#: ``method="auto"`` switches an unpinned, single-stage worst-case
#: design from the full matching-dual LP to column generation at this
#: node count; pinned and lexicographic designs stay on the full LP at
#: every size, because colgen lost every such cell measured to k=16
#: (EXPERIMENTS "Worst-case dispatch").  100 nodes is radix 10 on the
#: 2-D torus: everything the paper evaluates (k <= 8, 4-ary 3-cubes)
#: keeps the full formulation — and its cache keys — while the k >= 12
#: unpinned scaling sweeps get the lazy-row master.
COLGEN_AUTO_NODE_THRESHOLD = 100

#: Hard iteration cap of the column-generation loop; hitting it raises
#: (the partial design rides on the exception for diagnosis).  Each
#: iteration adds at most one row per direction class, and in practice
#: even k=16 converges in a few dozen iterations.
COLGEN_MAX_ITERATIONS = 400

#: Default simulation kernel for every sim entry point — the library
#: functions (``simulate``, ``latency_load_curve``,
#: ``saturation_throughput``), the simulator experiments and the CLI all
#: defer to this one constant so their defaults cannot drift apart.
#: The vectorized kernel reproduces the reference loop's packet counts
#: exactly (see ``tests/sim/test_differential.py``), so this choice is
#: about speed, never results.
DEFAULT_SIM_BACKEND = "vectorized"
