"""Certification of column-generation worst-case designs.

A ``method="colgen"`` design never materializes the full worst-case
constraint set, so its optimality claim rests on the separation oracle:
the restricted master's optimum ``w`` is a *lower* bound on the full
LP's optimum (the master is a relaxation), while the returned flows'
exact worst-case load is an achieved *upper* bound — at convergence the
two coincide up to the separation tolerance, which is a duality
certificate against the full LP without ever building it.

This module re-derives that certificate from the artifacts alone (flow
table, claimed bound, master lower bound), independently of the
column-generation loop:

* ``colgen_oracle`` — the exact separation oracle (one Hungarian
  assignment per channel class, :mod:`repro.metrics.worst_case_eval`)
  re-measures the flows' worst case; it must equal the claimed bound.
* ``colgen_duality_gap`` — claimed bound versus the master's lower
  bound; a gap means the loop stopped before convergence (or a
  generated row went missing).
* ``colgen_sampled`` — random permutations from the *full* constraint
  set, evaluated by plain indexing (no matching solver at all); none
  may load any channel beyond the bound.
* ``colgen_exhaustive`` — on small instances, the brute-force oracle of
  :mod:`repro.verify.harness` (permutation enumeration / subset DP,
  sharing no code with the Hungarian path) must agree with the bound.

Every check is reported as a :class:`repro.verify.invariants.CheckResult`
with a relative violation, so a battery renders uniformly alongside the
flow-table invariants.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.constants import (
    COLGEN_GENERAL_VIOLATION_TOL,
    COLGEN_STAGE2_DUST,
    COLGEN_VIOLATION_TOL,
    LEXICOGRAPHIC_SLACK,
)
from repro.metrics.worst_case_eval import (
    _channel_weight_matrix,
    separate_general_worst_case,
    separate_worst_case,
)
from repro.topology.network import Network
from repro.topology.symmetry import TranslationGroup
from repro.topology.torus import Torus
from repro.verify.invariants import CheckResult, VerificationReport, _result

#: Largest node count the exhaustive check runs at by default — the
#: subset-DP ceiling of :func:`repro.verify.harness.brute_force_assignment`
#: (``k=4`` 2-D tori); beyond it the check reports itself skipped.
EXHAUSTIVE_NODE_LIMIT = 20

#: Default number of random full-constraint-set permutations spot-checked.
CERTIFY_SAMPLES = 64


def _relative(delta: float, bound: float) -> float:
    return abs(float(delta)) / max(1.0, abs(float(bound)))


def _oracle_check(measured: float, bound: float, tol: float) -> CheckResult:
    return _result(
        "colgen_oracle",
        _relative(measured - bound, bound),
        tol,
        detail=f"exact worst case {measured:.12g} vs claimed {bound:.12g}",
    )


def _duality_gap_check(
    bound: float, lower_bound: float | None, tol: float, lexicographic: bool
) -> CheckResult:
    if lower_bound is None:
        return CheckResult(
            name="colgen_duality_gap",
            passed=False,
            violation=float("inf"),
            tol=float(tol),
            detail="no master lower bound recorded",
        )
    # A lexicographic stage 2 (cached docs from before column generation
    # became single-stage) was *allowed* to trade the worst case up by
    # LEXICOGRAPHIC_SLACK (the stage-1 optimum is pinned only to that
    # relative cap) plus the solver's residual on the blocks binding at
    # the cap (COLGEN_STAGE2_DUST), so the certified gap widens by
    # exactly that much — still three orders below any mutation.
    gap_tol = tol + (
        LEXICOGRAPHIC_SLACK + COLGEN_STAGE2_DUST if lexicographic else 0.0
    )
    return _result(
        "colgen_duality_gap",
        _relative(bound - lower_bound, bound),
        gap_tol,
        detail=f"master lower bound {lower_bound:.12g}"
        + (" (lexicographic slack included)" if lexicographic else ""),
    )


def _sampled_check(
    sampled_max: float, bound: float, tol: float, samples: int
) -> CheckResult:
    # One-sided: a sampled permutation *below* the bound is headroom,
    # not a violation (the worst case is over all permutations).
    return _result(
        "colgen_sampled",
        _relative(max(0.0, sampled_max - bound), bound),
        tol,
        detail=f"{samples} random permutations, max load {sampled_max:.12g}",
    )


def _exhaustive_skipped(num_nodes: int, limit: int) -> CheckResult:
    return _result(
        "colgen_exhaustive",
        0.0,
        0.0,
        detail=f"skipped (N={num_nodes} > {limit})",
    )


def certify_colgen_design(
    torus: Torus,
    flows: np.ndarray,
    bound: float,
    lower_bound: float | None = None,
    group: TranslationGroup | None = None,
    tol: float | None = None,
    samples: int = CERTIFY_SAMPLES,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_NODE_LIMIT,
    lexicographic: bool = False,
    subject: str = "colgen-design",
) -> VerificationReport:
    """Certify a symmetric (torus) column-generation design.

    ``flows`` is the canonical ``(N, C)`` table, ``bound`` the claimed
    worst-case load and ``lower_bound`` the restricted master's final
    optimum (:attr:`repro.core.worst_case.ColGenStats.lower_bound`).
    ``tol`` defaults to :data:`repro.constants.COLGEN_VIOLATION_TOL`,
    the loop's own convergence tolerance.  Pass ``lexicographic=True``
    when rechecking an older cached design whose stage 2 minimized
    locality under a slack-relaxed worst-case cap
    (``stage2_iterations > 0``; column generation now runs one stage):
    its gap check widens by :data:`repro.constants.LEXICOGRAPHIC_SLACK`.
    """
    tol = COLGEN_VIOLATION_TOL if tol is None else float(tol)
    bound = float(bound)
    flows = np.asarray(flows, dtype=np.float64)
    if group is None:
        group = TranslationGroup(torus)
    n = torus.num_nodes
    with obs.span("verify.colgen", nodes=int(n), general=False) as sp:
        sep = separate_worst_case(torus, group, flows, np.inf, tol)
        checks = [
            _oracle_check(float(sep.max_load), bound, tol),
            _duality_gap_check(bound, lower_bound, tol, lexicographic),
        ]

        rng = np.random.default_rng(seed)
        perms = np.array([rng.permutation(n) for _ in range(samples)])
        sampled_max = -np.inf
        rows = np.arange(n)
        for channel in torus.class_representatives():
            weights = _channel_weight_matrix(torus, group, flows, int(channel))
            loads = weights[rows, perms].sum(axis=1)
            sampled_max = max(
                sampled_max, float(loads.max() / torus.bandwidth[channel])
            )
        checks.append(_sampled_check(sampled_max, bound, tol, samples))

        if n <= exhaustive_limit:
            from repro.verify.harness import brute_force_worst_case

            brute = brute_force_worst_case(flows, torus, group)
            checks.append(
                _result(
                    "colgen_exhaustive",
                    _relative(brute.load - bound, bound),
                    tol,
                    detail=f"brute-force worst case {brute.load:.12g}",
                )
            )
        else:
            checks.append(_exhaustive_skipped(n, exhaustive_limit))
        report = VerificationReport(subject=subject, checks=tuple(checks))
        sp.set(passed=report.passed)
    obs.metric_count("verify.colgen_certificates")
    return report


def certify_colgen_general(
    network: Network,
    flows: np.ndarray,
    bound: float,
    lower_bound: float | None = None,
    tol: float | None = None,
    samples: int = CERTIFY_SAMPLES,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_NODE_LIMIT,
    subject: str = "colgen-general",
) -> VerificationReport:
    """Certify a general-topology column-generation design.

    Same battery as :func:`certify_colgen_design` over a full
    ``(N, N, C)`` flow tensor — one oracle assignment per *channel*, no
    symmetry assumptions.  ``tol`` defaults to
    :data:`repro.constants.COLGEN_GENERAL_VIOLATION_TOL` (the general
    loop's interior-point-compatible convergence tolerance).
    """
    tol = COLGEN_GENERAL_VIOLATION_TOL if tol is None else float(tol)
    bound = float(bound)
    flows = np.asarray(flows, dtype=np.float64)
    n = network.num_nodes
    with obs.span("verify.colgen", nodes=int(n), general=True) as sp:
        sep = separate_general_worst_case(network, flows, np.inf, tol)
        checks = [
            _oracle_check(float(sep.max_load), bound, tol),
            _duality_gap_check(bound, lower_bound, tol, lexicographic=False),
        ]

        rng = np.random.default_rng(seed)
        rows = np.arange(n)
        sampled_max = -np.inf
        for _ in range(samples):
            perm = rng.permutation(n)
            loads = flows[rows, perm, :].sum(axis=0) / network.bandwidth
            sampled_max = max(sampled_max, float(loads.max()))
        checks.append(_sampled_check(sampled_max, bound, tol, samples))

        if n <= exhaustive_limit:
            from repro.verify.harness import brute_force_general_worst_case

            brute = brute_force_general_worst_case(network, flows)
            checks.append(
                _result(
                    "colgen_exhaustive",
                    _relative(brute.load - bound, bound),
                    tol,
                    detail=f"brute-force worst case {brute.load:.12g}",
                )
            )
        else:
            checks.append(_exhaustive_skipped(n, exhaustive_limit))
        report = VerificationReport(subject=subject, checks=tuple(checks))
        sp.set(passed=report.passed)
    obs.metric_count("verify.colgen_certificates")
    return report
