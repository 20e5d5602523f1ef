"""LP optimality certificates: independently checkable duality proofs.

A solver's "optimal" status is a claim, not a proof.  The pair
``(x, y)`` of a primal solution and its dual multipliers *is* a proof:
if ``x`` is primal feasible, ``y`` is dual feasible, and the two
objectives coincide, then ``x`` is optimal — no trust in the solver's
internals required (weak duality does all the work).  This module turns
every :meth:`repro.lp.model.LinearModel.solve` into such a certificate
via the solve-observer hook, so the LP layer never imports the verifier.

SciPy/HiGHS convention (``scipy.optimize.linprog``): for

.. math:: \\min c^T x \\;\\text{s.t.}\\; A_{ub} x \\le b_{ub},\\;
          A_{eq} x = b_{eq},\\; l \\le x \\le u

the reported marginals are :math:`\\partial f / \\partial b`, so the
inequality duals ``y_ub`` are **nonpositive** and the dual objective is

.. math:: b_{eq}^T y_{eq} + b_{ub}^T y_{ub}
          + \\sum_{l_j \\text{ finite}} l_j [z_j]_+
          - \\sum_{u_j \\text{ finite}} u_j [z_j]_-

with reduced costs :math:`z = c - A_{eq}^T y_{eq} - A_{ub}^T y_{ub}`;
dual feasibility demands :math:`[z_j]_+ = 0` when ``l_j = -inf`` and
:math:`[z_j]_- = 0` when ``u_j = +inf``.

Certificates are small JSON documents persisted alongside design-cache
entries (see the engine's ``certify`` flag), so a cached design can be
re-certified later — :func:`recheck_cached_doc` — without re-solving.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

from repro import obs
from repro.constants import DISTRIBUTION_ATOL, DUALITY_GAP_TOL
from repro.lp.model import set_solve_observer
from repro.verify.invariants import CheckResult, VerificationReport, verify_flows

#: Bump when the certificate document format changes.
CERTIFICATE_FORMAT = 1


class CertificationError(RuntimeError):
    """A solution failed certification (or a certificate is malformed)."""


@dataclasses.dataclass(frozen=True)
class Certificate:
    """An optimality certificate for one LP solve.

    All residuals are maximum absolute violations; ``duality_gap`` is
    relative to ``max(1, |objective|)``.  :attr:`valid` re-derives the
    gap from the stored objectives instead of trusting the stored gap,
    so tampering with any one field breaks the certificate.
    """

    model: str
    variables: int
    rows: int
    objective: float
    dual_objective: float
    duality_gap: float
    primal_residual: float
    dual_residual: float
    complementarity: float
    tol: float = DUALITY_GAP_TOL

    @property
    def recomputed_gap(self) -> float:
        """Relative duality gap re-derived from the two objectives."""
        return abs(self.objective - self.dual_objective) / max(
            1.0, abs(self.objective)
        )

    @property
    def valid(self) -> bool:
        gap = max(self.duality_gap, self.recomputed_gap)
        return (
            math.isfinite(self.objective)
            and gap <= self.tol
            and self.primal_residual <= self.tol
            and self.dual_residual <= self.tol
        )

    def summary(self) -> str:
        status = "certified" if self.valid else "REFUTED"
        return (
            f"{self.model}: {status} obj={self.objective:.9g} "
            f"gap={self.recomputed_gap:.2e} "
            f"primal_res={self.primal_residual:.2e} "
            f"dual_res={self.dual_residual:.2e} (tol {self.tol:.1e})"
        )

    def require(self, context: str = "") -> Certificate:
        """Raise :class:`CertificationError` unless the certificate holds."""
        if not self.valid:
            prefix = f"{context}: " if context else ""
            raise CertificationError(prefix + self.summary())
        return self

    def to_doc(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["format"] = CERTIFICATE_FORMAT
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> Certificate:
        if doc.get("format") != CERTIFICATE_FORMAT:
            raise CertificationError(
                f"unsupported certificate format: {doc.get('format')!r}"
            )
        try:
            return cls(
                model=str(doc["model"]),
                variables=int(doc["variables"]),
                rows=int(doc["rows"]),
                objective=float(doc["objective"]),
                dual_objective=float(doc["dual_objective"]),
                duality_gap=float(doc["duality_gap"]),
                primal_residual=float(doc["primal_residual"]),
                dual_residual=float(doc["dual_residual"]),
                complementarity=float(doc["complementarity"]),
                tol=float(doc["tol"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificationError(f"malformed certificate: {exc}") from exc


def certify_solution(
    model, solution, assembled, tol: float = DUALITY_GAP_TOL
) -> Certificate:
    """Build the optimality certificate for one solved model.

    ``assembled`` is the ``(c, a_ub, b_ub, a_eq, b_eq, bounds)`` tuple
    the solver consumed — exactly what the solve observer receives.
    Every quantity is recomputed from the raw data, never read back from
    solver-reported aggregates.
    """
    c, a_ub, b_ub, a_eq, b_eq, bounds = assembled
    stats = model.stats()
    with obs.span("verify.certificate", model=model.name) as sp:
        x = np.asarray(solution.x, dtype=np.float64)
        lb = np.asarray(bounds[:, 0], dtype=np.float64)
        ub = np.asarray(bounds[:, 1], dtype=np.float64)
        lb_fin = np.isfinite(lb)
        ub_fin = np.isfinite(ub)
        primal_obj = float(np.dot(c, x))

        # --- primal feasibility -------------------------------------
        primal_res = max(
            float((lb - x)[lb_fin].max(initial=0.0)),
            float((x - ub)[ub_fin].max(initial=0.0)),
        )
        if a_eq is not None:
            primal_res = max(
                primal_res, float(np.abs(a_eq @ x - b_eq).max(initial=0.0))
            )
        if a_ub is not None:
            primal_res = max(
                primal_res, float((a_ub @ x - b_ub).max(initial=0.0))
            )

        # --- dual feasibility + dual objective ----------------------
        z = np.asarray(c, dtype=np.float64).copy()  # reduced costs
        dual_obj = 0.0
        dual_res = 0.0
        if a_eq is not None and solution.eq_duals is not None:
            y_eq = np.asarray(solution.eq_duals, dtype=np.float64)
            z -= a_eq.T @ y_eq
            dual_obj += float(np.dot(b_eq, y_eq))
        if a_ub is not None and solution.ub_duals is not None:
            y_ub = np.asarray(solution.ub_duals, dtype=np.float64)
            z -= a_ub.T @ y_ub
            dual_obj += float(np.dot(b_ub, y_ub))
            dual_res = float(y_ub.max(initial=0.0))  # must be <= 0
        z_plus = np.maximum(z, 0.0)
        z_minus = np.maximum(-z, 0.0)
        # a positive reduced cost needs a finite lower bound to lean on
        # (and symmetrically for negative / upper); otherwise the dual
        # is infeasible in that coordinate.
        dual_res = max(dual_res, float(z_plus[~lb_fin].max(initial=0.0)))
        dual_res = max(dual_res, float(z_minus[~ub_fin].max(initial=0.0)))
        dual_obj += float(np.dot(lb[lb_fin], z_plus[lb_fin]))
        dual_obj -= float(np.dot(ub[ub_fin], z_minus[ub_fin]))

        # --- complementary slackness (informational: implied by a
        # zero gap, recorded so drift shows up in reports) ------------
        comp = max(
            float(np.abs(z_plus[lb_fin] * (x - lb)[lb_fin]).max(initial=0.0)),
            float(np.abs(z_minus[ub_fin] * (ub - x)[ub_fin]).max(initial=0.0)),
        )
        if a_ub is not None and solution.ub_duals is not None:
            comp = max(
                comp, float(np.abs(y_ub * (b_ub - a_ub @ x)).max(initial=0.0))
            )

        gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))
        cert = Certificate(
            model=model.name,
            variables=int(stats["variables"]),
            rows=int(stats["eq_rows"]) + int(stats["ub_rows"]),
            objective=primal_obj,
            dual_objective=dual_obj,
            duality_gap=gap,
            primal_residual=primal_res,
            dual_residual=dual_res,
            complementarity=comp,
            tol=float(tol),
        )
        sp.set(
            valid=cert.valid,
            gap=gap,
            primal_residual=primal_res,
            dual_residual=dual_res,
        )
    return cert


class CertificateCollector:
    """Accumulates certificates for every solve inside a
    :func:`collect_certificates` block."""

    def __init__(self, tol: float) -> None:
        self.tol = float(tol)
        self.certificates: list[Certificate] = []

    @property
    def all_valid(self) -> bool:
        return all(c.valid for c in self.certificates)

    def failures(self) -> list[Certificate]:
        return [c for c in self.certificates if not c.valid]

    def to_docs(self) -> list[dict]:
        return [c.to_doc() for c in self.certificates]

    def require(self, context: str = "") -> None:
        for cert in self.certificates:
            cert.require(context)


@contextlib.contextmanager
def collect_certificates(tol: float = DUALITY_GAP_TOL, strict: bool = False):
    """Certify every LP solved inside the ``with`` block.

    Installs the LP solve observer for the duration of the block and
    yields a :class:`CertificateCollector`.  With ``strict=True`` a
    failing solve raises :class:`CertificationError` immediately (from
    inside ``solve()``); otherwise inspect ``collector.certificates``
    afterwards.  A previously installed observer keeps firing (after
    collection), so blocks nest.
    """
    collector = CertificateCollector(tol)
    previous = None

    def hook(model, solution, assembled):
        cert = certify_solution(model, solution, assembled, tol=tol)
        collector.certificates.append(cert)
        if strict:
            cert.require(f"model {model.name!r}")
        if previous is not None:
            previous(model, solution, assembled)

    previous = set_solve_observer(hook)
    try:
        yield collector
    finally:
        set_solve_observer(previous)


# ----------------------------------------------------------------------
# Re-certification of cached design documents
# ----------------------------------------------------------------------
def _load_recheck(stored_load: float, measured_load: float, tol: float) -> CheckResult:
    """Compare a stored headline load against an independent
    re-measurement (Hungarian-method worst case on the stored design)."""
    rel = abs(measured_load - stored_load) / max(1.0, abs(stored_load))
    return CheckResult(
        name="load_recheck",
        passed=bool(rel <= tol),
        violation=float(rel),
        tol=float(tol),
        detail=f"stored {stored_load:.9g}, re-measured {measured_load:.9g}",
    )


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(
        name=name,
        passed=passed,
        violation=0.0 if passed else float("inf"),
        tol=0.0,
        detail=detail,
    )


def _skipped_load_recheck(tol: float, why: str) -> CheckResult:
    return CheckResult("load_recheck", True, 0.0, tol, f"skipped: {why}")


def recheck_cached_doc(
    doc: dict,
    tol: float = DUALITY_GAP_TOL,
    subject: str = "cache entry",
) -> VerificationReport:
    """Re-certify a cached design document without re-solving its LP.

    Every persisted certificate must still be internally consistent
    (gap re-derived from its objectives, residuals within its tol).  The
    rest is the recheck of the entry's task kind
    (:data:`repro.experiments.engine.KINDS`): :func:`recheck_design` for
    LP designs, :func:`recheck_evaluation` for worst-case evaluations.
    Any corruption of the cached JSON — flows, table, load or
    certificate — fails at least one check.
    """
    from repro.experiments.engine import KINDS

    payload = doc.get("payload") or {}
    kind = str(payload.get("kind", "?"))
    load_tol = max(float(tol), DISTRIBUTION_ATOL)
    checks: list[CheckResult] = []
    with obs.span("verify.recheck", kind=kind) as sp:
        for i, cert_doc in enumerate(doc.get("certificates") or []):
            try:
                cert = Certificate.from_doc(cert_doc)
            except CertificationError as exc:
                checks.append(_check(f"certificate[{i}]", False, str(exc)))
                continue
            checks.append(
                CheckResult(
                    name=f"certificate[{i}]:{cert.model}",
                    passed=cert.valid,
                    violation=max(
                        cert.recomputed_gap,
                        cert.primal_residual,
                        cert.dual_residual,
                    ),
                    tol=cert.tol,
                    detail=f"obj {cert.objective:.9g}",
                )
            )
        try:
            if kind not in KINDS:
                raise ValueError(f"unknown task kind {kind!r}")
            checks.extend(KINDS[kind].recheck(doc, load_tol, kind))
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
            checks.append(_check("design_payload", False, detail))
        report = VerificationReport(subject=subject, checks=tuple(checks))
        sp.set(passed=report.passed, checks=len(checks))
    return report


def recheck_design(
    doc: dict, tol: float, subject: str, remeasure: bool
) -> list[CheckResult]:
    """Checks of a cached LP design entry.

    Stored flow tables must satisfy the flow invariants (nonnegativity,
    conservation, channel-load symmetry); stored routing tables must be
    valid path distributions.  With ``remeasure`` the stored headline
    load must match an independent worst-case re-measurement of the
    stored design; without (average-case designs, whose design sample
    is cached as a digest only) that check is skipped.  Column-generation
    designs (``doc["method"] == "colgen"``) never solved the full LP, so
    they also re-derive their duality certificate against the full
    constraint set (:func:`repro.verify.colgen.certify_colgen_design`).
    """
    from repro.metrics.worst_case_eval import worst_case_load
    from repro.routing.serialize import flows_from_doc, routing_from_doc
    from repro.topology.symmetry import TranslationGroup
    from repro.topology.torus import Torus
    from repro.verify.invariants import check_distribution

    if "flows" in doc:
        flows = flows_from_doc(doc["flows"])
        topo = doc["flows"]["topology"]
        bandwidths = tuple(float(b) for b in topo.get("bandwidths", ()))
        torus = Torus(int(topo["k"]), int(topo["n"]), bandwidths=bandwidths or None)
        checks = list(verify_flows(torus, flows, subject=subject).checks)
        if remeasure:
            group = TranslationGroup(torus)
            measured = worst_case_load(flows, torus, group).load
            checks.append(_load_recheck(float(doc["load"]), measured, tol))
        if remeasure and doc.get("method") == "colgen":
            from repro.verify.colgen import certify_colgen_design

            stats = doc.get("colgen") or {}
            checks.extend(
                certify_colgen_design(
                    torus,
                    flows,
                    bound=float(doc["load"]),
                    lower_bound=stats.get("lower_bound"),
                    group=group,
                    lexicographic=int(stats.get("stage2_iterations", 0)) > 0,
                ).checks
            )
    elif "routing" in doc:
        algorithm = routing_from_doc(doc["routing"])
        checks = [check_distribution(algorithm)]
        if remeasure:
            measured = worst_case_load(algorithm).load
            checks.append(_load_recheck(float(doc["load"]), measured, tol))
    else:
        why = "entry stores neither flows nor routing"
        return [_check("design_payload", False, why)]
    if not remeasure:
        why = "design sample cached as digest only"
        checks.append(_skipped_load_recheck(tol, why))
    return checks


def recheck_evaluation(
    doc: dict, tol: float, subject: str, required: tuple = ()
) -> list[CheckResult]:
    """Checks of a cached worst-case *evaluation* entry.

    The stored load must be finite, and 0 for an entry marked
    ``disconnected``; every field in ``required`` must be non-empty.  No
    design is stored to re-measure, so ``load_recheck`` is skipped.
    """
    load = doc.get("load")
    finite = isinstance(load, (int, float)) and math.isfinite(load)
    checks = [_check("load_finite", finite, f"stored load {load!r}")]
    if doc.get("disconnected"):
        zero = finite and load == 0.0
        checks.append(_check("disconnected_load", zero, f"stored load {load!r}"))
    checks += [_check(f, bool(doc.get(f)), f"stores {f!r}") for f in required]
    why = "evaluation entry, no design stored to re-measure"
    return checks + [_skipped_load_recheck(tol, why)]
