"""Execute scenario requests, and cross-check their verdicts with each detector's oracle rule."""

from __future__ import annotations

from . import oracle
from .config import Tolerances
from .detectors import DETECTORS, REFERENCES, Detector, request_params
from .errors import ScenarioError, TvdError
from .linalg import require_normalized
from .scenario import OracleRecord, Provenance, Report, Request, Scenario, VerdictRecord
from .symmetry import require_transform
from .verdict import Verdict


def _resolve(scenario: Scenario, request: Request, path: str = "") -> tuple[Detector, dict[str, object]]:
    """The request's detector record, and the scenario's matrices plus the
    request's fields, each symmetry or state name replaced by what it names;
    a malformed request raises the parser's message under ``path``.
    """

    def resolved(name: str, value: object) -> object:
        if name not in REFERENCES:
            return value
        table, noun = REFERENCES[name]
        named = getattr(scenario, table)
        if value not in named:
            raise ScenarioError(f"unknown {noun} {value!r}", path)
        return named[value]

    params = request_params(request.detector, request.params, scenario.matrices, resolved, path)
    return DETECTORS[request.detector], {**scenario.matrices, **params}


# How a symmetry and a state are judged at a run's tolerances: by the
# detectors' checks, or by the oracle's own arithmetic, which reads no
# detector memo.
_DETECTOR_CHECKS = (
    lambda g, tol: require_transform(g, None, tol),
    lambda v, tol: require_normalized(v, tol=tol.tau_zero),
)
_ORACLE_CHECKS = (oracle.check_unitary, oracle.check_normalized)


def _require_valid(scenario: Scenario, tol: Tolerances, checks: tuple = _DETECTOR_CHECKS) -> None:
    """Judge every symmetry, then every state, with ``checks`` at ``tol``; a failure raises under its document path."""
    # a symmetry's index is its place in scenario.symmetries: a parsed document's order
    unitary, normalized = checks
    items = [(f"symmetries[{i}].unitary_part", unitary, g) for i, g in enumerate(scenario.symmetries.values())]
    items += [(f"states.{name}", normalized, vec) for name, vec in scenario.states.items()]
    for path, check, value in items:
        try:
            check(value, tol)
        except TvdError as exc:
            raise ScenarioError(str(exc), path) from None


def run_request(scenario: Scenario, request: Request, tol: Tolerances) -> Verdict:
    """One request's verdict, once the scenario's symmetries and states pass ``run_scenario``'s checks at ``tol``."""
    detector, args = _resolve(scenario, request)
    _require_valid(scenario, tol)
    return detector.run(args, tol)


def run_scenario(
    scenario: Scenario,
    tolerances: Tolerances | None = None,
    seed: int | None = None,
) -> Report:
    tol = tolerances if tolerances is not None else scenario.effective_tolerances()
    _require_valid(scenario, tol)
    records = []
    for i, request in enumerate(scenario.requests):
        path = f"requests[{i}]"
        try:
            detector, args = _resolve(scenario, request, path)
            verdict = detector.run(args, tol)
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(str(exc), path) from exc
        records.append(VerdictRecord(detector=request.detector, verdict=verdict))
    effective_seed = seed if seed is not None else scenario.seed
    return Report(
        records=tuple(records),
        provenance=Provenance(tolerances=tol, seed=effective_seed),
    )


def oracle_record(scenario: Scenario, request: Request, verdict: Verdict, tol: Tolerances,
                  path: str = "") -> OracleRecord:
    """Recompute ground truth for one request and compare outcomes; a malformed request raises under ``path``."""
    detector, args = _resolve(scenario, request, path)
    truths, note = detector.oracle(args, verdict.outcome, tol)
    return OracleRecord(detector=request.detector, agreed=not note, truths=truths, note=note)


def oracle_compare(scenario: Scenario, report: Report, tolerances: Tolerances | None = None) -> tuple[OracleRecord, ...]:
    """Each request's oracle record, once the oracle has judged every symmetry and state itself."""
    tol = tolerances if tolerances is not None else report.provenance.tolerances
    pairs = list(zip(scenario.requests, report.records))
    if len(report.records) != len(scenario.requests) or any(req.detector != rec.detector for req, rec in pairs):
        raise ScenarioError("report does not match the scenario request list")
    _require_valid(scenario, tol, _ORACLE_CHECKS)
    return tuple(oracle_record(scenario, req, rec.verdict, tol, f"requests[{i}]") for i, (req, rec) in enumerate(pairs))


def _witness_summary(witness: dict) -> str:
    parts = []
    for key in sorted(witness):
        value = witness[key]
        if isinstance(value, bool):
            parts.append(f"{key}={value}")
        elif isinstance(value, float):
            parts.append(f"{key}={value:.3e}")
        elif isinstance(value, int):
            parts.append(f"{key}={value}")
        elif isinstance(value, complex):
            parts.append(f"{key}={value.real:.3e}{value.imag:+.3e}i")
        elif isinstance(value, str):
            parts.append(f"{key}={value!r}")
    return ", ".join(parts)


def render_text(report: Report) -> str:
    """One line per verdict with a witness summary, plus oracle lines."""
    lines = []
    for i, rec in enumerate(report.records):
        v = rec.verdict
        if v.is_violation:
            head = f"[{i}] {rec.detector}: Violation({v.violated_symmetry}) margin={v.margin:.6e}"
        else:
            head = f"[{i}] {rec.detector}: NoConclusion({v.reason}) margin={v.margin:.6e}"
        summary = _witness_summary(dict(v.witness))
        lines.append(f"{head} | {summary}" if summary else head)
    if report.oracle is not None:
        for i, orec in enumerate(report.oracle):
            status = "agrees" if orec.agreed else "DISAGREES"
            shown = ", ".join(f"{k}={v:.6e}" for k, v in sorted(orec.truths.items()))
            suffix = f" ({orec.note})" if orec.note else ""
            lines.append(f"[{i}] oracle {orec.detector}: {status} {shown}{suffix}")
    return "\n".join(lines) + "\n"
