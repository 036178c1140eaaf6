"""Execute scenario requests and cross-check verdicts against oracles.

The oracle path recomputes ground truth for each request with direct
matrix arithmetic (norms of commutants, reversal defects, spectra via
``numpy.linalg``) rather than going through the detector code, so a bug
in a detector cannot hide in its own cross-check.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .config import Tolerances
from .curie import s_matrix_inference, scattering_curie_check, unitary_curie_check
from .errors import ClassificationError, ScenarioError
from .kabir import kabir_check
from .linalg import frozen, memoised, require_unitary
from .scenario import (
    REFERENCES,
    OracleRecord,
    Provenance,
    Report,
    Request,
    Scenario,
    VerdictRecord,
)
from .symmetry import SymmetryTransform, cpt_link_inference, invariance_margin
from .verdict import NO_CONCLUSION, VIOLATION, Verdict
from .wigner import wigner_principle_check


def _resolve(scenario: Scenario, request: Request, path: str = "") -> tuple[tuple[_Run, _Oracle], dict[str, object]]:
    """The request's (run, oracle) pair, and the scenario's matrices plus the
    request's fields, each symmetry or state name replaced by what it names.

    A name the scenario lacks raises the parser's message under ``path``.
    """
    entry = _RUN_ORACLE.get(request.detector)
    if entry is None:
        raise ScenarioError(f"unknown detector {request.detector!r}")
    args: dict[str, object] = dict(scenario.matrices)
    for name, value in request.params.items():
        if name in REFERENCES:
            table, noun = REFERENCES[name]
            named = getattr(scenario, table)
            if value not in named:
                raise ScenarioError(f"unknown {noun} {value!r}", path)
            value = named[value]
        args[name] = value
    return entry, args


def run_request(scenario: Scenario, request: Request, tol: Tolerances) -> Verdict:
    (run, _), args = _resolve(scenario, request)
    return run(args, tol)


def run_scenario(
    scenario: Scenario,
    tolerances: Tolerances | None = None,
    seed: int | None = None,
) -> Report:
    tol = tolerances if tolerances is not None else scenario.effective_tolerances()
    records = []
    # a transform is built unitary to the default tau_zero; the run's may be tighter
    unitary: set[int] = set()
    for i, request in enumerate(scenario.requests):
        path = f"requests[{i}]"
        try:
            (run, _), args = _resolve(scenario, request, path)
            for g in args.values():
                if isinstance(g, SymmetryTransform) and id(g) not in unitary:
                    require_unitary(g.unitary_part, tol=tol.tau_zero, name=f"unitary_part of {g.label or 'transform'}")
                    unitary.add(id(g))
            verdict = run(args, tol)
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


# ---------------------------------------------------------------------------
# ground-truth oracle


def _norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _conjugated(u: np.ndarray, antilinear: bool, a: np.ndarray) -> np.ndarray:
    middle = a.conj() if antilinear else a
    return u @ middle @ u.conj().T


# The oracle's memoised quantities are functions of arrays and flags alone,
# each in a table of its own, so it never reads a result that the detector
# path computed.


@memoised(8)
def _commutant_margin(u: np.ndarray, antilinear: bool, a: np.ndarray) -> float:
    return _norm(_conjugated(u, antilinear, a) - a) / max(1.0, _norm(a))


@memoised(8)
def _s_commutant(u: np.ndarray, smat: np.ndarray) -> float:
    """``||RS - SR||_F / max(1, ||S||_F)`` for the unitary part R of a linear symmetry."""
    return _norm(u @ smat - smat @ u) / max(1.0, _norm(smat))


@memoised(8)
def _reversal_defect(u: np.ndarray, smat: np.ndarray) -> float:
    """``||U conj(S) U^dag - S^dag||_F`` for the unitary part U of a reversal."""
    return _norm(u @ smat.conj() @ u.conj().T - smat.conj().T)


@memoised(8)
def _derived_reversal(
    cp_u: np.ndarray, cp_antilinear: bool, cpt_u: np.ndarray, cpt_antilinear: bool
) -> tuple[np.ndarray, bool]:
    """The read-only unitary part and the antilinear flag of the reversal ``CP^-1 CPT`` the inputs imply."""
    # CP^-1's unitary part in C order, as a transform would store it, so that
    # the product gets the same operands and gives the same bytes
    cp_inverse = np.ascontiguousarray(cp_u.T if cp_antilinear else cp_u.conj().T)
    return frozen(cp_inverse @ (cpt_u.conj() if cp_antilinear else cpt_u)), cp_antilinear != cpt_antilinear


@memoised(4)
def _spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian part of h, read-only."""
    values, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
    if not np.all(np.isfinite(values)):
        raise ClassificationError("oracle spectrum is not finite: the Hermitian part overflows")
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


def _applied(g: SymmetryTransform, psi: np.ndarray) -> np.ndarray:
    vec = psi.conj() if g.antilinear else psi
    return g.unitary_part @ vec


# The no-conclusion cross-checks below insist on a Violation only when
# every deciding quantity clears its threshold by a factor of two, so
# that the oracle's independent arithmetic cannot disagree over rounding.
# For the same reason a Violation is accepted once the independent
# quantity is clearly nonzero (above tau_zero), not above tau_violation:
# a sound verdict can sit at the band edge, or come from weak breaking
# amplified by a long evolution time.


def _clearly_fixed(dev: float, tol: Tolerances) -> bool:
    return dev <= 0.5 * tol.tau_zero


def _clearly_moved(value: float, tol: Tolerances) -> bool:
    return value > 2.0 * tol.tau_violation


# A commutator this close to zero, relative to ||H||, is what rounding leaves
# of one that vanishes exactly; no evolution time may turn it into a proof.
_COMMUTATOR_FLOOR = 64.0 * float(np.finfo(float).eps)


def _weak_breaking_moves(margin: float, h: np.ndarray, dev_i: float, dev_f: float, time: float, tol: Tolerances) -> bool:
    """A commutant below tau_zero still accounts for a clear move of the deviation.

    With U = exp(-itH), R psi_f - psi_f = (R U R^-1 - U) R psi_i + U (R psi_i - psi_i)
    and ||exp(-itA) - exp(-itB)|| <= |t| ||A - B||, so the deviation moves by at
    most |t| ||R H R^-1 - H||_F. The factor two leaves room for rounding. A Violation
    moves it by more than tau_violation - tau_zero, so half of that is a clear move.
    """
    h_norm = _norm(h)
    commutator = margin * max(1.0, h_norm)
    move = abs(dev_f - dev_i)
    return (
        move > min(tol.tau_zero, 0.5 * (tol.tau_violation - tol.tau_zero))
        and commutator > _COMMUTATOR_FLOOR * h_norm
        and 2.0 * abs(time) * commutator >= move
    )


# Each oracle rule returns its truths and a note that is empty when the
# detector's outcome agrees with them.


def _unitary_curie_oracle(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
    r, h, psi_i = a["symmetry"], a["hamiltonian"], a["state"]
    truth = _commutant_margin(r.unitary_part, r.antilinear, h)
    # independent propagator: direct eigendecomposition instead of the
    # detector's Pade exponential
    values, vectors = _spectrum(h)
    time = float(a["time"])
    psi_f = vectors @ (np.exp(-1j * values * time) * (vectors.conj().T @ psi_i))
    dev_i = _norm(_applied(r, psi_i) - psi_i)
    dev_f = _norm(_applied(r, psi_f) - psi_f)
    truths = {"commutant_margin": truth, "initial_deviation": dev_i, "final_deviation": dev_f}
    if outcome == VIOLATION:
        sound = truth > tol.tau_zero or _weak_breaking_moves(truth, h, dev_i, dev_f, time, tol)
        return truths, "" if sound else "violation verdict but the symmetry commutes with H"
    mandated = (_clearly_fixed(dev_i, tol) and _clearly_moved(dev_f, tol)) or (
        _clearly_fixed(dev_f, tol) and _clearly_moved(dev_i, tol)
    )
    return truths, "no-conclusion verdict but a fixed state clearly moved" if mandated else ""


def _scattering_curie_oracle(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
    r, smat, v_in, v_out = a["symmetry"], a["smatrix"], a["state_in"], a["state_out"]
    truth = _s_commutant(r.unitary_part, smat)
    amplitude = abs(complex(np.vdot(v_out, smat @ v_in)))
    truths = {"commutant_margin": truth, "cross_amplitude": amplitude}
    if outcome == VIOLATION:
        return truths, "" if truth > tol.tau_zero else "violation verdict but S commutes with the symmetry"

    def parity(psi: np.ndarray) -> str:
        if _clearly_fixed(_norm(_applied(r, psi) - psi), tol):
            return "even"
        if _clearly_fixed(_norm(_applied(r, psi) + psi), tol):
            return "odd"
        return "mixed"

    opposite = {parity(v_in), parity(v_out)} == {"even", "odd"}
    mandated = opposite and _clearly_moved(amplitude, tol)
    return truths, "no-conclusion verdict but a cross-parity amplitude clearly survives" if mandated else ""


def _s_matrix_inference_oracle(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
    u, antilinear = a["symmetry"].unitary_part, a["symmetry"].antilinear
    h0_margin = _commutant_margin(u, antilinear, a["h0"])
    s_margin = _commutant_margin(u, antilinear, a["smatrix"])
    if h0_margin <= tol.tau_zero and s_margin > tol.tau_violation:
        expected = VIOLATION
    else:
        expected = NO_CONCLUSION
    truths = {"h0_margin": h0_margin, "smatrix_margin": s_margin}
    if "v" in a:
        truths["full_hamiltonian_margin"] = _commutant_margin(u, antilinear, a["h0"] + a["v"])
    return truths, "" if outcome == expected else f"rederived outcome {expected}, detector said {outcome}"


def _kabir_oracle(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
    t, smat, v_in, v_out = a["symmetry"], a["smatrix"], a["state_in"], a["state_out"]
    reversal_defect = _reversal_defect(t.unitary_part, smat)
    forward = complex(np.vdot(v_out, smat @ v_in))
    backward = complex(np.vdot(_applied(t, v_in), smat @ _applied(t, v_out)))
    asymmetry = abs(forward - backward)
    truths = {"reversal_defect": reversal_defect, "amplitude_asymmetry": asymmetry}
    if outcome == VIOLATION:
        sound = reversal_defect > tol.tau_zero
        return truths, "" if sound else "violation verdict but T conjugates S into its inverse"
    mandated = _clearly_moved(asymmetry, tol)
    return truths, "no-conclusion verdict but the amplitude pair clearly differs" if mandated else ""


def _cpt_link_oracle(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
    cpt, cp, h = a["cpt_symmetry"], a["cp_symmetry"], a["hamiltonian"]
    cpt_margin = _commutant_margin(cpt.unitary_part, cpt.antilinear, h)
    cp_margin = _commutant_margin(cp.unitary_part, cp.antilinear, h)
    # the reversal implied by the two inputs, checked directly
    reversal = _derived_reversal(cp.unitary_part, cp.antilinear, cpt.unitary_part, cpt.antilinear)
    t_margin = _commutant_margin(*reversal, h)
    truths = {"cpt_margin": cpt_margin, "cp_margin": cp_margin, "t_margin": t_margin}
    if outcome == VIOLATION:
        sound = cpt_margin <= tol.tau_zero and cp_margin > tol.tau_violation and t_margin > tol.tau_zero
        return truths, "" if sound else "violation verdict but the derived reversal commutes with H"
    mandated = (
        _clearly_fixed(cpt_margin, tol)
        and _clearly_moved(cp_margin, tol)
        and _clearly_moved(t_margin, tol)
    )
    return truths, "no-conclusion verdict but CPT clearly holds while CP fails" if mandated else ""


def _wigner_oracle(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
    t, h = a["symmetry"], a["hamiltonian"]
    truth = _commutant_margin(t.unitary_part, t.antilinear, h)
    effective_gap = tol.gap_tol if a.get("gap_tol") is None else float(a["gap_tol"])
    values, vectors = _spectrum(h)
    spread = float(values[-1] - values[0]) if values.size > 1 else 0.0
    # the nearer gap beside each level; an end level's missing one is a NaN pad,
    # which fmin passes over and which is within no limit
    gaps = np.diff(values, prepend=np.nan, append=np.nan)
    nearest = np.fmin(gaps[:-1], gaps[1:])
    simple = ~(nearest <= effective_gap * max(1.0, spread))
    truths = {"commutant_margin": truth, "non_degenerate_levels": float(np.count_nonzero(simple))}
    if outcome == VIOLATION:
        sound = truth > tol.tau_zero and bool(simple.any())
        return truths, "" if sound else "violation verdict but T commutes with H or no simple level exists"
    # tau_violation > tau_zero, so this limit is the wider one and keeps only simple levels
    confident_limit = effective_gap * (tol.tau_violation / tol.tau_zero) * max(1.0, spread)
    mandated = any(
        _clearly_moved(1.0 - abs(complex(np.vdot(_applied(t, vectors[:, k]), vectors[:, k]))), tol)
        for k in np.flatnonzero(~(nearest <= 2.0 * confident_limit))
    )
    return truths, "no-conclusion verdict but an isolated eigenray clearly moves" if mandated else ""


_Run = Callable[[dict, Tolerances], Verdict]
_Oracle = Callable[[dict, str, Tolerances], tuple[dict[str, float], str]]

# detector name -> (run, oracle); the request schema is scenario.DETECTORS
_RUN_ORACLE: dict[str, tuple[_Run, _Oracle]] = {
    "unitary_curie": (
        lambda a, tol: unitary_curie_check(a["hamiltonian"], a["symmetry"], a["state"], a["time"], tol=tol),
        _unitary_curie_oracle,
    ),
    "scattering_curie": (
        lambda a, tol: scattering_curie_check(a["smatrix"], a["symmetry"], a["state_in"], a["state_out"], tol=tol),
        _scattering_curie_oracle,
    ),
    "s_matrix_inference": (
        lambda a, tol: s_matrix_inference(
            invariance_margin(a["symmetry"], a["h0"]),
            invariance_margin(a["symmetry"], a["smatrix"]),
            label=a["symmetry"].label,
            tol=tol,
        ),
        _s_matrix_inference_oracle,
    ),
    "kabir": (
        lambda a, tol: kabir_check(a["smatrix"], a["symmetry"], a["state_in"], a["state_out"], tol=tol),
        _kabir_oracle,
    ),
    "cpt_link": (
        lambda a, tol: cpt_link_inference(
            invariance_margin(a["cpt_symmetry"], a["hamiltonian"]),
            invariance_margin(a["cp_symmetry"], a["hamiltonian"]),
            tol=tol,
        ),
        _cpt_link_oracle,
    ),
    "wigner": (
        lambda a, tol: wigner_principle_check(a["hamiltonian"], a["symmetry"], gap_tol=a.get("gap_tol"), tol=tol),
        _wigner_oracle,
    ),
}


def oracle_record(scenario: Scenario, request: Request, verdict: Verdict, tol: Tolerances) -> OracleRecord:
    """Recompute ground truth for one request and compare outcomes."""
    (_, oracle), args = _resolve(scenario, request)
    truths, note = oracle(args, verdict.outcome, tol)
    return OracleRecord(detector=request.detector, agreed=not note, truths=truths, note=note)


def oracle_compare(scenario: Scenario, report: Report, tolerances: Tolerances | None = None) -> tuple[OracleRecord, ...]:
    tol = tolerances if tolerances is not None else report.provenance.tolerances
    if len(report.records) != len(scenario.requests):
        raise ScenarioError("report does not match the scenario request list")
    return tuple(
        oracle_record(scenario, request, record.verdict, tol)
        for request, record in zip(scenario.requests, report.records)
    )


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
