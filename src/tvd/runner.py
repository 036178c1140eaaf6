"""Execute scenario requests and cross-check verdicts against oracles.

The oracle path recomputes ground truth for each request with direct
matrix arithmetic (norms of commutants, reversal defects, spectra via
``numpy.linalg``) rather than going through the detector code, so a bug
in a detector cannot hide in its own cross-check.
"""

from __future__ import annotations

import numpy as np

from .config import Tolerances
from .curie import s_matrix_inference, scattering_curie_check, unitary_curie_check
from .errors import ScenarioError
from .kabir import kabir_check
from .linalg import _content_key, _Memo
from .scenario import (
    OracleRecord,
    Provenance,
    Report,
    Request,
    Scenario,
    VerdictRecord,
)
from .symmetry import (
    SymmetryTransform,
    compose,
    cpt_link_inference,
    inverse,
    invariance_margin,
)
from .verdict import NO_CONCLUSION, VIOLATION, Verdict
from .wigner import wigner_principle_check


def run_request(scenario: Scenario, request: Request, tol: Tolerances) -> Verdict:
    m = scenario.matrices
    g = scenario.symmetries
    s = scenario.states
    p = request.params
    if request.detector == "unitary_curie":
        return unitary_curie_check(m["hamiltonian"], g[p["symmetry"]], s[p["state"]], p["time"], tol=tol)
    if request.detector == "scattering_curie":
        return scattering_curie_check(m["smatrix"], g[p["symmetry"]], s[p["state_in"]], s[p["state_out"]], tol=tol)
    if request.detector == "s_matrix_inference":
        r = g[p["symmetry"]]
        return s_matrix_inference(
            invariance_margin(r, m["h0"]),
            invariance_margin(r, m["smatrix"]),
            label=r.label,
            tol=tol,
        )
    if request.detector == "kabir":
        return kabir_check(m["smatrix"], g[p["symmetry"]], s[p["state_in"]], s[p["state_out"]], tol=tol)
    if request.detector == "cpt_link":
        return cpt_link_inference(
            invariance_margin(g[p["cpt_symmetry"]], m["hamiltonian"]),
            invariance_margin(g[p["cp_symmetry"]], m["hamiltonian"]),
            tol=tol,
        )
    if request.detector == "wigner":
        gap_tol = p.get("gap_tol")
        return wigner_principle_check(m["hamiltonian"], g[p["symmetry"]], gap_tol=gap_tol, tol=tol)
    raise ScenarioError(f"unknown detector {request.detector!r}")


def run_scenario(
    scenario: Scenario,
    tolerances: Tolerances | None = None,
    seed: int | None = None,
) -> Report:
    tol = tolerances if tolerances is not None else scenario.effective_tolerances()
    records = []
    for i, request in enumerate(scenario.requests):
        try:
            verdict = run_request(scenario, request, tol)
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(str(exc), f"requests[{i}]") from exc
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


def _conjugated(g: SymmetryTransform, a: np.ndarray) -> np.ndarray:
    u = g.unitary_part
    middle = a.conj() if g.antilinear else a
    return u @ middle @ u.conj().T


# The oracle memoises in tables of its own, so it never reads a result
# that the detector path computed.
_ORACLE_SPECTRA = _Memo(4)
_ORACLE_MARGINS = _Memo(8)
_ORACLE_REVERSALS = _Memo(8)


def _commutant_margin(g: SymmetryTransform, a: np.ndarray) -> float:
    return _ORACLE_MARGINS(
        _content_key(g.unitary_part, g.antilinear, a),
        lambda: _norm(_conjugated(g, a) - a) / max(1.0, _norm(a)),
    )


def _derived_reversal(cp: SymmetryTransform, cpt: SymmetryTransform) -> SymmetryTransform:
    """The reversal ``CP^-1 CPT`` that the two inputs imply."""
    return _ORACLE_REVERSALS(
        _content_key(cp.unitary_part, cp.antilinear, cpt.unitary_part, cpt.antilinear),
        lambda: compose(inverse(cp), cpt, label="T"),
    )


def _spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian part of h, read-only."""

    def compute() -> tuple[np.ndarray, np.ndarray]:
        values, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return values, vectors

    return _ORACLE_SPECTRA(_content_key(h), compute)


def _greedy_clusters(values: np.ndarray, gap_tol: float) -> list[int]:
    spread = float(values[-1] - values[0]) if values.size > 1 else 0.0
    limit = gap_tol * max(1.0, spread)
    sizes = []
    count = 1
    for k in range(1, values.size):
        if values[k] - values[k - 1] <= limit:
            count += 1
        else:
            sizes.append(count)
            count = 1
    sizes.append(count)
    return sizes


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
    most |t| ||R H R^-1 - H||_F. The factor two leaves room for rounding.
    """
    h_norm = _norm(h)
    commutator = margin * max(1.0, h_norm)
    move = abs(dev_f - dev_i)
    return (
        move > tol.tau_zero
        and commutator > _COMMUTATOR_FLOOR * h_norm
        and 2.0 * abs(time) * commutator >= move
    )


def _wigner_mandated(
    t: SymmetryTransform,
    values: np.ndarray,
    vectors: np.ndarray,
    sizes: list[int],
    effective_gap: float,
    tol: Tolerances,
) -> bool:
    """Some simple eigenray is clearly displaced and clearly isolated."""
    spread = float(values[-1] - values[0]) if values.size > 1 else 0.0
    confident_limit = effective_gap * (tol.tau_violation / tol.tau_zero) * max(1.0, spread)
    bounds = []
    start = 0
    for size in sizes:
        bounds.append((start, start + size))
        start += size
    for k, (lo, hi) in enumerate(bounds):
        if hi - lo != 1:
            continue
        if k > 0 and values[lo] - values[bounds[k - 1][1] - 1] <= 2.0 * confident_limit:
            continue
        if k < len(bounds) - 1 and values[bounds[k + 1][0]] - values[lo] <= 2.0 * confident_limit:
            continue
        psi = vectors[:, lo]
        displacement = max(0.0, 1.0 - abs(complex(np.vdot(_applied(t, psi), psi))))
        if _clearly_moved(displacement, tol):
            return True
    return False


def oracle_record(scenario: Scenario, request: Request, verdict: Verdict, tol: Tolerances) -> OracleRecord:
    """Recompute ground truth for one request and compare outcomes."""
    m = scenario.matrices
    g = scenario.symmetries
    p = request.params
    detector = request.detector

    if detector == "unitary_curie":
        r = g[p["symmetry"]]
        h = m["hamiltonian"]
        truth = _commutant_margin(r, h)
        # independent propagator: direct eigendecomposition instead of the
        # detector's Pade exponential
        values, vectors = _spectrum(h)
        time = float(p["time"])
        psi_i = scenario.states[p["state"]]
        psi_f = vectors @ (np.exp(-1j * values * time) * (vectors.conj().T @ psi_i))
        dev_i = _norm(_applied(r, psi_i) - psi_i)
        dev_f = _norm(_applied(r, psi_f) - psi_f)
        truths = {"commutant_margin": truth, "initial_deviation": dev_i, "final_deviation": dev_f}
        if verdict.outcome == VIOLATION:
            agreed = truth > tol.tau_zero or _weak_breaking_moves(truth, h, dev_i, dev_f, time, tol)
            note = "" if agreed else "violation verdict but the symmetry commutes with H"
        else:
            mandated = (_clearly_fixed(dev_i, tol) and _clearly_moved(dev_f, tol)) or (
                _clearly_fixed(dev_f, tol) and _clearly_moved(dev_i, tol)
            )
            agreed = not mandated
            note = "" if agreed else "no-conclusion verdict but a fixed state clearly moved"
        return OracleRecord(detector=detector, agreed=agreed, truths=truths, note=note)

    if detector == "scattering_curie":
        r = g[p["symmetry"]]
        smat = m["smatrix"]
        truth = _norm(r.unitary_part @ smat - smat @ r.unitary_part) / max(1.0, _norm(smat))
        v_in = scenario.states[p["state_in"]]
        v_out = scenario.states[p["state_out"]]
        amplitude = abs(complex(np.vdot(v_out, smat @ v_in)))
        truths = {"commutant_margin": truth, "cross_amplitude": amplitude}
        if verdict.outcome == VIOLATION:
            agreed = truth > tol.tau_zero
            note = "" if agreed else "violation verdict but S commutes with the symmetry"
        else:
            def parity(psi: np.ndarray) -> str:
                if _clearly_fixed(_norm(_applied(r, psi) - psi), tol):
                    return "even"
                if _clearly_fixed(_norm(_applied(r, psi) + psi), tol):
                    return "odd"
                return "mixed"

            opposite = {parity(v_in), parity(v_out)} == {"even", "odd"}
            mandated = opposite and _clearly_moved(amplitude, tol)
            agreed = not mandated
            note = "" if agreed else "no-conclusion verdict but a cross-parity amplitude clearly survives"
        return OracleRecord(detector=detector, agreed=agreed, truths=truths, note=note)

    if detector == "s_matrix_inference":
        r = g[p["symmetry"]]
        h0_margin = _commutant_margin(r, m["h0"])
        s_margin = _commutant_margin(r, m["smatrix"])
        if h0_margin <= tol.tau_zero and s_margin > tol.tau_violation:
            expected = VIOLATION
        else:
            expected = NO_CONCLUSION
        truths = {"h0_margin": h0_margin, "smatrix_margin": s_margin}
        if "v" in m:
            truths["full_hamiltonian_margin"] = _commutant_margin(r, m["h0"] + m["v"])
        agreed = verdict.outcome == expected
        note = "" if agreed else f"rederived outcome {expected}, detector said {verdict.outcome}"
        return OracleRecord(detector=detector, agreed=agreed, truths=truths, note=note)

    if detector == "kabir":
        t = g[p["symmetry"]]
        smat = m["smatrix"]
        u = t.unitary_part
        reversal_defect = _norm(u @ smat.conj() @ u.conj().T - smat.conj().T)
        v_in = scenario.states[p["state_in"]]
        v_out = scenario.states[p["state_out"]]
        forward = complex(np.vdot(v_out, smat @ v_in))
        backward = complex(np.vdot(_applied(t, v_in), smat @ _applied(t, v_out)))
        asymmetry = abs(forward - backward)
        truths = {"reversal_defect": reversal_defect, "amplitude_asymmetry": asymmetry}
        if verdict.outcome == VIOLATION:
            agreed = reversal_defect > tol.tau_zero
            note = "" if agreed else "violation verdict but T conjugates S into its inverse"
        else:
            agreed = not _clearly_moved(asymmetry, tol)
            note = "" if agreed else "no-conclusion verdict but the amplitude pair clearly differs"
        return OracleRecord(detector=detector, agreed=agreed, truths=truths, note=note)

    if detector == "cpt_link":
        cpt = g[p["cpt_symmetry"]]
        cp = g[p["cp_symmetry"]]
        h = m["hamiltonian"]
        cpt_margin = _commutant_margin(cpt, h)
        cp_margin = _commutant_margin(cp, h)
        # the reversal implied by the two inputs, checked directly
        t_margin = _commutant_margin(_derived_reversal(cp, cpt), h)
        truths = {"cpt_margin": cpt_margin, "cp_margin": cp_margin, "t_margin": t_margin}
        if verdict.outcome == VIOLATION:
            agreed = cpt_margin <= tol.tau_zero and cp_margin > tol.tau_violation and t_margin > tol.tau_zero
            note = "" if agreed else "violation verdict but the derived reversal commutes with H"
        else:
            mandated = (
                _clearly_fixed(cpt_margin, tol)
                and _clearly_moved(cp_margin, tol)
                and _clearly_moved(t_margin, tol)
            )
            agreed = not mandated
            note = "" if agreed else "no-conclusion verdict but CPT clearly holds while CP fails"
        return OracleRecord(detector=detector, agreed=agreed, truths=truths, note=note)

    if detector == "wigner":
        t = g[p["symmetry"]]
        h = m["hamiltonian"]
        truth = _commutant_margin(t, h)
        effective_gap = tol.gap_tol if p.get("gap_tol") is None else float(p["gap_tol"])
        values, vectors = _spectrum(h)
        sizes = _greedy_clusters(values, effective_gap)
        truths = {"commutant_margin": truth, "non_degenerate_levels": float(sizes.count(1))}
        if verdict.outcome == VIOLATION:
            agreed = truth > tol.tau_zero and 1 in sizes
            note = "" if agreed else "violation verdict but T commutes with H or no simple level exists"
        else:
            agreed = not _wigner_mandated(t, values, vectors, sizes, effective_gap, tol)
            note = "" if agreed else "no-conclusion verdict but an isolated eigenray clearly moves"
        return OracleRecord(detector=detector, agreed=agreed, truths=truths, note=note)

    raise ScenarioError(f"unknown detector {detector!r}")


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
