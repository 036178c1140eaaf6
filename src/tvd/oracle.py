"""The oracle: one rule per detector that recomputes its ground truth.

Each rule uses direct matrix arithmetic (commutant norms, reversal defects,
``numpy.linalg`` spectra), never the detector code, so a bug in a detector
cannot hide in its own cross-check. The duplication is deliberate: this
module imports no detector module, and of ``symmetry`` only the transform type.
"""

from __future__ import annotations

import numpy as np

from .config import Tolerances
from .errors import ClassificationError, PremiseError
from .linalg import frozen, memoised
from .symmetry import SymmetryTransform
from .verdict import NO_CONCLUSION, VIOLATION


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


# Every rule assumes unitary symmetries and unit states. The runner has the
# oracle check both at the run's tau_zero, with the detectors' texts.


def check_unitary(g: SymmetryTransform, tol: Tolerances) -> None:
    dev = _norm(g.unitary_part.conj().T @ g.unitary_part - np.eye(g.dim))
    if not dev <= tol.tau_zero:
        raise ClassificationError(f"unitary_part of {g.label or 'transform'} is not unitary (deviation {dev:.3e})")


def check_normalized(psi: np.ndarray, tol: Tolerances) -> None:
    dev = abs(_norm(psi) - 1.0)
    if not dev <= tol.tau_zero:
        raise PremiseError(f"state is not normalized (deviation {dev:.3e})")


# The no-conclusion cross-checks below insist on a Violation only when
# every deciding quantity clears its threshold by a factor of two, so
# that the oracle's independent arithmetic cannot disagree over rounding.
# For the same reason a Violation is accepted once the independent
# commutator is clearly nonzero (above tau_zero), not above tau_violation:
# a sound verdict can sit at the band edge. A smaller commutator is
# accepted too when an effect the oracle recomputes proves it nonzero: a
# state moved by weak breaking over a long time, or, when tau_violation is
# below about twice tau_zero, a lower bound on the commutator that the
# effect implies (a certificate).


def _clearly_fixed(dev: float, tol: Tolerances) -> bool:
    return dev <= 0.5 * tol.tau_zero


def _clearly_moved(value: float, tol: Tolerances) -> bool:
    return value > 2.0 * tol.tau_violation


def _clear_effect(value: float, tol: Tolerances) -> bool:
    """Above half of tau_violation - tau_zero, the least effect a Violation promises, or above tau_zero."""
    return value > min(tol.tau_zero, 0.5 * (tol.tau_violation - tol.tau_zero))


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
        _clear_effect(move, tol)
        and commutator > _COMMUTATOR_FLOOR * h_norm
        and 2.0 * abs(time) * commutator >= move
    )


def _certified(margin: float, bound: float, a: np.ndarray) -> bool:
    """The commutator behind ``margin``, a commutant margin of ``a``, accounts for
    ``bound``, a lower bound on its spectral norm that a recomputed effect implies.

    The factor two leaves room for rounding, and neither may be rounding alone.
    """
    norm = _norm(a)
    commutator = margin * max(1.0, norm)
    floor = _COMMUTATOR_FLOOR * norm
    return bound > floor and commutator > floor and 2.0 * commutator >= bound


# Each oracle rule returns its truths and a note that is empty when the
# detector's outcome agrees with them.


def unitary_curie(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
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


def scattering_curie(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
    r, smat, v_in, v_out = a["symmetry"], a["smatrix"], a["state_in"], a["state_out"]
    truth = _s_commutant(r.unitary_part, smat)
    amplitude = abs(complex(np.vdot(v_out, smat @ v_in)))
    truths = {"commutant_margin": truth, "cross_amplitude": amplitude}
    # each state's distance from R's even (+1) and odd (-1) rays
    even_in, odd_in, even_out, odd_out = (
        _norm(_applied(r, psi) - sign * psi) for psi in (v_in, v_out) for sign in (1.0, -1.0)
    )
    if outcome == VIOLATION:
        # |<out, [R, S] in>| >= 2|a| - d_in - d_out for states d_in, d_out from opposite parities
        bound = 2.0 * amplitude - min(even_in + odd_out, odd_in + even_out)
        sound = truth > tol.tau_zero or (bound > tol.tau_violation - tol.tau_zero and _certified(truth, bound, smat))
        return truths, "" if sound else "violation verdict but S commutes with the symmetry"

    def parity(even: float, odd: float) -> str:
        return "even" if _clearly_fixed(even, tol) else "odd" if _clearly_fixed(odd, tol) else "mixed"

    opposite = {parity(even_in, odd_in), parity(even_out, odd_out)} == {"even", "odd"}
    mandated = opposite and _clearly_moved(amplitude, tol)
    return truths, "no-conclusion verdict but a cross-parity amplitude clearly survives" if mandated else ""


def s_matrix_inference(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
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


def kabir(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
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


def cpt_link(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
    cpt, cp, h = a["cpt_symmetry"], a["cp_symmetry"], a["hamiltonian"]
    cpt_margin = _commutant_margin(cpt.unitary_part, cpt.antilinear, h)
    cp_margin = _commutant_margin(cp.unitary_part, cp.antilinear, h)
    # the reversal implied by the two inputs, checked directly
    reversal = _derived_reversal(cp.unitary_part, cp.antilinear, cpt.unitary_part, cpt.antilinear)
    t_margin = _commutant_margin(*reversal, h)
    truths = {"cpt_margin": cpt_margin, "cp_margin": cp_margin, "t_margin": t_margin}
    if outcome == VIOLATION:
        # conjugation keeps norms, so t_margin >= cp_margin - cpt_margin
        bound = cp_margin - cpt_margin
        proven = t_margin > tol.tau_zero or (
            bound > tol.tau_violation - tol.tau_zero and _certified(t_margin, bound * max(1.0, _norm(h)), h)
        )
        sound = cpt_margin <= tol.tau_zero and cp_margin > tol.tau_violation and proven
        return truths, "" if sound else "violation verdict but the derived reversal commutes with H"
    mandated = (
        _clearly_fixed(cpt_margin, tol)
        and _clearly_moved(cp_margin, tol)
        and _clearly_moved(t_margin, tol)
    )
    return truths, "no-conclusion verdict but CPT clearly holds while CP fails" if mandated else ""


def wigner(a: dict, outcome: str, tol: Tolerances) -> tuple[dict[str, float], str]:
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

    def displacement(k: int) -> float:
        return 1.0 - abs(complex(np.vdot(_applied(t, vectors[:, k]), vectors[:, k])))

    def certifies(k: int) -> bool:
        # Davis-Kahan: T v is an eigenvector of T H T^-1, so a level displaced by
        # delta with gap g puts ||T H T^-1 - H||_2 at or above g sqrt(delta (2 - delta))
        delta = displacement(k)
        bound = float(nearest[k]) * np.sqrt(max(0.0, delta * (2.0 - delta)))
        return _clear_effect(delta, tol) and _certified(truth, bound, h)

    if outcome == VIOLATION:
        sound = bool(simple.any()) and (truth > tol.tau_zero or any(map(certifies, np.flatnonzero(simple))))
        return truths, "" if sound else "violation verdict but T commutes with H or no simple level exists"
    # tau_violation > tau_zero, so this limit is the wider one and keeps only simple levels
    confident_limit = effective_gap * (tol.tau_violation / tol.tau_zero) * max(1.0, spread)
    mandated = any(_clearly_moved(displacement(k), tol) for k in np.flatnonzero(~(nearest <= 2.0 * confident_limit)))
    return truths, "no-conclusion verdict but an isolated eigenray clearly moves" if mandated else ""
