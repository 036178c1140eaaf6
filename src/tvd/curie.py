"""Symmetry-of-effects detectors for unitary evolution and scattering.

The underlying logic: a symmetric cause cannot develop an asymmetric
effect under symmetric laws. If a state starts exactly on a symmetry
ray and evolves off it, the dynamics cannot commute with the symmetry.
The scattering variant compares definite-parity in and out states; a
non-vanishing amplitude between opposite parities rules out a commuting
S-matrix. Both checks apply to linear symmetries only; an antilinear
transform permutes in and out states and its fixed rays carry no such
constraint, so passing one here is a usage error.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ClassificationError
from .linalg import as_state_vector, mat_exp, norm_deviation, require_hermitian, require_normalized, require_unitary
from .symmetry import InvarianceMargin, SymmetryTransform, apply, commutant_inference, require_transform
from .verdict import REASON_BELOW_THRESHOLD, REASON_PREMISE_UNMET, Verdict, classify


def unitary_curie_check(
    h: np.ndarray,
    r: SymmetryTransform,
    psi_initial: np.ndarray,
    time: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Detect a broken symmetry from one evolved state.

    If ``R psi_i = psi_i`` while the evolved ``psi_f = exp(-itH) psi_i``
    has ``R psi_f != psi_f`` (or the mirror image of that), then
    ``[R, H] != 0``. The margin is the offending deviation norm.
    """
    require_transform(r, False, tol, f"unitary_curie_check requires a linear symmetry, got antilinear {r.label!r}")
    arr = require_hermitian(h, tol=tol.tau_zero, name="hamiltonian")
    psi_i = require_normalized(psi_initial, dim=arr.shape[0], tol=tol.tau_zero, name="psi_initial")
    overflow = f"final state at time {float(time):g} is not finite: the propagator exp(-itH) overflows"
    try:
        psi_f = mat_exp(arr, -1j * time) @ psi_i
    except ClassificationError as exc:
        raise ClassificationError(overflow) from exc
    if not np.all(np.isfinite(psi_f)):
        raise ClassificationError(overflow)
    # at long times (t*||H|| from about 1e11) scaling and squaring stays finite
    # but loses unitarity, collapsing to zero near 1e20: such a state proves nothing
    norm_dev = norm_deviation(psi_f)
    if norm_dev > tol.tau_violation:
        raise ClassificationError(
            f"final state at time {float(time):g} is not normalized (deviation {norm_dev:.3e}): "
            "the propagator exp(-itH) is not unitary"
        )

    dev_initial = float(np.linalg.norm(apply(r, psi_i) - psi_i))
    dev_final = float(np.linalg.norm(apply(r, psi_f) - psi_f))
    witness = {
        "initial_deviation": dev_initial,
        "final_deviation": dev_final,
        "time": float(time),
    }

    for armed, quantity, branch in (
        (dev_initial, "final_deviation", "initial-fixed-final-moved"),
        (dev_final, "initial_deviation", "final-fixed-initial-moved"),
    ):
        if armed <= tol.tau_zero:
            fields = {"branch": branch, "final_state": [complex(x) for x in psi_f]}
            band = {"note": "deviation falls in the hysteresis band"}
            verdict = classify(witness, quantity, r.label or "R", tol, violation=fields, band=band)
            if verdict.reason != REASON_BELOW_THRESHOLD:
                return verdict

    witness["note"] = "neither state is fixed by the symmetry, or both are"
    return Verdict.no_conclusion(REASON_PREMISE_UNMET, witness=witness)


def scattering_curie_check(
    s: np.ndarray,
    r: SymmetryTransform,
    psi_in: np.ndarray,
    psi_out: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Detect ``[R, S] != 0`` from one cross-parity amplitude.

    Needs an R-even state on one side and an R-odd state on the other
    (eigenphases +1 and -1). A transition amplitude above threshold
    between opposite parities is impossible for an R-commuting S.
    """
    require_transform(r, False, tol, f"scattering_curie_check requires a linear symmetry, got antilinear {r.label!r}")
    smat = require_unitary(s, tol=tol.tau_zero, name="smatrix")
    v_in = as_state_vector(psi_in, dim=smat.shape[0], name="psi_in")
    v_out = as_state_vector(psi_out, dim=smat.shape[0], name="psi_out")

    r_in, r_out = apply(r, v_in), apply(r, v_out)
    in_even = float(np.linalg.norm(r_in - v_in))
    in_odd = float(np.linalg.norm(r_in + v_in))
    out_even = float(np.linalg.norm(r_out - v_out))
    out_odd = float(np.linalg.norm(r_out + v_out))

    if in_even <= tol.tau_zero and out_odd <= tol.tau_zero:
        branch = "in-even-out-odd"
    elif in_odd <= tol.tau_zero and out_even <= tol.tau_zero:
        branch = "in-odd-out-even"
    else:
        return Verdict.no_conclusion(
            REASON_PREMISE_UNMET,
            witness={
                "note": "in and out states do not have opposite definite parity",
                "in_even_deviation": in_even,
                "in_odd_deviation": in_odd,
                "out_even_deviation": out_even,
                "out_odd_deviation": out_odd,
            },
        )

    amplitude = complex(np.vdot(v_out, smat @ v_in))
    witness = {"branch": branch, "amplitude": amplitude, "amplitude_magnitude": abs(amplitude)}
    band = {"note": "amplitude falls in the hysteresis band"}
    zero = {"note": "cross-parity amplitude is consistent with zero"}
    return classify(witness, "amplitude_magnitude", f"{r.label or 'R'} on S", tol, band=band, zero=zero)


def s_matrix_inference(
    r_h0_margin: InvarianceMargin,
    r_s_margin: InvarianceMargin,
    label: str = "R",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Push a scattering-level violation down to the full Hamiltonian.

    If R commutes with the free Hamiltonian but not with the S-matrix,
    the interacting dynamics cannot commute with R either.
    """
    notes = (
        "symmetry does not commute with the free Hamiltonian",
        "free dynamics symmetric while the S-matrix is not",
        "S-matrix margin falls in the hysteresis band",
        "S-matrix margin is consistent with zero",
    )
    keys = ("free_hamiltonian_margin", "smatrix_margin")
    return commutant_inference(r_h0_margin, r_s_margin, f"{label} on H", tol, keys, notes)
