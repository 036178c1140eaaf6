"""The one threshold ladder shared by the scalar detectors.

A deciding quantity above tau_violation is a Violation, above tau_zero it is
indeterminate, anything else is below threshold; a NaN or an infinity is a
PremiseError, never a Violation.
"""

import math
import sys

import numpy as np
import pytest

from tvd import (
    DEFAULT_TOLERANCES,
    NO_CONCLUSION,
    REASON_BELOW_THRESHOLD,
    REASON_INDETERMINATE,
    VIOLATION,
    ClassificationError,
    ConfigError,
    InvarianceMargin,
    PremiseError,
    SymmetryTransform,
    Tolerances,
    TvdError,
    Verdict,
    conjugation,
    cpt_link_inference,
    kabir_check,
    s_matrix_inference,
    scattering_curie_check,
)

TOL = DEFAULT_TOLERANCES
BIG = sys.float_info.max
E0 = [1.0, 0.0]
E1 = [0.0, 1.0]
PARITY = SymmetryTransform(np.diag([1.0, -1.0]).astype(complex), antilinear=False, label="P")


def rotation(v: float) -> np.ndarray:
    """A real rotation with <e1, S e0> = v and <e0, S e1> = -v, both exact."""
    c = math.sqrt(1.0 - v * v)
    return np.array([[c, -v], [v, c]], dtype=complex)


# Each driver runs one detector on inputs whose deciding quantity is exactly
# `value`. A non-finite quantity comes from states scaled to the float limit
# (the library takes unnormalized states for these two checks), where the
# amplitudes overflow to inf and then meet a zero or an opposite inf.


def scattering(value: float) -> Verdict:
    if math.isnan(value):
        # (S psi_in)[0] overflows to inf where psi_out is 0, and 0 * inf is nan
        r = math.sqrt(0.5)
        s = np.array([[r, r, 0], [r, -r, 0], [0, 0, 1]], dtype=complex)
        parity = SymmetryTransform(np.diag([1.0, 1.0, -1.0]).astype(complex), antilinear=False, label="P")
        return scattering_curie_check(s, parity, [BIG, BIG, 0], [0, 0, 1])
    if math.isinf(value):
        return scattering_curie_check(rotation(1.0), PARITY, [BIG, 0], [0, BIG])
    return scattering_curie_check(rotation(value), PARITY, E0, E1)


def kabir(value: float) -> Verdict:
    if math.isnan(value):
        # symmetric S: forward and reversed amplitudes both overflow to +inf
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        return kabir_check(swap, conjugation(2), [BIG, 0], [0, BIG])
    if math.isinf(value):
        return kabir_check(rotation(1.0), conjugation(2), [BIG, 0], [0, BIG])
    return kabir_check(rotation(value / 2), conjugation(2), E0, E1)


def s_matrix(value: float) -> Verdict:
    return s_matrix_inference(InvarianceMargin(0.0), InvarianceMargin(value))


def cpt_link(value: float) -> Verdict:
    return cpt_link_inference(InvarianceMargin(0.0), InvarianceMargin(value))


DETECTORS = {
    "scattering_curie": (scattering, "amplitude_magnitude"),
    "kabir": (kabir, "asymmetry"),
    "s_matrix_inference": (s_matrix, "smatrix_margin"),
    "cpt_link": (cpt_link, "cp_margin"),
}

EDGES = [
    ("zero", 0.0, REASON_BELOW_THRESHOLD),
    ("tau_zero", TOL.tau_zero, REASON_BELOW_THRESHOLD),
    ("above_tau_zero", math.nextafter(TOL.tau_zero, math.inf), REASON_INDETERMINATE),
    ("tau_violation", TOL.tau_violation, REASON_INDETERMINATE),
    ("above_tau_violation", math.nextafter(TOL.tau_violation, math.inf), VIOLATION),
    ("nan", math.nan, PremiseError),
    ("inf", math.inf, PremiseError),
]


@pytest.mark.parametrize("name", list(DETECTORS))
@pytest.mark.parametrize("value, expected", [edge[1:] for edge in EDGES], ids=[edge[0] for edge in EDGES])
def test_ladder_edges(name, value, expected):
    drive, quantity = DETECTORS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        if expected is PremiseError:
            with pytest.raises(PremiseError, match=f"^{quantity} is not finite \\({value}\\)$"):
                drive(value)
            return
        verdict = drive(value)
    assert verdict.margin == value
    assert verdict.witness[quantity] == value
    if expected == VIOLATION:
        assert (verdict.outcome, verdict.reason) == (VIOLATION, "")
    else:
        assert (verdict.outcome, verdict.reason) == (NO_CONCLUSION, expected)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_premise_margin_is_a_premise_error(value):
    premise = InvarianceMargin(value)
    deciding = InvarianceMargin(0.5)
    with pytest.raises(PremiseError, match="^free_hamiltonian_margin is not finite"):
        s_matrix_inference(premise, deciding)
    with pytest.raises(PremiseError, match="^cpt_margin is not finite"):
        cpt_link_inference(premise, deciding)
    # an unmet premise still reports the deciding margin, so it must be finite too
    unmet = InvarianceMargin(0.5)
    with pytest.raises(PremiseError, match="^cp_margin is not finite"):
        cpt_link_inference(unmet, premise)


@pytest.mark.parametrize(
    "symmetry, margin, witness, match",
    [
        ("T", math.nan, {"note": "x"}, "finite margin"),
        ("T", math.inf, {"note": "x"}, "finite margin"),
        ("T", 1.0, {}, "non-empty witness"),
        ("", 1.0, {"note": "x"}, "symmetry label"),
    ],
    ids=["nan", "inf", "empty_witness", "empty_label"],
)
def test_violation_requires_a_finite_margin(symmetry, margin, witness, match):
    with pytest.raises(TvdError, match=match):
        Verdict.violation(symmetry, margin, witness)


def test_no_conclusion_requires_a_known_reason():
    with pytest.raises(TvdError, match="^unknown reason code 'violation'$"):
        Verdict.no_conclusion("violation")


def test_overflowing_unitarity_check_is_not_a_pass():
    # S^dag S overflows to inf - inf, so the deviation is NaN; that proves nothing
    s = np.array([[BIG, BIG], [BIG, -BIG]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ClassificationError, match="smatrix is not unitary"):
            scattering_curie_check(s, PARITY, E0, E1)


@pytest.mark.parametrize("field", ["tau_zero", "tau_violation", "tau_eig", "gap_tol"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0, -1, True])
def test_each_tolerance_must_be_a_positive_finite_number(field, value):
    # an infinite tau_violation would make every Violation unreachable
    with pytest.raises(ConfigError, match=f"^{field} "):
        Tolerances(**{field: value})
